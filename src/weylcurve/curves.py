"""Evaluator interface for contractive Weyl functions B(lambda).

A CurveProvider packages the analytic map lambda -> B(lambda) (an n x n
strict contraction on the upper half-plane), its derivative (exact when
available, otherwise a fourth-order complex stencil), the Cayley-transformed
Weyl function M(lambda), curvature/Chern data, reproducing-kernel blocks,
and the group actions (SL(2,R) reparameterization, U(n,n) congruence).
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .symplectic import PseudoUnitary, cayley, mobius_pu

DEFAULT_H0 = 1e-5
COND_MAX = 1e12


class CurveProvider:
    """Immutable evaluator of a contractive Weyl curve.

    domain:
      - "entire": B extends holomorphically to all of C and is unitary at
        regular real points.
      - "upper_half_plane_pair": B given on the open upper half-plane; the
        lower branch is the reflection (B(conj lambda)*)^{-1}.  Real
        evaluation is allowed only when allow_real is set (boundary values
        of the upper branch, e.g. the constant curve).

    Optional capabilities: speed_fn(u) is the exact phase speed at real u;
    many_fn(lams) maps a 1-D complex array of K lambdas to the (K, n, n)
    stack of B at each of them, under the same branch rules as B, and
    element k must equal B(lams[k]); B_many falls back to one B call per
    lambda without it; exponential() supplies it together with its exact
    speed, 1 everywhere.  prefetch_fn(lams) readies the work that B and
    frame will need at each lambda of a 1-D complex array, in one batch:
    without many_fn, B_many and frame_many call it once with the whole
    array and then B or frame once per lambda, which then read what it
    stored; the Sturm-Liouville provider solves every lambda of the array
    in one fundamental_many call.  section_fn(point, lam) -> (F, scale) is a
    cancellation-safe form of the Schubert section at one lambda, and
    lognorm_fn(point, lams) maps an array of lambdas to the array of its
    log norms (-inf at zeros), both taken against the provider's frame.
    phase_path holds the real-axis phase of det B shared by the spectral
    and value-distribution layers.
    """

    def __init__(self, n, domain, eval_fn, deriv_fn=None, frame_fn=None,
                 provenance=None, h0=DEFAULT_H0, allow_real=False,
                 speed_fn=None, many_fn=None, prefetch_fn=None, section_fn=None,
                 lognorm_fn=None):
        if domain not in ("entire", "upper_half_plane_pair"):
            raise ValidationError(f"unknown provider domain {domain!r}")
        self.n = int(n)
        self.domain = domain
        self._eval_fn = eval_fn
        self._deriv_fn = deriv_fn
        self._frame_fn = frame_fn
        self.speed_fn = speed_fn
        self.many_fn = many_fn
        self.prefetch_fn = prefetch_fn
        self.section_fn = section_fn
        self.lognorm_fn = lognorm_fn
        self.provenance = provenance or {"kind": "custom", "params": {}}
        self.h0 = float(h0)
        self.allow_real = bool(allow_real)
        self.derivative_kind = "exact" if deriv_fn is not None else "stencil"
        self.phase_path = PhasePath(self)

    def phase_speed(self, u: float) -> float:
        """d/du arg det B(u) = trace(-i B^{-1} B') at a regular real point."""
        u = float(u)
        if self.speed_fn is not None:
            return float(self.speed_fn(u))
        B = self.B(u)
        return float(np.trace(-1j * np.linalg.solve(B, self.dB(u))).real)

    # -- evaluation ------------------------------------------------------

    def B(self, lam) -> np.ndarray:
        lam = complex(lam)
        if self.domain == "entire":
            return np.asarray(self._eval_fn(lam), dtype=complex)
        if lam.imag > 0:
            return np.asarray(self._eval_fn(lam), dtype=complex)
        if lam.imag == 0:
            if not self.allow_real:
                raise DomainError("real evaluation on a half-plane-only provider")
            return np.asarray(self._eval_fn(lam), dtype=complex)
        up = np.asarray(self._eval_fn(lam.conjugate()), dtype=complex)
        sv = np.linalg.svd(up, compute_uv=False)
        if sv.min() <= 1e-14 * max(sv.max(), 1e-300):
            raise DomainError("branch reflection hit a kernel point of B")
        return np.linalg.inv(up.conj().T)

    def B_many(self, lams) -> np.ndarray:
        """B at every lambda of a 1-D array, as a (K, n, n) stack."""
        lams = np.asarray(lams, dtype=complex)
        if self.many_fn is not None:
            return np.asarray(self.many_fn(lams), dtype=complex)
        self._prefetch(lams)
        return np.array([self.B(lam) for lam in lams], dtype=complex).reshape(-1, self.n, self.n)

    def _prefetch(self, lams) -> None:
        if self.prefetch_fn is not None:
            self.prefetch_fn(lams)

    def dB(self, lam) -> np.ndarray:
        lam = complex(lam)
        if self._deriv_fn is not None:
            if self.domain == "entire" or lam.imag > 0 or (lam.imag == 0 and self.allow_real):
                return np.asarray(self._deriv_fn(lam), dtype=complex)
            # derivative of the reflected branch G = (B(conj lam)*)^{-1}
            G = self.B(lam)
            dup = np.asarray(self._deriv_fn(lam.conjugate()), dtype=complex)
            return -G @ dup.conj().T @ G
        return self._stencil(lam)

    def _stencil(self, lam: complex) -> np.ndarray:
        # curves of interest oscillate on the sqrt(|lambda|) scale, so the
        # stencil step grows with the square root rather than |lambda|
        h = self.h0 * max(1.0, abs(lam)) ** 0.5
        if self.domain != "entire" and abs(lam.imag) <= 2.05 * h:
            # vertical stencil points would cross the real axis
            warnings.warn("derivative stencil degraded to second order near the real axis")
            return (self.B(lam + h) - self.B(lam - h)) / (2 * h)
        fp, fm = self.B(lam + h), self.B(lam - h)
        gp, gm = self.B(lam + 1j * h), self.B(lam - 1j * h)
        return ((fp - fm) - 1j * (gp - gm)) / (4 * h)

    def M(self, lam) -> np.ndarray:
        return cayley(self.B(lam), "to_M")

    def frame(self, lam) -> np.ndarray:
        """A holomorphic 2n x n frame of the curve at lambda.

        Default is the chart stack (I; B); backends may supply an entire
        frame that stays holomorphic through kernel points of B.
        """
        if self._frame_fn is not None:
            return np.asarray(self._frame_fn(complex(lam)), dtype=complex)
        return np.vstack([np.eye(self.n), self.B(lam)])

    def frame_many(self, lams) -> np.ndarray:
        """The frames at every lambda of a 1-D array, as a (K, 2n, n) stack:
        the chart stacks (I; B) from B_many, or, where the provider has its
        own frame, one prefetch of the array and one frame call per lambda."""
        if self._frame_fn is not None:
            self._prefetch(np.asarray(lams, dtype=complex))
            return np.array([self.frame(lam) for lam in lams]).reshape(-1, 2 * self.n, self.n)
        Bs = self.B_many(lams)
        return np.concatenate([np.broadcast_to(np.eye(self.n), Bs.shape), Bs], axis=1)

    def descriptor(self) -> dict:
        return dict(self.provenance)


# -- the real-axis phase path --------------------------------------------

TWO_PI = 2 * np.pi
# Steps are sized to turn det B by STEP_TARGET at the speed of their start
# and accepted up to STEP_CAP.  The cap is below pi, so the phase anywhere
# inside a step is the phase of its left knot plus the principal value of
# arg(det B(u) / det B(knot)), and the trapezoid prediction picks an
# unambiguous branch for the step itself.
STEP_TARGET = 2.2
STEP_CAP = 3.0
# most knots the march predicts ahead and evaluates in one B_many call
_BLOCK_MAX = 64


def _step_cap(u: float) -> float:
    """Largest admissible step through a quiet (low phase speed) region.

    On the positive axis eigenvalue sweeps recur on the sqrt(u) gap scale,
    so quiet-region steps must stay below it; below the spectrum the phase
    is monotone and nearly flat and larger jumps are safe.
    """
    if u < 0:
        return 0.25 * (1.0 + abs(u))
    return max(1.0, 0.6 * math.sqrt(1.0 + u))


class PhasePath:
    """Unwrapped arg det B(u) along the real axis of an entire curve.

    Sorted knots keep u, B(u), det B(u), the phase and the exact phase speed.
    Every step between neighbouring knots is sized from the speed, lifted
    onto the branch nearest the trapezoid prediction of the two end speeds,
    rejected when the two disagree, and turns det B by at most STEP_CAP.
    Once the path reaches 0, 0 is a knot and the phase there is the
    principal value of arg det B(0).  Points between knots are sampled
    exactly by `sample`; `phase` is the cubic Hermite spline on the knot
    speeds, for quadrature.
    """

    def __init__(self, c: CurveProvider):
        self.c = c
        self.us, self.Bs, self.dets, self.phis, self.speeds = [], [], [], [], []
        self._spline = None

    def _eval(self, us):
        """(B, det B, phase speed) at each u of a 1-D array, as arrays."""
        Bs = self.c.B_many(us)
        dets = np.linalg.det(Bs)
        if (dets == 0).any():
            raise NumericalError("det B vanished on the real axis; provider not entire here")
        speeds = np.array([max(float(self.c.phase_speed(u)), 0.0) for u in us])
        return Bs, dets, speeds

    def _march(self, k, end, land=False):
        """Knots after k = (u, B, det, phi, speed) toward end, the last one
        at or past end, or exactly at end if `land` is set.

        The next knot lies min(STEP_TARGET / speed, _step_cap) past the last
        one, and the step halves while the step rule rejects it.  A block of
        knots is predicted at the speed of its left knot and evaluated in one
        B_many call.  A predicted knot is kept only while every knot before
        it is kept, the rule at its left knot, on that knot's own speed, puts
        it exactly there, and its step passes, so the knots are bitwise those
        of a march one knot at a time.  The block doubles, up to _BLOCK_MAX,
        after a step whose two knots have the same speed, and drops to one
        knot otherwise.
        """
        u, _, d, phi, s = k
        sign = 1.0 if end > u else -1.0
        hmin = 1e-12 * (1 + abs(end - u))
        out, h, block = [], None, 1
        while sign * (end - u) > 0:
            # the block's positions and the caps at the left knots after the first
            H = STEP_TARGET / max(s, 1e-12)
            xs, caps, x = [], [], u
            step = min(H, _step_cap(u)) if h is None else h
            while True:
                x = x + sign * step
                if land and sign * (x - end) >= 0:
                    x = end
                xs.append(x)
                if len(xs) == block or sign * (end - x) <= 0:
                    break
                caps.append(_step_cap(x))
                step = min(H, caps[-1])
            Bs, ds, ss = self._eval(xs)
            # the left knot of each step
            u0, xs = np.array([u] + xs[:-1]), np.array(xs)
            s0, d0 = np.concatenate(([s], ss[:-1])), np.concatenate(([d], ds[:-1]))
            predicted = sign * np.abs(xs - u0) * 0.5 * (s0 + ss)
            q = ds / d0
            apparent = np.arctan2(q.imag, q.real)
            steps = apparent + TWO_PI * np.rint((predicted - apparent) / TWO_PI)
            size = np.abs(predicted)
            bad = (np.maximum(np.abs(steps), size) > STEP_CAP) \
                | (np.abs(steps - predicted) > 0.4 * size + 0.2)
            # knots the rule at their left knot, on its own speed, puts elsewhere
            moved = np.zeros(len(xs), dtype=bool)
            if caps:
                ruled = xs[:-1] + sign * np.minimum(STEP_TARGET / np.maximum(ss[:-1], 1e-12), caps)
                if land:
                    ruled = np.where(sign * (ruled - end) >= 0, end, ruled)
                moved[1:] = ruled != xs[1:]
                bad |= moved
            n = int(bad.argmax()) if bad.any() else len(xs)
            if n:
                phis = np.cumsum(np.concatenate(([phi], steps[:n])))[1:]
                out += zip(xs[:n].tolist(), Bs[:n], ds[:n], phis.tolist(), ss[:n].tolist())
                u, _, d, phi, s = out[-1]
            h = None
            if n == len(xs):
                # an unchanged speed predicts the following knots exactly
                block = min(2 * block, _BLOCK_MAX) if s == s0[-1] else 1
            else:
                block = 1
                if not moved[n]:
                    # the knot after the kept ones is where the rule puts it,
                    # and its step fails: halve that step
                    h = abs(xs[n] - u) / 2
                    if h < hmin:
                        raise NumericalError("phase-tracking step underflow")
        return out

    def _grow(self, knots, end, sign):
        """knots (ordered in the direction sign) extended past end, landing on 0."""
        u = knots[-1][0]
        if sign * (end - u) <= 0:
            return knots
        if u != 0.0 and u * end <= 0:
            knots = knots + self._march(knots[-1], 0.0, land=True)
        return knots + self._march(knots[-1], end)

    def cover(self, a: float, b: float) -> None:
        """Grow the path over [a, b].

        A request farther from the path than its own length starts the path
        afresh, at the point of [a, b] nearest 0.
        """
        us = self.us
        if us and us[0] <= a and b <= us[-1]:
            return
        if not us or max(us[0] - b, a - us[-1]) > b - a:
            u0 = min(max(0.0, a), b)
            (B0,), (d0,), (s0,) = self._eval([u0])
            knots = [(u0, B0, d0, float(np.angle(d0)), float(s0))]
        else:
            knots = list(zip(us, self.Bs, self.dets, self.phis, self.speeds))
        knots = self._grow(knots, b, 1.0)
        knots = self._grow(knots[::-1], a, -1.0)[::-1]
        self.us, self.Bs, self.dets, self.phis, self.speeds = (list(z) for z in zip(*knots))
        self._spline = None
        i = bisect.bisect_left(self.us, 0.0)
        if i < len(self.us) and self.us[i] == 0.0:
            shift = TWO_PI * round((float(np.angle(self.dets[i])) - self.phis[i]) / TWO_PI)
            if shift:
                self.phis = [phi + shift for phi in self.phis]

    def phase(self, u):
        """The phase at u (scalar or array) inside the path, by the spline:
        on each step the cubic through the end phases with the end speeds as
        slopes, in powers of the distance from the left knot."""
        if self._spline is None:
            x, y, dy = (np.asarray(v) for v in (self.us, self.phis, self.speeds))
            h = np.diff(x)
            slope = np.diff(y) / h
            t = (dy[:-1] + dy[1:] - 2 * slope) / h
            # the last knot's own piece, so that every knot is hit exactly
            self._spline = (x, np.arange(len(x), dtype=float), np.append(t / h, 0.0),
                            np.append((slope - dy[:-1]) / h - t, 0.0), dy, y)
        x, pieces, c3, c2, c1, c0 = self._spline
        # the piece of the last knot at or below u, the first piece below
        # x[0]; np.interp searches from the previous point's piece, so sorted
        # points, as quadrature nodes come, cost one step each
        i = np.interp(u, x, pieces).astype(np.intp)
        s = u - x[i]
        out = c3[i] * s
        out += c2[i]
        out *= s
        out += c1[i]
        out *= s
        out += c0[i]
        return out

    def knots(self, a: float, b: float) -> np.ndarray:
        """The knot positions inside [a, b]."""
        us = np.asarray(self.us)
        return us[(us >= a) & (us <= b)]

    def sample(self, x: float):
        """(B(x), phase at x) at a covered x, lifted from the knot at or below it.

        x is sampled but not stored, so the knots do not depend on requests.
        """
        k = bisect.bisect_right(self.us, x) - 1
        if self.us[k] == x:
            return self.Bs[k], self.phis[k]
        B = self.c.B(x)
        return B, self.phis[k] + float(np.angle(np.linalg.det(B) / self.dets[k]))

    def samples(self, a: float, b: float):
        """(us, Bs, phis) on a covered [a, b]: a, the knots strictly inside, b,
        with Bs stacked (K, n, n)."""
        us = self.us
        i, j = bisect.bisect_right(us, a), bisect.bisect_left(us, b)
        (Ba, pa), (Bb, pb) = self.sample(a), self.sample(b)
        return (np.array([a] + us[i:j] + [b]), np.array([Ba] + self.Bs[i:j] + [Bb]),
                np.array([pa] + self.phis[i:j] + [pb]))


# -- built-in curves -----------------------------------------------------


def constant(B0) -> CurveProvider:
    """The constant curve B == B0 (curvature identically I)."""
    B0 = np.asarray(B0, dtype=complex)
    if B0.ndim == 0:
        B0 = B0.reshape(1, 1)
    sv = np.linalg.svd(B0, compute_uv=False)
    if sv.max() >= 1.0:
        raise ValidationError("constant curve needs a strict contraction")
    n = B0.shape[0]
    return CurveProvider(
        n, "upper_half_plane_pair",
        eval_fn=lambda lam: B0.copy(),
        deriv_fn=lambda lam: np.zeros((n, n), dtype=complex),
        provenance={"kind": "builtin", "params": {"name": "constant",
                                                  "B0": _cser(B0)}},
        allow_real=True)


def shifted_identity(a: float = 1.0, n: int = 1) -> CurveProvider:
    """The curve of M(lambda) = (lambda + a i) I, a >= 0 (a = 0 is flat)."""
    if a < 0:
        raise ValidationError("shift a must be nonnegative")

    def ev(lam):
        return (lam + (a - 1) * 1j) / (lam + (a + 1) * 1j) * np.eye(n)

    def dv(lam):
        return 2j / (lam + (a + 1) * 1j) ** 2 * np.eye(n)

    return CurveProvider(
        n, "upper_half_plane_pair", eval_fn=ev, deriv_fn=dv,
        provenance={"kind": "builtin",
                    "params": {"name": "shifted_identity", "a": a, "n": n}})


def exponential() -> CurveProvider:
    """The entire curve B(lambda) = e^{i lambda}, n = 1, with batched values
    and its exact phase speed, 1 everywhere."""

    def lognorm(point, lams):
        # ln |det[V | (1; B)]| - ln vol(1; B) with B = e^{i lam} at each
        # lambda; deep in the lower half-plane (L = -Im lam > 300, |B| ~ e^L)
        # in the log domain, so the frame volume does not overflow
        lam = np.asarray(lams, dtype=complex)
        v1, v2 = complex(point.frame[0, 0]), complex(point.frame[1, 0])
        L = -lam.imag
        deep = L > 300.0
        out = np.empty(lam.shape)
        with np.errstate(divide="ignore"):
            B = np.exp(1j * lam[~deep])
            out[~deep] = np.log(np.abs(v1 * B - v2)) - 0.5 * np.log1p(np.abs(B) ** 2)
            Ld = L[deep]
            det_scaled = v1 * np.exp(1j * lam[deep].real) - v2 * np.exp(-Ld)
            out[deep] = (Ld + np.log(np.abs(det_scaled))) \
                - (Ld + 0.5 * np.log1p(np.exp(-2.0 * Ld)))
        return out

    return CurveProvider(
        1, "entire",
        eval_fn=lambda lam: np.array([[np.exp(1j * lam)]]),
        deriv_fn=lambda lam: np.array([[1j * np.exp(1j * lam)]]),
        provenance={"kind": "builtin", "params": {"name": "exponential"}},
        speed_fn=lambda u: 1.0, many_fn=lambda lams: np.exp(1j * lams)[:, None, None],
        lognorm_fn=lognorm)


def _cser(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


# -- curvature -----------------------------------------------------------


@dataclass(frozen=True)
class CurvatureResult:
    r: np.ndarray
    r_sym: np.ndarray
    chern: np.ndarray
    schwarz_pick_margin: float


def _chern_from_traces(r: np.ndarray) -> np.ndarray:
    """Coefficients c_1..c_n of det(t - r) = t^n - c1 t^{n-1} + c2 ... .

    Newton's identities on traces of powers (Faddeev-LeVerrier recursion).
    """
    n = r.shape[0]
    p = [np.trace(np.linalg.matrix_power(r, k)) for k in range(1, n + 1)]
    e = [1.0 + 0j]
    for k in range(1, n + 1):
        s = sum((-1) ** (j - 1) * e[k - j] * p[j - 1] for j in range(1, k + 1))
        e.append(s / k)
    return np.array([z.real for z in e[1:]])


def curvature(c: CurveProvider, lam) -> CurvatureResult:
    """Curvature r = I - 4 v^2 K^{-1} B'* Kt^{-1} B' at lambda in C_+."""
    lam = complex(lam)
    v = lam.imag
    if v <= 0:
        raise DomainError("curvature is defined on the open upper half-plane")
    B = c.B(lam)
    Bp = c.dB(lam)
    eye = np.eye(c.n)
    K = eye - B.conj().T @ B
    Kt = eye - B @ B.conj().T
    for name, mat in (("K", K), ("Kt", Kt)):
        cond = np.linalg.cond((mat + mat.conj().T) / 2)
        if not np.isfinite(cond) or cond > COND_MAX:
            raise NumericalError(f"{name} numerically singular (cond {cond:.2e}); ||B|| too close to 1")
    core = Bp.conj().T @ np.linalg.solve((Kt + Kt.conj().T) / 2, Bp)
    r = eye - 4 * v * v * np.linalg.solve((K + K.conj().T) / 2, core)
    # Hermitian square root of K for the metric symmetrization
    w, V = np.linalg.eigh((K + K.conj().T) / 2)
    if w.min() <= 0:
        raise NumericalError("K not positive definite; lambda too close to the boundary")
    Ks = (V * np.sqrt(w)) @ V.conj().T
    Ksi = (V / np.sqrt(w)) @ V.conj().T
    r_sym = Ks @ r @ Ksi
    r_sym = (r_sym + r_sym.conj().T) / 2
    margin = float(np.linalg.eigvalsh(r_sym).min())
    return CurvatureResult(r=r, r_sym=r_sym, chern=_chern_from_traces(r_sym),
                           schwarz_pick_margin=margin)


# -- reproducing-kernel blocks -------------------------------------------


@dataclass(frozen=True)
class KernelBlock:
    value: np.ndarray
    branch: str


def kernel_block(c: CurveProvider, lam, mu) -> KernelBlock:
    """Reproducing-kernel block K(lambda, mu), branch by half-plane signs."""
    lam, mu = complex(lam), complex(mu)
    if c.domain != "entire" and (lam.imag == 0 or mu.imag == 0):
        raise DomainError("kernel_block needs points off the real axis")
    diag_tol = 1e-6 * (1 + abs(lam))
    sl = lam.imag >= 0
    sm = mu.imag >= 0
    den = lam - mu.conjugate()
    if sl and sm:
        val = 1j * (np.eye(c.n) - c.B(lam) @ c.B(mu).conj().T) / den
        return KernelBlock(val, "pp")
    if not sl and not sm:
        val = -1j * (np.eye(c.n) - c.B(lam.conjugate()).conj().T
                     @ c.B(mu.conjugate())) / den
        return KernelBlock(val, "mm")
    if not sl and sm:
        if abs(den) < diag_tol:
            return KernelBlock(1j * c.dB(lam.conjugate()).conj().T, "diagonal_limit")
        val = 1j * (c.B(lam.conjugate()).conj().T - c.B(mu).conj().T) / den
        return KernelBlock(val, "pm")
    if abs(den) < diag_tol:
        return KernelBlock(-1j * c.dB(lam), "diagonal_limit")
    val = -1j * (c.B(lam) - c.B(mu.conjugate())) / den
    return KernelBlock(val, "mp")


def gram_min_eig(c: CurveProvider, points) -> float:
    """Smallest eigenvalue of the kernel Gram G_ij = <K(l_i,l_j) v_j, v_i>."""
    pts = [(complex(l), np.asarray(v, dtype=complex).ravel()) for l, v in points]
    m = len(pts)
    G = np.empty((m, m), dtype=complex)
    for i, (li, vi) in enumerate(pts):
        for j, (lj, vj) in enumerate(pts):
            G[i, j] = np.vdot(vi, kernel_block(c, li, lj).value @ vj)
    return float(np.linalg.eigvalsh((G + G.conj().T) / 2).min())


# -- group actions -------------------------------------------------------


def reparameterize(c: CurveProvider, g) -> CurveProvider:
    """Precompose with the inverse SL(2,R) Moebius action on lambda.

    With m(lambda) = (d lambda - b) / (a - c lambda) and m' = 1 / (a - c lambda)^2,
    the batched values, the prefetch, the frame, the section, its log norm
    and the exact phase speed of the base curve carry over composed with m.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (2, 2) or abs(np.linalg.det(g) - 1.0) > 1e-10:
        raise ValidationError("reparameterize needs g in SL(2, R)")
    a, b, cc, d = g[0, 0], g[0, 1], g[1, 0], g[1, 1]

    def m(lam):
        # lam is one lambda or an array of them (composed log norms)
        den = -cc * lam + a
        if np.any(np.abs(den) < 1e-13 * (1 + np.abs(lam))):
            raise DomainError("Moebius reparameterization pole at this lambda")
        return (d * lam - b) / den

    def dv(lam):
        return c.dB(m(lam)) / (-cc * lam + a) ** 2

    def composed(fn):
        return None if fn is None else lambda point, lam: fn(point, m(lam))

    def speed(u):
        return c.speed_fn(m(u)) / (-cc * u + a) ** 2

    return CurveProvider(
        c.n, c.domain, eval_fn=lambda lam: c.B(m(lam)),
        deriv_fn=dv if c.derivative_kind == "exact" else None,
        frame_fn=(lambda lam: c.frame(m(lam))) if c._frame_fn is not None else None,
        provenance={"kind": "transformed",
                    "params": {"base": c.descriptor(), "action": "sl2",
                               "g": [[float(x) for x in row] for row in g]}},
        h0=c.h0, allow_real=c.allow_real,
        speed_fn=speed if c.speed_fn is not None else None,
        many_fn=(lambda lams: c.B_many(m(lams))) if c.many_fn is not None else None,
        prefetch_fn=(lambda lams: c.prefetch_fn(m(lams))) if c.prefetch_fn is not None else None,
        section_fn=composed(c.section_fn), lognorm_fn=composed(c.lognorm_fn))


def congruence(c: CurveProvider, g) -> CurveProvider:
    """Act on chart values by a U(n,n) Moebius transformation.

    The result keeps no frame, section, log norm or exact speed of c: those
    belong to the base chart, and the transformed curve's frame is the chart
    stack (I; B_g) of its own values.  It keeps no batched values either:
    B_many calls B once per lambda, after the base curve's prefetch, since
    B_g(lambda) reads B(lambda).
    """
    if not isinstance(g, PseudoUnitary):
        g = PseudoUnitary(g)
    if g.n != c.n:
        raise ValidationError("congruence size mismatch")
    g11, g12, g21, g22 = g.blocks()

    def ev(lam):
        return mobius_pu(g, c.B(lam))

    def dv(lam):
        B = c.B(lam)
        Bp = c.dB(lam)
        den_inv = np.linalg.inv(g11 + g12 @ B)
        Bg = (g21 + g22 @ B) @ den_inv
        return (g22 - Bg @ g12) @ Bp @ den_inv

    return CurveProvider(
        c.n, c.domain, eval_fn=ev,
        deriv_fn=dv if c.derivative_kind == "exact" else None,
        provenance={"kind": "transformed",
                    "params": {"base": c.descriptor(), "action": "congruence"}},
        h0=c.h0, allow_real=c.allow_real, prefetch_fn=c.prefetch_fn)
