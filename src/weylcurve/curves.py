"""Evaluator interface for contractive Weyl functions B(lambda).

A CurveProvider packages the analytic map lambda -> B(lambda) (an n x n
strict contraction on the upper half-plane), its derivative (exact when
available, otherwise a fourth-order complex stencil), the Cayley-transformed
Weyl function M(lambda), curvature/Chern data, reproducing-kernel blocks,
and the group actions (SL(2,R) reparameterization, U(n,n) congruence).
"""

from __future__ import annotations

import math
import warnings
import weakref
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

    Optional capabilities: speed_fn(us) maps a 1-D float array of real u to
    the array of the exact phase speed at each of them, and element k must
    not depend on the rest of the array; without it the speed is the trace
    formula at each u.  many_fn(lams) maps a 1-D complex array of K lambdas
    to the (K, n, n) stack of B at each of them, under the same branch rules
    as B, and element k must equal B(lams[k]); B_many falls back to one B
    call per lambda without it; exponential() supplies it together with its
    exact speed, 1 everywhere.  prefetch_fn(lams) readies the work that B and
    frame will need at each lambda of a 1-D complex array, in one batch:
    without many_fn, B_many and frame_many call it once with the whole
    array and then B or frame once per lambda, which then read what it
    stored; the Sturm-Liouville provider solves every lambda of the array
    in one fundamental_many call.  section_fn(point, lams) is the Schubert
    section against the provider's frame, in a cancellation-safe form: it
    maps a 1-D complex array of lambdas to three arrays, the section F, its
    Hadamard scale (the noise ambient F should be compared to) and
    ln |F| / vol(frame), -inf at zeros; without it spectral.sections reads
    the section off frame_many.
    phase_path holds the real-axis phase of det B shared by the spectral
    and value-distribution layers; its march reads the speeds of a block of
    knots from one phase_speeds call.
    """

    def __init__(self, n, domain, eval_fn, deriv_fn=None, frame_fn=None,
                 provenance=None, h0=DEFAULT_H0, allow_real=False,
                 speed_fn=None, many_fn=None, prefetch_fn=None, section_fn=None):
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
        self.provenance = provenance or {"kind": "custom", "params": {}}
        self.h0 = float(h0)
        self.allow_real = bool(allow_real)
        self.derivative_kind = "exact" if deriv_fn is not None else "stencil"
        self.phase_path = PhasePath(self)

    def phase_speed(self, u: float) -> float:
        """d/du arg det B(u) = trace(-i B^{-1} B') at a regular real point:
        the one-point call of phase_speeds."""
        return float(self.phase_speeds(np.array([float(u)]))[0])

    def phase_speeds(self, us) -> np.ndarray:
        """The phase speed at every u of a 1-D real array: one speed_fn call,
        or without it the trace formula at each u."""
        us = np.asarray(us, dtype=float)
        if self.speed_fn is not None:
            speeds = np.asarray(self.speed_fn(us), dtype=float)
            if speeds.shape != us.shape:
                raise ValidationError("speed_fn must map a 1-D array of u to the "
                                      "array of the speeds there")
            return speeds
        return np.array([np.trace(-1j * np.linalg.solve(self.B(u), self.dB(u))).real
                         for u in us.tolist()])

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
_BLOCK_MAX = 1024


def _step_cap(u: float) -> float:
    """Largest admissible step through a quiet (low phase speed) region.

    On the positive axis eigenvalue sweeps recur on the sqrt(u) gap scale,
    so quiet-region steps must stay below it; below the spectrum the phase
    is monotone and nearly flat and larger jumps are safe.
    """
    if u < 0:
        return 0.25 * (1.0 + abs(u))
    return max(1.0, 0.6 * math.sqrt(1.0 + u))


def _step_caps(us: np.ndarray) -> np.ndarray:
    """_step_cap at every u of an array, with the same bits."""
    a = 1.0 + np.abs(us)
    return np.where(us < 0, 0.25 * a, np.maximum(1.0, 0.6 * np.sqrt(a)))


def _positions(u, step, H, sign, end, land, block):
    """u and the positions of a block of knots after it, and the step caps at
    all but the last: a first step, then steps of min(H, the cap at their
    left knot), up to `block` positions, the last one the first at or past
    end (exactly end if `land` is set).

    Where every cap is at least H the positions after the first are H apart,
    and one accumulate makes the float additions of the loop; where a cap
    falls below H (near 0) the positions are taken one at a time.
    """
    if block > 1:
        ys = np.full(block + 1, sign * H)
        ys[:2] = u, sign * step
        ys = np.add.accumulate(ys)
        past = sign * (end - ys[1:]) <= 0
        if past.any():
            ys = ys[:past.argmax() + 2]
            if land:
                ys[-1] = end
        caps = _step_caps(ys[1:-1])
        if (caps >= H).all():
            return ys, caps
    ys, caps, x = [u], [], u
    while True:
        x = x + sign * step
        if land and sign * (x - end) >= 0:
            x = end
        ys.append(x)
        if len(ys) > block or sign * (end - x) <= 0:
            break
        caps.append(_step_cap(x))
        step = min(H, caps[-1])
    return np.array(ys), np.array(caps)


def _tip(piece, k=-1):
    """(u, det, phi, speed) of knot k, by default the last, of a piece
    (us, Bs, dets, phis, speeds)."""
    us, _, dets, phis, speeds = piece
    return float(us[k]), dets[k], float(phis[k]), float(speeds[k])


class PhasePath:
    """Unwrapped arg det B(u) along the real axis of an entire curve.

    Sorted knots keep u, B(u), det B(u), the phase and the exact phase speed,
    in the arrays us, Bs (K, n, n), dets, phis and speeds.  Every step
    between neighbouring knots is sized from the speed, lifted onto the
    branch nearest the trapezoid prediction of the two end speeds, rejected
    when the two disagree, and turns det B by at most STEP_CAP.  Once the
    path reaches 0, 0 is a knot and the phase there is the principal value
    of arg det B(0).  Points between knots are sampled exactly by `sample`;
    `phase` is the cubic Hermite spline on the knot speeds, for quadrature.

    The provider owns its path, and the path refers back to it weakly, so
    that the two are freed together without the cyclic garbage collector.
    """

    def __init__(self, c: CurveProvider):
        self._provider = weakref.ref(c)
        self.us, self.phis, self.speeds = np.empty(0), np.empty(0), np.empty(0)
        self.Bs, self.dets = np.empty((0, c.n, c.n), dtype=complex), np.empty(0, dtype=complex)
        self._spline = None

    @property
    def c(self) -> CurveProvider:
        c = self._provider()
        if c is None:
            raise ValidationError("the phase path outlived its curve provider")
        return c

    def _eval(self, us):
        """(B, det B, phase speed) at each u of a 1-D array, as arrays."""
        c = self.c
        Bs = c.B_many(us)
        dets = np.linalg.det(Bs)
        if (dets == 0).any():
            raise NumericalError("det B vanished on the real axis; provider not entire here")
        return Bs, dets, np.maximum(c.phase_speeds(us), 0.0)

    def _march(self, k, end, land=False):
        """The knots after k = (u, det, phi, speed) toward end, the last one
        at or past end, or exactly at end if `land` is set, as pieces
        (us, Bs, dets, phis, speeds) of arrays: the kept knots of each block.

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
        u, d, phi, s = k
        sign = 1.0 if end > u else -1.0
        hmin = 1e-12 * (1 + abs(end - u))
        pieces, h, block = [], None, 1
        while sign * (end - u) > 0:
            H = STEP_TARGET / max(s, 1e-12)
            step = min(H, _step_cap(u)) if h is None else h
            ys, caps = _positions(u, step, H, sign, end, land, block)
            xs = ys[1:]
            Bs, ds, ss = self._eval(xs)
            # the left knot of each step
            u0, s0, d0 = ys[:-1], np.concatenate(([s], ss[:-1])), np.concatenate(([d], ds[:-1]))
            predicted = sign * np.abs(xs - u0) * 0.5 * (s0 + ss)
            q = ds / d0
            apparent = np.arctan2(q.imag, q.real)
            steps = apparent + TWO_PI * np.rint((predicted - apparent) / TWO_PI)
            size = np.abs(predicted)
            bad = (np.maximum(np.abs(steps), size) > STEP_CAP) \
                | (np.abs(steps - predicted) > 0.4 * size + 0.2)
            # knots the rule at their left knot, on its own speed, puts elsewhere
            moved = np.zeros(len(xs), dtype=bool)
            if caps.size:
                ruled = xs[:-1] + sign * np.minimum(STEP_TARGET / np.maximum(ss[:-1], 1e-12), caps)
                if land:
                    ruled = np.where(sign * (ruled - end) >= 0, end, ruled)
                moved[1:] = ruled != xs[1:]
                bad |= moved
            n = int(bad.argmax()) if bad.any() else len(xs)
            if n:
                phis = np.cumsum(np.concatenate(([phi], steps[:n])))[1:]
                pieces.append((xs[:n], Bs[:n], ds[:n], phis, ss[:n]))
                u, d, phi, s = _tip(pieces[-1])
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
        return pieces

    def _grow(self, k, end, sign):
        """Pieces of knots after the knot k, in the direction sign, to past
        end, landing on 0 on the way."""
        if sign * (end - k[0]) <= 0:
            return []
        pieces = []
        if k[0] != 0.0 and k[0] * end <= 0:
            pieces = self._march(k, 0.0, land=True)
            k = _tip(pieces[-1])
        return pieces + self._march(k, end)

    def cover(self, a: float, b: float) -> None:
        """Grow the path over [a, b].

        A request farther from the path than its own length starts the path
        afresh, at the point of [a, b] nearest 0.
        """
        us = self.us
        if us.size and us[0] <= a and b <= us[-1]:
            return
        if not us.size or max(us[0] - b, a - us[-1]) > b - a:
            u0 = np.array([min(max(0.0, a), b)])
            Bs, ds, ss = self._eval(u0)
            path = (u0, Bs, ds, np.angle(ds), ss)
        else:
            path = (us, self.Bs, self.dets, self.phis, self.speeds)
        right = self._grow(_tip(path), b, 1.0)
        left = self._grow(_tip(path, 0), a, -1.0)
        if left:
            # marched leftward: concatenated, then reversed
            path = tuple(np.concatenate((np.concatenate(v)[::-1], w))
                         for v, w in zip(zip(*left), path))
        self.us, self.Bs, self.dets, self.phis, self.speeds = (
            np.concatenate(v) for v in zip(path, *right))
        self._spline = None
        i = np.searchsorted(self.us, 0.0)
        if i < len(self.us) and self.us[i] == 0.0:
            shift = TWO_PI * round((float(np.angle(self.dets[i])) - self.phis[i]) / TWO_PI)
            if shift:
                self.phis += shift

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
        us = self.us
        return us[np.searchsorted(us, a):np.searchsorted(us, b, side="right")]

    def sample(self, x: float):
        """(B(x), phase at x) at a covered x, lifted from the knot at or below it.

        x is sampled but not stored, so the knots do not depend on requests.
        """
        k = np.searchsorted(self.us, x, side="right") - 1
        if self.us[k] == x:
            return self.Bs[k], self.phis[k]
        B = self.c.B(x)
        return B, self.phis[k] + float(np.angle(np.linalg.det(B) / self.dets[k]))

    def samples(self, a: float, b: float):
        """(us, Bs, phis) on a covered [a, b]: a, the knots strictly inside, b,
        with Bs stacked (K, n, n)."""
        us = self.us
        i, j = np.searchsorted(us, a, side="right"), np.searchsorted(us, b)
        (Ba, pa), (Bb, pb) = self.sample(a), self.sample(b)
        return (np.concatenate(([a], us[i:j], [b])), np.concatenate(([Ba], self.Bs[i:j], [Bb])),
                np.concatenate(([pa], self.phis[i:j], [pb])))


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
    """The entire curve B(lambda) = e^{i lambda}, n = 1, with batched values,
    its exact phase speed, 1 everywhere, and its section in closed form."""

    def section(point, lams):
        # F = det[V | (1; B)] = v1 B - v2 with B = e^{i lam} at each lambda,
        # its scale |V| |(1; B)|, and ln |F| - ln vol(1; B); deep in the
        # lower half-plane (L = -Im lam > 300, |B| ~ e^L) the log norm is
        # taken in the log domain, so the frame volume does not overflow
        lam = np.asarray(lams, dtype=complex)
        v1, v2 = complex(point.frame[0, 0]), complex(point.frame[1, 0])
        L = -lam.imag
        deep = L > 300.0
        ln = np.empty(lam.shape)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            B = np.exp(1j * lam)
            F = v1 * B - v2
            scale = math.hypot(abs(v1), abs(v2)) * np.hypot(1.0, np.abs(B))
            ln[~deep] = np.log(np.abs(F[~deep])) - 0.5 * np.log1p(np.abs(B[~deep]) ** 2)
            Ld = L[deep]
            det_scaled = v1 * np.exp(1j * lam[deep].real) - v2 * np.exp(-Ld)
            ln[deep] = (Ld + np.log(np.abs(det_scaled))) \
                - (Ld + 0.5 * np.log1p(np.exp(-2.0 * Ld)))
        return F, scale, ln

    return CurveProvider(
        1, "entire",
        eval_fn=lambda lam: np.array([[np.exp(1j * lam)]]),
        deriv_fn=lambda lam: np.array([[1j * np.exp(1j * lam)]]),
        provenance={"kind": "builtin", "params": {"name": "exponential"}},
        speed_fn=lambda us: np.ones(len(us)), many_fn=lambda lams: np.exp(1j * lams)[:, None, None],
        section_fn=section)


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
    the batched values, the prefetch, the frame, the section and the exact
    phase speed of the base curve carry over composed with m.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (2, 2) or abs(np.linalg.det(g) - 1.0) > 1e-10:
        raise ValidationError("reparameterize needs g in SL(2, R)")
    a, b, cc, d = g[0, 0], g[0, 1], g[1, 0], g[1, 1]

    def m(lam):
        # lam is one lambda or an array of them (batched values, sections)
        den = -cc * lam + a
        if np.any(np.abs(den) < 1e-13 * (1 + np.abs(lam))):
            raise DomainError("Moebius reparameterization pole at this lambda")
        return (d * lam - b) / den

    def dv(lam):
        return c.dB(m(lam)) / (-cc * lam + a) ** 2

    def speed(us):
        return c.speed_fn(m(us)) / (-cc * us + a) ** 2

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
        section_fn=((lambda point, lams: c.section_fn(point, m(lams)))
                    if c.section_fn is not None else None))


def congruence(c: CurveProvider, g) -> CurveProvider:
    """Act on chart values by a U(n,n) Moebius transformation.

    The result keeps no frame, section or exact speed of c: those
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
