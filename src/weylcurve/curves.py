"""Evaluator interface for contractive Weyl functions B(lambda).

A CurveProvider packages the analytic map lambda -> B(lambda) (an n x n
strict contraction on the upper half-plane), its derivative (exact when
available, otherwise a fourth-order complex stencil), curvature/Chern data,
reproducing-kernel blocks, and the group actions (SL(2,R)
reparameterization, U(n,n) congruence).
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .symplectic import PseudoUnitary, mobius_pu

STENCIL_H0 = 1e-3  # the derivative stencil's step at |lambda| <= 1 (_stencil)
COND_MAX = 1e12
LAMBDA_MAX = 1e6  # the supported range of |lambda|: real-axis reads, radii, SL solves


class CurveProvider:
    """Immutable evaluator of a contractive Weyl curve.

    domain:
      - "entire": B extends holomorphically to all of C and is unitary at
        regular real points.
      - "upper_half_plane_pair": B given on the open upper half-plane; the
        lower branch is the reflection (B(conj lambda)*)^{-1}.  Real
        evaluation is allowed only when allow_real is set (boundary values
        of the upper branch, e.g. the constant curve).

    eval_fn(lam) is B at one lambda.  The other capabilities are optional,
    and all but deriv_fn map a 1-D array of K points to K results, result k
    depending on point k alone:
      - deriv_fn(lam): the exact B'; else dB is a fourth-order complex
        stencil of step STENCIL_H0 max(1, |lambda|)^(1/2).
      - many_fn(lams): the (K, n, n) stack of B under B's branch rules, as
        exponential() has it; else B_many calls B once per lambda.
      - prefetch_fn(lams): readies in one batch what B will read at each
        lambda (the Sturm-Liouville provider's one fundamental_many call);
        only B_many calls it, ahead of its B calls.
      - frame_fn(lams): the (K, 2n, n) stack of a holomorphic frame; else
        the frame is the chart stack (I; B).
      - speed_fn(us): the exact phase speed at each real u; else the trace
        formula at each u.
      - section_fn(point, lams): the arrays (F, Hadamard scale, ln |F| /
        vol(frame)) of the Schubert section in a cancellation-safe form;
        else spectral.sections applies symplectic.frame_sections to frame_many.
    phase_path holds the real-axis phase of det B shared by the spectral
    and value-distribution layers; each round of its cover reads the speeds
    and B at all of its new knots from one phase_speeds and one B_many
    call.
    """

    def __init__(self, n, domain, eval_fn, deriv_fn=None, frame_fn=None,
                 allow_real=False, speed_fn=None, many_fn=None, prefetch_fn=None, section_fn=None):
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
        self.allow_real = bool(allow_real)
        self.phase_path = PhasePath(self)

    def phase_speed(self, u: float) -> float:
        """d/du arg det B(u) = trace(-i B^{-1} B') at a regular real point:
        the one-point call of phase_speeds."""
        return float(self.phase_speeds(np.array([float(u)]))[0])

    def phase_speeds(self, us) -> np.ndarray:
        """The phase speed at every u of a 1-D real array: one speed_fn call,
        or without it the trace formula at each u, with B from one B_many
        call."""
        us = np.asarray(us, dtype=float)
        if self.speed_fn is not None:
            speeds = np.asarray(self.speed_fn(us), dtype=float)
            if speeds.shape != us.shape:
                raise ValidationError("speed_fn must map a 1-D array of u to the "
                                      "array of the speeds there")
            return speeds
        return np.array([np.trace(-1j * np.linalg.solve(B, self.dB(u))).real
                         for B, u in zip(self.B_many(us), us.tolist())])

    # -- evaluation ------------------------------------------------------

    def B(self, lam) -> np.ndarray:
        lam = complex(lam)
        if self.domain == "entire" or lam.imag > 0 or (lam.imag == 0 and self.allow_real):
            return np.asarray(self._eval_fn(lam), dtype=complex)
        if lam.imag == 0:
            raise DomainError("real evaluation on a half-plane-only provider")
        up = np.asarray(self._eval_fn(lam.conjugate()), dtype=complex)
        sv = np.linalg.svd(up, compute_uv=False)
        if sv.min() <= 1e-14 * max(sv.max(), 1e-300):
            raise DomainError("branch reflection hit a kernel point of B")
        return np.linalg.inv(up.conj().T)

    def B_many(self, lams) -> np.ndarray:
        """B at every lambda of a 1-D array, as a (K, n, n) stack: one many_fn
        call, or one prefetch_fn call and then one B call per lambda."""
        lams = np.asarray(lams, dtype=complex)
        if self.many_fn is not None:
            return np.asarray(self.many_fn(lams), dtype=complex)
        if self.prefetch_fn is not None:
            self.prefetch_fn(lams)
        return np.array([self.B(lam) for lam in lams], dtype=complex).reshape(-1, self.n, self.n)

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
        h = STENCIL_H0 * max(1.0, abs(lam)) ** 0.5
        if self.domain != "entire" and abs(lam.imag) <= 2.05 * h:
            # vertical stencil points would cross the real axis
            warnings.warn("derivative stencil degraded to second order near the real axis")
            return (self.B(lam + h) - self.B(lam - h)) / (2 * h)
        fp, fm = self.B(lam + h), self.B(lam - h)
        gp, gm = self.B(lam + 1j * h), self.B(lam - 1j * h)
        return ((fp - fm) - 1j * (gp - gm)) / (4 * h)

    def frame(self, lam) -> np.ndarray:
        """A holomorphic 2n x n frame of the curve at lambda: the one-point
        call of frame_many."""
        return self.frame_many(np.array([complex(lam)]))[0]

    def frame_many(self, lams) -> np.ndarray:
        """The frames at every lambda of a 1-D array, as a (K, 2n, n) stack:
        one frame_fn call, or the chart stacks (I; B) from B_many."""
        lams = np.asarray(lams, dtype=complex)
        if self._frame_fn is not None:
            return np.asarray(self._frame_fn(lams), dtype=complex)
        Bs = self.B_many(lams)
        return np.concatenate([np.broadcast_to(np.eye(self.n), Bs.shape), Bs], axis=1)


# -- the real-axis phase path --------------------------------------------

TWO_PI = 2 * np.pi
# Cells are cut into steps that turn det B by about STEP_TARGET at the speed
# of their faster end, and every step turns it by at most STEP_CAP.  The cap
# is below pi, so the phase anywhere inside a step is the phase of its left
# knot plus the principal value of arg(det B(u) / det B(knot)), and the
# trapezoid prediction picks an unambiguous branch for the step itself.
STEP_TARGET = 2.2
STEP_CAP = 3.0


def _step_cap(u):
    """Largest admissible step through a quiet (low phase speed) region, at
    u, a number or an array.

    On the positive axis eigenvalue sweeps recur on the sqrt(u) gap scale,
    so quiet-region steps must stay below it; below the spectrum the phase
    is monotone and nearly flat and larger jumps are safe.
    """
    a = 1.0 + np.abs(u)
    return np.where(u < 0, 0.25 * a, np.maximum(1.0, 0.6 * np.sqrt(a)))


# the cap lattice 0, x + _step_cap(x), ... on the right of 0 and 0,
# x - _step_cap(x), ... on its left, each side ending at +-LAMBDA_MAX (its
# outer cell clipped there), as far as requests have reached; a side grows
# by being replaced whole, and any two growths make the same points
_LATTICE = {1.0: (0.0,), -1.0: (0.0,)}


def _lattice(a: float, b: float) -> np.ndarray:
    """The cap lattice from its last point at or below a to its first at or
    above b (the next one if that is a again, and there is one): the ends of
    the cells that overlap [a, b]."""
    for sign, end in ((1.0, b), (-1.0, a)):
        side = list(_LATTICE[sign])
        while sign * side[-1] <= sign * end and sign * side[-1] < LAMBDA_MAX:
            side.append(sign * min(sign * side[-1] + float(_step_cap(side[-1])), LAMBDA_MAX))
        _LATTICE[sign] = tuple(side)
    xs = np.array(_LATTICE[-1.0][:0:-1] + _LATTICE[1.0])
    i = np.searchsorted(xs, a, side="right") - 1
    return xs[i:max(np.searchsorted(xs, b), i + 1) + 1]


def _dets(Bs) -> np.ndarray:
    """det B of each B of a (K, n, n) stack; that of a 1 x 1 B is its entry."""
    return Bs[:, 0, 0] if Bs.shape[1] == 1 else np.linalg.det(Bs)


def _turns(us, dets, speeds):
    """The turn of det B over each step between neighbouring knots, lifted
    onto the branch nearest the trapezoid prediction of the two end speeds,
    and whether the step fails the step rule: its outer knot lies past its
    inner knot (the one nearer 0) moved out by the step cap there, its turn
    or its prediction exceeds STEP_CAP, or the two disagree by more than
    0.4 |prediction| + 0.2.  A lattice cell's outer end is its inner end
    moved out by the cap, as the lattice adds them, so a whole cell passes."""
    predicted = np.diff(us) * 0.5 * (speeds[:-1] + speeds[1:])
    q = dets[1:] / dets[:-1]
    apparent = np.arctan2(q.imag, q.real)
    turns = apparent + TWO_PI * np.rint((predicted - apparent) / TWO_PI)
    left = us[1:] <= 0
    inner = np.where(left, us[1:], us[:-1])
    reach = inner + np.where(left, -1.0, 1.0) * _step_cap(inner)
    bad = np.where(left, us[:-1] < reach, us[1:] > reach) \
        | (np.maximum(np.abs(turns), predicted) > STEP_CAP) \
        | (np.abs(turns - predicted) > 0.4 * predicted + 0.2)
    return turns, bad


class PhasePath:
    """Unwrapped arg det B(u) along the real axis of an entire curve.

    Sorted knots keep u, B(u), det B(u), the phase and the exact phase speed,
    in the arrays us, Bs (K, n, n), dets, phis and speeds.  The path covers
    whole cells of the cap lattice (_lattice), each cut into equal steps
    that turn det B by about STEP_TARGET at the speed of its faster end;
    then every step that fails the step rule (_turns) is halved, round by
    round, and each round evaluates its new knots in one phase_speeds call
    and one B_many call.  A cell's knots depend on its ends alone, so the
    knots depend only on which cells are covered, not on the order of the
    requests.  The phase is lifted step by step outward from 0, a knot of
    every path that reaches it, where it is the principal value of
    arg det B(0); a path that does not reach 0 starts from the principal
    value at its knot nearest 0.  Points between knots are sampled exactly
    by `sample`.

    The provider owns its path, and the path refers back to it weakly, so
    that the two are freed together without the cyclic garbage collector.
    """

    def __init__(self, c: CurveProvider):
        self._provider = weakref.ref(c)
        self.us, self.phis, self.speeds = np.empty(0), np.empty(0), np.empty(0)
        self.Bs, self.dets = np.empty((0, c.n, c.n), dtype=complex), np.empty(0, dtype=complex)

    @property
    def c(self) -> CurveProvider:
        c = self._provider()
        if c is None:
            raise ValidationError("the phase path outlived its curve provider")
        return c

    def _add(self, knots, xs):
        """knots (us, Bs, dets, speeds) with the points xs evaluated and
        merged in: one phase_speeds and one B_many call, the speeds first,
        so that a provider whose speeds need more of a solve than B (the
        Sturm-Liouville moments) solves each knot once."""
        if not len(xs):
            return knots
        c = self.c
        speeds = np.maximum(c.phase_speeds(xs), 0.0)
        Bs = c.B_many(xs)
        dets = _dets(Bs)
        if (dets == 0).any():
            raise NumericalError("det B vanished on the real axis; provider not entire here")
        new = (xs, Bs, dets, speeds)
        if knots is None:
            return new
        order = np.argsort(np.concatenate((knots[0], xs)), kind="stable")
        return tuple(np.concatenate(pair)[order] for pair in zip(knots, new))

    def cover(self, a: float, b: float) -> None:
        """Grow the path over every lattice cell that overlaps [a, b], and
        every cell between them and the path.

        A request farther from the path than its own length starts the path
        afresh.  ValidationError unless -LAMBDA_MAX <= a <= b <= LAMBDA_MAX.
        """
        if not -LAMBDA_MAX <= a <= b <= LAMBDA_MAX:
            raise ValidationError(f"real-axis request [{a}, {b}] not within +-{LAMBDA_MAX:g}")
        us = self.us
        if us.size and us[0] <= a and b <= us[-1]:
            return
        hmin = 1e-12 * (1 + b - a)
        # the path's knots and ends, kept unless the request is far from it
        knots, lo, hi = None, np.inf, -np.inf
        if us.size and max(us[0] - b, a - us[-1]) <= b - a:
            knots, lo, hi = (us, self.Bs, self.dets, self.speeds), us[0], us[-1]
            a, b = min(a, lo), max(b, hi)
        xs = _lattice(a, b)
        knots = self._add(knots, xs[(xs < lo) | (xs > hi)])
        # cut every new cell into equal steps at the speed of its faster end
        new = (xs[1:] <= lo) | (xs[:-1] >= hi)
        x0, x1 = xs[:-1][new], xs[1:][new]
        speeds = knots[3][np.searchsorted(knots[0], xs)]
        fast = np.maximum(speeds[:-1], speeds[1:])[new]
        m = np.maximum(np.ceil((x1 - x0) * fast / STEP_TARGET), 1.0).astype(int)
        cell = np.repeat(np.arange(len(m)), m - 1)
        # the rank of each inner point within its cell, from 1
        j = np.arange(cell.size) - np.searchsorted(cell, cell) + 1
        knots = self._add(knots, x0[cell] + (x1 - x0)[cell] * (j / m[cell]))
        while True:
            turns, bad = _turns(knots[0], knots[2], knots[3])
            if not bad.any():
                break
            us = knots[0]
            if (np.diff(us)[bad] < 2 * hmin).any():
                raise NumericalError("phase-tracking step underflow")
            knots = self._add(knots, 0.5 * (us[:-1] + us[1:])[bad])
        self.us, self.Bs, self.dets, self.speeds = knots
        i = int(np.abs(self.us).argmin())
        phi0 = np.angle(self.dets[i])
        left = np.cumsum(np.concatenate(([phi0], -turns[:i][::-1])))[::-1]
        self.phis = np.concatenate((left[:-1], np.cumsum(np.concatenate(([phi0], turns[i:])))))

    def knots(self, a: float, b: float) -> np.ndarray:
        """The knot positions inside [a, b]."""
        us = self.us
        return us[np.searchsorted(us, a):np.searchsorted(us, b, side="right")]

    def sample(self, xs):
        """(Bs, phis) at the covered points of a 1-D array: B from one B_many
        call, and the phase lifted from the knot k at or below each point,
        phis[k] + arg(det B(x) / dets[k]), which at a knot is its own.

        The points are sampled but not stored, so the knots do not depend
        on requests.
        """
        xs = np.asarray(xs, dtype=float)
        return self._lift(xs, np.searchsorted(self.us, xs, side="right") - 1)

    def _lift(self, xs, k):
        """(Bs, phis) at the covered points xs (any shape), each lifted from
        the knot k at or below it (k broadcasts against xs): B from one
        B_many call over xs raveled, and phis[k] + arg(det B(x) / dets[k]),
        or phis[k] at the knot itself.  The one lifting rule of the path."""
        Bs = self.c.B_many(xs.ravel())
        turns = np.angle(_dets(Bs).reshape(xs.shape) / self.dets[k])
        return Bs, self.phis[k] + np.where(self.us[k] == xs, 0.0, turns)

    def samples(self, a: float, b: float):
        """(us, Bs, phis) on a covered [a, b]: a, the knots strictly inside, b,
        with Bs stacked (K, n, n)."""
        us = self.us
        i, j = np.searchsorted(us, a, side="right"), np.searchsorted(us, b)
        Bab, pab = self.sample([a, b])
        return (np.concatenate(([a], us[i:j], [b])), np.concatenate((Bab[:1], self.Bs[i:j], Bab[1:])),
                np.concatenate((pab[:1], self.phis[i:j], pab[1:])))


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
        n, "upper_half_plane_pair", eval_fn=ev, deriv_fn=dv)


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
        speed_fn=lambda us: np.ones(len(us)), many_fn=lambda lams: np.exp(1j * lams)[:, None, None],
        section_fn=section)


# -- curvature -----------------------------------------------------------


@dataclass(frozen=True)
class CurvatureResult:
    r: np.ndarray
    r_sym: np.ndarray
    chern: np.ndarray
    schwarz_pick_margin: float


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
    # the Chern numbers c_k of det(t - r_sym) = t^n - c1 t^{n-1} + c2 t^{n-2} - ...
    rho = np.linalg.eigvalsh(r_sym)
    chern = np.poly(rho)[1:] * (-1.0) ** np.arange(1, c.n + 1)
    return CurvatureResult(r=r, r_sym=r_sym, chern=chern, schwarz_pick_margin=float(rho.min()))


# -- reproducing-kernel blocks -------------------------------------------


def kernel_block(c: CurveProvider, lam, mu) -> np.ndarray:
    """Reproducing-kernel block K(lambda, mu), an (n, n) array, branch by
    half-plane signs."""
    lam, mu = complex(lam), complex(mu)
    if c.domain != "entire" and (lam.imag == 0 or mu.imag == 0):
        raise DomainError("kernel_block needs points off the real axis")
    diag_tol = 1e-6 * (1 + abs(lam))
    sl = lam.imag >= 0
    sm = mu.imag >= 0
    den = lam - mu.conjugate()
    if sl and sm:
        return 1j * (np.eye(c.n) - c.B(lam) @ c.B(mu).conj().T) / den
    if not sl and not sm:
        return -1j * (np.eye(c.n) - c.B(lam.conjugate()).conj().T @ c.B(mu.conjugate())) / den
    if not sl and sm:
        if abs(den) < diag_tol:
            return 1j * c.dB(lam.conjugate()).conj().T
        return 1j * (c.B(lam.conjugate()).conj().T - c.B(mu).conj().T) / den
    if abs(den) < diag_tol:
        return -1j * c.dB(lam)
    return -1j * (c.B(lam) - c.B(mu.conjugate())) / den


def gram_min_eig(c: CurveProvider, points) -> float:
    """Smallest eigenvalue of the kernel Gram G_ij = <K(l_i,l_j) v_j, v_i>."""
    pts = [(complex(l), np.asarray(v, dtype=complex).ravel()) for l, v in points]
    m = len(pts)
    G = np.empty((m, m), dtype=complex)
    for i, (li, vi) in enumerate(pts):
        for j, (lj, vj) in enumerate(pts):
            G[i, j] = np.vdot(vi, kernel_block(c, li, lj) @ vj)
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
        # lam is one lambda or an array of them (the batched capabilities)
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
        deriv_fn=dv if c._deriv_fn is not None else None,
        frame_fn=(lambda lams: c.frame_many(m(lams))) if c._frame_fn is not None else None,
        allow_real=c.allow_real, speed_fn=speed if c.speed_fn is not None else None,
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
        deriv_fn=dv if c._deriv_fn is not None else None,
        allow_real=c.allow_real, prefetch_fn=c.prefetch_fn)
