"""Eigenvalue localization and spectral bookkeeping for Weyl curves.

Eigenvalues of a boundary condition y are the zeros of the characteristic
function F(lambda) = det [ frame_Vy | frame_W(lambda) ].  Self-adjoint
conditions on entire curves have real spectrum.  Every eigenphase of
U* B(u) turns counterclockwise and their lifted sum is arg det B(u) less
arg det U, so the eigenvalues in (a, b] number the unwrapped det B phase
change less the change of the eigenphase sum in [0, 2 pi), over 2 pi; the
spectrum is counted that way on each step of the curve's phase path and
located by halving and one bracketed array root solve for all crossings.
General conditions use argument-principle winding with recursive
quadrisection.  The module also implements the counting function, the
interlacing and phase-count bounds, and the monotone phase margin.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import CurveProvider
from .errors import DegenerateBCError, NumericalError, ValidationError
from .symplectic import GrassPoint, chart_convert, classify_subspace, graph_of, null_space
# re-exported: bench/tracing.py wraps it in this namespace too
from .symplectic import schubert_section  # noqa: F401

TWO_PI = 2 * np.pi
MAX_STEP_PHASE = 0.45 * np.pi
CLUSTER_TOL_BASE = 1e-7
COUNT_TOL = 1e-6
DEGEN_TOL = 1e-9
M_MAX = 4
SIZE_TOL = 1e-8
ROOT_TOL = 1e-12
ROOT_MAXITER = 2046  # log2 of the range of normal doubles, as in scipy


@dataclass(frozen=True)
class BoundaryCondition:
    """An n-dimensional subspace of the boundary space, with chart data."""

    point: GrassPoint
    selfadjoint: bool
    chart_unitary: Optional[np.ndarray]
    label: str = ""

    @property
    def n(self) -> int:
        return self.point.two_n // 2


def make_bc(point: GrassPoint, label: str = "") -> BoundaryCondition:
    """Attach classification and chart data to a canonical GrassPoint."""
    point = point.canonicalized()
    selfadj = classify_subspace(point) == "lagrangian"
    chart_u = None
    try:
        Y = chart_convert(point)
        dev = np.linalg.norm(Y @ Y.conj().T - np.eye(Y.shape[0]), ord=2)
        if dev < 1e-8:
            chart_u = Y
    except Exception:
        chart_u = None
    return BoundaryCondition(point=point, selfadjoint=selfadj,
                             chart_unitary=chart_u, label=label)


def bc_from_unitary(U, label: str = "") -> BoundaryCondition:
    """Self-adjoint condition Gamma_- x = U Gamma_+ x from a unitary U."""
    U = np.asarray(U, dtype=complex)
    dev = np.linalg.norm(U @ U.conj().T - np.eye(U.shape[0]), ord=2)
    if dev > 1e-8:
        raise ValidationError("chart matrix is not unitary")
    return BoundaryCondition(point=graph_of(U), selfadjoint=True,
                             chart_unitary=U, label=label)


def bc_from_chart(Y, label: str = "") -> BoundaryCondition:
    """Condition from an arbitrary chart value Y (frame stack (I; Y))."""
    return make_bc(graph_of(np.asarray(Y, dtype=complex)), label=label)


def bc_from_canonical(rows, mode: str, label: str = "") -> BoundaryCondition:
    """Condition from a n x 2n matrix in canonical Gamma+- coordinates."""
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] != 2 * rows.shape[0]:
        raise ValidationError("canonical rows must form an n x 2n matrix")
    if np.linalg.matrix_rank(rows, tol=1e-10) != rows.shape[0]:
        raise ValidationError("boundary-condition matrix must have full rank")
    if mode == "span":
        frame = rows.T
    elif mode == "functional":
        frame = null_space(rows)
    else:
        raise ValidationError("mode must be 'span' or 'functional'")
    return make_bc(GrassPoint.from_frame(frame), label=label)


@dataclass(frozen=True)
class Eigenvalue:
    lam: complex
    multiplicity: int
    residual: float
    method: str


# -- characteristic function ----------------------------------------------


def sections(c: CurveProvider, bc: BoundaryCondition, lams) -> tuple:
    """Arrays (F, scale, log norm) at each lambda of a 1-D array: the section
    F(lambda) = det [frame_bc | frame_W(lambda)], its Hadamard scale, the
    noise ambient the value should be compared to, and ln |F| / vol(frame_W),
    -inf at zeros.

    The provider's section_fn where it has one; otherwise one pass over the
    stacked frames, with the log norm by slogdet, so it does not overflow
    where the frame volume does.
    """
    lams = np.asarray(lams, dtype=complex)
    if c.section_fn is not None:
        return c.section_fn(bc.point, lams)
    frames = c.frame_many(lams)
    M = np.concatenate([np.broadcast_to(bc.point.frame, frames.shape), frames], axis=2)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.prod(np.linalg.norm(M, axis=1), axis=1)
        sign, logdet = np.linalg.slogdet(M)
        _, loggram = np.linalg.slogdet(frames.conj().transpose(0, 2, 1) @ frames)
        return np.linalg.det(M), scale, np.where(sign == 0, -np.inf, logdet - 0.5 * loggram)


def char_function(c: CurveProvider, bc: BoundaryCondition, lam) -> complex:
    """F(lambda) = det [frame_bc | frame_W(lambda)], as read by sections.

    Zeros and their orders are frame-independent; the value is defined up
    to a nonvanishing holomorphic factor fixed by the canonical frames.
    """
    return complex(sections(c, bc, [lam])[0][0])


def char_section(c: CurveProvider, bc: BoundaryCondition, lam) -> tuple:
    """(F, scale) at one lambda, as read by sections.

    A sample whose F or scale leaves the floating-point range raises
    NumericalError naming lambda."""
    F, scale, _ = sections(c, bc, [lam])
    F, scale = complex(F[0]), float(scale[0])
    if not (cmath.isfinite(F) and math.isfinite(scale)):
        raise NumericalError(f"the curve's frame overflows at lambda = {complex(lam)}; "
                             "the characteristic function cannot be sampled there")
    return F, max(scale, 1e-300)


def _residuals(c: CurveProvider, bc: BoundaryCondition, lams) -> np.ndarray:
    """|F| over its scale at each computed eigenvalue of an array."""
    F, scale, _ = sections(c, bc, lams)
    return np.abs(F) / np.maximum(scale, 1e-300)


def is_degenerate(c: CurveProvider, bc: BoundaryCondition, samples=None) -> bool:
    """Detect F identically zero (spectrum = C) on a spread sample grid."""
    if samples is None:
        re = np.linspace(-50.0, 400.0, 8)
        im = np.linspace(-5.0, 5.0, 8)
        samples = [complex(a, b) for a in re for b in im]
    for lam in samples:
        F, scale = char_section(c, bc, lam)
        if abs(F) > DEGEN_TOL * scale:
            return False
    return True


# -- crossings along the real axis ------------------------------------------


def _real_samples(c: CurveProvider, a: float, b: float):
    """(us, Bs, phis) on [a, b] from the provider's phase path: a, the knots
    inside, b, with Bs stacked (K, n, n).  Each step turns det B by less
    than pi."""
    c.phase_path.cover(a, b)
    return c.phase_path.samples(a, b)


def _eigenphases(U, Bs) -> np.ndarray:
    """The eigenphases of U* B for each B of a (K, n, n) stack, each taken
    in [0, 2 pi): a (K, n) array."""
    return np.angle(np.linalg.eigvals(U.conj().T @ Bs)) % TWO_PI


def _crossings(dphi, th0, th1) -> np.ndarray:
    """Eigenphase crossings of 1 between pairs of samples of the real axis.

    Every eigenphase of U* B(u) turns counterclockwise and their lifted sum
    is arg det B(u) less arg det U, so with dphi the unwrapped det B phase
    change and th0, th1 the eigenphases in [0, 2 pi) at the two samples,
    the crossings number [dphi - (sum th1 - sum th0)] / 2 pi.  Arrays of
    pairs give an array of counts.
    """
    k = (dphi - (np.sum(th1, axis=-1) - np.sum(th0, axis=-1))) / TWO_PI
    n = np.round(k)
    bad = ~((n >= 0) & (np.abs(k - n) <= COUNT_TOL))
    if np.any(bad):
        raise NumericalError(f"eigenphase crossing count {np.ravel(k[bad])[0]:.9f} "
                             "is not a nonnegative integer")
    return n.astype(int)


def count_real(c: CurveProvider, bc: BoundaryCondition, a: float, b: float) -> int:
    """Eigenvalue count (with multiplicity) in (a, b] from the unwrapped det B phase."""
    if bc.chart_unitary is None:
        raise ValidationError("count_real requires a chart-unitary boundary condition")
    _, Bs, phis = _real_samples(c, a, b)
    th = _eigenphases(bc.chart_unitary, Bs[[0, -1]])
    return int(_crossings(phis[-1] - phis[0], th[0], th[1]))


def _find_roots(f, a, b, fa, fb):
    """Roots of f in the brackets [a_k, b_k] of two arrays, all at once, by
    Chandrupatla's method (Adv. Eng. Softw. 28(3), 1997) with the update,
    termination and step rules of scipy.optimize.elementwise.find_root, to
    ROOT_TOL absolute and relative.

    f(x, k) takes the points x of the brackets k still open and returns
    f there; fa and fb are f at the bracket ends, which the caller holds.
    Returns (roots, status), status 0 where a root was found, -1 where f
    has one sign on the bracket, -2 where the iterations ran out, -3 where
    a value is not finite.
    """
    x1, x2 = np.array(a, dtype=float), np.array(b, dtype=float)
    k = np.arange(len(x1))
    f1, f2 = np.array(fa, dtype=float), np.array(fb, dtype=float)
    roots, status = np.full(len(x1), np.nan), np.full(len(x1), -2)
    t = 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        for nit in range(ROOT_MAXITER + 1):
            if nit:
                x = x1 + t * (x2 - x1)
                fx = f(x, k)
                # the bracket is (x, x2) or (x, x1), the third point the other end
                same = np.sign(fx) == np.sign(f1)
                x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
                x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
                x1, f1 = x, fx
            # termination, in scipy's order of precedence
            low = np.abs(f1) < np.abs(f2)
            xmin, fmin = np.where(low, x1, x2), np.where(low, f1, f2)
            code = np.ones(len(k), dtype=int)
            code[np.abs(fmin) <= np.finfo(float).tiny] = 0
            code[(code == 1) & (np.sign(f1) == np.sign(f2))] = -1
            code[(code == 1) & (~(np.isfinite(x1) & np.isfinite(x2))
                                | (np.isnan(f1) & np.isnan(f2)))] = -3
            xmin = np.where(code < 0, np.nan, xmin)
            dx = np.abs(x2 - x1)
            tol = np.abs(xmin) * ROOT_TOL + ROOT_TOL
            code[dx < tol] = 0
            done = code < 1
            roots[k[done]], status[k[done]] = xmin[done], code[done]
            go = ~done
            if not go.any():
                break
            k, x1, f1, x2, f2, dx, tol = (v[go] for v in (k, x1, f1, x2, f2, dx, tol))
            if nit:
                x3, f3 = x3[go], f3[go]
                # inverse quadratic interpolation where it is safe, else bisection
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                iqi = ((1 - np.sqrt(1 - xi)) < phi) & (phi < np.sqrt(xi))
                t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
                t = np.clip(t, 0.5 * tol / dx, 1 - 0.5 * tol / dx)
    return roots, status


def _crossing_roots(c, U, us, Bs, phis):
    """(roots, multiplicities) of the crossings in every step of a sampled
    path (us, Bs, phis), each step turning det B by less than pi.

    The end of a part of a step is (u, det B phase relative to the step's
    left sample, eigenphases).  All parts with more than one crossing are
    halved together until each holds one or is narrower than the cluster
    tolerance; then every part is solved in one bracketed array root search
    on the signed distance of the nearest eigenphase from 1, whose values
    at the part ends are read off the eigenphases held there.
    """
    d0 = np.linalg.det(Bs)[:-1]
    th = _eigenphases(U, Bs)
    x = (us[:-1], np.zeros(len(d0)), th[:-1])
    y = (us[1:], np.diff(phis), th[1:])
    step = np.arange(len(d0))
    m = _crossings(y[1], x[2], y[2])

    def sample(u, k):
        # the end at each u of an array, in the steps k
        B = c.B_many(u)
        return u, np.angle(np.linalg.det(B) / d0[k]), _eigenphases(U, B)

    def cat(*ends):
        return tuple(np.concatenate(vs) for vs in zip(*ends))

    while True:
        keep = m > 0
        x, y = (tuple(v[keep] for v in e) for e in (x, y))
        step, m = step[keep], m[keep]
        split = (m > 1) & (y[0] - x[0] >= CLUSTER_TOL_BASE * (1 + np.abs(y[0])))
        if not split.any():
            break
        xs, ys, xw, yw = (tuple(v[sel] for v in e)
                          for sel in (split, ~split) for e in (x, y))
        mid = sample(0.5 * (xs[0] + ys[0]), step[split])
        m1 = _crossings(mid[1] - xs[1], xs[2], mid[2])
        m2 = _crossings(ys[1] - mid[1], mid[2], ys[2])
        x, y = cat(xw, xs, mid), cat(yw, mid, ys)
        step = np.concatenate([step[~split], step[split], step[split]])
        m = np.concatenate([m[~split], m1, m2])
    if not len(m):
        return np.empty(0), m

    def psi(u, i):
        # before the first crossing in (x, u]: minus the counterclockwise
        # distance of the eigenphase nearest below 1; after it: the
        # distance of the one nearest above; continuous through the root
        _, p, t = sample(u, step[i])
        crossed = _crossings(p - x[1][i], x[2][i], t) > 0
        return np.where(crossed, t.min(axis=-1), t.max(axis=-1) - TWO_PI)

    # no crossing yet at a part's left end, its crossings all made at the right
    roots, status = _find_roots(psi, x[0], y[0], x[2].max(axis=-1) - TWO_PI,
                                y[2].min(axis=-1))
    if np.any(status):
        k = np.flatnonzero(status)[0]
        raise NumericalError(f"crossing refinement failed in ({x[0][k]}, {y[0][k]}] "
                             f"(status {int(status[k])})")
    return roots, m


def eigenvalues_real(c: CurveProvider, bc: BoundaryCondition, interval):
    """All eigenvalues of a self-adjoint condition in a real interval (a, b]."""
    if not bc.selfadjoint:
        raise ValidationError("eigenvalues_real requires a self-adjoint condition")
    if c.domain != "entire":
        raise ValidationError("eigenvalues_real requires an entire provider")
    if bc.chart_unitary is None:
        raise ValidationError("self-adjoint condition lost its chart unitary")
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValidationError("empty interval")
    if is_degenerate(c, bc, samples=np.linspace(a, b, 16)):
        raise DegenerateBCError("characteristic function vanishes identically; spectrum = C")
    roots, mults = _crossing_roots(c, bc.chart_unitary, *_real_samples(c, a, b))
    # merge refined roots that belong to one cluster
    merged = []
    for lam, mult in sorted(zip(roots.tolist(), mults.tolist())):
        tol = CLUSTER_TOL_BASE * (1 + abs(lam))
        if merged and lam - merged[-1][0] < tol:
            merged[-1][1] += mult
        else:
            merged.append([lam, mult])
    if not merged:
        return []
    lams = np.array([lam for lam, _ in merged])
    return [Eigenvalue(lam=complex(lam), multiplicity=int(mult), residual=float(r),
                       method="real_scan")
            for (lam, mult), r in zip(merged, _residuals(c, bc, lams))]


# -- contour search --------------------------------------------------------


class _EdgeHit(NumericalError):
    """F vanishes on the contour, or turns too fast there to be resolved."""


def _sample(c, bc, z):
    """(z, F(z)); a value below the noise floor means a zero on the contour."""
    F, scale = char_section(c, bc, z)
    if abs(F) < 1e-11 * scale:
        raise _EdgeHit(f"characteristic function vanishes on the contour at {z}")
    return z, F


def _march(c, bc, a, b, fresh=True):
    """Samples (z, F) along the segment from sample a to sample b, both
    included, with arg F turning by at most MAX_STEP_PHASE between neighbours.

    A step halves when it turns too far and grows by half when it turns by
    less than half the limit.  On a fresh segment it starts at 1/64 of it and
    never exceeds 1/4; a part of a step already accepted is tried whole.
    """
    z0, z1 = a[0], b[0]
    out, t = [a], 0.0
    h, hmax = (1 / 64, 0.25) if fresh else (1.0, 1.0)
    while t < 1.0:
        t1 = min(t + h, 1.0)
        z, F = b if t1 == 1.0 else _sample(c, bc, z0 + (z1 - z0) * t1)
        step = abs(float(np.angle(F / out[-1][1])))
        if step > MAX_STEP_PHASE:
            h = (t1 - t) / 2
            if h < 1e-10:
                # a phase jump the refinement cannot resolve means a zero
                # sits on (or hugs) the contour; trigger the dilation retry
                raise _EdgeHit(f"unresolved phase jump on the contour at {z}")
            continue
        out.append((z, F))
        t = t1
        if step < MAX_STEP_PHASE / 2:
            h = min(h * 1.5, hmax)
    return out


def _box_edges(c, bc, rect):
    """The edges of a rectangle, counterclockwise from its lower left corner,
    each marched once between corners sampled once."""
    x0, x1, y0, y1 = rect
    corners = [_sample(c, bc, complex(x, y))
               for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]
    return [_march(c, bc, corners[k], corners[(k + 1) % 4]) for k in range(4)]


def _winding(edges):
    """Winding number of F around a closed chain of sampled edges, and the
    first log-moment (1/2 pi i) sum z dlog F, the sum of the zeros inside."""
    # each edge starts where the previous one ends: dropping every start
    # leaves each sample once, and the roll closes the chain
    z, F = np.array([s for e in edges for s in e[1:]]).T
    dlog = np.log(F / np.roll(F, 1))
    w = float(dlog.imag.sum()) / TWO_PI
    if abs(w - round(w)) > 0.15:
        raise NumericalError(f"non-integer winding {w:.3f}; zero too close to the contour")
    return int(round(w)), complex(np.sum(0.5 * (z + np.roll(z, 1)) * dlog)) / (2j * np.pi)


def _cut(c, bc, edge, zm):
    """Split a sampled edge at the point zm on it.  Only the step that holds
    zm is marched again, in two parts."""
    za, zb = edge[0][0], edge[-1][0]
    ts = [((z - za) / (zb - za)).real for z, _ in edge]
    k = bisect_right(ts, ((zm - za) / (zb - za)).real) - 1
    m = _sample(c, bc, zm)
    return (edge[:k] + _march(c, bc, edge[k], m, fresh=False),
            _march(c, bc, m, edge[k + 1], fresh=False) + edge[k + 2:])


def _children(c, bc, rect, edges, xm, ym):
    """The quadrants of a box split at (xm, ym), each with its boundary.

    The box's edges are cut at the split lines.  The four arms of the cross,
    from the cut points to the center, are marched once: each quadrant walks
    one arm in and its neighbour's arm out.
    """
    x0, x1, y0, y1 = rect
    b0, b1 = _cut(c, bc, edges[0], complex(xm, y0))
    r0, r1 = _cut(c, bc, edges[1], complex(x1, ym))
    t0, t1 = _cut(c, bc, edges[2], complex(xm, y1))
    l0, l1 = _cut(c, bc, edges[3], complex(x0, ym))
    center = _sample(c, bc, complex(xm, ym))
    south, east, north, west = (_march(c, bc, half[-1], center) for half in (b0, r0, t0, l0))
    return [((x0, xm, y0, ym), [b0, south, west[::-1], l1]),
            ((xm, x1, y0, ym), [b1, r0, east, south[::-1]]),
            ((x0, xm, ym, y1), [west, north[::-1], t1, l0]),
            ((xm, x1, ym, y1), [east[::-1], r1, t0, north])]


def _refine_newton(c, bc, lam0, mult, box_size):
    """Newton with the multiplicity factor on secant slopes: one F per step
    (the first slope is a forward difference), each step at most 2 box_size.
    Two steps in a row that do not lower |F| mean the noise floor or a split
    cluster is reached; the iterate with the least |F| is returned then."""
    lam = complex(lam0)
    F = char_function(c, bc, lam)
    prev = lam + 1e-6 * (1 + abs(lam))
    F_prev = char_function(c, bc, prev)
    best, best_abs, stale = lam, abs(F), 0
    for _ in range(60):
        if F == F_prev:
            break
        step = mult * F * (lam - prev) / (F - F_prev)
        if abs(step) > 2 * box_size:
            step *= 2 * box_size / abs(step)
        prev, F_prev = lam, F
        lam = lam - step
        if abs(step) < 1e-10 * (1 + abs(lam)):
            return lam
        F = char_function(c, bc, lam)
        if abs(F) < best_abs:
            best, best_abs, stale = lam, abs(F), 0
        else:
            stale += 1
            if stale == 2:
                break
    return best


def eigenvalues_complex(c: CurveProvider, bc: BoundaryCondition, rectangle):
    """Zeros of F inside a rectangle (re_min, re_max, im_min, im_max)."""
    if c.domain != "entire":
        raise ValidationError("contour search requires an entire provider")
    x0, x1, y0, y1 = (float(v) for v in rectangle)
    if not (x0 < x1 and y0 < y1):
        raise ValidationError("degenerate rectangle")
    if is_degenerate(c, bc, samples=[complex(a, b)
                                     for a in np.linspace(x0, x1, 8)
                                     for b in np.linspace(y0, y1, 8)]):
        raise DegenerateBCError("characteristic function vanishes identically; spectrum = C")

    rect = (x0, x1, y0, y1)
    for attempt in range(6):
        try:
            found = []
            _subdivide(c, bc, rect, _box_edges(c, bc, rect), found)
            break
        except _EdgeHit:
            if attempt == 5:
                raise NumericalError("zero on the contour after maximal dilation")
            cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
            sx, sy = (x1 - x0) / 2 * 1.01, (y1 - y0) / 2 * 1.01
            rect = (cx - sx, cx + sx, cy - sy, cy + sy)
            x0, x1, y0, y1 = rect
    found.sort(key=lambda e: (e.lam.real, e.lam.imag))
    return found


def _subdivide(c, bc, rect, edges, found):
    x0, x1, y0, y1 = rect
    w, s1 = _winding(edges)
    if w == 0:
        return
    size = max(x1 - x0, y1 - y0)
    if (w <= M_MAX and (w == 1 or size <= 1.0)) or size <= SIZE_TOL:
        lam = _refine_newton(c, bc, s1 / w, w, max(size, SIZE_TOL))
        found.append(Eigenvalue(lam=lam, multiplicity=w,
                                residual=float(_residuals(c, bc, [lam])[0]), method="contour"))
        return
    before = len(found)
    # if a zero sits on a split line, retry with nudged (irrational-ish) splits
    for shift in (0.0, 0.0371, -0.0529, 0.1113, -0.1637):
        xm = (x0 + x1) / 2 + shift * (x1 - x0)
        ym = (y0 + y1) / 2 + shift * (y1 - y0)
        try:
            for sub, sub_edges in _children(c, bc, rect, edges, xm, ym):
                _subdivide(c, bc, sub, sub_edges, found)
            break
        except _EdgeHit:
            del found[before:]
            if shift == -0.1637:
                raise
    got = sum(e.multiplicity for e in found[before:])
    if got != w:
        raise NumericalError(f"winding bookkeeping mismatch: box {w}, children {got}")


def multiplicity(c: CurveProvider, bc: BoundaryCondition, lam0, rho: float = 0.1) -> dict:
    """Analytic multiplicity by winding on the square, half-side rho, about
    lam0, confirmed on half-side rho/2 (both halved until they agree);
    geometric by rank."""
    lam0 = complex(lam0)

    def winding(h):
        return _winding(_box_edges(c, bc, (lam0.real - h, lam0.real + h,
                                           lam0.imag - h, lam0.imag + h)))[0]

    w1 = winding(rho)
    for _ in range(20):
        rho /= 2
        w2 = winding(rho)
        if w1 == w2:
            out = {"analytic": w1}
            if bc.chart_unitary is not None:
                sv = np.linalg.svd(bc.chart_unitary - c.B(lam0), compute_uv=False)
                out["geometric"] = int(np.sum(sv < 1e-6 * max(sv.max(), 1.0)))
            return out
        w1 = w2
    raise NumericalError("winding failed to stabilize; zero may not be isolated")


# -- counting, interlacing, phase count ------------------------------------


RING_TOL_BASE = 1e-6
ZERO_TOL = 1e-8


def counting(c: CurveProvider, bc: BoundaryCondition, r: float) -> dict:
    """n_T(r) and the logarithmically weighted count N_T(r)."""
    r = float(r)
    if r <= 0:
        raise ValidationError("radius must be positive")
    if bc.selfadjoint and c.domain == "entire":
        evs = eigenvalues_real(c, bc, (-r * (1 + 1e-3) - 1e-6, r * (1 + 1e-3) + 1e-6))
    else:
        evs = eigenvalues_complex(c, bc, (-1.1 * r, 1.1 * r, -1.1 * r, 1.1 * r))
    moduli = sorted(abs(e.lam) for e in evs)
    ring_tol = RING_TOL_BASE * (1 + r)
    r_used = r
    if any(abs(m - r) < ring_tol for m in moduli):
        below = max((m for m in moduli if m < r - ring_tol), default=0.0)
        above = min((m for m in moduli if m > r + ring_tol), default=r * (1 + 1e-3))
        r_used = 0.5 * (below + above)
    n_T, N_T = counting_sums(evs, r_used)
    return {"n_T": n_T, "N_T": N_T, "r_used": float(r_used)}


def counting_sums(evs, r: float) -> tuple:
    """(n(r), N(r)): the multiplicities of the eigenvalues strictly inside r,
    and their sum weighted by log(r / |lam|), or by log r where |lam| < ZERO_TOL."""
    n, N = 0, 0.0
    for e in evs:
        m = abs(e.lam)
        if m < r:
            n += e.multiplicity
            N += e.multiplicity * np.log(r if m < ZERO_TOL else r / m)
    return int(n), float(N)


def interlace(c: CurveProvider, bc1: BoundaryCondition, bc2: BoundaryCondition,
              r: float) -> dict:
    """Eigenvalue counts of two self-adjoint conditions in (-r, r)."""
    for bc in (bc1, bc2):
        if not bc.selfadjoint or bc.chart_unitary is None:
            raise ValidationError("interlace requires self-adjoint chart conditions")
    if c.domain != "entire":
        raise ValidationError("interlace requires an entire provider")
    n1 = count_real(c, bc1, -r, r)
    n2 = count_real(c, bc2, -r, r)
    return {"n1": int(n1), "n2": int(n2),
            "bound_satisfied": bool(abs(n1 - n2) <= c.n)}


def phase_count(c: CurveProvider, bc: BoundaryCondition, r: float) -> dict:
    """Total boundary phase over (-r, r) against the eigenvalue count.

    After re-gauging by g = diag(I, U*) the characteristic chart is the
    identity and det(U* B) = det(U*) det B, so the phase integral equals
    the unwrapped det-B phase difference and is chart-independent.
    """
    if not bc.selfadjoint or bc.chart_unitary is None:
        raise ValidationError("phase_count requires a self-adjoint chart condition")
    _, Bs, phis = _real_samples(c, -float(r), float(r))
    phase_integral = float(phis[-1] - phis[0]) / TWO_PI
    th = _eigenphases(bc.chart_unitary, Bs[[0, -1]])
    n_T = int(_crossings(phis[-1] - phis[0], th[0], th[1]))
    gap = abs(phase_integral - n_T)
    if gap > c.n + 1.0:
        raise NumericalError(f"phase-count gap {gap:.3f} exceeds the theoretical bound")
    return {"phase_integral": phase_integral, "n_T": int(n_T), "gap": float(gap)}


def monotone_margin(c: CurveProvider, u: float) -> float:
    """Smallest eigenvalue of the Hermitian phase-speed matrix -i B^{-1} B'."""
    B = c.B(float(u))
    dev = np.linalg.norm(B @ B.conj().T - np.eye(c.n), ord=2)
    if dev > 1e-6:
        raise NumericalError(f"B(u) not unitary (deviation {dev:.2e}); u not a regular point")
    A = -1j * np.linalg.solve(B, c.dB(float(u)))
    H = (A + A.conj().T) / 2
    return float(np.linalg.eigvalsh(H).min())
