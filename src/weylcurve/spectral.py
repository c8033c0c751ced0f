"""Eigenvalue localization and spectral bookkeeping for Weyl curves.

Eigenvalues of a boundary condition y are the zeros of the characteristic
function F(lambda) = det [ frame_Vy | frame_W(lambda) ].  Self-adjoint
conditions on entire curves have real spectrum.  Every eigenphase of
U* B(u) turns counterclockwise and their lifted sum is arg det B(u) less
arg det U, so the eigenvalues in (a, b] number the unwrapped det B phase
change less the change of the eigenphase sum in [0, 2 pi), over 2 pi, on
each step of the curve's phase path; array root searches find the first
crossing of each part, which takes a cluster's crossings as well.
General conditions use argument-principle winding with recursive
quadrisection.  The module also implements the counting function, the
interlacing and phase-count bounds, and the monotone phase margin.
"""

from __future__ import annotations

import cmath
import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import LAMBDA_MAX, TWO_PI, CurveProvider, _dets
from .errors import ChartError, DegenerateBCError, NumericalError, ValidationError
from .symplectic import (GrassPoint, chart_convert, frame_sections, graph_of, null_space,
                         rank_deficient)
# re-exported: bench/tracing.py wraps it in this namespace too
from .symplectic import schubert_section  # noqa: F401

MAX_STEP_PHASE = 0.45 * np.pi
SPECULATIVE_STEPS = 8  # trial points a contour segment yields per round
CLUSTER_TOL_BASE = 1e-7
COUNT_TOL = 1e-6
DEGEN_TOL = 1e-9
M_MAX = 4
SIZE_TOL = 1e-8
ROOT_TOL = 1e-12
ROOT_MAXITER = 2046  # log2 of the range of normal doubles


@dataclass(frozen=True)
class BoundaryCondition:
    """An n-dimensional subspace of the boundary space; its chart data are read off it."""

    point: GrassPoint
    label: str = ""

    @property
    def n(self) -> int:
        return self.point.two_n // 2

    @functools.cached_property
    def chart_unitary(self) -> Optional[np.ndarray]:
        """The contraction-chart value of the subspace where it is unitary
        to 1e-8, else None (also outside the chart)."""
        try:
            Y = chart_convert(self.point)
        except ChartError:  # outside the contraction chart
            return None
        unitary = np.linalg.norm(Y @ Y.conj().T - np.eye(len(Y)), ord=2) < 1e-8
        return Y if unitary else None

    @property
    def selfadjoint(self) -> bool:
        """A Lagrangian n-subspace is exactly the graph of a unitary."""
        return self.chart_unitary is not None


def bc_from_unitary(U, label: str = "") -> BoundaryCondition:
    """Self-adjoint condition Gamma_- x = U Gamma_+ x from a unitary U."""
    U = np.asarray(U, dtype=complex)
    dev = np.linalg.norm(U @ U.conj().T - np.eye(U.shape[0]), ord=2)
    if dev > 1e-8:
        raise ValidationError("chart matrix is not unitary")
    return BoundaryCondition(graph_of(U), label)


def bc_from_chart(Y, label: str = "") -> BoundaryCondition:
    """Condition from an arbitrary chart value Y (frame stack (I; Y))."""
    return BoundaryCondition(graph_of(np.asarray(Y, dtype=complex)), label)


def _rows_frame(rows: np.ndarray, mode: str) -> np.ndarray:
    """The frame of the subspace that a k x m condition matrix of rank k
    describes: mode "span", the span of its rows; mode "functional", the
    null space of the rows as linear constraints."""
    if rank_deficient(rows):
        raise ValidationError(f"boundary-condition matrix must have full rank {len(rows)}")
    if mode == "span":
        return rows.T
    if mode == "functional":
        return null_space(rows)
    raise ValidationError("mode must be 'span' or 'functional'")


def bc_from_canonical(rows, mode: str, label: str = "") -> BoundaryCondition:
    """Condition from a n x 2n matrix in canonical Gamma+- coordinates."""
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] != 2 * rows.shape[0]:
        raise ValidationError("canonical rows must form an n x 2n matrix")
    return BoundaryCondition(GrassPoint(_rows_frame(rows, mode)), label)


@dataclass(frozen=True)
class Eigenvalue:
    lam: complex
    multiplicity: int
    residual: float


# -- characteristic function ----------------------------------------------


def sections(c: CurveProvider, bc: BoundaryCondition, lams) -> tuple:
    """Arrays (F, scale, log norm) at each lambda of a 1-D array: the section
    F(lambda) = det [frame_bc | frame_W(lambda)], its Hadamard scale, the
    noise ambient the value should be compared to, and ln |F| / vol(frame_W),
    -inf at zeros.

    The provider's section_fn where it has one; otherwise frame_sections
    of the stacked frames.
    """
    lams = np.asarray(lams, dtype=complex)
    if c.section_fn is not None:
        return c.section_fn(bc.point, lams)
    return frame_sections(bc.point, c.frame_many(lams))


def char_function(c: CurveProvider, bc: BoundaryCondition, lam) -> complex:
    """F(lambda) = det [frame_bc | frame_W(lambda)], as read by sections.

    Zeros and their orders are frame-independent; the value depends on the
    condition through its subspace alone, and on the curve through W(lambda).
    """
    return complex(sections(c, bc, [lam])[0][0])


def char_section(c: CurveProvider, bc: BoundaryCondition, lam) -> tuple:
    """(F, scale) at one lambda, as read by sections and checked by _in_range."""
    F, scale, _ = sections(c, bc, [lam])
    return _in_range(lam, complex(F[0]), float(scale[0]))


def _in_range(lam, F: complex, scale: float) -> tuple:
    """(F, scale) of the sample at lam, the scale floored at 1e-300.  A
    sample whose F or scale leaves the floating-point range raises
    NumericalError naming lambda."""
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
    in [0, 2 pi), where an angle just below 0 that the modulo rounds to 2 pi
    is folded to 0: a (K, n) array; that of a 1 x 1 product is its entry's."""
    M = U.conj().T @ Bs
    th = np.angle(M[..., 0] if M.shape[-1] == 1 else np.linalg.eigvals(M))
    th %= TWO_PI
    th[th == TWO_PI] = 0.0
    return th


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


def _endpoint_count(c: CurveProvider, bc: BoundaryCondition, a: float, b: float) -> tuple:
    """(count_real in (a, b], the unwrapped det B phase change over [a, b])."""
    _, Bs, phis = _real_samples(c, a, b)
    th = _eigenphases(bc.chart_unitary, Bs[[0, -1]])
    return int(_crossings(phis[-1] - phis[0], th[0], th[1])), float(phis[-1] - phis[0])


def _real_request(c: CurveProvider, bc: BoundaryCondition, a, b, what: str) -> tuple:
    """(a, b) as floats once bc is self-adjoint, c entire and a < b; their
    range is PhasePath.cover's."""
    if not (bc.selfadjoint and c.domain == "entire"):
        raise ValidationError(f"{what} requires a self-adjoint condition on an entire curve")
    a, b = float(a), float(b)
    if not a < b:
        raise ValidationError(f"{what} needs an interval (a, b] with a < b, got ({a}, {b}]")
    return a, b


def _radii(rs, least: int = 1) -> np.ndarray:
    """rs sorted, as a float array, once there are `least` or more, all in (0, LAMBDA_MAX]."""
    radii = np.sort(np.asarray(rs, dtype=float).ravel())
    if radii.size < least or not (0 < radii[0] and radii[-1] <= LAMBDA_MAX):
        raise ValidationError(f"need {least}+ radii in (0, {LAMBDA_MAX:g}], got {radii.tolist()}")
    return radii


def count_real(c: CurveProvider, bc: BoundaryCondition, a: float, b: float) -> int:
    """Eigenvalue count (with multiplicity) in (a, b] from the unwrapped det B phase:
    a self-adjoint condition, an entire curve and a < b within +-LAMBDA_MAX."""
    return _endpoint_count(c, bc, *_real_request(c, bc, a, b, "count_real"))[0]


def _find_roots(f, a, b, fa, fb) -> np.ndarray:
    """Roots of f in the brackets [a_k, b_k] of two arrays, all at once, by
    the Anderson-Bjorck regula falsi (BIT 13, 1973).

    f(x, k) takes the points x of the brackets k still open and returns
    f there; fa and fb are f at the bracket ends, which the caller holds.
    Each step takes the secant point of the two ends, kept half the stop
    width inside them, or the midpoint where that step is not shorter than
    half the step before last (as in Brent's method), so that a strongly
    curved f cannot stall it.  Where f there has the sign of the newest
    end, the older end's value is scaled by 1 - f(x) / f(newest), or by
    1/2 if that is not positive; else the newest end becomes the older one.
    A bracket stops once narrower than ROOT_TOL (1 + min |end|), or at an
    exact zero of f, with the end of smaller unscaled |f| as its root.
    NumericalError names the first bracket with ends of one sign, a value
    not finite, or no stop within ROOT_MAXITER steps.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    k = np.arange(len(a))
    x1, x2, f1, f2 = a, b, np.array(fa, dtype=float), np.array(fb, dtype=float)
    g1 = f1  # the older end's value, scaled
    d1 = d2 = np.full(len(a), np.inf)  # the lengths of the last two steps
    roots = np.empty(len(a))

    def fail(bad, what):
        if bad.any():
            i = k[np.argmax(bad)]
            raise NumericalError(f"crossing refinement failed in ({a[i]}, {b[i]}]: {what}")

    fail(~np.isfinite([a, b, f1, f2]).all(axis=0), "a value is not finite")
    fail(np.sign(f1) * np.sign(f2) > 0, "f has one sign at the ends")
    for nit in range(ROOT_MAXITER + 1):
        half = 0.5 * ROOT_TOL * (1 + np.minimum(np.abs(x1), np.abs(x2)))
        done = (np.abs(x2 - x1) < 2 * half) | (f1 == 0) | (f2 == 0)
        roots[k[done]] = np.where(np.abs(f1) < np.abs(f2), x1, x2)[done]
        k, x1, x2, f1, f2, g1, d1, d2, half = (
            v[~done] for v in (k, x1, x2, f1, f2, g1, d1, d2, half))
        if not k.size:
            return roots
        fail(np.full(k.size, nit == ROOT_MAXITER), f"open after {ROOT_MAXITER} steps")
        x = np.clip(x2 - f2 * (x2 - x1) / (f2 - g1),
                    np.minimum(x1, x2) + half, np.maximum(x1, x2) - half)
        x = np.where(np.abs(x - x2) > 0.5 * d2, 0.5 * (x1 + x2), x)
        d1, d2 = np.abs(x - x2), d1
        fx = np.asarray(f(x, k), dtype=float)
        fail(~np.isfinite(fx), "a value is not finite")
        newest = np.sign(fx) == np.sign(f2)
        m = 1 - fx / f2
        g1 = np.where(newest, g1 * np.where(m > 0, m, 0.5), f2)
        x1, f1 = np.where(newest, x1, x2), np.where(newest, f1, f2)
        x2, f2 = x, fx


def _crossing_roots(c, U, us, Bs, phis):
    """(roots, multiplicities) of the crossings in every step of a sampled
    path (us, Bs, phis), each step turning det B by less than pi.

    The end of a part of a step is (u, det B phase relative to the step's
    left sample, eigenphases).  Each round solves every part that holds
    crossings for its first one by an array root search on the signed
    distance of the nearest eigenphase from 1, its end values read off the
    eigenphases held there.  A part (x, y] with m > 1 crossings whose root r
    has r + d < y, d = CLUSTER_TOL_BASE (1 + |r|), is sampled at r + d, all
    in one B_many call: the crossings left in (r + d, y] are the next
    round's part, and r takes the others (NumericalError if none).
    """
    d0 = _dets(Bs)[:-1]
    th = _eigenphases(U, Bs)
    x = (us[:-1], np.zeros(len(d0)), th[:-1])
    y = (us[1:], np.diff(phis), th[1:])
    step = np.arange(len(d0))
    m = _crossings(y[1], x[2], y[2])

    def sample(u, k):
        # the end at each u of an array, in the steps k
        B = c.B_many(u)
        return u, np.angle(_dets(B) / d0[k]), _eigenphases(U, B)

    def above(t, j):
        # after j > 0 crossings: the distance of the eigenphase nearest above
        # 1, continuous through the first crossing.  It is 0 again at each
        # later one, where the j-th nearest is taken: 0 only if all j
        # crossings are at that point
        t = np.sort(t, axis=-1)
        return np.where(t[:, 0] > 0, t[:, 0], np.take_along_axis(t, j[:, None] - 1, -1)[:, 0])

    def psi(u, i):
        # before the first crossing in (x, u]: minus the counterclockwise
        # distance of the eigenphase nearest below 1; after it: above
        _, p, t = sample(u, step[i])
        j = _crossings(p - x[1][i], x[2][i], t)
        return np.where(j > 0, above(t, np.maximum(j, 1)), t.max(axis=-1) - TWO_PI)

    roots, mults = [np.empty(0)], [np.empty(0, dtype=int)]
    while m.any():
        keep = m > 0
        x, y = (tuple(v[keep] for v in e) for e in (x, y))
        step, m = step[keep], m[keep]
        # no crossing yet at a part's left end, its crossings all made at the right
        r = _find_roots(psi, x[0], y[0], x[2].max(axis=-1) - TWO_PI, above(y[2], m))
        roots.append(r)
        mults.append(m)
        past = r + CLUSTER_TOL_BASE * (1 + np.abs(r))
        split = (m > 1) & (past < y[0])
        if not split.any():
            break
        lo = x[0][split]
        x = sample(past[split], step[split])
        y, step = tuple(v[split] for v in y), step[split]
        # the crossings left past the root form the next round's parts
        m = _crossings(y[1] - x[1], x[2], y[2])
        stuck = m >= mults[-1][split]
        if stuck.any():
            k = np.flatnonzero(stuck)[0]
            raise NumericalError(f"no crossing consumed at the root {r[split][k]} in "
                                 f"({lo[k]}, {y[0][k]}]")
        mults[-1][split] -= m
    return np.concatenate(roots), np.concatenate(mults)


def _merge_clusters(roots, mults) -> tuple:
    """Sorted arrays (lams, mults) of the clusters of refined roots: a root
    within CLUSTER_TOL_BASE (1 + |root|) of the one before it joins its
    cluster, which the cluster's first root stands for."""
    order = np.argsort(roots, kind="stable")
    roots, mults = roots[order], mults[order]
    starts = np.flatnonzero(np.diff(roots, prepend=-np.inf)
                            >= CLUSTER_TOL_BASE * (1 + np.abs(roots)))
    return roots[starts], np.add.reduceat(mults, starts)


def _real_spectrum(c: CurveProvider, bc: BoundaryCondition, a: float, b: float) -> tuple:
    """Sorted arrays (lams, mults) of a self-adjoint chart condition's
    eigenvalues in (a, b], clusters merged; the path is covered before the degeneracy test."""
    samples = _real_samples(c, a, b)
    if is_degenerate(c, bc, samples=np.linspace(a, b, 16)):
        raise DegenerateBCError("characteristic function vanishes identically; spectrum = C")
    return _merge_clusters(*_crossing_roots(c, bc.chart_unitary, *samples))


def eigenvalues_real(c: CurveProvider, bc: BoundaryCondition, interval):
    """All eigenvalues of a self-adjoint condition in a real interval (a, b]."""
    lams, mults = _real_spectrum(c, bc, *_real_request(c, bc, interval[0], interval[1],
                                                       "eigenvalues_real"))
    if not lams.size:
        return []
    return [Eigenvalue(lam=complex(lam), multiplicity=mult, residual=r)
            for lam, mult, r in zip(lams.tolist(), mults.tolist(),
                                    _residuals(c, bc, lams).tolist())]


# -- contour search --------------------------------------------------------


class _EdgeHit(NumericalError):
    """F vanishes on the contour, or turns too fast there to be resolved."""


def _lockstep(walks, evaluate):
    """Run generators side by side and return what each returns.  A walk
    yields a list of points and is sent their values; each round takes the
    values for every running walk from one evaluate call, in walk order."""
    walks = list(walks)
    out, sent = [None] * len(walks), dict.fromkeys(range(len(walks)))
    while sent:
        asks = {}
        for k, values in sent.items():
            try:
                asks[k] = walks[k].send(values)
            except StopIteration as done:
                out[k] = done.value
        if not asks:
            break
        values = iter(evaluate([z for zs in asks.values() for z in zs]))
        sent = {k: [next(values) for _ in zs] for k, zs in asks.items()}
    return out


def _samples(c, bc, zs):
    """[(z, F(z))] at a list of points, from one sections call.  Point by
    point: char_section's range check, then the noise floor, below which F
    means a zero on the contour."""
    F, scale, _ = sections(c, bc, zs)
    out = []
    for z, f, s in zip(zs, F.tolist(), scale.tolist()):
        f, s = _in_range(z, f, s)
        if abs(f) < 1e-11 * s:
            raise _EdgeHit(f"characteristic function vanishes on the contour at {z}")
        out.append((z, f))
    return out


def _segment(a, b, fresh):
    """The samples (z, F) along the segment from sample a to sample b, both
    included, with arg F turning by at most MAX_STEP_PHASE between
    neighbours: a walk for _lockstep.

    A step halves when it turns too far and grows by half when it turns by
    less than half the limit.  On a fresh segment it starts at 1/64 of it and
    never exceeds 1/4; a part of a step already accepted is tried whole.
    Each round yields the next SPECULATIVE_STEPS points the walk would visit
    if every step grew (b, whose value is known, is not yielded), and
    accepts them in order while each turns by at most the limit; the first
    that turns further has its step halved, and the points past it are
    dropped.  A round depends on the walk's own values only.
    """
    z0, z1 = a[0], b[0]
    out, t = [a], 0.0
    h, hmax = (1 / 64, 0.25) if fresh else (1.0, 1.0)
    while t < 1.0:
        ts, hs, tk, hk = [], [], t, h
        while len(ts) < SPECULATIVE_STEPS and tk < 1.0:
            tk = min(tk + hk, 1.0)
            ts.append(tk)
            hs.append(hk)
            hk = min(hk * 1.5, hmax)
        inner = [z0 + (z1 - z0) * tk for tk in ts if tk < 1.0]
        got = (yield inner) if inner else []
        for t1, h1, (z, F) in zip(ts, hs, got + [b]):
            step = abs(float(np.angle(F / out[-1][1])))
            if step > MAX_STEP_PHASE:
                h = (t1 - t) / 2
                if h < 1e-10:
                    # a phase jump the refinement cannot resolve means a zero
                    # sits on (or hugs) the contour; trigger the dilation retry
                    raise _EdgeHit(f"unresolved phase jump on the contour at {z}")
                break
            out.append((z, F))
            t = t1
            h = min(h1 * 1.5, hmax) if step < MAX_STEP_PHASE / 2 else h1
    return out


def _marches(c, bc, segments):
    """The samples of _segment along each segment (a, b, fresh), all marched
    in lockstep: one _samples call per round of trial steps."""
    return _lockstep((_segment(*s) for s in segments), lambda zs: _samples(c, bc, zs))


def _box_edges(c, bc, rect):
    """The edges of a rectangle, counterclockwise from its lower left corner,
    marched together between corners sampled in one call."""
    x0, x1, y0, y1 = rect
    corners = _samples(c, bc, [complex(x, y)
                               for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))])
    return _marches(c, bc, [(corners[k], corners[(k + 1) % 4], True) for k in range(4)])


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


def _children(c, bc, rect, edges, xm, ym):
    """The quadrants of a box split at (xm, ym), each with its boundary.

    The cut points on the edges and the center are sampled in one call.  The
    step of an edge that holds its cut point is marched again in two parts,
    and the four arms of the cross, from the cut points to the center, once:
    each quadrant walks one arm in and its neighbour's arm out.  The eight
    parts and the four arms march in one lockstep.
    """
    x0, x1, y0, y1 = rect
    *cuts, center = _samples(c, bc, [complex(xm, y0), complex(x1, ym), complex(xm, y1),
                                     complex(x0, ym), complex(xm, ym)])
    held = []  # the index of the step that holds each cut point
    for edge, (zm, _) in zip(edges, cuts):
        za, zb = edge[0][0], edge[-1][0]
        ts = [((z - za) / (zb - za)).real for z, _ in edge]
        held.append(bisect_right(ts, ((zm - za) / (zb - za)).real) - 1)
    parts = _marches(c, bc, [s for edge, k, m in zip(edges, held, cuts)
                             for s in ((edge[k], m, False), (m, edge[k + 1], False))]
                     + [(m, center, True) for m in cuts])
    (b0, b1), (r0, r1), (t0, t1), (l0, l1) = (
        (edge[:k] + parts[2 * i], parts[2 * i + 1] + edge[k + 2:])
        for i, (edge, k) in enumerate(zip(edges, held)))
    south, east, north, west = parts[8:]
    return [((x0, xm, y0, ym), [b0, south, west[::-1], l1]),
            ((xm, x1, y0, ym), [b1, r0, east, south[::-1]]),
            ((x0, xm, ym, y1), [west, north[::-1], t1, l0]),
            ((xm, x1, ym, y1), [east[::-1], r1, t0, north])]


def _newton(lam0, mult, box_size):
    """Newton with the multiplicity factor on secant slopes, as a walk for
    _lockstep that yields the points where it needs F: one F per step (the
    first slope is a forward difference), each step at most 2 box_size.
    Two steps in a row that do not lower |F| mean the noise floor or a split
    cluster is reached; the iterate with the least |F| is returned then."""
    lam = complex(lam0)
    prev = lam + 1e-6 * (1 + abs(lam))
    F, F_prev = yield [lam, prev]
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
        F, = yield [lam]
        if abs(F) < best_abs:
            best, best_abs, stale = lam, abs(F), 0
        else:
            stale += 1
            if stale == 2:
                break
    return best


def eigenvalues_complex(c: CurveProvider, bc: BoundaryCondition, rectangle):
    """Zeros of F inside a rectangle (re_min, re_max, im_min, im_max): the
    quadtree of winding boxes, whose segments march in lockstep rounds of
    SPECULATIVE_STEPS trial points each (_segment), then the Newton steps
    of its leaves in lockstep."""
    if c.domain != "entire":
        raise ValidationError("contour search requires an entire provider")
    x0, x1, y0, y1 = (float(v) for v in rectangle)
    if not (-LAMBDA_MAX <= x0 < x1 <= LAMBDA_MAX and -LAMBDA_MAX <= y0 < y1 <= LAMBDA_MAX):
        raise ValidationError(f"degenerate rectangle or sides beyond +-{LAMBDA_MAX:g}")
    if is_degenerate(c, bc, samples=[complex(a, b)
                                     for a in np.linspace(x0, x1, 8)
                                     for b in np.linspace(y0, y1, 8)]):
        raise DegenerateBCError("characteristic function vanishes identically; spectrum = C")

    rect = (x0, x1, y0, y1)
    for attempt in range(6):
        try:
            leaves = []
            _subdivide(c, bc, rect, _box_edges(c, bc, rect), leaves)
            break
        except _EdgeHit:
            if attempt == 5:
                raise NumericalError("zero on the contour after maximal dilation")
            cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
            sx, sy = (x1 - x0) / 2 * 1.01, (y1 - y0) / 2 * 1.01
            rect = (cx - sx, cx + sx, cy - sy, cy + sy)
            x0, x1, y0, y1 = rect
    if not leaves:
        return []
    lams = _lockstep((_newton(*leaf) for leaf in leaves),
                     lambda zs: sections(c, bc, zs)[0].tolist())
    found = [Eigenvalue(lam=lam, multiplicity=w, residual=float(r))
             for lam, (_, w, _), r in zip(lams, leaves, _residuals(c, bc, lams))]
    found.sort(key=lambda e: (e.lam.real, e.lam.imag))
    return found


def _subdivide(c, bc, rect, edges, leaves):
    """Append (first guess, multiplicity, size) for every box of the
    quadtree of rect that holds zeros and is split no further."""
    x0, x1, y0, y1 = rect
    w, s1 = _winding(edges)
    if w == 0:
        return
    size = max(x1 - x0, y1 - y0)
    if (w <= M_MAX and (w == 1 or size <= 1.0)) or size <= SIZE_TOL:
        leaves.append((s1 / w, w, max(size, SIZE_TOL)))
        return
    before = len(leaves)
    # if a zero sits on a split line, retry with nudged (irrational-ish) splits
    for shift in (0.0, 0.0371, -0.0529, 0.1113, -0.1637):
        xm = (x0 + x1) / 2 + shift * (x1 - x0)
        ym = (y0 + y1) / 2 + shift * (y1 - y0)
        try:
            for sub, sub_edges in _children(c, bc, rect, edges, xm, ym):
                _subdivide(c, bc, sub, sub_edges, leaves)
            break
        except _EdgeHit:
            del leaves[before:]
            if shift == -0.1637:
                raise
    got = sum(leaf[1] for leaf in leaves[before:])
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


def _disc_spectrum(c: CurveProvider, bc: BoundaryCondition, r: float) -> tuple:
    """Sorted arrays (lams, mults) of the eigenvalues in |lambda| <=
    min(r (1 + 1e-3), LAMBDA_MAX) and some beyond: the real sweep for a
    self-adjoint chart condition on an entire curve, else the contour
    search of the square of half-side min(1.05 r, LAMBDA_MAX)."""
    if bc.selfadjoint and c.domain == "entire":
        w = min(r * (1 + 1e-3) + 1e-6, LAMBDA_MAX)
        return _real_spectrum(c, bc, -w, w)
    s = min(1.05 * r, LAMBDA_MAX)
    evs = eigenvalues_complex(c, bc, (-s, s, -s, s))
    return (np.array([e.lam for e in evs], dtype=complex),
            np.array([e.multiplicity for e in evs], dtype=int))


def counting(c: CurveProvider, bc: BoundaryCondition, r: float) -> dict:
    """n_T(r) and the logarithmically weighted count N_T(r), at the middle
    of the nearest moduli below and above (at most r (1 + 1e-3) and
    LAMBDA_MAX) the ring RING_TOL_BASE (1 + r) about r, where that ring
    holds an eigenvalue."""
    r = float(_radii([r])[0])
    lams, mults = _disc_spectrum(c, bc, r)
    moduli = np.hypot(lams.real, lams.imag)
    ring_tol = RING_TOL_BASE * (1 + r)
    r_used = r
    if np.any(np.abs(moduli - r) < ring_tol):
        below = moduli[moduli < r - ring_tol].max(initial=0.0)
        above = moduli[moduli > r + ring_tol].min(initial=min(r * (1 + 1e-3), LAMBDA_MAX))
        r_used = 0.5 * (below + above)
    n_T, N_T = counting_sums(lams, mults, [r_used])
    return {"n_T": int(n_T[0]), "N_T": float(N_T[0]), "r_used": float(r_used)}


def counting_sums(lams, mults, radii) -> tuple:
    """Arrays (n, N) over the radii: the multiplicities of the eigenvalues
    strictly inside each radius r, and their sum weighted by log(r / |lam|),
    or by log r where |lam| < ZERO_TOL: bitwise the sums of a scalar loop
    over lams, as N adds its terms in their order and |lam| is hypot, as
    Python's abs (numpy's complex abs can differ in the last bit)."""
    moduli = np.hypot(np.real(lams), np.imag(lams))
    radii = np.asarray(radii, dtype=float)[:, None]
    inside = moduli < radii
    logs = np.log(radii / np.where(moduli < ZERO_TOL, 1.0, moduli))
    terms = np.where(inside, mults * logs, 0.0)
    return (np.where(inside, mults, 0).sum(axis=1),
            np.cumsum(np.hstack([np.zeros_like(radii), terms]), axis=1)[:, -1])


def interlace(c: CurveProvider, bc1: BoundaryCondition, bc2: BoundaryCondition,
              r: float) -> dict:
    """Eigenvalue counts of two self-adjoint conditions in (-r, r] (count_real),
    on an entire curve, with r in (0, LAMBDA_MAX]."""
    r = float(_radii([r])[0])
    n1 = count_real(c, bc1, -r, r)
    n2 = count_real(c, bc2, -r, r)
    return {"n1": int(n1), "n2": int(n2),
            "bound_satisfied": bool(abs(n1 - n2) <= c.n)}


def phase_count(c: CurveProvider, bc: BoundaryCondition, r: float) -> dict:
    """Total boundary phase over (-r, r) against the eigenvalue count.

    After re-gauging by g = diag(I, U*) the characteristic chart is the
    identity and det(U* B) = det(U*) det B, so the phase integral equals
    the unwrapped det-B phase difference and is chart-independent.  It needs
    a self-adjoint condition, an entire curve and r in (0, LAMBDA_MAX].
    """
    r = float(_radii([r])[0])
    n_T, dphi = _endpoint_count(c, bc, *_real_request(c, bc, -r, r, "phase_count"))
    phase_integral = dphi / TWO_PI
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
