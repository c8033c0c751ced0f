"""Eigenvalue localization and spectral bookkeeping for Weyl curves.

Eigenvalues of a boundary condition y are the zeros of the characteristic
function F(lambda) = det [ frame_Vy | frame_W(lambda) ].  Self-adjoint
conditions on entire curves have real spectrum.  Every eigenphase of
U* B(u) turns counterclockwise and their lifted sum is arg det B(u) less
arg det U, so the eigenvalues in (a, b] number the unwrapped det B phase
change less the change of the eigenphase sum in [0, 2 pi), over 2 pi; the
spectrum is counted that way on each step of the curve's phase path and
located by halving and one root solve per crossing.  General conditions
use argument-principle winding with recursive quadrisection.  The module
also implements the counting function, the interlacing and phase-count
bounds, the monotone phase margin, and the resolvent-identity
verification for the Sturm-Liouville backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .curves import CurveProvider
from .errors import DegenerateBCError, NumericalError, ValidationError
from .symplectic import GrassPoint, chart_convert, classify_subspace, graph_of, schubert_section

TWO_PI = 2 * np.pi
MAX_STEP_PHASE = 0.45 * np.pi
CLUSTER_TOL_BASE = 1e-7
COUNT_TOL = 1e-6
DEGEN_TOL = 1e-9
M_MAX = 4
SIZE_TOL = 1e-8


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
    from scipy.linalg import null_space
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


def char_function(c: CurveProvider, bc: BoundaryCondition, lam) -> complex:
    """F(lambda) = det [frame_bc | frame_W(lambda)].

    Zeros and their orders are frame-independent; the value is defined up
    to a nonvanishing holomorphic factor fixed by the canonical frames.
    Providers may carry a cancellation-safe evaluator as `section_fn`.
    """
    if c.section_fn is not None:
        return c.section_fn(bc.point, lam)[0]
    return schubert_section(bc.point, c.frame(lam))


def char_scale(c: CurveProvider, bc: BoundaryCondition, lam) -> float:
    """Hadamard scale of F: the noise ambient the value should be compared to."""
    if c.section_fn is not None:
        return max(c.section_fn(bc.point, lam)[1], 1e-300)
    m = np.hstack([bc.point.frame, c.frame(lam)])
    return float(np.prod(np.linalg.norm(m, axis=0)))


def is_degenerate(c: CurveProvider, bc: BoundaryCondition, samples=None) -> bool:
    """Detect F identically zero (spectrum = C) on a spread sample grid."""
    if samples is None:
        re = np.linspace(-50.0, 400.0, 8)
        im = np.linspace(-5.0, 5.0, 8)
        samples = [complex(a, b) for a in re for b in im]
    for lam in samples:
        if abs(char_function(c, bc, lam)) > DEGEN_TOL * char_scale(c, bc, lam):
            return False
    return True


# -- crossings along the real axis ------------------------------------------


def _real_samples(c: CurveProvider, a: float, b: float):
    """(us, Bs, phis) on [a, b] from the provider's phase path: a, the knots
    inside, b.  Each step turns det B by less than pi."""
    c.phase_path.cover(a, b)
    return c.phase_path.samples(a, b)


def _eigenphases(U, B) -> np.ndarray:
    """The eigenphases of U* B, each taken in [0, 2 pi)."""
    return np.angle(np.linalg.eigvals(U.conj().T @ B)) % TWO_PI


def _crossing_count(dphi: float, th0, th1) -> int:
    """Eigenphase crossings of 1 between two samples of the real axis.

    Every eigenphase of U* B(u) turns counterclockwise and their lifted sum
    is arg det B(u) less arg det U, so with dphi the unwrapped det B phase
    change and th0, th1 the eigenphases in [0, 2 pi) at the two samples,
    the crossings number [dphi - (sum th1 - sum th0)] / 2 pi.
    """
    k = (dphi - (float(np.sum(th1)) - float(np.sum(th0)))) / TWO_PI
    n = round(k)
    if n < 0 or abs(k - n) > COUNT_TOL:
        raise NumericalError(f"eigenphase crossing count {k:.9f} is not a nonnegative integer")
    return int(n)


def count_real(c: CurveProvider, bc: BoundaryCondition, a: float, b: float) -> int:
    """Eigenvalue count (with multiplicity) in (a, b] from the unwrapped det B phase."""
    if bc.chart_unitary is None:
        raise ValidationError("count_real requires a chart-unitary boundary condition")
    U = bc.chart_unitary
    _, Bs, phis = _real_samples(c, a, b)
    return _crossing_count(phis[-1] - phis[0], _eigenphases(U, Bs[0]), _eigenphases(U, Bs[-1]))


def _step_roots(c, U, u0, B0, u1, B1, dphi, out):
    """Append (root, multiplicity) for the crossings in the path step (u0, u1],
    over which det B turns by dphi < pi."""
    d0 = np.linalg.det(B0)

    def sample(u, B=None, phi=None):
        # (u, det B phase relative to u0, eigenphases)
        B = c.B(u) if B is None else B
        phi = float(np.angle(np.linalg.det(B) / d0)) if phi is None else phi
        return u, phi, _eigenphases(U, B)

    def count(x, y):
        return _crossing_count(y[1] - x[1], x[2], y[2])

    lo, hi = sample(u0, B0, 0.0), sample(u1, B1, dphi)
    parts = [(lo, hi, count(lo, hi))]
    while parts:
        x, y, m = parts.pop()
        if m == 0:
            continue
        if m > 1 and y[0] - x[0] >= CLUSTER_TOL_BASE * (1 + abs(y[0])):
            mid = sample(0.5 * (x[0] + y[0]))
            m1 = count(x, mid)
            parts += [(x, mid, m1), (mid, y, m - m1)]
            continue

        def psi(u):
            # before the first crossing in (x, u]: minus the counterclockwise
            # distance of the eigenphase nearest below 1; after it: the
            # distance of the one nearest above; continuous through the root
            z = x if u == x[0] else y if u == y[0] else sample(u)
            return float(z[2].min()) if count(x, z) else float(z[2].max()) - TWO_PI

        root = brentq(psi, x[0], y[0], xtol=1e-10 * (1 + abs(y[0])),
                      rtol=4 * np.finfo(float).eps)
        out.append((float(root), m))


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
    us, Bs, phis = _real_samples(c, a, b)
    roots = []
    for k in range(len(us) - 1):
        _step_roots(c, bc.chart_unitary, us[k], Bs[k], us[k + 1], Bs[k + 1],
                    phis[k + 1] - phis[k], roots)
    # merge refined roots that belong to one cluster
    roots.sort()
    merged = []
    for lam, mult in roots:
        tol = CLUSTER_TOL_BASE * (1 + abs(lam))
        if merged and lam - merged[-1][0] < tol:
            merged[-1][1] += mult
        else:
            merged.append([lam, mult])
    evs = []
    for lam, mult in merged:
        res = abs(char_function(c, bc, lam)) / max(char_scale(c, bc, lam), 1e-300)
        evs.append(Eigenvalue(lam=complex(lam), multiplicity=int(mult),
                              residual=float(res), method="real_scan"))
    return evs


# -- contour search --------------------------------------------------------


def _march_segment(c, bc, z0, z1, edge_floor):
    """Adaptive F-phase samples along [z0, z1]; returns accumulated arg
    change and the sampled (z, F) list."""
    samples = [(z0, char_function(c, bc, z0))]
    total = 0.0
    t = 0.0
    h = 0.125
    hmin = 1e-10
    while t < 1.0 - 1e-15:
        t1 = min(t + h, 1.0)
        z = z0 + (z1 - z0) * t1
        F = char_function(c, bc, z)
        if abs(F) < edge_floor(z):
            raise _EdgeHit(z)
        Fp = samples[-1][1]
        step = float(np.angle(F / Fp))
        if abs(step) > MAX_STEP_PHASE:
            h = (t1 - t) / 2
            if h < hmin:
                # a phase jump the refinement cannot resolve means a zero
                # sits on (or hugs) the contour; trigger the dilation retry
                raise _EdgeHit(z)
            continue
        samples.append((z, F))
        total += step
        t = t1
        if abs(step) < MAX_STEP_PHASE / 2:
            h = min(h * 1.5, 0.25)
    return total, samples


class _EdgeHit(Exception):
    def __init__(self, z):
        self.z = z


def _box_winding(c, bc, rect, edge_floor):
    """Winding number of F around a rectangle plus the first log-moment."""
    x0, x1, y0, y1 = rect
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    total = 0.0
    moment = 0.0 + 0.0j
    for k in range(4):
        seg_total, samples = _march_segment(c, bc, corners[k], corners[(k + 1) % 4],
                                            edge_floor)
        total += seg_total
        for (za, Fa), (zb, Fb) in zip(samples, samples[1:]):
            dlog = np.log(abs(Fb / Fa)) + 1j * float(np.angle(Fb / Fa))
            moment += 0.5 * (za + zb) * dlog
    w = total / TWO_PI
    if abs(w - round(w)) > 0.15:
        raise NumericalError(f"non-integer winding {w:.3f}; zero too close to the contour")
    return int(round(w)), moment / (2j * np.pi)


def _refine_newton(c, bc, lam0, mult, box_size):
    lam = complex(lam0)
    h0 = 1e-6
    for _ in range(60):
        F = char_function(c, bc, lam)
        h = h0 * (1 + abs(lam))
        fp = char_function(c, bc, lam + h)
        fm = char_function(c, bc, lam - h)
        gp = char_function(c, bc, lam + 1j * h)
        gm = char_function(c, bc, lam - 1j * h)
        dF = ((fp - fm) - 1j * (gp - gm)) / (4 * h)
        if dF == 0:
            break
        step = mult * F / dF
        if abs(step) > 2 * box_size:
            step *= 2 * box_size / abs(step)
        lam = lam - step
        if abs(step) < 1e-10 * (1 + abs(lam)):
            break
    return lam


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

    def edge_floor(z):
        return 1e-11 * char_scale(c, bc, z)

    rect = (x0, x1, y0, y1)
    for attempt in range(6):
        try:
            found = []
            _subdivide(c, bc, rect, edge_floor, found)
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


def _subdivide(c, bc, rect, edge_floor, found):
    x0, x1, y0, y1 = rect
    w, s1 = _box_winding(c, bc, rect, edge_floor)
    if w == 0:
        return
    size = max(x1 - x0, y1 - y0)
    if (w <= M_MAX and (w == 1 or size <= 1.0)) or size <= SIZE_TOL:
        centroid = s1 / w
        lam = _refine_newton(c, bc, centroid, w, max(size, SIZE_TOL))
        res = abs(char_function(c, bc, lam)) / max(char_scale(c, bc, lam), 1e-300)
        found.append(Eigenvalue(lam=lam, multiplicity=w, residual=float(res),
                                method="contour"))
        return
    before = len(found)
    # if a zero sits on a split line, retry with nudged (irrational-ish) splits
    for shift in (0.0, 0.0371, -0.0529, 0.1113, -0.1637):
        xm = (x0 + x1) / 2 + shift * (x1 - x0)
        ym = (y0 + y1) / 2 + shift * (y1 - y0)
        try:
            for sub in ((x0, xm, y0, ym), (xm, x1, y0, ym),
                        (x0, xm, ym, y1), (xm, x1, ym, y1)):
                _subdivide(c, bc, sub, edge_floor, found)
            break
        except _EdgeHit:
            del found[before:]
            if shift == -0.1637:
                raise
    got = sum(e.multiplicity for e in found[before:])
    if got != w:
        raise NumericalError(f"winding bookkeeping mismatch: box {w}, children {got}")


def multiplicity(c: CurveProvider, bc: BoundaryCondition, lam0, rho: float = 0.1) -> dict:
    """Analytic multiplicity by stabilized circle winding; geometric by rank."""
    lam0 = complex(lam0)

    def winding(radius):
        total = 0.0
        prev = char_function(c, bc, lam0 + radius)
        if abs(prev) == 0:
            raise NumericalError("zero on the multiplicity circle")
        m = 64
        k = 1
        while k <= m:
            z = lam0 + radius * np.exp(2j * np.pi * k / m)
            F = char_function(c, bc, z)
            if abs(F) == 0:
                raise NumericalError("zero on the multiplicity circle")
            step = float(np.angle(F / prev))
            if abs(step) > MAX_STEP_PHASE and m < 65536:
                m *= 2
                k = 2 * k - 1
                continue
            total += step
            prev = F
            k += 1
        w = total / TWO_PI
        if abs(w - round(w)) > 0.15:
            raise NumericalError("non-integer circle winding")
        return int(round(w))

    radius = rho
    for _ in range(20):
        w1 = winding(radius)
        w2 = winding(radius / 2)
        if w1 == w2:
            out = {"analytic": w1}
            if bc.chart_unitary is not None:
                sv = np.linalg.svd(bc.chart_unitary - c.B(lam0), compute_uv=False)
                out["geometric"] = int(np.sum(sv < 1e-6 * max(sv.max(), 1.0)))
            return out
        radius /= 2
    raise NumericalError("winding failed to stabilize; zero may not be isolated")


# -- counting, interlacing, phase count ------------------------------------


RING_TOL_BASE = 1e-6


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
    n_T = 0
    N_T = 0.0
    zero_tol = 1e-8
    for e in evs:
        m = abs(e.lam)
        if m >= r_used:
            continue
        n_T += e.multiplicity
        if m < zero_tol:
            N_T += e.multiplicity * np.log(r_used)
        else:
            N_T += e.multiplicity * np.log(r_used / m)
    return {"n_T": int(n_T), "N_T": float(N_T), "r_used": float(r_used)}


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
    U = bc.chart_unitary
    _, Bs, phis = _real_samples(c, -float(r), float(r))
    phase_integral = float(phis[-1] - phis[0]) / TWO_PI
    n_T = _crossing_count(phis[-1] - phis[0], _eigenphases(U, Bs[0]), _eigenphases(U, Bs[-1]))
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


def resolvent_residual(p, bc: BoundaryCondition, lam: float, f, num: int = 2049) -> float:
    """Relative L^2 residual of the Krein-type resolvent difference formula.

    Compares (T_bc - lam)^{-1} f - (T_+ - lam)^{-1} f against
    i gamma_+(lam) (B(lam)^{-1} U - I)^{-1} gamma_+(lam)* f.
    """
    from .sturm import (GAMMA_PLUS_ROWS_PHYS, _bc_functional_rows_phys, _dense_cs,
                        _gamma_system, _solve_bvp_rows, fundamental)
    from .sturm import sl_weyl
    if bc.chart_unitary is None:
        raise ValidationError("resolvent_residual requires a chart-unitary condition")
    lam = float(lam)
    xs = np.linspace(0.0, p.length, num)
    fv = np.asarray([f(x) for x in xs], dtype=complex) if callable(f) \
        else np.asarray(f, dtype=complex)
    y_bc = _solve_bvp_rows(p, _bc_functional_rows_phys(bc), lam, fv, xs)
    y_plus = _solve_bvp_rows(p, GAMMA_PLUS_ROWS_PHYS, lam, fv, xs)
    lhs = y_bc - y_plus

    cv, _, sv, _ = _dense_cs(p, lam, xs)
    fd = fundamental(p, lam)
    C = np.linalg.inv(_gamma_system(fd, +1))  # columns: coeffs of gamma_+ e_j
    from scipy.integrate import simpson
    basis = [C[0, j] * cv + C[1, j] * sv for j in range(2)]
    w = np.array([simpson(fv * np.conj(basis[j]), x=xs) for j in range(2)])
    B = sl_weyl(p, lam)["B"]
    T = np.linalg.solve(B, bc.chart_unitary) - np.eye(2)
    vec = np.linalg.solve(T, w)
    coef = C @ vec
    rhs = 1j * (coef[0] * cv + coef[1] * sv)

    num_int = simpson(np.abs(lhs - rhs) ** 2, x=xs)
    den_int = simpson(np.abs(fv) ** 2, x=xs)
    if den_int == 0:
        return 0.0
    return float(np.sqrt(num_int / den_int))
