"""Value-distribution functionals of an entire Weyl curve.

Height h(r) integrates the boundary phase of det B; the counting function
N weights eigenvalue moduli logarithmically; the proximity function m
averages -ln of the Schubert section norm over circles.  The First Main
Theorem h = m + N + O(1) is reported as a residual table; Weyl order/type
and Nevanlinna/Valiron defects are finite-grid estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CurveProvider
from .errors import NumericalError, ValidationError
from .spectral import (BoundaryCondition, DegenerateBCError, char_function,
                       counting_sums, eigenvalues_complex, eigenvalues_real,
                       is_degenerate, sections)

TWO_PI = 2 * np.pi

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL7_NODES, _GL7_WEIGHTS = np.polynomial.legendre.leggauss(7)


def total_phase(c: CurveProvider, u: float) -> float:
    """Unwrapped arg det B along [0, u], anchored at the principal value.

    The value is sampled at u off the phase path, not interpolated.
    """
    u = float(u)
    if u == 0.0:
        return float(np.angle(np.linalg.det(c.B(0.0))))
    c.phase_path.cover(min(u, 0.0), max(u, 0.0))
    return float(c.phase_path.sample(u)[1])


def height(c: CurveProvider, r: float) -> float:
    return height_grid(c, [r])[0]


def height_grid(c: CurveProvider, r_grid) -> np.ndarray:
    """h(r) = (1/2pi) int_0^r [phi(t) - phi(-t)] / t dt on each grid radius."""
    radii = np.asarray(sorted(float(r) for r in r_grid))
    if radii.size == 0 or radii[0] <= 0:
        raise ValidationError("radii must be positive")
    rmax = radii[-1]
    path = c.phase_path
    path.cover(-rmax, rmax)
    # 7-point Gauss-Legendre on every panel between the knots of both
    # half-axes; the spline is cubic on each panel
    knots = np.unique(np.concatenate([np.abs(path.knots(-rmax, rmax)), radii, [0.0]]))
    mid = 0.5 * (knots[1:] + knots[:-1])[:, None]
    half = 0.5 * (knots[1:] - knots[:-1])[:, None]
    ts = mid + half * _GL7_NODES
    vals = (path.phase(ts) - path.phase(-ts)) / ts
    acc = np.concatenate([[0.0], np.cumsum(half[:, 0] * (vals @ _GL7_WEIGHTS))])
    out = acc[np.searchsorted(knots, radii)] / TWO_PI
    # restore caller order
    order = np.argsort(np.argsort([float(r) for r in r_grid]))
    return out[order]


# -- proximity --------------------------------------------------------------


def _adaptive_gl(f, edges, tol: float) -> float:
    """Adaptive 16-point Gauss-Legendre integral of f over consecutive edges.

    A panel is split until its two halves agree with the whole to tol; the
    halves become the children's whole values.  Panels where f exceeds
    ln 1e3 (a near-zero of the section whose -ln f integrand spikes) are
    split to depth 4 regardless.
    """
    def rule(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = f(mid + half * _GL_NODES)
        return half * float(np.dot(_GL_WEIGHTS, vals)), vals.max()

    def panel(a, b, whole, depth):
        mid = 0.5 * (a + b)
        left, right = rule(a, mid), rule(mid, b)
        fine = left[0] + right[0]
        needs_depth = np.exp(-whole[1]) < 1e-3 and depth < 4
        if (abs(fine - whole[0]) <= tol * (1 + abs(fine)) and not needs_depth) or depth >= 14:
            return fine
        return panel(a, mid, left, depth + 1) + panel(mid, b, right, depth + 1)

    return sum(panel(a, b, rule(a, b), 0) for a, b in zip(edges, edges[1:]))


def _neg_lognorm(c: CurveProvider, bc: BoundaryCondition, r: float, theta):
    """-ln section norm at the nodes r e^{i theta}, from one sections call."""
    ln = sections(c, bc, r * np.exp(1j * np.atleast_1d(theta)))[2]
    if not np.all(np.isfinite(ln)):
        raise NumericalError("section norm vanished on the circle "
                             "(eigenvalue at this radius)")
    return -ln


def proximity(c: CurveProvider, bc: BoundaryCondition, r: float,
              tol: float = 1e-7) -> float:
    """m(r) = -(1/2pi) int_0^{2pi} ln section_norm(V_y, W(r e^{i theta})) d theta."""
    r = float(r)
    return _adaptive_gl(lambda ths: _neg_lognorm(c, bc, r, ths),
                        np.linspace(0.0, TWO_PI, 9), tol) / TWO_PI


def proximity_omega(c: CurveProvider, Omega, r: float, tol: float = 1e-7) -> float:
    """Chart-form proximity -(1/2pi) int_0^pi ln |det(B - O) det(I - B* O)|.

    Differs from the definitional integral by a bounded r-independent
    constant; exposed as a cross-check.
    """
    Omega = np.asarray(Omega, dtype=complex)

    def f(theta):
        out = []
        for th in np.atleast_1d(theta):
            B = c.B(r * np.exp(1j * th))
            s1, l1 = np.linalg.slogdet(B - Omega)
            s2, l2 = np.linalg.slogdet(np.eye(c.n) - B.conj().T @ Omega)
            if s1 == 0 or s2 == 0:
                raise NumericalError("chart determinant vanished on the circle")
            out.append(-(l1 + l2))
        return np.asarray(out)

    return _adaptive_gl(f, np.linspace(0.0, np.pi, 5), tol) / TWO_PI


# -- reports ----------------------------------------------------------------


@dataclass
class VDReport:
    r_grid: np.ndarray
    phase_plus: np.ndarray
    phase_minus: np.ndarray
    height: np.ndarray
    counting: np.ndarray
    n_counts: np.ndarray
    proximity: np.ndarray
    fmt_residual: np.ndarray
    residual_range: float
    residual_ratio: float
    drift_slope: float
    label: str = ""


def fmt_report(c: CurveProvider, bc: BoundaryCondition, r_grid) -> VDReport:
    """First-Main-Theorem table h, N, m and the residual h - m - N."""
    radii = np.asarray([float(r) for r in r_grid])
    if np.any(radii <= 0) or radii.size < 2:
        raise ValidationError("need at least two positive radii")
    radii = np.sort(radii)
    if is_degenerate(c, bc):
        raise DegenerateBCError("degenerate boundary condition; FMT undefined")
    rmax = radii[-1]
    # one eigenvalue sweep reused for every radius; it runs first, so the
    # heights are read off its knots rather than off a second march
    if bc.selfadjoint and c.domain == "entire" and bc.chart_unitary is not None:
        evs = eigenvalues_real(c, bc, (-1.05 * rmax - 1.0, 1.05 * rmax + 1.0))
    else:
        evs = eigenvalues_complex(c, bc, (-1.05 * rmax, 1.05 * rmax,
                                          -1.05 * rmax, 1.05 * rmax))
    h = height_grid(c, radii)
    n_counts, N = map(np.array, zip(*(counting_sums(evs, r) for r in radii)))
    m = np.array([proximity(c, bc, r) for r in radii])
    resid = h - m - N
    phase_p = np.array([total_phase(c, r) for r in radii])
    phase_m = np.array([total_phase(c, -r) for r in radii])
    span = float(resid.max() - resid.min())
    ratio = float(np.abs(resid).max() / max(h[-1], 1e-300))
    slope = float(np.polyfit(h, resid, 1)[0]) if len(radii) > 2 else 0.0
    return VDReport(r_grid=radii, phase_plus=phase_p, phase_minus=phase_m,
                    height=h, counting=N, n_counts=n_counts, proximity=m,
                    fmt_residual=resid, residual_range=span,
                    residual_ratio=ratio, drift_slope=slope, label=bc.label)


def order_type(c: CurveProvider, r_grid) -> dict:
    """Finite-r Weyl order and type estimates from the top decade of h."""
    radii = np.sort(np.asarray([float(r) for r in r_grid]))
    return order_type_of_heights(radii, height_grid(c, radii))


def order_type_of_heights(radii, h) -> dict:
    """order_type read off the heights h already computed on the sorted radii."""
    radii, h = np.asarray(radii, dtype=float), np.asarray(h, dtype=float)
    if radii[-1] / radii[0] < 100 * (1 - 1e-9):
        raise ValidationError("order_type needs a grid spanning >= 2 decades")
    if h[-1] <= 1e-9:
        return {"rho": 0.0, "tau": float(max(h.max(), 0.0))}
    top = radii >= radii[-1] / 10
    if np.any(h[top] <= 0):
        return {"rho": 0.0, "tau": float(max(h.max(), 0.0))}
    rho = float(np.polyfit(np.log(radii[top]), np.log(h[top]), 1)[0])
    tau = float(np.max(h[top] / radii[top] ** rho))
    return {"rho": rho, "tau": tau}


def _tail_defects(radii, h, m_on) -> dict:
    """Min and max of m/h over the upper half of the sorted radii, clamped to
    [0, 1]; m_on(tail) gives m on the radii selected by the mask tail."""
    tail = radii >= radii[len(radii) // 2]
    if np.any(h[tail] < 1e-6):
        raise NumericalError("height too small on the tail; defects undefined")
    ratios = m_on(tail) / h[tail]
    lo = float(np.clip(ratios.min(), 0.0, 1.0))
    hi = float(np.clip(ratios.max(), 0.0, 1.0))
    return {"delta": lo, "Delta": hi}


def defects(c: CurveProvider, bc: BoundaryCondition, r_grid) -> dict:
    """Tail min/max of m/h, clamped to [0, 1]: defect estimates."""
    radii = np.sort(np.asarray([float(r) for r in r_grid]))
    return _tail_defects(radii, height_grid(c, radii),
                         lambda tail: np.array([proximity(c, bc, r) for r in radii[tail]]))


def report_defects(rep: VDReport) -> dict:
    """The defect estimates of `defects` read off a report's h and m."""
    return _tail_defects(rep.r_grid, rep.height, lambda tail: rep.proximity[tail])
