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


def total_phase(c: CurveProvider, u):
    """Unwrapped arg det B along [0, u], anchored at the principal value of
    arg det B(0), at u, a number or an array: one sample call for all.

    The value is sampled at u off the phase path, not interpolated.
    """
    us = np.asarray(u, dtype=float)
    c.phase_path.cover(min(us.min(), 0.0), max(us.max(), 0.0))
    phis = c.phase_path.sample(us.ravel())[1].reshape(us.shape)
    return float(phis) if phis.ndim == 0 else phis


def height(c: CurveProvider, r: float) -> float:
    return height_grid(c, [r])[0]


def height_grid(c: CurveProvider, r_grid) -> np.ndarray:
    """h(r) = (1/2pi) int_0^r [phi(t) - phi(-t)] / t dt on each grid radius.

    Each half-axis is integrated on its own, as int_0^r [phi(+-t) - phi(0)] / t dt,
    by 7-point Gauss-Legendre on the panels between its knots and the radii,
    at phases sampled exactly off the phase path: one sample call for the
    nodes of both half-axes.
    """
    radii = np.asarray(sorted(float(r) for r in r_grid))
    if radii.size == 0 or radii[0] <= 0:
        raise ValidationError("radii must be positive")
    rmax = radii[-1]
    path = c.phase_path
    path.cover(-rmax, rmax)
    ends = [np.unique(np.concatenate([[0.0], radii, np.abs(path.knots(*span))]))
            for span in ((0.0, rmax), (-rmax, 0.0))]
    ts = [0.5 * (t[1:] + t[:-1])[:, None] + 0.5 * np.diff(t)[:, None] * _GL7_NODES for t in ends]
    phis = path.sample(np.concatenate([[0.0], ts[0].ravel(), -ts[1].ravel()]))[1]
    h = 0.0
    for sign, t, nodes, ph in zip((1.0, -1.0), ends, ts, np.split(phis[1:], [ts[0].size])):
        vals = (ph.reshape(nodes.shape) - phis[0]) / nodes
        acc = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (vals @ _GL7_WEIGHTS))])
        h = h + sign * acc[np.searchsorted(t, radii)]
    # restore caller order
    order = np.argsort(np.argsort([float(r) for r in r_grid]))
    return (h / TWO_PI)[order]


# -- proximity --------------------------------------------------------------


def _adaptive_gl(f, edges, tol: float) -> float:
    """Adaptive 16-point Gauss-Legendre integral of f over consecutive edges.

    A panel is split until its two halves agree with the whole to tol; the
    halves become the children's whole values.  Panels where f exceeds
    ln 1e3 (a near-zero of the section whose -ln f integrand spikes) are
    split to depth 4 regardless.  The panel tree grows a level at a time,
    and each level's rules are one f call over all of their nodes; the
    panels are then summed in depth-first order.
    """
    def rules(panels):
        mids = [(0.5 * (a + b), 0.5 * (b - a)) for a, b in panels]
        vals = np.reshape(f(np.concatenate([mid + half * _GL_NODES for mid, half in mids])),
                          (len(panels), -1))
        return [(half * float(np.dot(_GL_WEIGHTS, v)), v.max()) for (_, half), v in zip(mids, vals)]

    # a panel [a, b, whole rule] gets its integral appended, or its halves
    pairs = list(zip(edges, edges[1:]))
    level = roots = [[a, b, whole] for (a, b), whole in zip(pairs, rules(pairs))]
    depth = 0
    while level:
        halves = rules([half for a, b, _ in level
                        for half in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))])
        nxt = []
        for panel, left, right in zip(level, halves[::2], halves[1::2]):
            a, b, whole = panel
            fine = left[0] + right[0]
            needs_depth = np.exp(-whole[1]) < 1e-3 and depth < 4
            if (abs(fine - whole[0]) <= tol * (1 + abs(fine)) and not needs_depth) or depth >= 14:
                panel.append(fine)
            else:
                panel += [a, 0.5 * (a + b), left], [0.5 * (a + b), b, right]
                nxt += panel[3:]
        level, depth = nxt, depth + 1

    def total(panel):
        return panel[3] if len(panel) == 4 else total(panel[3]) + total(panel[4])

    return sum(total(panel) for panel in roots)


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
        Bs = c.B_many(r * np.exp(1j * theta))
        s1, l1 = np.linalg.slogdet(Bs - Omega)
        s2, l2 = np.linalg.slogdet(np.eye(c.n) - Bs.conj().transpose(0, 2, 1) @ Omega)
        if np.any(s1 == 0) or np.any(s2 == 0):
            raise NumericalError("chart determinant vanished on the circle")
        return -(l1 + l2)

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
    # heights are read off the phase path it covered
    if bc.selfadjoint and c.domain == "entire" and bc.chart_unitary is not None:
        evs = eigenvalues_real(c, bc, (-1.05 * rmax - 1.0, 1.05 * rmax + 1.0))
    else:
        evs = eigenvalues_complex(c, bc, (-1.05 * rmax, 1.05 * rmax,
                                          -1.05 * rmax, 1.05 * rmax))
    h = height_grid(c, radii)
    n_counts, N = map(np.array, zip(*(counting_sums(evs, r) for r in radii)))
    m = np.array([proximity(c, bc, r) for r in radii])
    resid = h - m - N
    phase_p, phase_m = np.split(total_phase(c, np.concatenate([radii, -radii])), 2)
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
