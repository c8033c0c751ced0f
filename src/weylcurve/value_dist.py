"""Value-distribution functionals of an entire Weyl curve.

Height h(r) integrates the boundary phase of det B; the counting function
N weights eigenvalue moduli logarithmically; the proximity function m
averages -ln of the Schubert section norm over circles.  The First Main
Theorem h = m + N + O(1) is reported as a residual table; Weyl order/type
and Nevanlinna/Valiron defects are finite-grid estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import TWO_PI, CurveProvider
from .errors import NumericalError, ValidationError
from .spectral import BoundaryCondition, _disc_spectrum, _radii, counting_sums, sections
# re-exported: bench/tracing.py wraps them in this namespace too
from .spectral import (char_function, eigenvalues_complex, eigenvalues_real,  # noqa: F401
                       is_degenerate)

PROXIMITY_TOL = 1e-7  # _adaptive_gl's relative panel tolerance in proximity

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL7_NODES, _GL7_WEIGHTS = np.polynomial.legendre.leggauss(7)
HEIGHT_CHUNK = 8192  # the most Gauss nodes height_grid lifts in one B_many call


def total_phase(c: CurveProvider, u):
    """Unwrapped arg det B along [0, u], anchored at the principal value of
    arg det B(0), at u (a number or a non-empty array, in +-LAMBDA_MAX): one sample call.

    The value is sampled at u off the phase path, not interpolated.
    """
    us = np.asarray(u, dtype=float)
    if not us.size:
        raise ValidationError("total_phase needs at least one u")
    c.phase_path.cover(min(us.min(), 0.0), max(us.max(), 0.0))
    phis = c.phase_path.sample(us.ravel())[1].reshape(us.shape)
    return float(phis) if phis.ndim == 0 else phis


def height(c: CurveProvider, r: float) -> float:
    return height_grid(c, [r])[0]


def height_grid(c: CurveProvider, r_grid) -> np.ndarray:
    """h(r) = (1/2pi) int_0^r [phi(t) - phi(-t)] / t dt on each grid radius.

    Each half-axis is integrated on its own, as int_0^r [phi(+-t) - phi(0)] / t dt,
    by 7-point Gauss-Legendre on the panels between its knots and the radii,
    at phases sampled exactly off the phase path (_panel_sums).
    """
    radii = _radii(r_grid)
    rmax = radii[-1]
    path = c.phase_path
    path.cover(-rmax, rmax)
    phi0 = path.sample([0.0])[1][0]
    h = 0.0
    for sign, span in ((1.0, (0.0, rmax)), (-1.0, (-rmax, 0.0))):
        t = np.unique(np.concatenate([[0.0], radii, np.abs(path.knots(*span))]))
        acc = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * _panel_sums(path, sign, t, phi0))])
        h = h + sign * acc[np.searchsorted(t, radii)]
    # restore caller order
    order = np.argsort(np.argsort([float(r) for r in r_grid]))
    return (h / TWO_PI)[order]


def _panel_sums(path, sign: float, t, phi0) -> np.ndarray:
    """The 7-point Gauss-Legendre sums of (phi(sign x) - phi0) / x on the
    panels [t_j, t_j+1] of the sorted ends t >= 0, before the factor of the
    half panel, where every knot of the half-axis inside [0, t[-1]] is an end.

    So the knot at or below a node is that of the panel's left end, or on the
    negative half-axis that of its mirrored left end -t_j+1: one lookup per
    panel end.  The nodes are lifted (PhasePath._lift) in chunks of at most
    HEIGHT_CHUNK, so the temporaries do not grow with the number of panels.
    """
    k = np.searchsorted(path.us, sign * t, side="right") - 1
    k = k[:-1] if sign > 0 else k[1:]
    per = HEIGHT_CHUNK // len(_GL7_NODES)
    sums = np.empty(len(t) - 1)
    for i in range(0, len(sums), per):
        a, b = t[:-1][i:i + per], t[1:][i:i + per]
        x = 0.5 * (b + a)[:, None] + 0.5 * (b - a)[:, None] * _GL7_NODES
        kx = k[i:i + per, None]
        # a panel a few ulps wide can round a node onto an end, where a knot
        # may sit: its nodes are looked up one by one
        loose = (x[:, 0] <= a) | (x[:, -1] >= b)
        if loose.any():
            kx = np.repeat(kx, x.shape[1], axis=1)
            kx[loose] = np.searchsorted(path.us, sign * x[loose], side="right") - 1
        sums[i:i + per] = ((path._lift(sign * x, kx)[1] - phi0) / x) @ _GL7_WEIGHTS
    return sums


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


def proximity(c: CurveProvider, bc: BoundaryCondition, r: float) -> float:
    """m(r) = -(1/2pi) int_0^{2pi} ln section_norm(V_y, W(r e^{i theta})) d theta,
    by _adaptive_gl at PROXIMITY_TOL.

    W(conj lambda) is the J-orthogonal complement of W(lambda), and a
    self-adjoint V_y is its own, so the section norm is even in theta.  A
    self-adjoint condition integrates the upper half circle, [0, pi], on
    the first four of the full circle's eight starting panels.  r is in (0, LAMBDA_MAX].
    """
    r = float(_radii([r])[0])
    edges = np.linspace(0.0, TWO_PI, 9)[:5 if bc.selfadjoint else 9]
    return _adaptive_gl(lambda ths: _neg_lognorm(c, bc, r, ths), edges,
                        PROXIMITY_TOL) / edges[-1]


def proximity_omega(c: CurveProvider, Omega, r: float) -> float:
    """Chart-form proximity -(1/2pi) int_0^pi ln |det(B - O) det(I - B* O)|,
    at PROXIMITY_TOL as proximity.

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

    return _adaptive_gl(f, np.linspace(0.0, np.pi, 5), PROXIMITY_TOL) / TWO_PI


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
    delta: float
    Delta: float


def fmt_report(c: CurveProvider, bcs, r_grid) -> list:
    """One VDReport per condition of bcs: the First-Main-Theorem table h, N, m,
    the residual h - m - N and the defects.  h and the phases at +-r belong
    to the curve, so they are computed once for all of the conditions."""
    radii = _radii(r_grid, least=2)
    # one eigenvalue search per condition, reused for every radius, which
    # raises DegenerateBCError for a degenerate one; the searches run first,
    # so the heights are read off the phase path they covered
    spectra = [_disc_spectrum(c, bc, radii[-1]) for bc in bcs]
    h = height_grid(c, radii)
    phase_p, phase_m = np.split(total_phase(c, np.concatenate([radii, -radii])), 2)
    reports = []
    for bc, (lams, mults) in zip(bcs, spectra):
        n_counts, N = counting_sums(lams, mults, radii)
        m = np.array([proximity(c, bc, r) for r in radii])
        resid = h - m - N
        reports.append(VDReport(
            r_grid=radii, phase_plus=phase_p, phase_minus=phase_m, height=h, counting=N,
            n_counts=n_counts, proximity=m, fmt_residual=resid,
            residual_range=float(resid.max() - resid.min()),
            residual_ratio=float(np.abs(resid).max() / max(h[-1], 1e-300)),
            drift_slope=float(np.polyfit(h, resid, 1)[0]) if len(radii) > 2 else 0.0,
            **_tail_defects(radii, h, lambda tail: m[tail])))
    return reports


def order_type(c: CurveProvider, r_grid) -> dict:
    """Finite-r Weyl order and type estimates from the top decade of h."""
    radii = _radii(r_grid)
    ot = order_type_of_heights(radii, height_grid(c, radii))
    if ot is None:
        raise ValidationError("order_type needs a grid spanning >= 2 decades")
    return ot


def order_type_of_heights(radii, h) -> Optional[dict]:
    """order_type off the heights h on the sorted radii; None below two decades."""
    radii, h = np.asarray(radii, dtype=float), np.asarray(h, dtype=float)
    if radii[-1] / radii[0] < 100 * (1 - 1e-9):
        return None
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
    radii = _radii(r_grid)
    return _tail_defects(radii, height_grid(c, radii),
                         lambda tail: np.array([proximity(c, bc, r) for r in radii[tail]]))

