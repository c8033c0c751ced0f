"""Independent reference values for the benchmark's checks.

Nothing here imports weylcurve: every reference comes from a closed form,
a different discretisation or a different quadrature than the program
uses, so a fault in the program cannot also sit in its reference.

- q = 0 on [0, pi]: fundamental solutions c = cos(k x), s = sin(k x)/k with
  k = sqrt(lambda); spectra in closed form; height from the phase of the
  factored closed-form det B, unwrapped on a dense grid and integrated with
  composite Simpson; proximity by an mpmath trapezoid rule on the
  closed-form section norm.
- q = cos x: tridiagonal Galerkin matrices in the sine / cosine bases.
- Robin y(0) = 0, y'(pi) = alpha y(pi) for q = 0: Newton on
  k cos(k pi) = alpha sin(k pi), completeness by a winding count.
- the exponential curve B = e^{i lambda}: h = r/pi, zeros
  -i log Y + 2 pi k, and proximity by Jensen's formula plus a quadrature
  of the remaining smooth term.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import simpson

TWO_PI = 2.0 * math.pi


# -- counting functions ---------------------------------------------------------


def counting(spectrum, r):
    """Nevanlinna N(r) of a list of (lambda, multiplicity).

    A zero at the origin contributes mult * ln r (the program's convention
    and the usual one); other zeros inside |lambda| < r contribute
    mult * ln(r / |lambda|).
    """
    total = mpmath.mpf(0)
    for lam, mult in spectrum:
        m = abs(complex(lam))
        if m >= r:
            continue
        total += mult * (mpmath.log(r) if m < 1e-8 else mpmath.log(r / mpmath.mpf(m)))
    return float(total)


# -- q = 0 spectra ------------------------------------------------------------


def _in(lam, a, b):
    return a < lam <= b


def q0_dirichlet(a, b):
    """Dirichlet eigenvalues k^2 (k >= 1) of -y'' on [0, pi] in (a, b]."""
    kmax = int(math.isqrt(max(int(b), 0))) + 1
    return [(float(k * k), 1) for k in range(1, kmax + 1) if _in(k * k, a, b)]


def q0_neumann(a, b):
    """Neumann eigenvalues k^2 (k >= 0) in (a, b]."""
    kmax = int(math.isqrt(max(int(b), 0))) + 1
    return [(float(k * k), 1) for k in range(0, kmax + 1) if _in(k * k, a, b)]


def q0_periodic(a, b):
    """Periodic eigenvalues: 0 simple, (2k)^2 double, in (a, b]."""
    kmax = int(math.isqrt(max(int(b), 0))) + 1
    out = [(0.0, 1)] if _in(0, a, b) else []
    return out + [(float(4 * k * k), 2) for k in range(1, kmax + 1) if _in(4 * k * k, a, b)]


# -- q = cos x: Galerkin ---------------------------------------------------------


def cos_galerkin(kind, a, b, size=64):
    """Eigenvalues of -y'' + cos(x) y on [0, pi] in (a, b], Dirichlet or Neumann.

    cos(x) couples sin(kx) to sin((k+1)x) with weight 1/2 (and likewise for
    the normalised cosines, except 1/sqrt(2) between the constant and cos x),
    so the operator is an exact tridiagonal matrix in these bases; `size`
    truncates it far above b.
    """
    if kind == "dirichlet":
        diag = np.arange(1, size + 1, dtype=float) ** 2
        off = np.full(size - 1, 0.5)
    elif kind == "neumann":
        diag = np.arange(0, size, dtype=float) ** 2
        off = np.full(size - 1, 0.5)
        off[0] = 1.0 / math.sqrt(2.0)
    else:
        raise ValueError(f"unknown condition {kind!r}")
    A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ev = np.linalg.eigvalsh(A)
    return [(float(v), 1) for v in ev if _in(v, a, b)]


# -- q = 0: closed-form phase and height ---------------------------------------


def _q0_den(t):
    """The factored Weyl denominator c' - s - i (c + s') at real t, vectorised.

    It never cancels: det B(t) = (X^2 + Y^2 + 4) / den^2 with X, Y real, so
    arg det B = -2 arg den on the real axis.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape, dtype=complex)
    pos = t > 0
    neg = t < 0
    k = np.sqrt(t[pos])
    sin_kp = np.sin(k * np.pi)
    cos_kp = np.cos(k * np.pi)
    out[pos] = -(k + 1.0 / k) * sin_kp - 2j * cos_kp
    kap = np.sqrt(-t[neg])
    out[neg] = (kap - 1.0 / kap) * np.sinh(kap * np.pi) - 2j * np.cosh(kap * np.pi)
    out[t == 0] = -np.pi - 2j
    return out


def q0_phase(ts):
    """Unwrapped arg det B at real points ts, anchored at the principal value at 0.

    ts must contain 0 and be dense enough that arg det B moves less than pi
    between neighbours; the phase is unwrapped outward from 0 in both
    directions.
    """
    ts = np.asarray(ts, dtype=float)
    order = np.argsort(ts)
    t_sorted = ts[order]
    i0 = int(np.searchsorted(t_sorted, 0.0))
    if t_sorted[i0] != 0.0:
        raise ValueError("phase grid must contain 0")
    raw = -2.0 * np.angle(_q0_den(t_sorted))
    anchor = float(np.angle(np.exp(1j * raw[i0])))
    up = np.unwrap(raw[i0:])
    down = np.unwrap(raw[i0::-1])
    phi = np.empty_like(raw)
    phi[i0:] = up - up[0] + anchor
    phi[:i0 + 1] = (down - down[0] + anchor)[::-1]
    out = np.empty_like(phi)
    out[order] = phi
    return out


def q0_height(radii, step=2e-3):
    """h(r) = (1/2 pi) int_0^r (phi(t) - phi(-t)) / t dt for q = 0.

    Composite Simpson on a uniform grid between consecutive radii, with the
    phase from the closed form unwrapped on the same grid.  The integrand
    is analytic; its value at t = 0 comes from cubic extrapolation.
    """
    radii = sorted(float(r) for r in radii)
    edges = [0.0] + radii
    grids = []
    for a, b in zip(edges, edges[1:]):
        n = max(2, 2 * int(math.ceil((b - a) / (2 * step))))
        grids.append(np.linspace(a, b, n + 1))
    t = np.unique(np.concatenate(grids))
    phi = q0_phase(np.concatenate([-t[::-1], t[1:]]))
    phi_m = phi[:len(t)][::-1]
    phi_p = phi[len(t) - 1:]
    f = np.empty_like(t)
    f[1:] = (phi_p[1:] - phi_m[1:]) / t[1:]
    f[0] = 3 * f[1] - 3 * f[2] + f[3]
    acc = 0.0
    out = []
    for g in grids:
        lo, hi = np.searchsorted(t, g[0]), np.searchsorted(t, g[-1])
        acc += simpson(f[lo:hi + 1], x=t[lo:hi + 1])
        out.append(acc / TWO_PI)
    return out


def q0_phase_at(r_list):
    """(phi(r), phi(-r)) for each r, on a grid dense enough to unwrap."""
    rmax = max(float(r) for r in r_list)
    t = np.unique(np.concatenate([np.linspace(0.0, rmax, int(rmax / 2e-3) + 2),
                                  np.asarray(r_list, dtype=float)]))
    grid = np.concatenate([-t[::-1], t[1:]])
    phi = q0_phase(grid)
    look = dict(zip(grid.tolist(), phi.tolist()))
    return [(look[float(r)], look[-float(r)]) for r in r_list]


def order_estimate(radii, h):
    """Finite-grid order and type: log-log slope over the top decade.

    The same finite-r definition the height command documents, applied to
    reference heights.
    """
    radii = np.asarray(radii, dtype=float)
    h = np.asarray(h, dtype=float)
    top = radii >= radii[-1] / 10
    rho = float(np.polyfit(np.log(radii[top]), np.log(h[top]), 1)[0])
    tau = float(np.max(h[top] / radii[top] ** rho))
    return rho, tau


# -- q = 0: proximity -------------------------------------------------------------


def _q0_neg_lognorm(kind, lam):
    """-ln of the section norm |det[V | W(lam)]| / vol W for q = 0 (mpmath).

    With the physical frame P = [(1, 0, c, c'), (0, 1, s, s')] and V the
    orthonormal span of the admissible boundary data, det[V | P] is the
    minor of P on the constrained rows: s for Dirichlet, -c' for Neumann.
    vol(P)^2 is the sum of the squared 2x2 minors of P (its Wronskian is 1).
    """
    k = mpmath.sqrt(lam)
    ck = mpmath.cos(k * mpmath.pi)
    sk = mpmath.sin(k * mpmath.pi)
    c, sp = ck, ck
    cp = -k * sk
    s = sk / k if k != 0 else mpmath.pi
    vol2 = 2 + abs(c) ** 2 + abs(cp) ** 2 + abs(s) ** 2 + abs(sp) ** 2
    minor = {"dirichlet": s, "neumann": cp}[kind]
    return -mpmath.log(abs(minor)) + mpmath.log(vol2) / 2


def q0_proximity(kind, r, nodes=2048, dps=30):
    """m(r) = (1/2 pi) int -ln section_norm(r e^{i theta}) d theta by the
    trapezoid rule, which converges geometrically for this periodic
    integrand at a rate set by the distance from the circle to the nearest
    eigenvalue.  The integrand is even in theta (real potential), so half
    the nodes are evaluated.
    """
    with mpmath.workdps(dps):
        r = mpmath.mpf(r)
        total = mpmath.mpf(0)
        half = nodes // 2
        for j in range(half + 1):
            th = 2 * mpmath.pi * j / nodes
            v = _q0_neg_lognorm(kind, r * mpmath.expjpi(th / mpmath.pi))
            total += v if j in (0, half) else 2 * v
        return float(total / nodes)


# -- Robin condition for q = 0 --------------------------------------------------


def _robin_g(lam, alpha):
    """g(lambda) = cos(k pi) - alpha sin(k pi)/k: entire, zero at eigenvalues."""
    k = np.sqrt(np.asarray(lam, dtype=complex))
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(k == 0, np.pi, np.sin(k * np.pi) / np.where(k == 0, 1, k))
    return np.cos(k * np.pi) - alpha * sinc


def winding(fun, rect, per_edge=20000):
    """Winding number of fun around the rectangle (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = rect
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    pts = np.concatenate([a + (b - a) * np.linspace(0.0, 1.0, per_edge, endpoint=False)
                          for a, b in zip(corners, corners[1:] + corners[:1])])
    pts = np.append(pts, pts[0])
    vals = fun(pts)
    steps = np.angle(vals[1:] / vals[:-1])
    if np.max(np.abs(steps)) > 0.5 * np.pi:
        raise ValueError("contour sampling too coarse for a reliable winding")
    return int(round(float(np.sum(steps)) / TWO_PI))


def robin_eigenvalues(alpha, rect):
    """Eigenvalues in rect of y(0) = 0, y'(pi) = alpha y(pi) for q = 0.

    Newton on f(k) = k cos(k pi) - alpha sin(k pi) from a grid of starts;
    the roots found must account for the whole winding number of the
    entire function g(lambda) = f(k)/k around the rectangle.
    """
    x0, x1, y0, y1 = rect
    alpha = complex(alpha)

    def f(k):
        return k * mpmath.cos(k * mpmath.pi) - alpha * mpmath.sin(k * mpmath.pi)

    def df(k):
        return (mpmath.cos(k * mpmath.pi) - k * mpmath.pi * mpmath.sin(k * mpmath.pi)
                - alpha * mpmath.pi * mpmath.cos(k * mpmath.pi))

    starts = [complex(a, b) for a in np.linspace(x0, x1, 40) for b in np.linspace(y0, y1, 7)]
    roots = []
    with mpmath.workdps(30):
        for lam0 in starts:
            k = mpmath.sqrt(mpmath.mpc(lam0))
            for _ in range(60):
                step = f(k) / df(k)
                k -= step
                if abs(step) < mpmath.mpf(10) ** -25:
                    break
            else:
                continue
            lam = complex(k * k)
            if x0 < lam.real < x1 and y0 < lam.imag < y1 and \
                    all(abs(lam - z) > 1e-8 for z in roots):
                roots.append(lam)
    expected = winding(lambda z: _robin_g(z, alpha), rect)
    if expected != len(roots):
        raise ValueError(f"Robin oracle found {len(roots)} roots, winding says {expected}")
    return [(z, 1) for z in sorted(roots, key=lambda z: (z.real, z.imag))]


# -- the exponential curve B = e^{i lambda} --------------------------------------


def exp_height(r):
    """arg det B(t) = t, so h(r) = (1/2 pi) int_0^r 2t/t dt = r/pi."""
    return float(r) / math.pi


def exp_chart_zeros(Y, rect):
    """Zeros of e^{i lambda} = Y in rect: arg Y + 2 pi k - i ln|Y|."""
    x0, x1, y0, y1 = rect
    Y = complex(Y)
    im = -math.log(abs(Y))
    base = math.atan2(Y.imag, Y.real)
    out = []
    for k in range(int(math.floor((x0 - base) / TWO_PI)), int(math.ceil((x1 - base) / TWO_PI)) + 1):
        re = base + TWO_PI * k
        if x0 < re < x1 and y0 < im < y1:
            out.append((complex(re, im), 1))
    return out


def exp_unitary_spectrum(theta0, a, b):
    """Eigenvalues of e^{i lambda} = e^{i theta0} in (a, b]: theta0 + 2 pi k."""
    out = []
    for k in range(int(math.floor((a - theta0) / TWO_PI)), int(math.ceil((b - theta0) / TWO_PI)) + 1):
        lam = theta0 + TWO_PI * k
        if a < lam <= b:
            out.append((lam, 1))
    return out


def exp_proximity(theta0, r):
    """m(r) for the condition B = e^{i theta0} (unitary chart U).

    -ln section_norm = -ln|B - U| + (1/2) ln(1 + |B|^2) + (1/2) ln 2.
    By Jensen's formula the circle mean of ln|e^{i lambda} - U| is
    ln|1 - U| + N(r).  With x = r sin(theta), (1/2) ln(1 + e^{-2x}) is
    max(0, -x), whose mean is r/pi, plus (1/2) ln(1 + e^{-2|x|}), whose mean
    R(r) = (1/pi) int_0^{pi/2} ln(1 + e^{-2 r sin t}) dt is left to mpmath
    quadrature.
    """
    with mpmath.workdps(30):
        r = mpmath.mpf(r)
        u = mpmath.expjpi(mpmath.mpf(theta0) / mpmath.pi)
        pts = [mpmath.mpf(0)] + [min(mpmath.mpf(x) / r, mpmath.pi / 2)
                                 for x in (0.5, 2, 8, 32, 128)] + [mpmath.pi / 2]
        pts = sorted(set(pts))
        R = mpmath.quad(lambda t: mpmath.log1p(mpmath.exp(-2 * r * mpmath.sin(t))), pts) / mpmath.pi
        N = mpmath.mpf(0)
        for lam, mult in exp_unitary_spectrum(float(theta0), -float(r), float(r)):
            if abs(lam) < r:
                N += mult * mpmath.log(r / abs(mpmath.mpf(lam)))
        m = mpmath.log(2) / 2 + r / mpmath.pi + R - mpmath.log(abs(1 - u)) - N
        return float(m)
