"""Sturm-Liouville backend: L = -d^2/dx^2 + q(x) on [0, pi].

Fundamental solutions c (y(0)=1, y'(0)=0) and s (y(0)=0, y'(0)=1) are
propagated at any complex lambda by a panel method.  q is sampled once per
problem at fixed Gauss nodes of N uniform panels; each panel's transfer
matrix is the fourth-order Magnus exponential (Iserles & Norsett 1999) of
a traceless 2x2 matrix, in closed form, which is exact for constant q; a
Hillis-Steele scan of these products gives the fundamental matrix at every
panel start.  The three L^2 moment integrals needed for gamma-field Gram
matrices are Gauss quadratures of the panel-local solutions, reached by
fourth-order partial Magnus steps, and the difference w = c - s' is the
panel sum of its variation-of-constants integrals.  N is a power of two
set by the ODE tolerance, the size of q' and |lambda|; the tests check the
result against DOP853 at rtol 1e-13.

The module exposes the explicit 2x2 Weyl data (M, B), the boundary-triplet
coordinate map, gamma-fields, boundary-condition constructors from physical
2x4 matrices, Green's-function solves, the resolvent-identity check, and
the weak-degeneracy scan.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.interpolate import CubicSpline
from scipy.linalg import null_space

from .curves import CurveProvider
from .errors import NumericalError, ValidationError
from .spectral import BoundaryCondition, make_bc
from .symplectic import GrassPoint

LAMBDA_MAX = 1e6
SQRT2 = np.sqrt(2.0)

# Maps physical boundary data (y(0), y'(0), y(pi), y'(pi)) to canonical
# boundary-triplet coordinates (Gamma+_1, Gamma+_2, Gamma-_1, Gamma-_2),
# where Gamma0 y = (y(0), y(pi)), Gamma1 y = (y'(0), -y'(pi)) and
# Gamma+- = (Gamma1 +- i Gamma0) / sqrt(2).  Unitary.
TRIPLET_MAP = np.array([
    [1j, 1, 0, 0],
    [0, 0, 1j, -1],
    [-1j, 1, 0, 0],
    [0, 0, -1j, -1],
], dtype=complex) / SQRT2


@dataclass(frozen=True)
class Potential:
    """Real potential q on [0, pi]: zero, polynomial, or cubic table."""

    kind: str
    coeffs: Optional[tuple] = None
    x: Optional[tuple] = None
    q: Optional[tuple] = None

    @classmethod
    def zero(cls) -> "Potential":
        return cls(kind="zero")

    @classmethod
    def polynomial(cls, coeffs) -> "Potential":
        coeffs = tuple(float(a) for a in coeffs)
        return cls(kind="polynomial", coeffs=coeffs)

    @classmethod
    def table(cls, x, q) -> "Potential":
        x = tuple(float(v) for v in x)
        q = tuple(float(v) for v in q)
        if len(x) != len(q) or len(x) < 4:
            raise ValidationError("table potential needs matching grids of length >= 4")
        if any(b <= a for a, b in zip(x, x[1:])):
            raise ValidationError("table grid must be strictly increasing")
        return cls(kind="table", x=x, q=q)

    def evaluator(self, length: float):
        """Vectorised evaluator of q: an array of points to an array of values."""
        if self.kind == "zero":
            return lambda x: np.zeros(np.shape(x))
        if self.kind == "polynomial":
            coeffs = np.asarray(self.coeffs, dtype=float)
            return lambda x: npoly.polyval(np.asarray(x, dtype=float), coeffs)
        if self.kind == "table":
            if self.x[0] > 0.0 or self.x[-1] < length:
                raise ValidationError("table grid must cover the interval")
            spl = CubicSpline(np.asarray(self.x), np.asarray(self.q), bc_type="natural")
            return lambda x: spl(np.asarray(x, dtype=float))
        raise ValidationError(f"unknown potential kind {self.kind!r}")

    def deriv_evaluator(self, length: float):
        """Vectorised evaluator of q' (the forcing of w = c - s')."""
        if self.kind == "zero":
            return lambda x: np.zeros(np.shape(x))
        if self.kind == "polynomial":
            dcoeffs = npoly.polyder(np.asarray(self.coeffs, dtype=float))
            return lambda x: npoly.polyval(np.asarray(x, dtype=float), dcoeffs)
        if self.kind == "table":
            spl = CubicSpline(np.asarray(self.x), np.asarray(self.q),
                              bc_type="natural").derivative()
            return lambda x: spl(np.asarray(x, dtype=float))
        raise ValidationError(f"unknown potential kind {self.kind!r}")

    def to_json(self) -> dict:
        d = {"kind": self.kind}
        if self.coeffs is not None:
            d["coeffs"] = list(self.coeffs)
        if self.x is not None:
            d["x"] = list(self.x)
            d["q"] = list(self.q)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Potential":
        kind = d.get("kind")
        if kind == "zero":
            return cls.zero()
        if kind == "polynomial":
            return cls.polynomial(d.get("coeffs", []))
        if kind == "table":
            return cls.table(d.get("x", []), d.get("q", []))
        raise ValidationError(f"unknown potential kind {kind!r}")


@dataclass(frozen=True)
class FundamentalData:
    """Endpoint values and L^2 moments of the fundamental solutions."""

    lam: complex
    c: complex
    cp: complex
    s: complex
    sp: complex
    m_cc: complex  # integral |c|^2
    m_cs: complex  # integral c * conj(s)
    m_ss: complex  # integral |s|^2
    # the difference w = c - s' from its own variation-of-constants sum:
    # both solutions grow like e^{pi sqrt(-lam)} on the negative axis while
    # their difference stays far smaller (it is exactly 0 for constant q),
    # so forming it from the separate endpoints loses all precision there
    w: complex = 0j
    wp: complex = 0j  # endpoint derivative of w (its magnitude envelope)

    @property
    def wronskian(self) -> complex:
        return self.c * self.sp - self.cp * self.s


@dataclass(frozen=True)
class SLProblem:
    potential: Potential
    length: float = float(np.pi)
    ode_rtol: float = 1e-10
    ode_atol: float = 1e-12  # validated, unused: the panel errors are relative

    _memo: dict = field(default_factory=dict, compare=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, compare=False, repr=False)
    _qfun_cache: list = field(default_factory=list, compare=False, repr=False)
    # q samples per panel count, and (max |q|, max |q'|) under key "scale"
    _panel_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.length <= 0:
            raise ValidationError("interval length must be positive")
        if not (0 < self.ode_rtol <= 1e-4 and 0 < self.ode_atol <= 1e-4):
            raise ValidationError("ODE tolerances must lie in (0, 1e-4]")

    def _qfun(self):
        if not self._qfun_cache:
            self._qfun_cache.append(self.potential.evaluator(self.length))
        return self._qfun_cache[0]

    def _qdfun(self):
        if len(self._qfun_cache) < 2:
            self._qfun()
            self._qfun_cache.append(self.potential.deriv_evaluator(self.length))
        return self._qfun_cache[1]


# Fourth-order Magnus: the two Gauss nodes of a step, as fractions of it
_MAGNUS_NODES = np.array([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6])
_MAGNUS_SKEW = np.sqrt(3) / 12
# Gauss-Legendre nodes (fractions of a panel) and weights of the moment and
# w quadratures
_QUAD_X, _QUAD_W = np.polynomial.legendre.leggauss(4)
_QUAD_NODES, _QUAD_WEIGHTS = (_QUAD_X + 1) / 2, _QUAD_W / 2
# relative error of that quadrature on a panel is about QUAD_ERR (k h)^8 for
# solutions growing like e^{k x}
_QUAD_ERR = 2.9e-7
_MIN_PANELS = 16


@dataclass(frozen=True)
class _Panels:
    """q sampled for one panel count: what a Magnus step needs is the mean
    of q at its two nodes and sqrt(3)/12 step^2 (q(first) - q(second))."""

    h: float
    mean: np.ndarray       # (N,) whole panels
    skew: np.ndarray
    sub_mean: np.ndarray   # (N, J) partial steps from a panel start to its
    sub_skew: np.ndarray   # quadrature nodes
    forcing: np.ndarray    # (N, J) -q' at the nodes times h times the weights


def _magnus_terms(q, x0, step):
    """(mean, skew) of Magnus steps of length step from x0; one evaluator call."""
    t = np.asarray(x0)[..., None] + np.asarray(step)[..., None] * _MAGNUS_NODES
    qt = q(t)
    return qt.mean(axis=-1), _MAGNUS_SKEW * step ** 2 * (qt[..., 0] - qt[..., 1])


def _sample_panels(p: SLProblem, n: int) -> _Panels:
    h = p.length / n
    x0 = h * np.arange(n)
    sub = h * _QUAD_NODES
    # one evaluator call samples the whole-panel and the partial-step nodes
    mean, skew = _magnus_terms(p._qfun(), np.concatenate([x0, np.repeat(x0, sub.size)]),
                               np.concatenate([np.full(n, h), np.tile(sub, n)]))
    qd = p._qdfun()(x0[:, None] + sub)
    return _Panels(h=h, mean=mean[:n], skew=skew[:n],
                   sub_mean=mean[n:].reshape(n, -1), sub_skew=skew[n:].reshape(n, -1),
                   forcing=-qd * (h * _QUAD_WEIGHTS))


def _panel_count(p: SLProblem, lam: complex) -> int:
    """Smallest power of two (at least 16) of panels whose step h meets both
    error models at ode_rtol: the Magnus error, about q_1 h^4 with q_1 the
    largest |q'|, and the quadrature error, about QUAD_ERR (k h)^8 with
    k^2 = 1 + |lambda| + max |q|.  tests/test_sturm.py checks the result
    against DOP853 at rtol 1e-13."""
    scale = p._panel_cache.get("scale")
    if scale is None:
        xs = np.linspace(0.0, p.length, 1025)
        scale = p._panel_cache["scale"] = (float(np.max(np.abs(p._qfun()(xs)))),
                                           float(np.max(np.abs(p._qdfun()(xs)))))
    q_max, qd_max = scale
    h = (p.ode_rtol / _QUAD_ERR) ** 0.125 / math.sqrt(1.0 + abs(lam) + q_max)
    if qd_max > 0:
        h = min(h, (p.ode_rtol / qd_max) ** 0.25)
    return max(_MIN_PANELS, 1 << math.ceil(math.log2(p.length / h)))


def _panels(p: SLProblem, lam: complex) -> _Panels:
    n = _panel_count(p, lam)
    pan = p._panel_cache.get(n)
    if pan is None:
        pan = p._panel_cache[n] = _sample_panels(p, n)
    return pan


def _magnus_exp(skew, step, mean, lam):
    """Entries (e00, e01, e10, e11) of exp M, M = [[a, b], [c, -a]] with
    a = skew, b = step and c = step (mean - lam), in closed form:
    cosh d I + (sinh d / d) M with d^2 = a^2 + bc.  lam is complex."""
    c = step * (mean - lam)
    d = np.sqrt(skew * skew + step * c)
    ch = np.cosh(d)
    nz = d != 0
    d1 = np.where(nz, d, 1.0)
    sh = np.where(nz, np.sinh(d1) / d1, 1.0)
    return ch + sh * skew, sh * step, sh * c, ch - sh * skew


def _mul(x, y):
    """Entrywise 2x2 product x @ y of entry tuples (e00, e01, e10, e11)."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _prefix(E) -> np.ndarray:
    """Fundamental matrix (c, s, c', s') at every panel start x_0 .. x_N:
    the prefix products of the panel factors by a Hillis-Steele scan."""
    n = E[0].size
    out = np.empty((4, n + 1), dtype=complex)
    out[:, 0] = (1, 0, 0, 1)
    out[:, 1:] = E
    m = out[:, 1:]
    shift = 1
    while shift < n:
        m[:, shift:] = _mul(m[:, shift:], m[:, :-shift])
        shift *= 2
    return out


def _carry(E, P):
    """y_N of the recurrence y_{k+1} = E_k y_k + P_k from y_0 = 0, by
    composing neighbouring affine maps pairwise (N is a power of two)."""
    while P[0].size > 1:
        lo = [e[0::2] for e in E]
        hi = [e[1::2] for e in E]
        P = (hi[0] * P[0][0::2] + hi[1] * P[1][0::2] + P[0][1::2],
             hi[2] * P[0][0::2] + hi[3] * P[1][0::2] + P[1][1::2])
        E = _mul(hi, lo)
    return P[0][0], P[1][0]


def _propagate(p: SLProblem, lam: complex):
    """Panel set, panel factors and prefix products at one lambda."""
    pan = _panels(p, lam)
    E = _magnus_exp(pan.skew, pan.h, pan.mean, lam)
    return pan, E, _prefix(E)


def _overflow(lam: complex, what: str) -> NumericalError:
    return NumericalError(f"{what} overflow at lambda = {lam:g}: the solutions grow "
                          "like e^(pi sqrt(-lambda)) and leave the floating-point range")


def fundamental(p: SLProblem, lam) -> FundamentalData:
    """Fundamental system across [0, L] at complex lambda, by panels.

    The endpoint values are the last prefix product.  The moments are
    4-point Gauss sums of the solutions at the quadrature nodes of every
    panel, reached by partial Magnus steps.  w = c - s' obeys
    w'' = (q - lam) w - q' s from zero data, so it is the sum over panels of
    the variation-of-constants integral of the forcing -q' s, each carried
    to the panel end by that panel's own propagators and then across the
    rest of the interval; it never forms c - s'.
    """
    lam = complex(lam)
    if abs(lam) > LAMBDA_MAX:
        raise ValidationError(f"|lambda| exceeds the supported range {LAMBDA_MAX:g}")
    key = (lam.real, lam.imag)
    hit = p._memo.get(key)
    if hit is not None:
        return hit
    with np.errstate(all="ignore"):
        pan, E, Y = _propagate(p, lam)
        al, be, _, _ = _magnus_exp(pan.sub_skew, _QUAD_NODES * pan.h, pan.sub_mean, lam)
        cn = al * Y[0, :-1, None] + be * Y[2, :-1, None]
        sn = al * Y[1, :-1, None] + be * Y[3, :-1, None]
        wq = pan.h * _QUAD_WEIGHTS
        m_cc = np.sum(wq * (cn.real ** 2 + cn.imag ** 2))
        m_cs = np.sum(wq * cn * sn.conj())
        m_ss = np.sum(wq * (sn.real ** 2 + sn.imag ** 2))
        # forcing at each node carried to the panel end: E_k E_kj^{-1} (0, f)
        f = pan.forcing * sn
        v0, v1 = np.sum(-be * f, axis=1), np.sum(al * f, axis=1)
        w, wp = _carry(E, (E[0] * v0 + E[1] * v1, E[2] * v0 + E[3] * v1))
        vals = np.array([Y[0, -1], Y[2, -1], Y[1, -1], Y[3, -1], m_cc, m_cs, m_ss, w, wp])
    if not np.all(np.isfinite(vals.view(float))):
        raise _overflow(lam, "fundamental moment")
    fd = FundamentalData(lam, *(complex(v) for v in vals))
    with p._lock:
        p._memo[key] = fd
    return fd


def _pole_tol(lam: complex) -> float:
    return 1e-8 * (1 + abs(lam))


def sl_weyl(p: SLProblem, lam) -> dict:
    """Weyl function M (None at poles) and contractive Weyl function B.

    B = [[c' + s - i w, 2i], [2i, c' + s + i w]] / (c' - s - i (c + s')) with
    the carried w = c - s': the Cayley transform of M = -[[c, -1], [-1, s']] / s
    with the common factor s cancelled by the Wronskian c s' - c' s = 1, so
    it stays exact near the poles of M (the zeros of s).
    """
    lam = complex(lam)
    fd = fundamental(p, lam)
    c_, cp_, s_, sp_ = fd.c, fd.cp, fd.s, fd.sp
    at_pole = abs(s_) < _pole_tol(lam)
    M = None if at_pole else -np.array([[c_, -1], [-1, sp_]], dtype=complex) / s_
    den = cp_ - s_ - 1j * (c_ + sp_)
    scale = abs(cp_) + abs(s_) + abs(c_) + abs(sp_) + 1.0
    if abs(den) < 1e-13 * scale:
        raise NumericalError("factored Weyl denominator vanished: B has a pole here")
    B = np.array([
        [cp_ + s_ - 1j * fd.w, 2j],
        [2j, cp_ + s_ + 1j * fd.w],
    ], dtype=complex) / den
    return {"M": M, "B": B, "pole": at_pole}


_DET_TRIPLET = complex(np.linalg.det(TRIPLET_MAP))
_MINOR_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# Laplace expansion det[A|B] = sum_{i<j} (-1)^{i+j+1} det(A_comp) det(B_ij)
_MINOR_SIGNS = (1, -1, 1, 1, -1, 1)
# relative threshold below which a coefficient combination is treated as a
# structural algebraic zero of the boundary condition rather than roundoff
_COEFF_SNAP = 1e-13


def _section_cofactors(point: GrassPoint):
    """Cofactors q_ij of det[V | T P] against the row-pair minors of the
    physical fundamental frame P, with the unitary coordinate map factored
    onto the boundary-condition block."""
    A = TRIPLET_MAP.conj().T @ point.frame
    q = {}
    for sgn, (i, j) in zip(_MINOR_SIGNS, _MINOR_PAIRS):
        comp = [k for k in range(4) if k not in (i, j)]
        q[(i, j)] = sgn * complex(np.linalg.det(A[comp, :]))
    top = max(abs(v) for v in q.values())
    return {k: _snap(v, top) for k, v in q.items()}


def _snap(v: complex, scale: float) -> complex:
    return 0j if abs(v) < _COEFF_SNAP * scale else v


def stable_section(p: SLProblem, point: GrassPoint, lam) -> tuple:
    """(F, scale): det [V | W(lam)] via minors of the physical frame.

    The minors of W are (1, s, s', -c, -c', Wronskian); the Wronskian is 1
    exactly and s' is rewritten through the integrated difference w = c - s',
    so the two structural cancellations that destroy the naive determinant
    on the far negative axis are performed in exact arithmetic.  The scale
    is the matching Hadamard bound of the surviving terms.
    """
    fd = fundamental(p, lam)
    q = _section_cofactors(point)
    const = _snap(q[(0, 1)] + q[(2, 3)], abs(q[(0, 1)]) + abs(q[(2, 3)]))
    alpha = _snap(q[(0, 3)] - q[(1, 2)], abs(q[(0, 3)]) + abs(q[(1, 2)]))
    terms = (const, q[(0, 2)] * fd.s, alpha * fd.c,
             -q[(0, 3)] * fd.w, -q[(1, 3)] * fd.cp)
    value = _DET_TRIPLET * sum(terms)
    # roundoff floor per term: ODE error in a fundamental entry is at the
    # level rtol * envelope of that solution over [0, pi], so a term whose
    # endpoint value vanishes (e.g. s at an eigenvalue) still carries noise
    # ~ |coef| * envelope.  The envelope of y is ~ max(|y(pi)|, |y'(pi)|/k)
    # with k the local wavenumber scale.
    k = np.sqrt(1.0 + abs(lam))
    env_c = max(abs(fd.c), abs(fd.cp) / k)
    env_s = max(abs(fd.s), abs(fd.sp) / k)
    env_w = max(abs(fd.w), abs(fd.wp) / k)
    envs = (1.0, env_s, env_c, env_w, k * env_c)
    coefs = (const, q[(0, 2)], alpha, q[(0, 3)], q[(1, 3)])
    scale = max(float(sum(abs(t) for t in terms)),
                float(sum(abs(cf) * e for cf, e in zip(coefs, envs))))
    return value, scale


def stable_section_lognorm(p: SLProblem, point: GrassPoint, lam) -> float:
    """ln of |det[V | W]| / vol(W) via the cancellation-safe expansion.

    vol(W)^2 = det(W* W) equals the sum of squared moduli of the frame
    minors (a sum of positive terms, stable where the Gram determinant
    itself cancels catastrophically).
    """
    value, _ = stable_section(p, point, lam)
    if value == 0:
        return float("-inf")
    fd = fundamental(p, lam)
    mags = np.array([1.0, abs(fd.s), abs(fd.sp), abs(fd.c), abs(fd.cp), 1.0])
    top = mags.max()
    log_vol = np.log(top) + 0.5 * np.log(float(np.sum((mags / top) ** 2)))
    return float(np.log(abs(value)) - log_vol)


def curve_provider(p: SLProblem) -> CurveProvider:
    """Entire n=2 provider; frame is the physical fundamental frame
    mapped to canonical coordinates, holomorphic through poles of M."""

    def ev(lam):
        return sl_weyl(p, lam)["B"]

    def fr(lam):
        fd = fundamental(p, lam)
        phys = np.array([
            [1, 0],
            [0, 1],
            [fd.c, fd.s],
            [fd.cp, fd.sp],
        ], dtype=complex)
        return TRIPLET_MAP @ phys

    def speed(u):
        # phase speed trace(-i B^{-1} B') equals the trace of the L^2 Gram
        # of the gamma_+ field, available from the accumulated moments of
        # the same (memoized) fundamental solve that produced B(u)
        fd = fundamental(p, u)
        C = np.linalg.inv(_gamma_system(fd, +1))
        mom = _moment_matrix(fd)
        t = float(np.trace(C.conj().T @ mom @ C).real)
        # for lambda << 0 the solutions grow like e^{2 pi sqrt(|lambda|)} and
        # the trace cancels below noise; report the speed as zero there
        scale = float(np.trace(np.abs(C).T @ np.abs(mom) @ np.abs(C)).real)
        if t < 1e-6 * scale:
            return 0.0
        return t

    return CurveProvider(
        2, "entire", eval_fn=ev, frame_fn=fr,
        provenance={"kind": "sturm_liouville",
                    "params": {"potential": p.potential.to_json(),
                               "length": p.length}},
        h0=1e-3, speed_fn=speed,
        section_fn=lambda point, lam: stable_section(p, point, lam),
        lognorm_fn=lambda point, lam: stable_section_lognorm(p, point, lam))


# -- gamma-fields ---------------------------------------------------------


def _gamma_system(fd: FundamentalData, sign: int) -> np.ndarray:
    """2x2 matrix whose columns are Gamma+- of the fundamental solutions."""
    i = 1j * sign
    return np.array([
        [i, 1],
        [-fd.cp + i * fd.c, -fd.sp + i * fd.s],
    ], dtype=complex) / SQRT2


def _moment_matrix(fd: FundamentalData) -> np.ndarray:
    """Hermitian L^2 Gram of the basis (c, s): entry [a,b] = <basis_b, basis_a>."""
    return np.array([
        [fd.m_cc, np.conj(fd.m_cs)],
        [fd.m_cs, fd.m_ss],
    ], dtype=complex)


def _gamma(p: SLProblem, lam, phi, sign: int) -> dict:
    lam = complex(lam)
    phi = np.asarray(phi, dtype=complex).ravel()
    fd = fundamental(p, lam)
    A = _gamma_system(fd, sign)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.min() <= 1e-12 * sv.max():
        raise NumericalError(f"boundary system for gamma_{'+' if sign > 0 else '-'} "
                             "is singular at this lambda")
    coeffs = np.linalg.solve(A, phi)
    norm_sq = complex(coeffs.conj() @ _moment_matrix(fd) @ coeffs).real
    return {"coeffs": coeffs, "l2_norm_sq": norm_sq}


def gamma_plus(p: SLProblem, lam, phi) -> dict:
    """Solve gamma_+(lambda) phi = alpha c + beta s and return its L^2 norm."""
    return _gamma(p, lam, phi, +1)


def gamma_minus(p: SLProblem, lam, phi) -> dict:
    """Solve gamma_-(lambda) phi = alpha c + beta s (Gamma_- trace data)."""
    return _gamma(p, lam, phi, -1)


def gamma_plus_gram(p: SLProblem, lam) -> np.ndarray:
    """2x2 Gram G_ij = <gamma_+(lam) e_j, gamma_+(lam) e_i> in L^2."""
    lam = complex(lam)
    fd = fundamental(p, lam)
    A = _gamma_system(fd, +1)
    C = np.linalg.inv(A)  # columns: coefficients of gamma_+ e_j
    mom = _moment_matrix(fd)
    G = C.conj().T @ mom @ C
    return (G + G.conj().T) / 2


def solution_values(p: SLProblem, lam, xs) -> tuple:
    """Samples (c(x), c'(x), s(x), s'(x)) at the points xs of [0, L]: the
    prefix product at the start of each point's panel, then one partial
    Magnus step to the point."""
    lam = complex(lam)
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        pan, _, Y = _propagate(p, lam)
        k = np.clip(np.floor(xs / pan.h).astype(int), 0, Y.shape[1] - 2)
        x0 = k * pan.h
        tau = xs - x0
        mean, skew = _magnus_terms(p._qfun(), x0, tau)
        al, be, ga, de = _magnus_exp(skew, tau, mean, lam)
        vals = (al * Y[0, k] + be * Y[2, k], ga * Y[0, k] + de * Y[2, k],
                al * Y[1, k] + be * Y[3, k], ga * Y[1, k] + de * Y[3, k])
    if not all(np.all(np.isfinite(v.view(float))) for v in vals):
        raise _overflow(lam, "solution")
    return vals


# -- boundary conditions and solves ---------------------------------------


def bc_from_physical(rows, mode: str, label: str = "") -> BoundaryCondition:
    """Boundary condition from a 2x4 matrix in physical coordinates.

    mode "span": rows span the admissible boundary data
    (y(0), y'(0), y(pi), y'(pi)); mode "functional": rows are the linear
    constraints and the admissible data is their null space.
    """
    rows = np.asarray(rows, dtype=complex)
    if rows.shape != (2, 4):
        raise ValidationError("boundary condition needs a 2x4 matrix")
    if np.linalg.matrix_rank(rows, tol=1e-10) != 2:
        raise ValidationError("boundary-condition matrix must have rank 2")
    if mode == "span":
        phys_frame = rows.T
    elif mode == "functional":
        phys_frame = null_space(rows)
        if phys_frame.shape[1] != 2:
            raise ValidationError("functional rows do not cut out a 2-d subspace")
    else:
        raise ValidationError("mode must be 'span' or 'functional'")
    point = GrassPoint.from_frame(TRIPLET_MAP @ phys_frame)
    return make_bc(point, label=label)


def _bc_functional_rows_phys(bc: BoundaryCondition) -> np.ndarray:
    """2x4 functional rows in physical coordinates annihilating bc's data."""
    comp = null_space(bc.point.frame.conj().T)  # orthogonal complement, 4x2
    return comp.conj().T @ TRIPLET_MAP


GAMMA_PLUS_ROWS_PHYS = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex) @ TRIPLET_MAP


def _samples(f, xs) -> np.ndarray:
    fv = np.asarray([f(x) for x in xs], dtype=complex) if callable(f) \
        else np.asarray(f, dtype=complex)
    if fv.shape != xs.shape:
        raise ValidationError("f samples must match the quadrature grid")
    return fv


def _solve_bvp_rows(rows_phys, xs, cs, fv):
    """Variation-of-parameters solve of (-y'' + q y - lam y) = f with
    boundary functionals rows_phys applied to (y(0), y'(0), y(pi), y'(pi));
    cs = solution_values on xs and fv the samples of f there."""
    # imported here: only the Green's-function solves need scipy.integrate,
    # whose import adds about 2 MB that propagation alone should not pay
    from scipy.integrate import cumulative_simpson

    cv, cpv, sv, spv = cs

    def _cumsimp(vals):
        # cumulative_simpson mishandles complex input; integrate parts
        return cumulative_simpson(vals.real, x=xs, initial=0.0) + \
            1j * cumulative_simpson(vals.imag, x=xs, initial=0.0)

    icf = _cumsimp(cv * fv)
    isf = _cumsimp(sv * fv)
    yp = -sv * icf + cv * isf
    ypp = -spv * icf + cpv * isf
    bd_p = np.array([0.0, 0.0, yp[-1], ypp[-1]], dtype=complex)
    bd_c = np.array([1.0, 0.0, cv[-1], cpv[-1]], dtype=complex)
    bd_s = np.array([0.0, 1.0, sv[-1], spv[-1]], dtype=complex)
    A2 = np.column_stack([rows_phys @ bd_c, rows_phys @ bd_s])
    svals = np.linalg.svd(A2, compute_uv=False)
    if svals.min() <= 1e-10 * max(svals.max(), 1e-300):
        raise NumericalError("boundary system singular: lambda is an eigenvalue "
                             "of this boundary condition")
    alpha, beta = np.linalg.solve(A2, -(rows_phys @ bd_p))
    return yp + alpha * cv + beta * sv


def solve_bvp(p: SLProblem, bc: BoundaryCondition, lam, f, num: int = 2049):
    """Samples of (T_bc - lambda)^{-1} f on a uniform grid of [0, L]."""
    xs = np.linspace(0.0, p.length, num)
    return xs, _solve_bvp_rows(_bc_functional_rows_phys(bc), xs,
                               solution_values(p, lam, xs), _samples(f, xs))


def resolvent_residual(p: SLProblem, bc: BoundaryCondition, lam: float, f,
                       num: int = 2049) -> float:
    """Relative L^2 residual of the Krein-type resolvent difference formula.

    Compares (T_bc - lam)^{-1} f - (T_+ - lam)^{-1} f against
    i gamma_+(lam) (B(lam)^{-1} U - I)^{-1} gamma_+(lam)* f.
    """
    from scipy.integrate import simpson

    if bc.chart_unitary is None:
        raise ValidationError("resolvent_residual requires a chart-unitary condition")
    lam = float(lam)
    xs = np.linspace(0.0, p.length, num)
    fv = _samples(f, xs)
    cs = solution_values(p, lam, xs)
    y_bc = _solve_bvp_rows(_bc_functional_rows_phys(bc), xs, cs, fv)
    y_plus = _solve_bvp_rows(GAMMA_PLUS_ROWS_PHYS, xs, cs, fv)
    lhs = y_bc - y_plus

    cv, _, sv, _ = cs
    C = np.linalg.inv(_gamma_system(fundamental(p, lam), +1))  # columns: coeffs of gamma_+ e_j
    basis = [C[0, j] * cv + C[1, j] * sv for j in range(2)]
    w = np.array([simpson(fv * np.conj(basis[j]), x=xs) for j in range(2)])
    B = sl_weyl(p, lam)["B"]
    T = np.linalg.solve(B, bc.chart_unitary) - np.eye(2)
    coef = C @ np.linalg.solve(T, w)
    rhs = 1j * (coef[0] * cv + coef[1] * sv)

    num_int = simpson(np.abs(lhs - rhs) ** 2, x=xs)
    den_int = simpson(np.abs(fv) ** 2, x=xs)
    if den_int == 0:
        return 0.0
    return float(np.sqrt(num_int / den_int))


def degeneracy_scan(p: SLProblem, grid=None) -> dict:
    """Weak algebraic degeneracy test: does c(pi, .) == s'(pi, .)?"""
    if grid is None:
        grid = np.linspace(0.0, 60.0, 41)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 32:
        raise ValidationError("degeneracy_scan needs at least 32 sample points")
    dev = 0.0
    for u in grid:
        fd = fundamental(p, u)
        dev = max(dev, abs(fd.c - fd.sp))
    return {"weakly_degenerate": bool(dev < 1e-8), "max_deviation": float(dev)}
