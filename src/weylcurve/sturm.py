"""Sturm-Liouville backend: L = -d^2/dx^2 + q(x) on [0, pi].

Fundamental solutions c (y(0)=1, y'(0)=0) and s (y(0)=0, y'(0)=1) are
propagated at any complex lambda by a panel method.  q is sampled once per
problem at fixed Gauss nodes of N uniform panels; each panel's transfer
matrix is the sixth-order Magnus exponential (Blanes, Casas & Ros 2000) of
a traceless 2x2 matrix affine in lambda, in closed form, which is exact for
constant q; a Hillis-Steele scan of these products gives the fundamental
matrix at every panel start.  The difference w = c - s' is the panel sum
of its variation-of-constants integrals, and the three L^2 moment integrals
of the gamma-field Gram matrices (the phase speed) are 6-point Gauss
quadratures of the panel-local solutions; both read the solutions at the
quadrature nodes, reached by partial Magnus steps, and that node pass runs
only where moments are read or q' is not zero.  N is a power of two set by
the ODE tolerance, the size of q' and |lambda|; the tests check the result
against DOP853 at rtol 1e-13.

The module exposes the explicit 2x2 Weyl data (M, B), the boundary-triplet
coordinate map, gamma-fields, boundary-condition constructors from physical
2x4 matrices, Green's-function solves, the resolvent-identity check, and
the weak-degeneracy scan.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .curves import LAMBDA_MAX, CurveProvider
from .errors import NumericalError, ValidationError
from .spectral import BoundaryCondition, _rows_frame
from .symplectic import GrassPoint, null_space

BVP_NODES = 2049  # uniform grid points of the Green's-function solves
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
    """Real potential q on [0, pi]: polynomial, or cubic table.  The kind
    "zero" is the polynomial 0."""

    kind: str
    coeffs: Optional[tuple] = None
    x: Optional[tuple] = None
    q: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == "zero":
            object.__setattr__(self, "kind", "polynomial")
            object.__setattr__(self, "coeffs", (0.0,))
        if self.kind not in ("polynomial", "table"):
            raise ValidationError(f"unknown potential kind {self.kind!r}")
        if self.kind == "polynomial" and not self.coeffs:
            raise ValidationError("polynomial potential needs coefficients")

    @classmethod
    def zero(cls) -> "Potential":
        return cls(kind="zero")

    @classmethod
    def polynomial(cls, coeffs) -> "Potential":
        return cls(kind="polynomial", coeffs=_floats(coeffs, "coeffs"))

    @classmethod
    def table(cls, x, q) -> "Potential":
        x, q = _floats(x, "x"), _floats(q, "q")
        if len(x) != len(q) or len(x) < 4:
            raise ValidationError("table potential needs matching grids of length >= 4")
        if any(b <= a for a, b in zip(x, x[1:])):
            raise ValidationError("table grid must be strictly increasing")
        return cls(kind="table", x=x, q=q)

    def _table_spline(self):
        # imported here: only tabulated potentials need scipy
        from scipy.interpolate import CubicSpline
        return CubicSpline(np.asarray(self.x), np.asarray(self.q), bc_type="natural")

    def evaluator(self, length: float):
        """Vectorised evaluator of q: an array of points to an array of values."""
        if self.kind == "polynomial":
            coeffs = np.asarray(self.coeffs, dtype=float)
            return lambda x: npoly.polyval(np.asarray(x, dtype=float), coeffs)
        if self.x[0] > 0.0 or self.x[-1] < length:
            raise ValidationError("table grid must cover the interval")
        spl = self._table_spline()
        return lambda x: spl(np.asarray(x, dtype=float))

    def deriv_evaluator(self, length: float):
        """Vectorised evaluator of q' (the forcing of w = c - s')."""
        if self.kind == "polynomial":
            dcoeffs = npoly.polyder(np.asarray(self.coeffs, dtype=float))
            return lambda x: npoly.polyval(np.asarray(x, dtype=float), dcoeffs)
        spl = self._table_spline().derivative()
        return lambda x: spl(np.asarray(x, dtype=float))

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
        if not isinstance(d, dict):
            raise ValidationError(f"potential: expected an object, got {d!r}")
        kind = d.get("kind")
        if kind == "polynomial":
            return cls.polynomial(d.get("coeffs", []))
        if kind == "table":
            return cls.table(d.get("x", []), d.get("q", []))
        return cls(kind=kind)


def _floats(values, where) -> tuple:
    """values, a sequence of finite numbers (not a string), as a tuple of floats."""
    if not isinstance(values, str):
        try:
            out = tuple(float(v) for v in values)
            if all(map(math.isfinite, out)):
                return out
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"potential {where}: expected finite numbers, got {values!r}")


@dataclass(frozen=True)
class FundamentalData:
    """Endpoint values of the fundamental solutions at x = L: all that B,
    the sections and the frames read.  Their L^2 moments are a separate
    read, _moments."""

    lam: complex
    c: complex
    cp: complex
    s: complex
    sp: complex
    # the difference w = c - s' from its own variation-of-constants sum:
    # both solutions grow like e^{pi sqrt(-lam)} on the negative axis while
    # their difference stays far smaller (it is exactly 0 for constant q),
    # so forming it from the separate endpoints loses all precision there
    w: complex
    wp: complex  # endpoint derivative of w (its magnitude envelope)

    @property
    def wronskian(self) -> complex:
        """c s' - c' s, which is 1, formed from the endpoint values: its
        error is about eps (|c s'| + |c' s|), so it has no digits once the
        solutions pass 1e8 (lambda below about -37 on q = 0), and it is nan
        from lambda = -12,825 down on q = 0, where c s' overflows, well
        inside the endpoint range."""
        return self.c * self.sp - self.cp * self.s


@dataclass(frozen=True)
class SLProblem:
    potential: Potential
    length: float = float(np.pi)
    ode_rtol: float = 1e-10

    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # (m_cc, m_cs, m_ss) per lambda, filled by the passes that form them
    _moment_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  compare=False, repr=False)
    # q sampled per panel count
    _panel_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ValidationError("interval length must be positive and finite")
        if not 0 < self.ode_rtol <= 1e-4:
            raise ValidationError("ODE tolerance must lie in (0, 1e-4]")

    @functools.cached_property
    def _q(self):
        return self.potential.evaluator(self.length)

    @functools.cached_property
    def _qd(self):
        return self.potential.deriv_evaluator(self.length)

    @functools.cached_property
    def _q_scale(self) -> tuple:
        """(max |q|, max |q'|) on 1,025 points of [0, L], max |q| within LAMBDA_MAX."""
        xs = np.linspace(0.0, self.length, 1025)
        q_max = float(np.max(np.abs(self._q(xs))))
        if not q_max <= LAMBDA_MAX:
            raise ValidationError(f"potential: max |q| = {q_max:g} exceeds {LAMBDA_MAX:g}")
        return q_max, float(np.max(np.abs(self._qd(xs))))


# Sixth-order Magnus (Blanes, Casas & Ros 2000): the three Gauss nodes of a
# step, as fractions of it
_MAGNUS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(15) / 10
_MAGNUS_SKEW = np.sqrt(15) / 540
# Gauss-Legendre nodes (fractions of a panel) and weights of the moment and
# w quadratures
_QUAD_X, _QUAD_W = np.polynomial.legendre.leggauss(6)
_QUAD_NODES, _QUAD_WEIGHTS = (_QUAD_X + 1) / 2, _QUAD_W / 2
# error models of a panel set, with k^2 = 1 + |lambda| + max |q|
# (_panel_count): the relative error of that quadrature on a panel is about
# QUAD_ERR (k h)^12 for solutions growing like e^{k x}, twice the
# Gauss-Legendre remainder 7.7e-13 (k h)^12; the Magnus error of the fields
# measured on the test potentials is at most about 8.6e-4 max|q'| h^6 k^3
# (q = x near lambda = 1), and MAGNUS_ERR is three times that coefficient
_QUAD_ERR = 1.5e-12
_MAGNUS_ERR = 2.7e-3
_MIN_PANELS = 16
# the most panels of a solve, about 1 KB each: 16 times the 4,096 of a
# default-length problem at |lambda| = LAMBDA_MAX
_MAX_PANELS = 1 << 16


@dataclass(frozen=True)
class _Panels:
    """q sampled for one panel count.  The exponent of a sixth-order Magnus
    step is affine in lambda, [[a0 + lam a1, b], [c0 + lam c1, -(a0 + lam a1)]],
    and each step is stored as those five coefficients (see _magnus_coeffs)."""

    h: float
    step: tuple            # five (N,) arrays: the whole panels
    sub: tuple             # five (N, J) arrays: the partial steps from a panel
                           # start to its quadrature nodes
    forcing: np.ndarray    # (N, J) -q' at the nodes times h times the weights


def _magnus_coeffs(q1, q2, q3, step):
    """(a0, a1, b, c0, c1) of the sixth-order Magnus exponent of one step of
    y' = [[0, 1], [q - lam, 0]] y from q at its three Gauss nodes.

    The Blanes-Casas-Ros exponent alpha1 + alpha3/12 + [-20 alpha1 - alpha3
    + C1, alpha2 + C2]/240 in closed form, with D = q1 - q3 and
    S = q1 - 2 q2 + q3: the lambda^2 terms cancel,
      a = sqrt(15) h^2 D (15 - h^2 ((q1 + 10 q2 + q3)/12 - lam)) / 540,
      b = h (1 - h^2 S/54 + h^4 D^2/2160),
      c = (q2 - lam) h (1 + h^2 S/54 + h^4 D^2/2160)
          + h (5 S/18 + h^2 (S^2/324 - D^2/72)).
    For constant q this is the exact exponent h [[0, 1], [q - lam, 0]]."""
    h2 = step * step
    d, s = q1 - q3, q1 - 2 * q2 + q3
    d2 = h2 * h2 * (d * d) / 2160
    s1 = h2 * s / 54
    c1 = -step * (1 + s1 + d2)
    skew = _MAGNUS_SKEW * h2 * d
    a0 = skew * (15 - h2 * ((q1 + 10 * q2 + q3) / 12))
    c0 = -c1 * q2 + step * (5 * s / 18 + h2 * (s * s / 324 - d * d / 72))
    return a0, skew * h2, step * (1 - s1 + d2), c0, c1


def _magnus_terms(q, x0, step):
    """Magnus coefficients of steps of length step from x0; one evaluator
    call."""
    step = np.asarray(step)
    qt = q(np.asarray(x0)[..., None] + step[..., None] * _MAGNUS_NODES)
    return _magnus_coeffs(qt[..., 0], qt[..., 1], qt[..., 2], step)


def _sample_panels(p: SLProblem, n: int) -> _Panels:
    h = p.length / n
    x0 = h * np.arange(n)
    sub = h * _QUAD_NODES
    # one evaluator call samples the whole-panel and the partial-step nodes
    coef = _magnus_terms(p._q, np.concatenate([x0, np.repeat(x0, sub.size)]),
                         np.concatenate([np.full(n, h), np.tile(sub, n)]))
    qd = p._qd(x0[:, None] + sub)
    return _Panels(h=h, step=tuple(v[:n] for v in coef),
                   sub=tuple(v[n:].reshape(n, -1) for v in coef),
                   forcing=-qd * (h * _QUAD_WEIGHTS))


def _panel_count(p: SLProblem, lam: complex) -> int:
    """Smallest power of two (at least 16) of panels whose step h meets both
    error models at ode_rtol, with k^2 = 1 + |lambda| + max |q|: the Magnus
    error, about MAGNUS_ERR q_1 h^6 k^3 with q_1 the largest |q'| (zero for
    constant q, whose steps are exact), and the quadrature error, about
    QUAD_ERR (k h)^12.  At rtol 1e-10 that is 128 to 256 panels for q = cos x
    and q = x on [-2, 450], 1,024 at |lambda| = 1e4, and 16 to 64 for q = 0 at
    |lambda| <= 450.  tests/test_sturm.py checks the result against DOP853 at
    rtol 1e-13.  ValidationError, before anything is allocated, past
    _MAX_PANELS."""
    q_max, qd_max = p._q_scale
    k = math.sqrt(1.0 + abs(lam) + q_max)
    h = (p.ode_rtol / _QUAD_ERR) ** (1 / 12) / k
    if qd_max > 0:
        h = min(h, (p.ode_rtol / (_MAGNUS_ERR * qd_max * k ** 3)) ** (1 / 6))
    need = p.length / h
    if not need <= _MAX_PANELS:
        raise ValidationError(f"a solve on the interval [0, {p.length:g}] at lambda = {lam} "
                              f"needs {need:.3g} panels, more than {_MAX_PANELS}")
    return max(_MIN_PANELS, 1 << math.ceil(math.log2(max(need, 1.0))))


def _panels(p: SLProblem, n: int) -> _Panels:
    pan = p._panel_cache.get(n)
    if pan is None:
        pan = p._panel_cache[n] = _sample_panels(p, n)
    return pan


def _cosh_sinhc(z):
    """(cosh d, sinh d / d) with d^2 = z, elementwise.  Complex z takes the
    principal root.  Real z stays real: cosh and sinh of sqrt(z) where
    z > 0, cos and sin of sqrt(-z) where z < 0, and (1, 1) at 0; a call
    whose nodes share one sign evaluates that branch only."""
    if np.iscomplexobj(z):
        d = np.sqrt(z)
        nz = d != 0
        ch, d = np.cosh(d), np.where(nz, d, 1.0)
        sh = np.sinh(d)
        sh /= d
        sh[~nz] = 1.0
        return ch, sh
    # in place, each node array dropped once spent; d is 1 at 0, where both
    # results are 1
    pos = z > 0
    d = np.abs(z)
    del z
    np.sqrt(d, out=d)
    zero = d == 0
    d[zero] = 1.0
    if pos.all():
        ch, sh = np.cosh(d), np.sinh(d)
    elif not pos.any():
        ch, sh = np.cos(d), np.sin(d)
    else:
        ch, sh = np.cosh(d), np.sinh(d)
        np.copyto(ch, np.cos(d), where=~pos)
        np.copyto(sh, np.sin(d), where=~pos)
    # times the reciprocal, as numpy's complex division divides, so that
    # sinh d / d has the complex path's bits wherever sinh and sin do
    sh *= np.divide(1.0, d, out=d)
    del d
    ch[zero] = sh[zero] = 1.0
    return ch, sh


def _magnus_exp(coef, lam):
    """exp M stacked as a (2, 2, ...) array for the Magnus exponents
    M = [[a, b], [c, -a]] with a = a0 + lam a1 and c = c0 + lam c1, coef =
    (a0, a1, b, c0, c1), in closed form: cosh d I + (sinh d / d) M with
    d^2 = a^2 + bc.  lam broadcasts against the panel data; a real lam gives
    real entries."""
    a0, a1, b, c0, c1 = coef
    a = a0 + lam * a1
    c = c0 + lam * c1
    ch, sh = _cosh_sinhc(a * a + b * c)
    return np.array([[ch + sh * a, sh * b], [sh * c, ch - sh * a]])


def _mul(x, y):
    """x @ y of two (2, 2, ...) stacks: the entry formula's products, summed in its order."""
    out = x[:, 0, None] * y[None, 0]
    out += x[:, 1, None] * y[None, 1]
    return out


def _prefix(E) -> np.ndarray:
    """[[c, s], [c', s']] at every panel start x_0 .. x_N, (2, 2, ..., N + 1):
    the prefix products of the stacked factors E along their last axis (an
    axis before it holds the lambdas of a batch) by a Hillis-Steele scan."""
    n = E.shape[-1]
    out = np.empty(E.shape[:-1] + (n + 1,), dtype=E.dtype)
    out[..., 0] = 0
    out[0, 0, ..., 0] = out[1, 1, ..., 0] = 1
    out[..., 1:] = E
    m = out[..., 1:]
    shift = 1
    while shift < n:
        m[..., shift:] = _mul(m[..., shift:], m[..., :-shift])
        shift *= 2
    return out


def _carry(E, P):
    """y_N of y_{k+1} = E_k y_k + P_k from y_0 = 0 along the last axis of
    stacked factors E (2, 2, ..., N) and forcings P (2, ..., N), N a power of
    two, by composing neighbouring maps pairwise (no factors at the last level)."""
    while P.shape[-1] > 1:
        hi = E[..., 1::2]
        P = hi[:, 0] * P[0, ..., 0::2] + hi[:, 1] * P[1, ..., 0::2] + P[..., 1::2]
        if P.shape[-1] > 1:
            E = _mul(hi, E[..., 0::2])
    return P[0, ..., 0], P[1, ..., 0]


def _solve(pan: _Panels, lam: np.ndarray, moments: bool = False) -> np.ndarray:
    """The six FundamentalData fields (c, c', s, s', w, w') at one lambda
    (lam 0-d: shape (6,)) or at the lambdas of a column (lam of shape
    (K, 1): shape (6, K)) that share the panel set pan; with moments, the
    three L^2 moments (m_cc, m_cs, m_ss) follow as rows 6 to 8.

    The endpoint values are the last prefix product.  w = c - s' obeys
    w'' = (q - lam) w - q' s from zero data, so it is the sum over panels of
    the variation-of-constants integral of the forcing -q' s, each carried
    to the panel end by that panel's own propagators and then across the
    rest of the interval; it never forms c - s', and for constant q it is
    0 exactly.  The moments are 6-point Gauss sums of the solutions at the
    quadrature nodes of every panel.  The node pass, partial sixth-order
    Magnus steps to those nodes, runs only for the moments or a forcing
    that is not identically zero.  A lambda's fields come from the same
    elementwise operations and per-lambda sums whatever the batch and
    whether or not moments are formed, so they depend on neither.  Real
    lambdas (a float lam) run in float64 throughout and give real fields.
    """
    E = _magnus_exp(pan.step, lam)
    Y = _prefix(E)
    out = [Y[0, 0, ..., -1], Y[1, 0, ..., -1], Y[0, 1, ..., -1], Y[1, 1, ..., -1]]
    forced = pan.forcing.any()
    if not forced:
        out += [np.zeros_like(out[0])] * 2
        if not moments:
            return np.array(out)
    # A node pass's arrays are large and numpy allocates every result, so
    # each node array is dropped once spent and two products reuse a buffer
    # (the same operations on the same operands): a pass holds at most five
    # node arrays.  The first row of the partial steps' factors, as in
    # _magnus_exp:
    a0, a1, b, c0, c1 = pan.sub
    a = a0 + lam[..., None] * a1
    ch, sh = _cosh_sinhc(a * a + b * (c0 + lam[..., None] * c1))
    al, be = ch + sh * a, sh * b
    del a, ch, sh
    sn = al * Y[0, 1, ..., :-1, None] + be * Y[1, 1, ..., :-1, None]
    if forced:
        # forcing at each node carried to the panel end: E_k E_kj^{-1} (0, f)
        f = pan.forcing * sn
        t = -be
        t *= f
        v0 = np.sum(t, axis=-1)
        v1 = np.sum(np.multiply(al, f, out=t), axis=-1)
        del f, t
        out += _carry(E, E[:, 0] * v0 + E[:, 1] * v1)
        if not moments:
            return np.array(out)
    cn = al * Y[0, 0, ..., :-1, None]
    cn += be * Y[1, 0, ..., :-1, None]
    del al, be
    wq = pan.h * _QUAD_WEIGHTS

    def total(v):  # over the panels and their nodes
        return np.sum(v.reshape(v.shape[:-2] + (-1,)), axis=-1)

    # squared before they are weighted, so a real lambda's moments overflow
    # where a complex one's do
    out.append(total(wq * (cn.real ** 2 + cn.imag ** 2)))
    out.append(total(wq * cn * sn.conj()))
    out.append(total(wq * (sn.real ** 2 + sn.imag ** 2)))
    return np.array(out)


def _overflow(lam: complex, what: str) -> NumericalError:
    return NumericalError(f"{what} overflow at lambda = {lam:g}: the solutions grow "
                          "like e^(pi sqrt(-lambda)) and leave the floating-point range")


# lambdas times panels in one propagation pass: larger passes leave the cache
# and cost more per lambda than one pass per lambda
_BATCH_PANELS = 4096


# the largest sum |c| + |c'| + |s| + |s'| + |w| + |w'| an endpoint read
# returns: it leaves the readers' sums, moduli and k-scaled envelopes
# (k <= 1e3 at LAMBDA_MAX) headroom of 1e8 below the double range
_FIELD_MAX = 1e300


def _solve_missing(p: SLProblem, lams, moments: bool) -> list:
    """The memo keys of lams, once every lambda of lams that the memo of its
    read lacks (the problem's memo, or with moments its moment memo) is
    solved and memoized; a moment pass fills both memos.

    The misses are grouped by panel count (all nodes of a circle share one)
    and by whether they are real, and each group is propagated in passes of
    K lambdas with K N <= 4096, one broadcast pass per chunk; a repeated
    lambda is solved once.  Real lambdas run in float64 (q is real, so
    every field is) and are stored as complex like the others.  The first
    lambda in node order whose data leave the range (_FIELD_MAX for the
    endpoint fields, the double range for the moments) raises
    NumericalError, and nothing of the batch is memoized then.
    """
    lams = np.ravel(np.asarray(lams, dtype=complex)).tolist()
    for lam in lams:
        if not abs(lam) <= LAMBDA_MAX:
            raise ValidationError(f"|lambda| exceeds the supported range {LAMBDA_MAX:g}")
    keys = [(lam.real, lam.imag) for lam in lams]
    memo = p._moment_memo if moments else p._memo
    groups = {}
    for lam, key in zip(lams, keys):
        if key not in memo:
            groups.setdefault((_panel_count(p, lam), lam.imag == 0), {})[key] = lam
    if not groups:
        return keys
    solved, moms, overflowed = {}, {}, set()
    with np.errstate(all="ignore"):
        for (n, real), todo in groups.items():
            pan, todo = _panels(p, n), list(todo.items())
            step = max(1, _BATCH_PANELS // n)
            for i in range(0, len(todo), step):
                chunk = todo[i:i + step]
                col = [[lam.real if real else lam] for _, lam in chunk]
                # one lambda runs on 1-D panel arrays, where numpy's cost per
                # call is lowest; a batch adds a leading lambda axis
                at = np.array(col[0][0] if len(chunk) == 1 else col)
                # the keyword only where it is set: an endpoint pass is the
                # two-argument call
                vals = _solve(pan, at, moments=True) if moments else _solve(pan, at)
                vals = vals.reshape(len(vals), -1).astype(complex, copy=False)
                # a NaN compares false and fails too
                ok = np.abs(vals[:6]).sum(axis=0) <= _FIELD_MAX
                ok &= np.isfinite(vals[6:]).all(axis=0)
                for (key, lam), v, fine in zip(chunk, vals.T.tolist(), ok):
                    solved[key] = FundamentalData(lam, *v[:6])
                    if moments:
                        moms[key] = v[6:]
                    if not fine:
                        overflowed.add(key)
    for lam, key in zip(lams, keys):
        if key in overflowed:
            raise _overflow(lam, "fundamental moment" if moments else "fundamental")
    with p._lock:
        p._memo.update(solved)
        p._moment_memo.update(moms)
    return keys


def fundamental_many(p: SLProblem, lams) -> list:
    """FundamentalData at each lambda of lams, in their order, by panels.

    Memoized lambdas are read from the problem's memo and the others are
    solved in batched endpoint passes (_solve_missing), which form no
    moments and, for constant q, run no node pass.  The fields are bitwise
    those of a one-lambda solve, with or without moments.  Past
    lambda ~ -47,600 (q = 0) the endpoint fields leave the range
    _FIELD_MAX and the first such lambda in node order raises
    NumericalError.
    """
    memo = p._memo
    return [memo[key] for key in _solve_missing(p, lams, moments=False)]


def _moments(p: SLProblem, lams) -> np.ndarray:
    """Hermitian L^2 Grams of the basis (c, s) at each lambda of lams, entry
    [a, b] = <basis_b, basis_a>: a (K, 2, 2) stack.

    Memoized per problem.  A lambda without them is solved once in a pass
    that forms its endpoint fields and moments together and fills both
    memos.  The moments grow like e^(2 pi sqrt(-lambda)) and leave the
    double range near lambda = -12,750, where this read raises
    NumericalError.
    """
    memo = p._moment_memo
    m = np.array([memo[key] for key in _solve_missing(p, lams, moments=True)], dtype=complex)
    m_cc, m_cs, m_ss = m.reshape(-1, 3).T
    return np.stack([m_cc, m_cs.conj(), m_cs, m_ss], axis=-1).reshape(-1, 2, 2)


def fundamental(p: SLProblem, lam) -> FundamentalData:
    """Fundamental system across [0, L] at complex lambda: the one-lambda
    call of fundamental_many, after a look in the memo."""
    lam = complex(lam)
    hit = p._memo.get((lam.real, lam.imag))
    return hit if hit is not None else fundamental_many(p, [lam])[0]


def _stack(fds, *names) -> np.ndarray:
    """The fields names of the FundamentalData fds, a (len(names), K) array."""
    get = operator.attrgetter(*names)
    return np.array([get(fd) for fd in fds], dtype=complex).reshape(-1, len(names)).T


def sl_weyl(p: SLProblem, lam) -> dict:
    """Weyl function M (None at poles) and contractive Weyl function B
    (_weyl_B)."""
    lam = complex(lam)
    fd = fundamental(p, lam)
    at_pole = abs(fd.s) < 1e-8 * (1 + abs(lam))
    M = None if at_pole else -np.array([[fd.c, -1], [-1, fd.sp]], dtype=complex) / fd.s
    return {"M": M, "B": _weyl_B(fd), "pole": at_pole}


def _weyl_B(fd: FundamentalData) -> np.ndarray:
    """B = [[c' + s - i w, 2i], [2i, c' + s + i w]] / (c' - s - i (c + s')) with
    the carried w = c - s': the Cayley transform of M = -[[c, -1], [-1, s']] / s
    with the common factor s cancelled by the Wronskian c s' - c' s = 1, so
    it stays exact near the poles of M (the zeros of s).
    """
    c_, cp_, s_, sp_ = fd.c, fd.cp, fd.s, fd.sp
    den = cp_ - s_ - 1j * (c_ + sp_)
    scale = abs(cp_) + abs(s_) + abs(c_) + abs(sp_) + 1.0
    if abs(den) < 1e-13 * scale:
        raise NumericalError("factored Weyl denominator vanished: B has a pole here")
    return np.array([
        [cp_ + s_ - 1j * fd.w, 2j],
        [2j, cp_ + s_ + 1j * fd.w],
    ], dtype=complex) / den


_DET_TRIPLET = complex(np.linalg.det(TRIPLET_MAP))
_MINOR_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# Laplace expansion det[A|B] = sum_{i<j} (-1)^{i+j+1} det(A_comp) det(B_ij)
_MINOR_SIGNS = (1, -1, 1, 1, -1, 1)
# relative threshold below which a coefficient combination is treated as a
# structural algebraic zero of the boundary condition rather than roundoff
_COEFF_SNAP = 1e-13


@functools.lru_cache(maxsize=256)
def _section_cofactors(frame: bytes) -> tuple:
    """Coefficients (const, q_02, alpha, q_03, q_13) of the section's minor
    expansion (see _section) for the boundary condition whose 4 x 2
    complex frame has these bytes: computed once per condition, keyed by the
    frame's values.

    q_ij are the cofactors of det[V | T P] against the row-pair minors of
    the physical fundamental frame P, with the unitary coordinate map
    factored onto the boundary-condition block.
    """
    A = TRIPLET_MAP.conj().T @ np.frombuffer(frame, dtype=complex).reshape(4, -1)
    q = {}
    for sgn, (i, j) in zip(_MINOR_SIGNS, _MINOR_PAIRS):
        comp = [k for k in range(4) if k not in (i, j)]
        q[(i, j)] = sgn * complex(np.linalg.det(A[comp, :]))
    top = max(abs(v) for v in q.values())
    q = {k: _snap(v, top) for k, v in q.items()}
    const = _snap(q[(0, 1)] + q[(2, 3)], abs(q[(0, 1)]) + abs(q[(2, 3)]))
    alpha = _snap(q[(0, 3)] - q[(1, 2)], abs(q[(0, 3)]) + abs(q[(1, 2)]))
    return const, q[(0, 2)], alpha, q[(0, 3)], q[(1, 3)]


def _snap(v: complex, scale: float) -> complex:
    return 0j if abs(v) < _COEFF_SNAP * scale else v


def _section(p: SLProblem, point: GrassPoint, lams) -> tuple:
    """Arrays (F, scale, log norm) of det [V | W(lam)] at each lambda of lams,
    via minors of the physical frame: the provider's section_fn.

    The minors of W are (1, s, s', -c, -c', Wronskian); the Wronskian is 1
    exactly and s' is rewritten through the integrated difference w = c - s',
    so the two structural cancellations that destroy the naive determinant
    on the far negative axis are performed in exact arithmetic.  The scale
    is the matching Hadamard bound of the surviving terms.  The log norm is
    ln |F| / vol(W), -inf at zeros, with vol(W)^2 = det(W* W) the sum of
    squared moduli of the frame minors (a sum of positive terms, stable
    where the Gram determinant itself cancels catastrophically).
    """
    lams = np.ravel(np.asarray(lams, dtype=complex))
    c_, cp_, s_, sp_, w_, wp_ = _stack(fundamental_many(p, lams), "c", "cp", "s", "sp", "w", "wp")
    const, q02, alpha, q03, q13 = _section_cofactors(
        np.ascontiguousarray(point.frame, dtype=complex).tobytes())
    terms = (const, q02 * s_, alpha * c_, -q03 * w_, -q13 * cp_)
    value = _DET_TRIPLET * sum(terms)
    # roundoff floor per term: ODE error in a fundamental entry is at the
    # level rtol * envelope of that solution over [0, pi], so a term whose
    # endpoint value vanishes (e.g. s at an eigenvalue) still carries noise
    # ~ |coef| * envelope.  The envelope of y is ~ max(|y(pi)|, |y'(pi)|/k)
    # with k the local wavenumber scale.
    k = np.sqrt(1.0 + np.abs(lams))
    env_c = np.maximum(np.abs(c_), np.abs(cp_) / k)
    env_s = np.maximum(np.abs(s_), np.abs(sp_) / k)
    env_w = np.maximum(np.abs(w_), np.abs(wp_) / k)
    envs = (1.0, env_s, env_c, env_w, k * env_c)
    coefs = (const, q02, alpha, q03, q13)
    scale = np.maximum(sum(np.abs(t) for t in terms),
                       sum(abs(cf) * e for cf, e in zip(coefs, envs)))
    one = np.ones(value.shape)
    mags = np.abs(np.array([one, s_, sp_, c_, cp_, one]))
    top = mags.max(axis=0)
    log_vol = np.log(top) + 0.5 * np.log(np.sum((mags / top) ** 2, axis=0))
    with np.errstate(divide="ignore"):
        return value, scale, np.log(np.abs(value)) - log_vol


def curve_provider(p: SLProblem) -> CurveProvider:
    """Entire n=2 provider; frame is the physical fundamental frame
    mapped to canonical coordinates, holomorphic through poles of M."""

    def ev(lam):
        return _weyl_B(fundamental(p, lam))

    def fr(lams):
        # the physical fundamental frames (I; [[c, s], [c', s']])
        cs = _stack(fundamental_many(p, lams), "c", "s", "cp", "sp").T.reshape(-1, 2, 2)
        return TRIPLET_MAP @ np.concatenate([np.broadcast_to(np.eye(2), cs.shape), cs], axis=1)

    def speed(us):
        # phase speed trace(-i B^{-1} B') equals the trace of the L^2 Gram
        # of the gamma_+ field.  The path reads a round's speeds ahead of
        # its B_many, so one moment pass solves its new knots, endpoints and
        # moments together; then one fundamental read per u, a memo read,
        # which, as for B, leaves the memo hits where the benchmark's
        # tracer counts
        mom = _moments(p, us)
        C, G = _gamma_plus_gram([fundamental(p, u) for u in us], mom)
        t = G.trace(axis1=1, axis2=2).real
        # for lambda << 0 the solutions grow like e^{2 pi sqrt(|lambda|)} and
        # the trace cancels below noise; report the speed as zero there
        t[t < 1e-6 * _form_scale(C, mom).trace(axis1=1, axis2=2)] = 0.0
        return t

    return CurveProvider(
        2, "entire", eval_fn=ev, frame_fn=fr, speed_fn=speed,
        # one batched solve ahead of the per-lambda B calls of B_many, which
        # then read the memo
        prefetch_fn=lambda lams: fundamental_many(p, lams),
        section_fn=lambda point, lams: _section(p, point, lams))


# -- gamma-fields ---------------------------------------------------------


def _gamma_system(fds, sign: int) -> np.ndarray:
    """The 2x2 matrices whose columns are Gamma+- of the fundamental
    solutions, a (K, 2, 2) stack over the FundamentalData of fds."""
    c_, cp_, s_, sp_ = _stack(fds, "c", "cp", "s", "sp")
    i, one = 1j * sign, np.ones_like(c_)
    return np.stack([i * one, one, -cp_ + i * c_, -sp_ + i * s_], axis=-1).reshape(-1, 2, 2) / SQRT2


# a gamma-field norm c* mom c below this share of the size of its terms
# (_form_scale) has cancelled below noise: its error reached 3e-11 of that
# size against the q = 0 closed forms (lambda in [-60, 10] + [-20, 20] i),
# so a norm above it keeps about eight digits
_NORM_FLOOR = 1e-8


def _form_scale(C, mom) -> np.ndarray:
    """|C|^T |mom| |C|, (K, m, m): the size of the terms of C* mom C, which
    cancel where c and s grow (lambda << 0) and the field does not."""
    aC = np.abs(C)
    return aC.swapaxes(1, 2) @ np.abs(mom) @ aC


def _gamma_coeffs(fds, sign: int, rhs=np.eye(2)) -> np.ndarray:
    """Coefficients in (c, s) of gamma_+ (sign +1) or gamma_- (sign -1)
    applied to the columns of rhs: a (K, 2, m) stack over the
    FundamentalData of fds, from one solve of their boundary systems."""
    return np.linalg.solve(_gamma_system(fds, sign), rhs)


def _gamma(p: SLProblem, lam, phi, sign: int) -> dict:
    lam, name = complex(lam), f"gamma_{'+' if sign > 0 else '-'}"
    phi = np.asarray(phi, dtype=complex).ravel()
    mom = _moments(p, [lam])
    fd = fundamental(p, lam)
    sv = np.linalg.svd(_gamma_system([fd], sign)[0], compute_uv=False)
    if sv.min() <= 1e-12 * sv.max():
        raise NumericalError(f"boundary system for {name} is singular at this lambda")
    C = _gamma_coeffs([fd], sign, phi[:, None])
    coeffs = C[0, :, 0]
    norm_sq = complex(coeffs.conj() @ mom[0] @ coeffs).real
    if norm_sq < _NORM_FLOOR * _form_scale(C, mom)[0, 0, 0]:
        raise NumericalError(f"the L^2 norm of {name} phi cancels below the noise of the "
                             f"moments at lambda = {lam:g}")
    return {"coeffs": coeffs, "l2_norm_sq": norm_sq}


def gamma_plus(p: SLProblem, lam, phi) -> dict:
    """Solve gamma_+(lambda) phi = alpha c + beta s and return its L^2 norm."""
    return _gamma(p, lam, phi, +1)


def gamma_minus(p: SLProblem, lam, phi) -> dict:
    """Solve gamma_-(lambda) phi = alpha c + beta s (Gamma_- trace data)."""
    return _gamma(p, lam, phi, -1)


def _gamma_plus_gram(fds, mom) -> tuple:
    """(C, C* mom C), (K, 2, 2) stacks over the FundamentalData of fds and
    their moment stack mom (_moments): the columns of C are the
    coefficients in (c, s) of gamma_+ e_j, and C* mom C is the L^2 Gram of
    the fields gamma_+ e_j, not yet symmetrized."""
    C = _gamma_coeffs(fds, +1)
    return C, C.conj().swapaxes(1, 2) @ mom @ C


def gamma_plus_gram(p: SLProblem, lam) -> np.ndarray:
    """2x2 Gram G_ij = <gamma_+(lam) e_j, gamma_+(lam) e_i> in L^2."""
    mom = _moments(p, [lam])
    G = _gamma_plus_gram([fundamental(p, lam)], mom)[1][0]
    return (G + G.conj().T) / 2


def solution_values(p: SLProblem, lam, xs) -> tuple:
    """Samples (c(x), c'(x), s(x), s'(x)) at the points xs of [0, L]: the
    prefix product at the start of each point's panel, then one partial
    Magnus step to the point."""
    lam = complex(lam)
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        pan = _panels(p, _panel_count(p, lam))
        Y = _prefix(_magnus_exp(pan.step, lam))
        k = np.clip(np.floor(xs / pan.h).astype(int), 0, Y.shape[-1] - 2)
        x0 = k * pan.h
        tau = xs - x0
        (al, be), (ga, de) = _magnus_exp(_magnus_terms(p._q, x0, tau), lam)
        (c_, s_), (cp_, sp_) = Y[..., k]
        vals = (al * c_ + be * cp_, ga * c_ + de * cp_, al * s_ + be * sp_, ga * s_ + de * sp_)
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
    return BoundaryCondition(GrassPoint(TRIPLET_MAP @ _rows_frame(rows, mode)), label)


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
    # imported here: only the Green's-function solves need scipy, and the
    # rest of the library runs on numpy alone
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


def solve_bvp(p: SLProblem, bc: BoundaryCondition, lam, f):
    """Samples of (T_bc - lambda)^{-1} f on the uniform grid of BVP_NODES
    points of [0, L]."""
    xs = np.linspace(0.0, p.length, BVP_NODES)
    return xs, _solve_bvp_rows(_bc_functional_rows_phys(bc), xs,
                               solution_values(p, lam, xs), _samples(f, xs))


def resolvent_residual(p: SLProblem, bc: BoundaryCondition, lam: float, f) -> float:
    """Relative L^2 residual of the Krein-type resolvent difference formula,
    on the grid of solve_bvp.

    Compares (T_bc - lam)^{-1} f - (T_+ - lam)^{-1} f against
    i gamma_+(lam) (B(lam)^{-1} U - I)^{-1} gamma_+(lam)* f.
    """
    from scipy.integrate import simpson

    if bc.chart_unitary is None:
        raise ValidationError("resolvent_residual requires a chart-unitary condition")
    lam = float(lam)
    xs = np.linspace(0.0, p.length, BVP_NODES)
    fv = _samples(f, xs)
    cs = solution_values(p, lam, xs)
    y_bc = _solve_bvp_rows(_bc_functional_rows_phys(bc), xs, cs, fv)
    y_plus = _solve_bvp_rows(GAMMA_PLUS_ROWS_PHYS, xs, cs, fv)
    lhs = y_bc - y_plus

    cv, _, sv, _ = cs
    fd = fundamental(p, lam)
    C = _gamma_coeffs([fd], +1)[0]
    basis = [C[0, j] * cv + C[1, j] * sv for j in range(2)]
    w = np.array([simpson(fv * np.conj(basis[j]), x=xs) for j in range(2)])
    T = np.linalg.solve(_weyl_B(fd), bc.chart_unitary) - np.eye(2)
    coef = C @ np.linalg.solve(T, w)
    rhs = 1j * (coef[0] * cv + coef[1] * sv)

    num_int = simpson(np.abs(lhs - rhs) ** 2, x=xs)
    den_int = simpson(np.abs(fv) ** 2, x=xs)
    if den_int == 0:
        return 0.0
    return float(np.sqrt(num_int / den_int))


def degeneracy_scan(p: SLProblem, grid=None) -> dict:
    """Weak algebraic degeneracy test: does c(pi, .) == s'(pi, .)?"""
    grid = np.asarray(np.linspace(0.0, 60.0, 41) if grid is None else grid, dtype=float)
    if grid.size < 32:
        raise ValidationError("degeneracy_scan needs at least 32 sample points")
    c_, sp_ = _stack(fundamental_many(p, grid), "c", "sp")
    dev = np.abs(c_ - sp_).max()
    return {"weakly_degenerate": bool(dev < 1e-8), "max_deviation": float(dev)}
