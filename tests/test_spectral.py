import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import weylcurve as wc
from weylcurve import spectral
from weylcurve.spectral import char_section

from conftest import (
    DEGENERATE_ROWS_SPAN, random_symmetric_unitary,
)

rng = np.random.default_rng(7713)


# -- characteristic function ---------------------------------------------------


def test_char_function_zero_exactly_at_eigenvalues(c_q0, bc_dirichlet):
    # Dirichlet with q=0: eigenvalues k^2
    for lam, iszero in [(4.0, True), (9.0, True), (5.0, False)]:
        v = abs(wc.char_function(c_q0, bc_dirichlet, lam))
        s = char_section(c_q0, bc_dirichlet, lam)[1]
        if iszero:
            assert v < 1e-9 * s
        else:
            assert v > 1e-4 * s


def test_is_degenerate_detects_rank_collapse(c_q0, bc_dirichlet):
    bad = wc.bc_from_physical(DEGENERATE_ROWS_SPAN, "span", label="degenerate")
    assert wc.is_degenerate(c_q0, bad)
    assert not wc.is_degenerate(c_q0, bc_dirichlet)


# -- real eigenvalues ------------------------------------------------------------


def test_dirichlet_eigenvalues_q0(c_q0, bc_dirichlet):
    evs = wc.eigenvalues_real(c_q0, bc_dirichlet, (0.5, 30.0))
    lams = sorted(e.lam.real for e in evs)
    assert np.allclose(lams, [1.0, 4.0, 9.0, 16.0, 25.0], atol=1e-8)
    assert all(e.multiplicity == 1 for e in evs)


def test_neumann_eigenvalues_q0(c_q0, bc_neumann):
    evs = wc.eigenvalues_real(c_q0, bc_neumann, (-0.5, 10.0))
    lams = sorted(e.lam.real for e in evs)
    assert np.allclose(lams, [0.0, 1.0, 4.0, 9.0], atol=1e-8)


def test_periodic_double_eigenvalues(c_q0, bc_periodic):
    evs = wc.eigenvalues_real(c_q0, bc_periodic, (-0.5, 20.0))
    got = sorted((round(e.lam.real, 6), e.multiplicity) for e in evs)
    assert got == [(0.0, 1), (4.0, 2), (16.0, 2)]


def test_eigenvalues_real_cos_potential(c_qcos, bc_dirichlet):
    evs = wc.eigenvalues_real(c_qcos, bc_dirichlet, (0.5, 12.0))
    lams = sorted(e.lam.real for e in evs)
    # perturbation of 1, 4, 9 by a zero-mean potential: first order shifts
    # are the diagonal matrix elements <sin kx, cos x sin kx> * 2/pi
    assert len(lams) == 3
    assert abs(lams[0] - 1.0) < 0.5
    assert abs(lams[1] - 4.0) < 0.5
    assert abs(lams[2] - 9.0) < 0.5
    for e in evs:
        assert e.residual < 1e-6


def test_cos_neumann_eigenvalue_matches_mathieu(c_qcos, bc_neumann):
    # x = 2z turns -y'' + cos(x) y = lam y into Mathieu's equation with
    # a = 4 lam, q = 2; Neumann data on [0, pi] select the even pi-periodic
    # solutions, so lam = a_6(2) / 4 near 9.014.  The eigenvalue sits at a
    # zero of s(pi, lam), where B must not lose accuracy.
    from scipy.special import mathieu_a
    evs = wc.eigenvalues_real(c_qcos, bc_neumann, (8.5, 9.5))
    assert len(evs) == 1
    assert evs[0].lam.real == pytest.approx(mathieu_a(6, 2.0) / 4, abs=1e-8)


def test_degenerate_bc_raises(c_q0):
    # the degenerate condition is not self-adjoint (spectrum = C), so the
    # contour search is the entry point that must refuse it
    bad = wc.bc_from_physical(DEGENERATE_ROWS_SPAN, "span")
    with pytest.raises(wc.DegenerateBCError):
        wc.eigenvalues_complex(c_q0, bad, (-1.0, 1.0, -1.0, 1.0))


def test_eigenvalues_real_validates_interval(c_q0, bc_dirichlet):
    with pytest.raises(wc.ValidationError):
        wc.eigenvalues_real(c_q0, bc_dirichlet, (3.0, 3.0))


def test_count_real_matches_eigenvalues(c_q0, bc_dirichlet):
    n = wc.count_real(c_q0, bc_dirichlet, 0.5, 30.0)
    assert n == 5


# -- complex eigenvalues ----------------------------------------------------------


def test_complex_zeros_exponential_curve(c_exp):
    # det(B - U) with B = e^{i lam}, U = 0.5: zeros at -i ln 0.5 + 2 pi k
    bc = wc.bc_from_chart(np.array([[0.5]]))
    evs = wc.eigenvalues_complex(c_exp, bc, (-1.0, 8.0, -2.0, 2.0))
    expect = [np.log(2) * 1j, 2 * np.pi + np.log(2) * 1j]
    lams = sorted((e.lam for e in evs), key=lambda z: z.real)
    assert len(lams) == 2
    for got, want in zip(lams, expect):
        assert abs(got - want) < 1e-8


def _boundary_distance(z, x0, x1, y0, y1):
    """Distance from each point of z to the boundary of the rectangle."""
    dx = np.maximum.reduce([x0 - z.real, z.real - x1, np.zeros_like(z.real)])
    dy = np.maximum.reduce([y0 - z.imag, z.imag - y1, np.zeros_like(z.imag)])
    inner = np.minimum.reduce([z.real - x0, x1 - z.real, z.imag - y0, y1 - z.imag])
    return np.where((dx > 0) | (dy > 0), np.hypot(dx, dy), inner)


@given(st.floats(-3.0, 3.0), st.floats(-np.pi, np.pi), st.floats(-60.0, 50.0),
       st.floats(0.5, 100.0), st.floats(-5.0, 4.0), st.floats(0.5, 8.0))
@example(np.log(abs(0.5 + 0.2j)), np.angle(0.5 + 0.2j), -30.0, 60.0, -2.0, 5.0)
@example(np.log(abs(0.5 + 0.2j)), np.angle(0.5 + 0.2j), -20.0, 40.0, -3.0, 6.0)
def test_complex_zeros_exponential_chart(c_exp, log_mod, arg, x0, width, y0, height):
    # det(B - Y) with B = e^{i lam}: zeros at arg Y + 2 pi k - i ln|Y|; the
    # examples are rectangles holding 9 and 7 zeros
    x1, y1 = x0 + width, y0 + height
    Y = np.exp(log_mod + 1j * arg)
    k = np.arange(np.floor((x0 - arg) / (2 * np.pi)) - 1, np.ceil((x1 - arg) / (2 * np.pi)) + 2)
    zeros = arg + 2 * np.pi * k - 1j * log_mod
    assume(np.all(_boundary_distance(zeros, x0, x1, y0, y1) > 1e-3))
    inside = zeros[(zeros.real > x0) & (zeros.real < x1) & (zeros.imag > y0) & (zeros.imag < y1)]
    evs = wc.eigenvalues_complex(c_exp, wc.bc_from_chart(np.array([[Y]])), (x0, x1, y0, y1))
    assert all(e.multiplicity == 1 for e in evs)
    got = np.array([e.lam for e in evs])
    assert len(got) == len(inside)
    assert np.abs(got - np.sort_complex(inside)).max(initial=0.0) < 1e-8


def test_robin_complex_eigenvalues_q0(c_q0):
    # y(0) = 0, y'(pi) = alpha y(pi): eigenvalues lam = k^2 with
    # k cos(k pi) = alpha sin(k pi); k = 0 is no zero of f(k) / k
    alpha = 0.5 + 1j
    bc = wc.bc_from_physical(np.array([[1, 0, 0, 0], [0, 0, -alpha, 1]]), "functional")
    evs = wc.eigenvalues_complex(c_q0, bc, (-5.0, 60.0, -4.0, 4.0))
    assert len(evs) == 8
    assert all(e.multiplicity == 1 for e in evs)
    for e in evs:
        k = np.sqrt(e.lam)
        for _ in range(50):
            f = k * np.cos(k * np.pi) - alpha * np.sin(k * np.pi)
            df = np.cos(k * np.pi) - k * np.pi * np.sin(k * np.pi) - alpha * np.pi * np.cos(k * np.pi)
            k -= f / df
        assert abs(k * k - e.lam) < 1e-8 * (1 + abs(e.lam))
    lams = np.array([e.lam for e in evs])
    assert np.min(np.abs(lams[:, None] - lams[None, :]) + np.eye(8)) > 1e-3


def test_complex_zeros_on_the_contour_dilate(c_exp):
    # the zeros i ln 2 and 2 pi + i ln 2 sit on the top edge: the search
    # retries on the rectangle dilated by 1 % and finds both
    bc = wc.bc_from_chart(np.array([[0.5]]))
    evs = wc.eigenvalues_complex(c_exp, bc, (-1.0, 8.0, -2.0, np.log(2)))
    expect = [np.log(2) * 1j, 2 * np.pi + np.log(2) * 1j]
    assert len(evs) == 2
    for e, want in zip(evs, expect):
        assert abs(e.lam - want) < 1e-8
    # a zero on the multiplicity square is a typed error
    with pytest.raises(wc.NumericalError):
        wc.multiplicity(c_exp, bc, (np.log(2) + 0.1) * 1j, rho=0.1)


# -- the contour against a one-segment-at-a-time reference -------------------------


def _sample_one(c, bc, z):
    F, scale = char_section(c, bc, z)
    if abs(F) < 1e-11 * scale:
        raise spectral._EdgeHit(f"characteristic function vanishes on the contour at {z}")
    return z, F


def _march_one_segment_at_a_time(c, bc, a, b, fresh=True):
    """The contour's step rule applied to one segment, one sample at a time:
    samples (z, F) from sample a to sample b."""
    z0, z1 = a[0], b[0]
    out, t = [a], 0.0
    h, hmax = (1 / 64, 0.25) if fresh else (1.0, 1.0)
    while t < 1.0:
        t1 = min(t + h, 1.0)
        z, F = b if t1 == 1.0 else _sample_one(c, bc, z0 + (z1 - z0) * t1)
        step = abs(float(np.angle(F / out[-1][1])))
        if step > spectral.MAX_STEP_PHASE:
            h = (t1 - t) / 2
            if h < 1e-10:
                raise spectral._EdgeHit(f"unresolved phase jump on the contour at {z}")
            continue
        out.append((z, F))
        t = t1
        if step < spectral.MAX_STEP_PHASE / 2:
            h = min(h * 1.5, hmax)
    return out


def _box_edges_one_at_a_time(c, bc, rect):
    x0, x1, y0, y1 = rect
    corners = [_sample_one(c, bc, complex(x, y))
               for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]
    return [_march_one_segment_at_a_time(c, bc, corners[k], corners[(k + 1) % 4])
            for k in range(4)]


def _children_one_at_a_time(c, bc, rect, edges, xm, ym):
    x0, x1, y0, y1 = rect

    def cut(edge, zm):
        za, zb = edge[0][0], edge[-1][0]
        ts = [((z - za) / (zb - za)).real for z, _ in edge]
        k = int(np.searchsorted(ts, ((zm - za) / (zb - za)).real, side="right")) - 1
        m = _sample_one(c, bc, zm)
        return (edge[:k] + _march_one_segment_at_a_time(c, bc, edge[k], m, fresh=False),
                _march_one_segment_at_a_time(c, bc, m, edge[k + 1], fresh=False) + edge[k + 2:])

    b0, b1 = cut(edges[0], complex(xm, y0))
    r0, r1 = cut(edges[1], complex(x1, ym))
    t0, t1 = cut(edges[2], complex(xm, y1))
    l0, l1 = cut(edges[3], complex(x0, ym))
    center = _sample_one(c, bc, complex(xm, ym))
    south, east, north, west = (_march_one_segment_at_a_time(c, bc, half[-1], center)
                                for half in (b0, r0, t0, l0))
    return [((x0, xm, y0, ym), [b0, south, west[::-1], l1]),
            ((xm, x1, y0, ym), [b1, r0, east, south[::-1]]),
            ((x0, xm, ym, y1), [west, north[::-1], t1, l0]),
            ((xm, x1, ym, y1), [east[::-1], r1, t0, north])]


def _newton_one_at_a_time(c, bc, lam, mult, box_size):
    F = wc.char_function(c, bc, lam)
    prev = lam + 1e-6 * (1 + abs(lam))
    F_prev = wc.char_function(c, bc, prev)
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
        F = wc.char_function(c, bc, lam)
        if abs(F) < best_abs:
            best, best_abs, stale = lam, abs(F), 0
        else:
            stale += 1
            if stale == 2:
                break
    return best


def _zeros_one_at_a_time(c, bc, rect, edges):
    """(lambda, multiplicity, residual) of the zeros in a box, each refined
    as soon as the quadtree finds its box; without the retries of
    eigenvalues_complex, which the problems here do not take."""
    x0, x1, y0, y1 = rect
    w, s1 = spectral._winding(edges)
    if w == 0:
        return []
    size = max(x1 - x0, y1 - y0)
    if (w <= spectral.M_MAX and (w == 1 or size <= 1.0)) or size <= spectral.SIZE_TOL:
        lam = _newton_one_at_a_time(c, bc, s1 / w, w, max(size, spectral.SIZE_TOL))
        return [(lam, w, float(spectral._residuals(c, bc, [lam])[0]))]
    return [z for sub, sub_edges in _children_one_at_a_time(c, bc, rect, edges, (x0 + x1) / 2,
                                                            (y0 + y1) / 2)
            for z in _zeros_one_at_a_time(c, bc, sub, sub_edges)]


@given(st.floats(-3.0, 3.0), st.floats(-np.pi, np.pi), st.floats(-60.0, 50.0),
       st.floats(0.5, 60.0), st.floats(-5.0, 4.0), st.floats(0.5, 8.0),
       st.floats(-0.2, 0.2), st.floats(-0.2, 0.2))
@example(np.log(abs(0.5 + 0.2j)), np.angle(0.5 + 0.2j), -30.0, 60.0, -2.0, 5.0, 0.0, 0.0)
def test_contour_samples_are_those_of_a_march_one_segment_at_a_time(
        c_exp, log_mod, arg, x0, width, y0, height, sx, sy):
    # the lockstep marches of a box's edges and of its children's cut parts
    # and arms sample the points of the sequential march, with bitwise the
    # same values; a zero on the contour stops both
    bc = wc.bc_from_chart(np.array([[np.exp(log_mod + 1j * arg)]]))
    rect = (x0, x0 + width, y0, y0 + height)
    xm, ym = x0 + (0.5 + sx) * width, y0 + (0.5 + sy) * height
    try:
        edges = _box_edges_one_at_a_time(c_exp, bc, rect)
        children = _children_one_at_a_time(c_exp, bc, rect, edges, xm, ym)
    except spectral._EdgeHit:
        with pytest.raises(spectral._EdgeHit):
            spectral._children(c_exp, bc, rect, spectral._box_edges(c_exp, bc, rect), xm, ym)
        return
    assert spectral._box_edges(c_exp, bc, rect) == edges
    assert spectral._children(c_exp, bc, rect, edges, xm, ym) == children


def test_contour_overflow_names_the_first_sample_in_segment_order(c_exp):
    # the lower corners of this box leave the floating-point range (|e^{i lam}|
    # = e^1000): the corners sampled together raise the plain NumericalError
    # for the first of them, as a corner-by-corner walk would
    bc = wc.bc_from_chart(np.array([[0.5 + 0.2j]]))
    with pytest.raises(wc.NumericalError, match=r"lambda = \(-10-1000j\);") as err:
        spectral._box_edges(c_exp, bc, (-10.0, 10.0, -1000.0, -100.0))
    assert type(err.value) is wc.NumericalError


def test_robin_contour_solves_in_lockstep_rounds(monkeypatch):
    # a fresh q = 0 Robin problem, so that every lambda is solved once: the
    # lockstep marches and Newton steps solve the 382 lambdas of the
    # one-at-a-time schedule in at most 140 propagation passes, and find
    # bitwise its zeros
    from weylcurve import sturm
    bc = wc.bc_from_physical(np.array([[1, 0, 0, 0], [0, 0, -(0.5 + 1j), 1]]), "functional")
    rect = (0.3, 30.0, -3.0, 3.0)
    p, p_ref = (wc.SLProblem(potential=wc.Potential.zero()) for _ in range(2))
    passes = []

    def counted(pan, lam, solve=sturm._solve):
        passes.append(lam.shape[0] if lam.ndim else 1)
        return solve(pan, lam)

    monkeypatch.setattr(sturm, "_solve", counted)
    evs = wc.eigenvalues_complex(wc.curve_provider(p), bc, rect)
    monkeypatch.undo()
    assert len(p._memo) == sum(passes) == 382
    assert len(passes) <= 140
    c_ref = wc.curve_provider(p_ref)
    # the reference solves what eigenvalues_complex solves: its degeneracy
    # check first, then the quadtree with each zero refined in turn
    assert not wc.is_degenerate(c_ref, bc, [complex(a, b) for a in np.linspace(0.3, 30.0, 8)
                                            for b in np.linspace(-3.0, 3.0, 8)])
    ref = _zeros_one_at_a_time(c_ref, bc, rect, _box_edges_one_at_a_time(c_ref, bc, rect))
    assert set(p_ref._memo) == set(p._memo)
    assert len(ref) == 6
    assert [(e.lam, e.multiplicity, e.residual) for e in evs] == \
        sorted(ref, key=lambda z: (z[0].real, z[0].imag))


def test_multiplicity_analytic_and_geometric(c_q0, bc_periodic):
    out = wc.multiplicity(c_q0, bc_periodic, 4.0)
    assert out["analytic"] == 2
    assert out["geometric"] == 2
    out1 = wc.multiplicity(c_q0, bc_periodic, 0.0)
    assert out1["analytic"] == 1


# -- counting / interlacing / phase ------------------------------------------------


def test_counting_exponential_closed_form(c_exp):
    # B = e^{i lam}, U = I: eigenvalues 2 pi k; at r = 10: 0, +-2pi inside
    bc = wc.bc_from_chart(np.array([[1.0]]))
    out = wc.counting(c_exp, bc, 10.0)
    assert out["n_T"] == 3
    expect = np.log(10.0) + 2 * np.log(10.0 / (2 * np.pi))
    assert out["N_T"] == pytest.approx(expect, abs=1e-6)


def test_counting_validates_radius(c_exp):
    bc = wc.bc_from_chart(np.array([[1.0]]))
    with pytest.raises(wc.ValidationError):
        wc.counting(c_exp, bc, -1.0)


def test_counting_nudges_ring_at_eigenvalue(c_q0, bc_dirichlet):
    # r = 2 hits the eigenvalue modulus... r=4 exactly at lam=4
    out = wc.counting(c_q0, bc_dirichlet, 4.0)
    assert out["r_used"] != 4.0
    assert out["n_T"] in (1, 2)


def test_interlace_bound_dirichlet_neumann(c_q0, bc_dirichlet, bc_neumann):
    out = wc.interlace(c_q0, bc_dirichlet, bc_neumann, 30.0)
    assert out["bound_satisfied"]
    assert abs(out["n1"] - out["n2"]) <= 2


def test_interlace_random_unitaries(c_q0):
    b1 = wc.bc_from_unitary(random_symmetric_unitary(rng))
    b2 = wc.bc_from_unitary(random_symmetric_unitary(rng))
    out = wc.interlace(c_q0, b1, b2, 30.0)
    assert abs(out["n1"] - out["n2"]) <= 2


def test_phase_count_exponential(c_exp):
    bc = wc.bc_from_chart(np.array([[1.0]]))
    out = wc.phase_count(c_exp, bc, 10.0)
    assert out["n_T"] == 3
    assert out["gap"] <= 1.0
    assert out["phase_integral"] == pytest.approx(10.0 / np.pi, abs=1e-6)


def test_phase_count_dirichlet(c_q0, bc_dirichlet):
    out = wc.phase_count(c_q0, bc_dirichlet, 30.0)
    assert out["gap"] <= 2.0


def test_monotone_margin_positive_on_real_axis(c_q0, c_qcos):
    for u in (0.7, 5.3, 50.0):
        assert wc.monotone_margin(c_q0, u) > 0
        assert wc.monotone_margin(c_qcos, u) > 0


# -- resolvent cross-check -----------------------------------------------------------


def test_resolvent_residual_small(p_q0, bc_dirichlet):
    res = wc.resolvent_residual(p_q0, bc_dirichlet, 2.5,
                                lambda x: np.sin(2 * x) * np.exp(-x))
    assert res < 1e-6


def test_resolvent_residual_random_f(p_qcos, bc_neumann):
    coef = rng.standard_normal(4)
    f = lambda x: coef[0] * np.sin(x) + coef[1] * np.cos(2 * x) + \
        coef[2] * x * (np.pi - x) + coef[3]
    res = wc.resolvent_residual(p_qcos, bc_neumann, 1.7, f)
    assert res < 1e-6


# -- the batched real axis ----------------------------------------------------


@given(st.floats(0.0, 2 * np.pi, exclude_max=True), st.floats(-2e4, 2e4), st.floats(-2e4, 2e4))
@example(0.3, -10501.0, 10501.0)
def test_exponential_real_spectrum_closed_form(c_exp, theta, a, b):
    # U = e^{i theta}: the eigenvalues are theta + 2 pi k, each simple
    a, b = min(a, b), max(a, b)
    assume(b - a > 1e-3)
    k = np.arange(np.floor((a - theta) / (2 * np.pi)) - 1, np.ceil((b - theta) / (2 * np.pi)) + 2)
    exact = theta + 2 * np.pi * k
    assume(np.min(np.abs(exact - a)) > 1e-6 * (1 + abs(a)))
    assume(np.min(np.abs(exact - b)) > 1e-6 * (1 + abs(b)))
    exact = exact[(exact > a) & (exact <= b)]
    bc = wc.bc_from_unitary([[np.exp(1j * theta)]])
    evs = wc.eigenvalues_real(c_exp, bc, (a, b))
    assert [e.multiplicity for e in evs] == [1] * len(exact)
    got = np.array([e.lam for e in evs])
    assert np.all(np.abs(got - exact) <= 1e-12 * (1 + np.abs(exact)))
    assert wc.count_real(c_exp, bc, a, b) == len(exact)


def test_real_sweep_refines_every_root_in_a_few_batched_calls(monkeypatch):
    from weylcurve import curves, spectral
    c = wc.exponential()
    bc = wc.bc_from_unitary([[np.exp(0.3j)]])
    c.phase_path.cover(-10501.0, 10501.0)
    calls = []
    many = curves.CurveProvider.B_many

    def counted(self, lams):
        calls.append(len(lams))
        return many(self, lams)

    monkeypatch.setattr(curves.CurveProvider, "B_many", counted)
    evs = wc.eigenvalues_real(c, bc, (-10501.0, 10501.0))
    assert len(evs) == 3343
    # the bracket ends, the root iterations and the residuals
    assert len(calls) <= 12
    assert "brentq" not in vars(spectral)


def test_sl_sweep_solves_each_B_many_batch_in_one_call(monkeypatch, bc_dirichlet):
    # each batch of B on a Sturm-Liouville curve is solved by one
    # fundamental_many call ahead of its per-lambda B calls, which stay
    from weylcurve import curves, sturm

    c = wc.curve_provider(wc.SLProblem(potential=wc.Potential.zero()))
    count = {"many": 0, "B": 0}
    batches = []
    many, B, B_many = sturm.fundamental_many, curves.CurveProvider.B, curves.CurveProvider.B_many

    def counted_many(p, lams):
        count["many"] += 1
        return many(p, lams)

    def counted_B(self, lam):
        count["B"] += 1
        return B(self, lam)

    def counted_B_many(self, lams):
        before = dict(count)
        out = B_many(self, lams)
        batches.append((len(lams), count["many"] - before["many"], count["B"] - before["B"]))
        return out

    monkeypatch.setattr(sturm, "fundamental_many", counted_many)
    monkeypatch.setattr(curves.CurveProvider, "B", counted_B)
    monkeypatch.setattr(curves.CurveProvider, "B_many", counted_B_many)
    evs = wc.eigenvalues_real(c, bc_dirichlet, (0.5, 10.0))
    assert [e.lam.real for e in evs] == pytest.approx([1.0, 4.0, 9.0], abs=1e-9)
    assert [(many_calls, b_calls) for k, many_calls, b_calls in batches] \
        == [(1, k) for k, _, _ in batches]
    assert max(k for k, _, _ in batches) > 1


# -- the bracketed root search against scipy's -----------------------------------


def _scipy_find_roots(f, a, b, *ends):
    # scipy evaluates f at the bracket ends itself
    from scipy.optimize.elementwise import find_root

    res = find_root(f, (a, b), args=(np.arange(len(a)),),
                    tolerances=dict(xatol=1e-12, xrtol=1e-12))
    return res.x, res.status


@pytest.mark.parametrize("name, interval", [("q0", (-0.5, 450.0)), ("cos", (-2.0, 150.0)),
                                            ("exp", (-10501.0, 10501.0))])
def test_root_search_is_that_of_scipy_find_root(monkeypatch, c_q0, c_qcos, c_exp,
                                                bc_dirichlet, name, interval):
    from weylcurve import curves, spectral

    c, bc = {"q0": (c_q0, bc_dirichlet), "cos": (c_qcos, bc_dirichlet),
             "exp": (c_exp, wc.bc_from_unitary([[np.exp(0.3j)]]))}[name]
    c.phase_path.cover(*interval)
    calls = []
    many = curves.CurveProvider.B_many

    def counted(self, lams):
        calls.append(len(lams))
        return many(self, lams)

    monkeypatch.setattr(curves.CurveProvider, "B_many", counted)
    ours = np.array([e.lam.real for e in wc.eigenvalues_real(c, bc, interval)])
    ours_calls, calls[:] = list(calls), []
    monkeypatch.setattr(spectral, "_find_roots", _scipy_find_roots)
    ref = np.array([e.lam.real for e in wc.eigenvalues_real(c, bc, interval)])
    # the same roots from the same evaluations, batch by batch: after the
    # sweep's one call for the interval ends off the knots, less scipy's two
    # evaluations of the bracket ends, whose values the sweep holds
    assert len(ours) == len(ref) > 10
    assert np.all(np.abs(ours - ref) <= 1e-13 * (1 + np.abs(ref)))
    assert ours_calls[0] == calls[0] <= 2
    assert ours_calls[1:] == calls[3:]


def test_root_search_flags_a_bracket_without_a_sign_change():
    from weylcurve.spectral import _find_roots

    def f(x, k):
        return np.where(k == 1, 1.0 + x * x, np.cos(x))

    a, b = np.array([0.0, 0.0, 3.0]), np.array([3.0, 3.0, 6.0])
    k = np.arange(len(a))
    roots, status = _find_roots(f, a, b, f(a, k), f(b, k))
    ref_roots, ref_status = _scipy_find_roots(f, a, b)
    assert status.tolist() == ref_status.tolist() == [0, -1, 0]
    assert np.array_equal(roots, ref_roots, equal_nan=True)
    assert roots[0] == pytest.approx(np.pi / 2, abs=1e-12)


def test_failed_crossing_refinement_raises(monkeypatch, c_q0, bc_dirichlet):
    from weylcurve import spectral

    search = spectral._find_roots
    # a search on |psi| sees no sign change in any bracket
    monkeypatch.setattr(spectral, "_find_roots",
                        lambda f, a, b, fa, fb: search(lambda x, k: np.abs(f(x, k)), a, b,
                                                       np.abs(fa), np.abs(fb)))
    with pytest.raises(wc.NumericalError, match=r"crossing refinement failed .*\(status -1\)"):
        wc.eigenvalues_real(c_q0, bc_dirichlet, (0.5, 10.0))
