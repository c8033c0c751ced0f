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


@pytest.mark.parametrize("mode", ["functional", "span"])
def test_char_function_depends_on_the_condition_not_its_rows(c_q0, mode):
    # two writings of one condition: the same frame, so the same F
    rows = np.array([[1.0, 0.3, 0.0, 0.0], [0.0, 0.0, -0.5 - 1j, 1.0]])
    G = np.array([[2.0, -1.0 + 0.5j], [0.25, 3.0]])
    a = wc.bc_from_physical(rows, mode)
    b = wc.bc_from_physical(G @ rows, mode)
    assert np.allclose(a.point.frame, b.point.frame, rtol=0, atol=1e-14)
    for lam in (2.3 + 0.5j, -4.0, 17.5 + 3j):
        Fa = wc.char_function(c_q0, a, lam)
        assert abs(wc.char_function(c_q0, b, lam) - Fa) <= 1e-13 * abs(Fa)


def test_make_bc_leaves_no_unitary_chart_only_outside_the_chart(monkeypatch):
    # (0; I) is outside the contraction chart
    point = wc.GrassPoint(np.vstack([np.zeros((2, 2)), np.eye(2)]))
    assert wc.BoundaryCondition(point).chart_unitary is None

    def broken(point):
        raise RuntimeError("a fault inside chart_convert")

    monkeypatch.setattr(spectral, "chart_convert", broken)
    with pytest.raises(RuntimeError, match="inside chart_convert"):
        wc.BoundaryCondition(point).chart_unitary


def _rotation_to_nine_digits():
    t = 0.7
    return np.round([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], 9)


@pytest.mark.parametrize("U", [np.diag([1 + 1e-9, 1.0]), _rotation_to_nine_digits()])
def test_unitary_and_chart_constructors_agree_near_the_tolerance(U):
    # a Lagrangian n-subspace is exactly the graph of a unitary, so both
    # constructors call a nearly unitary chart self-adjoint
    by_unitary, by_chart = wc.bc_from_unitary(U), wc.bc_from_chart(U)
    assert by_unitary.selfadjoint and by_chart.selfadjoint
    assert np.allclose(by_chart.chart_unitary, by_unitary.chart_unitary, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["functional", "span"])
@pytest.mark.parametrize("scale", [1e-300, 1e-11, 1.0, 1e11, 1e300])
def test_canonical_rows_are_checked_for_rank_at_their_own_scale(mode, scale):
    rows = np.array([[1.0, 0.3, 0.0, 0.0], [0.0, 0.0, -0.5 - 1j, 1.0]])
    ref = wc.bc_from_canonical(rows, mode)
    assert np.allclose(wc.bc_from_canonical(scale * rows, mode).point.frame, ref.point.frame,
                       rtol=0, atol=1e-14)
    with pytest.raises(wc.ValidationError, match="must have full rank"):
        wc.bc_from_canonical(scale * np.outer([1.0, 2.0 - 1.0j], rows[1]), mode)


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
    """spectral._segment from sample a to sample b walked alone, each of its
    trial points sampled by a call of its own: samples (z, F)."""
    walk = spectral._segment(a, b, fresh)
    try:
        zs = next(walk)
        while True:
            zs = walk.send([_sample_one(c, bc, z) for z in zs])
    except StopIteration as done:
        return done.value


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
    # and arms sample the points of each segment's walk taken alone, with
    # bitwise the same values; a zero on the contour stops both
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


def _assert_marched(out, a, b):
    """out runs from sample a to sample b in order along the segment, and
    arg F turns by at most MAX_STEP_PHASE between neighbours."""
    assert out[0] == a and out[-1] == b
    z, F = np.array(out).T
    assert np.all(np.diff(((z - a[0]) / (b[0] - a[0])).real) > 0)
    assert np.all(np.abs(np.angle(F[1:] / F[:-1])) <= spectral.MAX_STEP_PHASE)


@given(st.floats(-3.0, 3.0), st.floats(-np.pi, np.pi), st.floats(-60.0, 60.0),
       st.floats(-5.0, 8.0), st.floats(-60.0, 60.0), st.floats(-5.0, 8.0), st.booleans())
def test_every_step_of_a_marched_segment_turns_by_at_most_the_limit(
        c_exp, log_mod, arg, xa, ya, xb, yb, fresh):
    bc = wc.bc_from_chart(np.array([[np.exp(log_mod + 1j * arg)]]))
    assume(abs(complex(xb - xa, yb - ya)) > 1e-3)
    try:
        a, b = spectral._samples(c_exp, bc, [complex(xa, ya), complex(xb, yb)])
        out, = spectral._marches(c_exp, bc, [(a, b, fresh)])
    except spectral._EdgeHit:
        assume(False)
    _assert_marched(out, a, b)


def test_every_step_of_the_robin_box_edges_turns_by_at_most_the_limit(c_q0):
    bc = wc.bc_from_physical(np.array([[1, 0, 0, 0], [0, 0, -(0.5 + 1j), 1]]), "functional")
    edges = spectral._box_edges(c_q0, bc, (0.3, 30.0, -3.0, 3.0))
    for edge, nxt in zip(edges, edges[1:] + edges[:1]):
        _assert_marched(edge, edge[0], nxt[0])


def test_a_fresh_segment_first_tries_a_sixty_fourth_of_it(c_exp):
    bc = wc.bc_from_chart(np.array([[0.5 + 0.2j]]))
    a, b = spectral._samples(c_exp, bc, [complex(-3.0, 0.5), complex(5.0, 1.0)])
    trials = next(spectral._segment(a, b, True))
    assert trials[0] == a[0] + (b[0] - a[0]) / 64
    # the trials of one round are those of steps that each grow by half,
    # up to a quarter of the segment
    t = ((np.array(trials) - a[0]) / (b[0] - a[0])).real
    n = spectral.SPECULATIVE_STEPS
    assert np.allclose(np.diff(t, prepend=0.0), np.minimum(1.5 ** np.arange(n) / 64, 0.25),
                       rtol=1e-12, atol=0)
    # a part of an accepted step is tried whole: a part whose ends turn by
    # less than the limit takes no trial point
    m, = spectral._samples(c_exp, bc, trials[:1])
    with pytest.raises(StopIteration) as done:
        next(spectral._segment(a, m, False))
    assert done.value.value == [a, m]


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
    # lockstep marches and Newton steps solve the lambdas of the
    # one-at-a-time schedule, at most 480, in at most 64 propagation passes,
    # and find bitwise its zeros
    from weylcurve import sturm
    bc = wc.bc_from_physical(np.array([[1, 0, 0, 0], [0, 0, -(0.5 + 1j), 1]]), "functional")
    rect = (0.3, 30.0, -3.0, 3.0)
    p, p_ref = (wc.SLProblem(potential=wc.Potential.zero()) for _ in range(2))
    passes = []

    def counted(pan, lam, solve=sturm._solve, **kw):
        passes.append(lam.shape[0] if lam.ndim else 1)
        return solve(pan, lam, **kw)

    monkeypatch.setattr(sturm, "_solve", counted)
    evs = wc.eigenvalues_complex(wc.curve_provider(p), bc, rect)
    monkeypatch.undo()
    assert len(p._memo) == sum(passes) <= 480
    assert len(passes) <= 64
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


def test_counting_caps_the_ring_nudge_at_a_thousandth_of_r(c_exp):
    # e^{i lam} = e^{i theta}: eigenvalues theta + 2 pi k.  At r = theta the
    # next modulus, 2 pi - theta = r (1 + 1e-3) + 5e-7, lies inside the sweep
    # but past r (1 + 1e-3), where the nudge stops; none lies below the ring
    theta = (2 * np.pi - 5e-7) / (2 + 1e-3)
    out = wc.counting(c_exp, wc.bc_from_unitary([[np.exp(1j * theta)]]), theta)
    assert out["r_used"] == 0.5 * theta * (1 + 1e-3)
    assert (out["n_T"], out["N_T"]) == (0, 0.0)


# -- array forms against their scalar loops ------------------------------------------


def _merge_loop(roots, mults):
    """The cluster merge as a scalar loop: a root within the tolerance of
    the first root of the cluster before it joins that cluster."""
    merged = []
    for lam, mult in sorted(zip(roots.tolist(), mults.tolist())):
        if merged and lam - merged[-1][0] < spectral.CLUSTER_TOL_BASE * (1 + abs(lam)):
            merged[-1][1] += mult
        else:
            merged.append([lam, mult])
    return merged


def _counting_loop(lams, mults, r):
    n, N = 0, 0.0
    for lam, mult in zip(lams, mults):
        m = abs(lam)
        if m < r:
            n += mult
            N += mult * np.log(r if m < spectral.ZERO_TOL else r / m)
    return n, N


_root = st.one_of(st.floats(-1e4, 1e4), st.floats(-2e-8, 2e-8), st.just(0.0))


@st.composite
def _clustered_roots(draw):
    """Roots in clusters planted within half the cluster tolerance of their
    first root, the clusters three tolerances apart, shuffled."""
    bases = []
    for b in sorted(draw(st.lists(_root, min_size=0, max_size=12))):
        if not bases or b - bases[-1] >= 3 * spectral.CLUSTER_TOL_BASE * (1 + abs(b)):
            bases.append(b)
    roots = [b + u * spectral.CLUSTER_TOL_BASE * (1 + abs(b))
             for b in bases
             for u in [0.0] + draw(st.lists(st.floats(0.0, 0.5, exclude_max=True), max_size=3))]
    order = draw(st.permutations(range(len(roots))))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(roots), max_size=len(roots)))
    return np.array(roots)[list(order)], np.array(mults, dtype=int)


@given(_clustered_roots())
def test_cluster_merge_equals_the_scalar_loop(rm):
    lams, mults = spectral._merge_clusters(*rm)
    assert [[lam, m] for lam, m in zip(lams.tolist(), mults.tolist())] == _merge_loop(*rm)


def test_a_chain_of_close_roots_is_one_cluster():
    # each root within the tolerance of the one before it, the last beyond
    # that of the first: one cluster, where _merge_loop makes two
    tol = spectral.CLUSTER_TOL_BASE
    lams, mults = spectral._merge_clusters(np.array([0.0, 0.6 * tol, 1.2 * tol]),
                                           np.array([1, 1, 2]))
    assert (lams.tolist(), mults.tolist()) == ([0.0], [4])


@given(st.lists(st.tuples(st.complex_numbers(max_magnitude=1e4) | _root, st.integers(1, 3)),
                max_size=20),
       st.lists(st.floats(1e-9, 2e4), min_size=1, max_size=4), st.data())
def test_counting_sums_equal_the_scalar_loop(roots, radii, data):
    lams = [lam for lam, _ in roots]
    mults = [m for _, m in roots]
    if lams:
        # a radius exactly on a modulus
        radii = radii + [abs(data.draw(st.sampled_from(lams)))]
    radii = [r for r in radii if r > 0]
    n, N = spectral.counting_sums(np.array(lams, dtype=complex), np.array(mults, dtype=int),
                                  radii)
    assert list(zip(n.tolist(), N.tolist())) == [_counting_loop(lams, mults, r) for r in radii]


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
@example(0.0, -10501.0, 10501.0)
@example(np.pi, -10501.0, 10501.0)
@example(2 * np.pi - 1e-3, -10501.0, 10501.0)
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


def test_periodic_q0_sweep_resolves_its_double_eigenvalues_in_a_few_rounds(monkeypatch,
                                                                           bc_periodic):
    # periodic q = 0: 0 is simple and every (2k)^2 double.  A step holding a
    # double eigenvalue is solved for its root and then sampled once past
    # it, all such steps together
    from weylcurve import curves, spectral

    c = wc.curve_provider(wc.SLProblem(potential=wc.Potential.zero()))
    c.phase_path.cover(-0.5, 450.0)
    calls, inside = [], []
    many, roots = curves.CurveProvider.B_many, spectral._crossing_roots

    def counted(self, lams):
        if inside:
            calls.append(len(lams))
        return many(self, lams)

    def spied(*args):
        inside.append(True)
        try:
            return roots(*args)
        finally:
            inside.clear()

    monkeypatch.setattr(curves.CurveProvider, "B_many", counted)
    monkeypatch.setattr(spectral, "_crossing_roots", spied)
    evs = wc.eigenvalues_real(c, bc_periodic, (-0.5, 450.0))
    assert [e.multiplicity for e in evs] == [1] + [2] * 10
    assert [e.lam.real for e in evs] == pytest.approx([4 * k * k for k in range(11)], abs=1e-9)
    assert len(calls) <= 8


def test_a_root_past_which_no_crossing_is_consumed_raises(monkeypatch, bc_periodic):
    # a root search that returned the left end of each bracket leaves every
    # crossing of a double eigenvalue past the sample at root + tolerance
    from weylcurve import spectral

    c = wc.curve_provider(wc.SLProblem(potential=wc.Potential.zero()))
    monkeypatch.setattr(spectral, "_find_roots", lambda f, a, b, fa, fb: np.array(a, dtype=float))
    with pytest.raises(wc.NumericalError, match=r"no crossing consumed at the root .* in \("):
        wc.eigenvalues_real(c, bc_periodic, (0.5, 10.0))


# -- the bracketed root search ---------------------------------------------------


def _scipy_find_roots(f, a, b, *ends):
    # scipy evaluates f at the bracket ends itself
    from scipy.optimize.elementwise import find_root

    res = find_root(f, (a, b), args=(np.arange(len(a)),),
                    tolerances=dict(xatol=1e-12, xrtol=1e-12))
    assert not np.any(res.status)
    return res.x


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
    # scipy's Chandrupatla search as the oracle: the same roots to the
    # tolerance, from no more points of B
    assert len(ours) == len(ref) > 10
    assert np.all(np.abs(ours - ref) <= spectral.ROOT_TOL * (1 + np.abs(ref)))
    assert sum(ours_calls) <= sum(calls)


@pytest.mark.parametrize("kind, exact", [
    ("dirichlet", [k * k for k in range(1, 22)]),
    ("neumann", [k * k for k in range(22)]),
    ("periodic", [4 * k * k for k in range(11)]),
])
def test_q0_real_spectrum_is_k_squared(c_q0, bc_dirichlet, bc_neumann, bc_periodic, kind, exact):
    bc = {"dirichlet": bc_dirichlet, "neumann": bc_neumann, "periodic": bc_periodic}[kind]
    evs = wc.eigenvalues_real(c_q0, bc, (-0.5, 450.0))
    got = np.array([e.lam.real for e in evs])
    exact = np.array(exact, dtype=float)
    assert [e.multiplicity for e in evs] == [1 if kind != "periodic" or k == 0 else 2
                                             for k in range(len(exact))]
    assert np.all(np.abs(got - exact) <= 5e-13 * (1 + exact))


# the q = 0 eigenvalues below 9 with their multiplicities; 0 and 1 are
# points of the cap lattice, so a knot of every phase path that reaches them
_Q0_BELOW_9 = {"dirichlet": [(1, 1), (4, 1)], "neumann": [(0, 1), (1, 1), (4, 1)],
               "periodic": [(0, 1), (4, 2)]}


@given(st.sampled_from(sorted(_Q0_BELOW_9)), st.integers(-2, 8), st.integers(-2, 8))
@example("neumann", 0, 5)
@example("neumann", -1, 0)
@example("periodic", 0, 5)
def test_q0_intervals_are_half_open_at_an_eigenvalue_on_an_end(
        c_q0, bc_dirichlet, bc_neumann, bc_periodic, kind, a, b):
    # (a, b] holds an eigenvalue at b and none at a, also where it lies on a knot
    assume(a < b)
    bc = {"dirichlet": bc_dirichlet, "neumann": bc_neumann, "periodic": bc_periodic}[kind]
    exact = [(lam, m) for lam, m in _Q0_BELOW_9[kind] if a < lam <= b]
    evs = wc.eigenvalues_real(c_q0, bc, (a, b))
    assert [e.multiplicity for e in evs] == [m for _, m in exact]
    assert all(abs(e.lam - lam) <= 5e-13 * (1 + lam) for e, (lam, _) in zip(evs, exact))
    assert wc.count_real(c_q0, bc, a, b) == sum(m for _, m in exact)


_MONOTONE = {
    "linear": lambda d: d,
    "cubic": lambda d: d ** 3,
    "cubic+linear": lambda d: d ** 3 + 1e-3 * d,
    "expm1": lambda d: np.expm1(3.0 * d),
    "arctan": lambda d: np.arctan(40.0 * d),
    "sinh": lambda d: np.sinh(d),
}


@given(st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(1e-9, 10.0), st.floats(1e-9, 10.0),
                          st.sampled_from(sorted(_MONOTONE)), st.sampled_from([1.0, -1.0]),
                          st.booleans()),
                min_size=1, max_size=8))
# flat on one side, steep on the other: the secant steps alone stall
@example([(0.0, 4.0, 4.0, "expm1", 1.0, False), (3.0, 1e-9, 10.0, "cubic", -1.0, True)])
def test_root_search_solves_monotone_functions_to_the_tolerance(brackets):
    from weylcurve.spectral import ROOT_TOL, _find_roots

    r = np.array([t[0] for t in brackets])
    a = np.array([t[0] - t[1] for t in brackets])
    b = np.array([t[0] + t[2] for t in brackets])
    # either orientation: a bracket may run from its right end to its left
    flip = np.array([t[5] for t in brackets])
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    assume(np.all((a - r) * (b - r) < 0))

    def f(x, k):
        return np.array([brackets[i][4] * _MONOTONE[brackets[i][3]](xi - r[i])
                         for xi, i in zip(x.tolist(), k.tolist())])

    k = np.arange(len(r))
    got = _find_roots(f, a, b, f(a, k), f(b, k))
    assert np.all(np.abs(got - r) <= ROOT_TOL * (1 + np.abs(r)))


def test_root_search_flags_a_bracket_without_a_sign_change():
    from weylcurve.spectral import _find_roots

    def f(x, k):
        return np.where(k == 1, 1.0 + x * x, np.cos(x))

    a, b = np.array([0.0, -1.0, 3.0]), np.array([3.0, 2.0, 6.0])
    k = np.arange(len(a))
    with pytest.raises(wc.NumericalError,
                       match=r"failed in \(-1.0, 2.0\]: f has one sign at the ends"):
        _find_roots(f, a, b, f(a, k), f(b, k))
    good = np.array([0, 2])
    got = _find_roots(lambda x, i: f(x, good[i]), a[good], b[good], f(a[good], good),
                      f(b[good], good))
    assert got == pytest.approx([np.pi / 2, 3 * np.pi / 2], abs=1e-12)


def test_root_search_raises_on_a_value_not_finite():
    from weylcurve.spectral import _find_roots

    def f(x, k):
        # the second bracket's first interior point has no value
        return np.where(k == 1, np.nan, x - 1.0)

    a, b = np.array([0.0, 0.0]), np.array([3.0, 4.0])
    with pytest.raises(wc.NumericalError, match=r"failed in \(0.0, 4.0\]: a value is not finite"):
        _find_roots(f, a, b, a - 1.0, b - 1.0)
    with pytest.raises(wc.NumericalError, match=r"failed in \(0.0, 3.0\]: a value is not finite"):
        _find_roots(f, a, b, np.array([-1.0, -1.0]), np.array([np.inf, 3.0]))


def test_root_search_raises_when_a_bracket_stays_open(monkeypatch):
    from weylcurve import spectral

    monkeypatch.setattr(spectral, "ROOT_MAXITER", 3)

    def f(x, k):
        return (x - 1.0) ** 3

    a, b = np.array([0.0, 0.5]), np.array([1.0, 4.0])
    # the first bracket holds its root at an end, the second needs more steps
    with pytest.raises(wc.NumericalError, match=r"failed in \(0.5, 4.0\]: open after 3 steps"):
        spectral._find_roots(f, a, b, f(a, None), f(b, None))


def test_failed_crossing_refinement_raises(monkeypatch, c_q0, bc_dirichlet):
    from weylcurve import spectral

    search = spectral._find_roots
    # a search on |psi| sees no sign change in any bracket
    monkeypatch.setattr(spectral, "_find_roots",
                        lambda f, a, b, fa, fb: search(lambda x, k: np.abs(f(x, k)), a, b,
                                                       np.abs(fa), np.abs(fb)))
    with pytest.raises(wc.NumericalError,
                       match=r"crossing refinement failed in \(.*\]: f has one sign at the ends"):
        wc.eigenvalues_real(c_q0, bc_dirichlet, (0.5, 10.0))
