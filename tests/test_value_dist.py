import warnings

import numpy as np
import pytest

import weylcurve as wc

from conftest import DEGENERATE_ROWS_SPAN

rng = np.random.default_rng(3141)


# -- phase and height -----------------------------------------------------------


def test_total_phase_exponential(c_exp):
    # B = e^{i lam}: arg det B(u) = u exactly
    for u in (3.0, 12.5, -7.25):
        assert wc.total_phase(c_exp, u) == pytest.approx(u, abs=1e-10)


def test_height_exponential_closed_form(c_exp):
    # phi(t) - phi(-t) = 2t, so h(r) = (1/2pi) int_0^r 2 dt = r / pi
    for r in (1.0, 10.0, 42.0):
        assert wc.height(c_exp, r) == pytest.approx(r / np.pi, abs=1e-8 * r)


def test_height_grid_monotone(c_q0):
    radii = np.linspace(1.0, 120.0, 25)
    h = wc.height_grid(c_q0, radii)
    assert np.all(np.diff(h) >= -1e-10)
    assert h[0] >= -1e-12


def test_phase_difference_nondecreasing(c_qcos):
    ts = np.linspace(0.5, 80.0, 40)
    d = [wc.total_phase(c_qcos, t) - wc.total_phase(c_qcos, -t) for t in ts]
    assert np.all(np.diff(d) >= -1e-8)


def test_total_phase_is_anchored_at_zero_when_the_path_starts_away_from_it():
    # the eigenvalue sweep starts the path at 10; the phase at 0 is still
    # the principal value of arg det B(0)
    c = wc.exponential()
    assert wc.count_real(c, wc.bc_from_chart(np.array([[1.0]])), 10.0, 20.0) == 2
    assert wc.total_phase(c, 5.0) == pytest.approx(5.0, abs=1e-10)


def _q0_phase(t):
    """arg det B for q = 0 on a grid t of one sign that starts at 0, from the
    closed form arg det B = -2 arg(c' - s - i(c + s')) with c = cos pi k,
    s = sin pi k / k, c' = -u s and s' = c at k = sqrt(u), complex below 0,
    unwrapped outward from 0 and anchored there at the principal value."""
    u = t.astype(complex)
    k = np.sqrt(u)
    c, s = np.cos(np.pi * k), np.pi * np.sinc(k)
    phi = np.unwrap(-2 * np.angle(-(u + 1) * s - 2j * c))
    return phi - phi[0] + np.angle(np.exp(1j * phi[0]))


def _q0_height(r, n=100000):
    """h(r) for q = 0 from the closed-form phase integrated by Simpson."""
    from scipy.integrate import simpson
    t = np.linspace(0.0, r, n + 1)
    diff = _q0_phase(t) - _q0_phase(-t)
    f = np.empty_like(t)
    f[1:] = diff[1:] / t[1:]
    f[0] = 3 * f[1] - 3 * f[2] + f[3]
    return simpson(f, x=t) / (2 * np.pi)


def test_height_q0_matches_closed_form(p_q0):
    # a fresh provider, so the heights come from the phase path alone; the
    # reference changes by less than 1e-12 between n = 2e4 and 2e5
    c = wc.curve_provider(p_q0)
    radii = [0.5, 1.5, 15.0, 50.0]
    assert wc.height_grid(c, radii) == pytest.approx([_q0_height(r) for r in radii], rel=1e-9)


def test_total_phase_q0_matches_closed_form(p_q0):
    # phase columns are sampled off the path
    c = wc.curve_provider(p_q0)
    for r in (15.0, -15.0):
        exact = _q0_phase(np.linspace(0.0, r, 400001))[-1]
        assert wc.total_phase(c, r) == pytest.approx(exact, abs=1e-6)


def test_height_grid_validates(c_exp):
    with pytest.raises(wc.ValidationError):
        wc.height_grid(c_exp, [-1.0, 2.0])


# -- proximity -------------------------------------------------------------------


def test_proximity_nonnegative(c_q0, bc_dirichlet):
    for r in (5.0, 20.0):
        assert wc.proximity(c_q0, bc_dirichlet, r) >= 0.0


def _adaptive_gl_depth_first(f, edges, tol, levels=None):
    """value_dist._adaptive_gl with one f call per 16-node rule, panels
    visited depth first: the reference for its level-at-a-time schedule.
    levels, if given, collects the tree level of each rule."""
    nodes, weights = np.polynomial.legendre.leggauss(16)

    def rule(a, b, level):
        if levels is not None:
            levels.append(level)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = f(mid + half * nodes)
        return half * float(np.dot(weights, vals)), vals.max()

    def panel(a, b, whole, depth):
        mid = 0.5 * (a + b)
        left, right = rule(a, mid, depth + 1), rule(mid, b, depth + 1)
        fine = left[0] + right[0]
        needs_depth = np.exp(-whole[1]) < 1e-3 and depth < 4
        if (abs(fine - whole[0]) <= tol * (1 + abs(fine)) and not needs_depth) or depth >= 14:
            return fine
        return panel(a, mid, left, depth + 1) + panel(mid, b, right, depth + 1)

    return sum(panel(a, b, rule(a, b, 0), 0) for a, b in zip(edges, edges[1:]))


def test_proximity_solves_each_level_in_one_batch(monkeypatch, bc_dirichlet):
    # a fresh problem, so that every node is a memo miss: each level of the
    # panel tree is one _neg_lognorm call, one call of the batch entry and
    # ceil(16 K N / 4096) propagation passes for its K panels of N-panel
    # solves; the nodes and the value are those of the rules taken one at a
    # time, depth first
    from weylcurve import sturm, value_dist
    p = wc.SLProblem(potential=wc.Potential.zero())
    c, r = wc.curve_provider(p), 50.37
    neg_lognorm, calls, entries = value_dist._neg_lognorm, [], []

    def logged(c_, bc, r_, theta):
        calls.append(np.array(theta))
        return neg_lognorm(c_, bc, r_, theta)

    def many(p_, lams, many=sturm.fundamental_many):
        entries.append((len(lams), []))
        return many(p_, lams)

    def solve(pan, lam, solve=sturm._solve):
        entries[-1][1].append((1 if lam.ndim == 0 else lam.shape[0], pan.step[0].size))
        return solve(pan, lam)

    monkeypatch.setattr(value_dist, "_neg_lognorm", logged)
    monkeypatch.setattr(sturm, "fundamental_many", many)
    monkeypatch.setattr(sturm, "_solve", solve)
    m = wc.proximity(c, bc_dirichlet, r)
    monkeypatch.undo()

    ref_nodes, levels = [], []

    def f(theta):
        ref_nodes.append(theta)
        return neg_lognorm(c, bc_dirichlet, r, theta)

    ref = _adaptive_gl_depth_first(f, np.linspace(0.0, 2 * np.pi, 9), 1e-7, levels)
    assert m == ref / (2 * np.pi)
    sizes = [len(call) for call in calls]
    assert sizes == [16 * levels.count(k) for k in range(max(levels) + 1)]
    assert len(sizes) >= 3
    assert np.array_equal(np.sort(np.concatenate(calls)), np.sort(np.concatenate(ref_nodes)))
    assert [k for k, _ in entries] == sizes
    for k, passes in entries:
        (n,) = {n for _, n in passes}
        assert sum(size for size, _ in passes) == k
        assert len(passes) == -(-k * n // 4096)


def test_proximity_exponential_omega_zero(c_exp):
    # section against Omega = 0 stays at distance: ln|det B| = 0 on |lam| = r
    # averaged over the circle gives m = h + O(1); here m(r) ~ r/pi
    bc = wc.bc_from_chart(np.array([[0.0]]))
    r = 10.0
    m = wc.proximity(c_exp, bc, r)
    h = wc.height(c_exp, r)
    assert m == pytest.approx(h, abs=0.5)


def test_proximity_omega_bounded_offset(c_q0, bc_dirichlet):
    # the chart-form integral differs from the definitional one only by a
    # bounded term (the frame-normalization average), uniformly in r
    U = bc_dirichlet.chart_unitary
    d1 = [wc.proximity(c_q0, bc_dirichlet, r) -
          wc.proximity_omega(c_q0, U, r) for r in (20.0, 60.0, 120.0)]
    assert max(abs(d) for d in d1) < 3.0


def test_proximity_omega_is_that_of_the_per_node_loop(c_q0, bc_dirichlet):
    # one B_many call and one stacked slogdet per factor for each level give
    # bitwise the chart integral of B taken one node at a time
    U = bc_dirichlet.chart_unitary

    def per_node(r):
        def f(theta):
            out = []
            for th in np.atleast_1d(theta):
                B = c_q0.B(r * np.exp(1j * th))
                l1 = np.linalg.slogdet(B - U)[1]
                l2 = np.linalg.slogdet(np.eye(2) - B.conj().T @ U)[1]
                out.append(-(l1 + l2))
            return np.asarray(out)
        return _adaptive_gl_depth_first(f, np.linspace(0.0, np.pi, 5), 1e-7) / (2 * np.pi)

    for r in (20.0, 60.0, 120.0):
        assert wc.proximity_omega(c_q0, U, r) == per_node(r)


# -- reports ----------------------------------------------------------------------


def test_fmt_report_exponential(c_exp):
    bc = wc.bc_from_chart(np.array([[1.0]]))
    rep = wc.fmt_report(c_exp, bc, np.linspace(5.0, 40.0, 8))
    assert rep.r_grid.shape == (8,)
    assert np.all(rep.height > 0)
    assert np.all(rep.n_counts[:-1] <= rep.n_counts[1:])
    # FMT: h - m - N bounded with a small range relative to h(max)
    assert rep.residual_range <= 0.1 * rep.height[-1]
    assert abs(rep.drift_slope) <= 0.05


def test_fmt_report_exponential_contour_overflow_is_typed():
    # a chart without a unitary condition goes to the contour on +-1.05e4,
    # where e^{i lambda} leaves the floating-point range: a plain
    # NumericalError naming the first such lambda, the lower left corner of
    # the box, with no warning and no dilation retry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wc.NumericalError,
                           match=r"overflows at lambda = \(-10500-10500j\);") as err:
            wc.fmt_report(wc.exponential(), wc.bc_from_chart([[0.5 + 0.2j]]),
                          [100.0, 1000.0, 10000.0])
    assert type(err.value) is wc.NumericalError


def test_fmt_report_rejects_degenerate(c_q0):
    bad = wc.bc_from_physical(DEGENERATE_ROWS_SPAN, "span")
    with pytest.raises(wc.DegenerateBCError):
        wc.fmt_report(c_q0, bad, [5.0, 10.0])


def test_fmt_report_needs_two_radii(c_exp):
    bc = wc.bc_from_chart(np.array([[1.0]]))
    with pytest.raises(wc.ValidationError):
        wc.fmt_report(c_exp, bc, [10.0])


# -- order / type / defects --------------------------------------------------------


def test_order_type_exponential(c_exp):
    out = wc.order_type(c_exp, np.geomspace(1.0, 200.0, 12))
    assert out["rho"] == pytest.approx(1.0, abs=0.02)
    assert out["tau"] == pytest.approx(1.0 / np.pi, rel=0.05)


def test_order_type_flat_curve():
    c = wc.constant(0.5 * np.eye(2))
    out = wc.order_type(c, np.geomspace(1.0, 200.0, 10))
    assert out["rho"] == 0.0


def test_order_type_needs_two_decades(c_exp):
    with pytest.raises(wc.ValidationError):
        wc.order_type(c_exp, np.geomspace(1.0, 50.0, 8))


def test_defects_exponential_omega_zero(c_exp):
    bc = wc.bc_from_chart(np.array([[0.0]]))
    out = wc.defects(c_exp, bc, np.geomspace(5.0, 80.0, 8))
    assert 0.0 <= out["delta"] <= out["Delta"] <= 1.0
    assert out["delta"] > 0.9


def test_defects_generic_omega_small(c_exp):
    bc = wc.bc_from_chart(np.array([[0.5]]))
    out = wc.defects(c_exp, bc, np.geomspace(10.0, 300.0, 8))
    assert out["Delta"] < 0.5
