import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import weylcurve as wc
from weylcurve import curves

from conftest import random_contraction, random_pseudo_unitary

rng = np.random.default_rng(9281)


# -- builtins ---------------------------------------------------------------


def test_constant_curve():
    B0 = random_contraction(rng, 2, rmax=0.7)
    c = wc.constant(B0)
    assert np.allclose(c.B(0.3 + 2j), B0)
    assert np.allclose(c.dB(0.3 + 2j), 0)
    res = wc.curvature(c, 1j)
    assert np.linalg.norm(res.r - np.eye(2), 2) < 1e-12
    # chern of identity curvature: elementary symmetric values (n, n(n-1)/2 ...)
    assert res.chern[0] == pytest.approx(2.0)


def test_constant_rejects_non_contraction():
    with pytest.raises(wc.ValidationError):
        wc.constant(np.eye(2))


def test_shifted_identity_values():
    c = wc.shifted_identity(a=1.0, n=2)
    lam = 0.7 + 1.3j
    expect = (lam + 0j) / (lam + 2j)
    assert np.allclose(c.B(lam), expect * np.eye(2))
    # exact derivative vs stencil of a twin provider without deriv_fn
    twin = wc.CurveProvider(2, "upper_half_plane_pair",
                            eval_fn=lambda z: (z + 0j) / (z + 2j) * np.eye(2))
    assert np.allclose(c.dB(lam), twin.dB(lam), atol=1e-9)


def test_exponential_is_entire_and_unitary_on_reals():
    c = wc.exponential()
    assert abs(abs(c.B(5.0)[0, 0]) - 1.0) < 1e-14
    assert abs(c.B(1j)[0, 0] - np.exp(-1)) < 1e-14


def test_flat_curve_curvature_zero():
    # M = lambda I  <->  B = (lambda - i)/(lambda + i) I : shifted_identity a=0
    c = wc.shifted_identity(a=0.0, n=2)
    for lam in (1j, 0.5 + 0.25j, -2 + 3j):
        res = wc.curvature(c, lam)
        assert np.linalg.norm(res.r, 2) < 1e-8


def test_shifted_identity_curvature_at_i():
    res = wc.curvature(wc.shifted_identity(a=1.0, n=2), 1j)
    assert np.linalg.norm(res.r_sym - 0.75 * np.eye(2), 2) < 1e-8


def test_exponential_curvature_closed_form():
    # at lambda = iv: r = 1 - 4 v^2 e^{-2v} / (1 - e^{-2v})^2
    for v in (0.5, 1.0, 2.0):
        res = wc.curvature(wc.exponential(), 1j * v)
        e = np.exp(-2 * v)
        expect = 1 - 4 * v * v * e / (1 - e) ** 2
        assert res.r[0, 0].real == pytest.approx(expect, abs=1e-8)


def test_curvature_margin_nonnegative_random():
    for _ in range(20):
        lam = complex(rng.uniform(-5, 5), rng.uniform(0.2, 4.0))
        c = wc.shifted_identity(a=rng.uniform(0, 3), n=2)
        assert wc.curvature(c, lam).schwarz_pick_margin >= -1e-8


def test_curvature_rejects_lower_half_plane():
    with pytest.raises(wc.DomainError):
        wc.curvature(wc.exponential(), -1j)


# -- kernels ------------------------------------------------------------------


def test_kernel_hermitian_pair_symmetry(c_qx):
    lam, mu = 0.4 + 1.1j, -0.9 + 0.6j
    for la, mb in [(lam, mu), (lam, np.conj(mu)), (np.conj(lam), mu)]:
        k1 = wc.kernel_block(c_qx, la, mb).value
        k2 = wc.kernel_block(c_qx, mb, la).value
        assert np.allclose(k1.conj().T, k2, atol=1e-9)


def test_kernel_diag_limits(c_qx):
    lam = 1.5 + 0.9j
    near = wc.kernel_block(c_qx, lam, np.conj(lam) + 1e-9).value
    lim = wc.kernel_block(c_qx, lam, np.conj(lam)).value
    assert np.allclose(near, lim, atol=1e-5 * (1 + np.abs(lim).max()))


def test_kernel_positivity_exponential():
    c = wc.exponential()
    pts = [(complex(rng.uniform(-3, 3), rng.uniform(0.2, 2) * rng.choice([-1, 1])),
            rng.standard_normal(1) + 1j * rng.standard_normal(1))
           for _ in range(8)]
    assert wc.gram_min_eig(c, pts) >= -1e-8


def test_reparameterize_translation(c_exp):
    # g: lambda -> lambda + 2  (a=1, b=-2, c=0, d=1 with m(lam)=(d lam - b)/(-c lam + a))
    g = np.array([[1.0, -2.0], [0.0, 1.0]])
    cg = wc.reparameterize(c_exp, g)
    lam = 0.3 + 0.4j
    assert np.allclose(cg.B(lam), c_exp.B(lam + 2.0), atol=1e-14)
    assert np.allclose(cg.dB(lam), c_exp.dB(lam + 2.0), atol=1e-12)


def test_reparameterize_keeps_exact_speed_and_section(c_q0):
    # B_g(lambda) = B(lambda + 2): the exact phase speed and the
    # cancellation-safe section of the base curve carry over
    g = np.array([[1.0, -2.0], [0.0, 1.0]])
    cg = wc.reparameterize(c_q0, g)
    for u in (0.7, 5.3, 20.1):
        assert cg.phase_speed(u) == pytest.approx(c_q0.phase_speed(u + 2.0), rel=1e-12)
    bc = wc.bc_from_physical([[1, 0, 0, 0], [0, 0, 1, 0]], "functional")
    lams = [e.lam.real for e in wc.eigenvalues_real(cg, bc, (-1.5, 30.0))]
    assert lams == pytest.approx([k * k - 2.0 for k in range(1, 6)], abs=1e-7)


def _exp_lognorm(point, lam):
    """The exponential curve's log norm at one lambda, by the scalar formulas:
    directly for L = -Im lam <= 300, in the log domain past it."""
    v1, v2 = complex(point.frame[0, 0]), complex(point.frame[1, 0])
    L = -lam.imag
    if L <= 300.0:
        B = cmath.exp(1j * lam)
        return math.log(abs(v1 * B - v2)) - 0.5 * math.log1p(abs(B) ** 2)
    det_scaled = v1 * cmath.exp(1j * lam.real) - v2 * math.exp(-L)
    return (L + math.log(abs(det_scaled))) - (L + 0.5 * math.log1p(math.exp(-2.0 * L)))


EXP_POINT = wc.bc_from_chart(np.array([[0.3 - 0.4j]])).point
# both branches and their seam, on circles from 1 to 1e4
EXP_LAMS = np.concatenate([r * np.exp(2j * np.pi * np.arange(24) / 24 + 0.05j)
                           for r in (1.0, 299.0, 301.0, 1e4)] + [[-300j, 5 - 300.5j]])


def test_exponential_lognorm_is_vectorised(c_exp):
    got = c_exp.lognorm_fn(EXP_POINT, EXP_LAMS)
    assert got.shape == EXP_LAMS.shape
    assert np.sum(-EXP_LAMS.imag > 300) >= 10 and np.sum(-EXP_LAMS.imag <= 300) >= 10
    ref = [_exp_lognorm(EXP_POINT, lam) for lam in EXP_LAMS]
    assert got == pytest.approx(ref, rel=1e-13, abs=1e-13)
    # against the generic frame form where the frame stays in range
    small = np.abs(EXP_LAMS) < 10
    gen = [wc.section_lognorm(EXP_POINT, c_exp.frame(lam)) for lam in EXP_LAMS[small]]
    assert got[small] == pytest.approx(gen, abs=1e-12)


def test_reparameterized_lognorm_takes_arrays(c_exp):
    # m(lam) = (lam - 1) / (2 - lam): a pole at 2, and lam = 2 - 0.001i maps
    # deep into the lower half-plane (Im m = -1000)
    g = np.array([[2.0, 1.0], [1.0, 1.0]])
    cg = wc.reparameterize(c_exp, g)
    lams = np.concatenate([0.5 * np.exp(2j * np.pi * np.arange(8) / 8), [2 - 1e-3j, 2 + 1e-3j]])
    got = cg.lognorm_fn(EXP_POINT, lams)
    ref = [_exp_lognorm(EXP_POINT, complex((lam - 1) / (2 - lam))) for lam in lams]
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)
    with pytest.raises(wc.DomainError):
        cg.lognorm_fn(EXP_POINT, np.array([1.0, 2.0]))


@pytest.mark.parametrize("transform", ["reparameterize", "congruence"])
def test_transformed_sl_curves_prefetch_through_the_base(monkeypatch, transform):
    from weylcurve import sturm

    p = wc.SLProblem(potential=wc.Potential.zero())
    base = wc.curve_provider(p)
    if transform == "reparameterize":
        cg = wc.reparameterize(base, np.array([[2.0, 0.5], [0.2, 0.55]]))
    else:
        cg = wc.congruence(base, random_pseudo_unitary(np.random.default_rng(3), 2))
    lams = np.array([0.5, 3.0, 7.25 + 1j, 40.0])
    calls = []
    many = sturm.fundamental_many
    monkeypatch.setattr(sturm, "fundamental_many", lambda q, ls: calls.append(len(ls)) or many(q, ls))
    got = cg.B_many(lams)
    # one batch solves every lambda that the per-lambda B calls then read
    assert calls == [4] and len(p._memo) == 4
    assert np.array_equal(got, np.array([cg.B(lam) for lam in lams]))
    assert calls == [4] and len(p._memo) == 4


def test_reparameterize_rejects_non_sl2():
    with pytest.raises(wc.ValidationError):
        wc.reparameterize(wc.exponential(), np.array([[2.0, 0.0], [0.0, 2.0]]))


def test_congruence_matches_mobius(c_qx):
    g = random_pseudo_unitary(rng, 2)
    cg = wc.congruence(c_qx, g)
    lam = 0.8 + 1.2j
    assert np.allclose(cg.B(lam), wc.mobius_pu(g, c_qx.B(lam)), atol=1e-12)


def test_congruence_chern_invariance(c_qx):
    lam = 0.5 + 1.5j
    base = wc.curvature(c_qx, lam).chern
    for _ in range(3):
        g = random_pseudo_unitary(rng, 2)
        got = wc.curvature(wc.congruence(c_qx, g), lam).chern
        assert np.allclose(got, base, atol=1e-7 * (1 + np.abs(base).max()))


def test_lower_half_plane_reflection(c_qx):
    lam = 0.4 + 0.9j
    # conjugation symmetry of the entire SL curve: B(conj lam) = (B(lam)*)^{-1}
    assert np.allclose(c_qx.B(np.conj(lam)),
                       np.linalg.inv(c_qx.B(lam).conj().T), atol=1e-8)


def test_stencil_derivative_matches_cauchy_riemann(c_qx):
    lam = 2.0 + 1.0j
    d = c_qx.dB(lam)
    h = 1e-5
    fd = (c_qx.B(lam + h) - c_qx.B(lam - h)) / (2 * h)
    assert np.allclose(d, fd, atol=1e-5)


# -- batched values and the phase path --------------------------------------


def _batched_providers(c_q0):
    g = np.array([[2.0, 0.5], [0.2, 0.55]])
    return {
        "exponential": wc.exponential(),
        "reparameterized": wc.reparameterize(wc.exponential(), g),
        "congruence": wc.congruence(wc.exponential(), random_pseudo_unitary(rng, 1)),
        "constant": wc.constant([[0.3 + 0.2j]]),
        "shifted_identity": wc.shifted_identity(1.0, 2),
        "sturm_liouville": c_q0,
    }


@pytest.mark.parametrize("name", ["exponential", "reparameterized", "congruence",
                                  "constant", "shifted_identity", "sturm_liouville"])
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(0.1, 50.0), st.booleans()),
                max_size=6))
def test_B_many_equals_stacked_B(c_q0, name, points):
    c = _batched_providers(c_q0)[name]
    # both half-planes, at least 0.1 off the real axis (the half-plane
    # providers are not evaluated on it)
    lams = np.array([complex(x, y if up else -y) for x, y, up in points], dtype=complex)
    got = c.B_many(lams)
    assert got.shape == (len(lams), c.n, c.n)
    assert np.array_equal(got, np.array([c.B(lam) for lam in lams]).reshape(got.shape))


def test_B_many_takes_real_arrays():
    c = wc.exponential()
    us = np.linspace(-2e4, 2e4, 101)
    assert np.array_equal(c.B_many(us), np.array([c.B(u) for u in us]))
    assert [c.phase_speed(u) for u in us[:3]] == [1.0, 1.0, 1.0]


def _march_one_knot_at_a_time(c, k, end, last=None):
    """The phase path's step rule applied one knot at a time: knots
    (u, det B, phase, speed) after k toward end; given last = (det B, speed)
    at end, the march lands on end."""
    u, d, phi, s = k
    sign = 1.0 if end > u else -1.0
    out, h = [], None
    while sign * (end - u) > 0:
        if h is None:
            h = min(curves.STEP_TARGET / max(s, 1e-12), curves._step_cap(u))
        u1 = u + sign * h
        if last is not None and sign * (u1 - end) >= 0:
            u1, (d1, s1) = end, last
        else:
            d1, s1 = np.linalg.det(c.B(u1)), max(float(c.phase_speed(u1)), 0.0)
        predicted = sign * abs(u1 - u) * 0.5 * (s + s1)
        apparent = float(np.angle(d1 / d))
        step = apparent + 2 * np.pi * round((predicted - apparent) / (2 * np.pi))
        if max(abs(step), abs(predicted)) > curves.STEP_CAP \
                or abs(step - predicted) > 0.4 * abs(predicted) + 0.2:
            h = abs(u1 - u) / 2
            assert h > 1e-12 * (1 + abs(end - u))
            continue
        u, d, phi, s = u1, d1, phi + step, s1
        out.append((u, d, phi, s))
        h = None
    return out


def _knot(c, u):
    d = np.linalg.det(c.B(u))
    return u, d, float(np.angle(d)), max(float(c.phase_speed(u)), 0.0)


def _path_knots(c):
    path = c.phase_path
    return [(u, d, phi, s) for u, d, phi, s in zip(path.us, path.dets, path.phis, path.speeds)]


def _kinked():
    # arg B(u) = u below 100 and 1.2 u - 20 above: blocks predicted at speed
    # 1 run past the kink, where each step would pass the step rule but the
    # rule at its left knot, at speed 1.2, puts the knot elsewhere
    def arg(lam):
        return np.where(np.real(lam) < 100.0, lam, 1.2 * lam - 20.0)

    return wc.CurveProvider(1, "entire", eval_fn=lambda lam: np.array([[np.exp(1j * arg(lam))]]),
                            many_fn=lambda lams: np.exp(1j * arg(lams))[:, None, None],
                            speed_fn=lambda u: 1.0 if u < 100.0 else 1.2)


@pytest.mark.parametrize("name, a, b", [("q0", -0.5, 450.0), ("q0", -60.0, 60.0),
                                        ("cos24", -2.0, 150.0),
                                        ("exponential", -2000.0, 3000.0),
                                        ("kinked", -50.0, 400.0)])
def test_phase_path_knots_are_those_of_a_march_one_knot_at_a_time(
        p_q0, p_qcos, name, a, b):
    c = {"q0": lambda: wc.curve_provider(p_q0), "cos24": lambda: wc.curve_provider(p_qcos),
         "exponential": wc.exponential, "kinked": _kinked}[name]()
    c.phase_path.cover(a, b)
    k0 = _knot(c, min(max(0.0, a), b))
    ref = _march_one_knot_at_a_time(c, k0, a)[::-1] + [k0] + _march_one_knot_at_a_time(c, k0, b)
    assert _path_knots(c) == ref


@pytest.mark.parametrize("name", ["q0", "exponential"])
def test_phase_path_landing_on_zero_is_that_of_a_march_one_knot_at_a_time(p_q0, name):
    # a path from 5 grown below 0 lands on the knot at 0, then goes on
    c = wc.curve_provider(p_q0) if name == "q0" else wc.exponential()
    c.phase_path.cover(5.0, 40.0)
    c.phase_path.cover(-30.0, 40.0)
    k5, k0 = _knot(c, 5.0), _knot(c, 0.0)
    right = _march_one_knot_at_a_time(c, k5, 40.0)
    down = _march_one_knot_at_a_time(c, k5, 0.0, last=k0[1::2])
    left = _march_one_knot_at_a_time(c, down[-1], -30.0)
    ref = (left[::-1] + down[::-1] + [k5] + right)
    shift = 2 * np.pi * round((k0[2] - down[-1][2]) / (2 * np.pi))
    ref = [(u, d, phi + shift, s) for u, d, phi, s in ref]
    assert _path_knots(c) == ref


def test_exponential_path_evaluates_knots_in_blocks(monkeypatch):
    calls = []
    many = curves.CurveProvider.B_many

    def counted(self, lams):
        calls.append(len(lams))
        return many(self, lams)

    monkeypatch.setattr(curves.CurveProvider, "B_many", counted)
    c = wc.exponential()
    c.phase_path.cover(-10501.0, 10501.0)
    assert sum(calls) >= len(c.phase_path.us) > 9000
    assert len(calls) <= 200 and max(calls) == curves._BLOCK_MAX


# -- the phase spline -----------------------------------------------------------


@pytest.mark.parametrize("name, a, b", [("q0", -30.0, 450.0), ("cos24", -2.0, 150.0),
                                        ("kinked", -50.0, 400.0)])
def test_phase_spline_is_the_cubic_hermite_spline_of_scipy(p_q0, p_qcos, name, a, b):
    from scipy.interpolate import CubicHermiteSpline

    c = {"q0": lambda: wc.curve_provider(p_q0), "cos24": lambda: wc.curve_provider(p_qcos),
         "kinked": _kinked}[name]()
    path = c.phase_path
    path.cover(a, b)
    us, phis = np.array(path.us), np.array(path.phis)
    ref = CubicHermiteSpline(us, phis, np.array(path.speeds))
    # exact at the knots, scalar or array
    assert np.array_equal(path.phase(us), phis)
    assert path.phase(us[-1]) == phis[-1]
    # between the knots: 7 Gauss points per step and 50 uniform points
    mid, half = 0.5 * (us[1:] + us[:-1])[:, None], 0.5 * (us[1:] - us[:-1])[:, None]
    gauss = mid + half * np.polynomial.legendre.leggauss(7)[0]
    ts = np.concatenate([gauss.ravel(), np.random.default_rng(5).uniform(us[0], us[-1], 50)])
    got, want = path.phase(ts), ref(ts)
    assert np.all(np.abs(got - want) <= 1e-15 * (1 + np.abs(want)))
    assert path.phase(ts[3]) == got[3]


@given(st.lists(st.tuples(st.floats(0.01, 3.0), st.floats(-5.0, 5.0), st.floats(0.0, 4.0)),
                min_size=2, max_size=30))
def test_phase_spline_is_exact_at_every_knot(knots):
    # a path set up from knots (step, phase, speed) directly
    path = curves.PhasePath(wc.exponential())
    path.us = np.cumsum([h for h, _, _ in knots]).tolist()
    path.phis = [phi for _, phi, _ in knots]
    path.speeds = [s for _, _, s in knots]
    assert np.array_equal(path.phase(np.array(path.us)), path.phis)
    assert [path.phase(u) for u in path.us] == path.phis
