import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import weylcurve as wc
from weylcurve import curves
from weylcurve.spectral import sections

from conftest import frame_reader, random_contraction, random_pseudo_unitary

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
        k1 = wc.kernel_block(c_qx, la, mb)
        k2 = wc.kernel_block(c_qx, mb, la)
        assert np.allclose(k1.conj().T, k2, atol=1e-9)


def test_kernel_diag_limits(c_qx):
    lam = 1.5 + 0.9j
    near = wc.kernel_block(c_qx, lam, np.conj(lam) + 1e-9)
    lim = wc.kernel_block(c_qx, lam, np.conj(lam))
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


EXP_BC = wc.bc_from_chart(np.array([[0.3 - 0.4j]]))
EXP_POINT = EXP_BC.point
# both branches and their seam, on circles from 1 to 1e4
EXP_LAMS = np.concatenate([r * np.exp(2j * np.pi * np.arange(24) / 24 + 0.05j)
                           for r in (1.0, 299.0, 301.0, 1e4)] + [[-300j, 5 - 300.5j]])


def _against_frames(c, lams, F, scale, ln):
    """F and scale within 1e-12 of scale of the stacked-frame reader's, and
    the log norm within 1e-12 of its."""
    F_gen, scale_gen, ln_gen = sections(frame_reader(c), EXP_BC, lams)
    assert np.all(np.abs(F - F_gen) <= 1e-12 * scale)
    assert np.all(np.abs(scale - scale_gen) <= 1e-12 * scale)
    assert ln == pytest.approx(ln_gen, abs=1e-12)


def test_exponential_lognorm_is_vectorised(c_exp):
    F, scale, got = c_exp.section_fn(EXP_POINT, EXP_LAMS)
    assert got.shape == F.shape == scale.shape == EXP_LAMS.shape
    assert np.sum(-EXP_LAMS.imag > 300) >= 10 and np.sum(-EXP_LAMS.imag <= 300) >= 10
    ref = [_exp_lognorm(EXP_POINT, lam) for lam in EXP_LAMS]
    assert got == pytest.approx(ref, rel=1e-13, abs=1e-13)
    # against the generic frame form where the frame stays in range
    small = np.abs(EXP_LAMS) < 10
    gen = [wc.section_lognorm(EXP_POINT, c_exp.frame(lam)) for lam in EXP_LAMS[small]]
    assert got[small] == pytest.approx(gen, abs=1e-12)
    _against_frames(c_exp, EXP_LAMS[small], F[small], scale[small], got[small])


def test_reparameterized_lognorm_takes_arrays(c_exp):
    # m(lam) = (lam - 1) / (2 - lam): a pole at 2, and lam = 2 - 0.001i maps
    # deep into the lower half-plane (Im m = -1000)
    g = np.array([[2.0, 1.0], [1.0, 1.0]])
    cg = wc.reparameterize(c_exp, g)
    lams = np.concatenate([0.5 * np.exp(2j * np.pi * np.arange(8) / 8), [2 - 1e-3j, 2 + 1e-3j]])
    F, scale, got = cg.section_fn(EXP_POINT, lams)
    ref = [_exp_lognorm(EXP_POINT, complex((lam - 1) / (2 - lam))) for lam in lams]
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)
    # the frame leaves the floating-point range only at 2 - 0.001i
    _against_frames(cg, lams[:-2], F[:-2], scale[:-2], got[:-2])
    _against_frames(cg, lams[-1:], F[-1:], scale[-1:], got[-1:])
    with pytest.raises(wc.DomainError):
        cg.section_fn(EXP_POINT, np.array([1.0, 2.0]))


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


def test_congruence_of_an_exact_derivative_keeps_the_chern_numbers():
    # shifted_identity has an exact B', so the congruence forms B_g' exactly
    # (no stencil); its curvature is unitarily conjugate to the base curve's
    c = wc.shifted_identity(1.0, 2)
    for lam in (0.5 + 1.5j, -2.0 + 0.3j):
        base = wc.curvature(c, lam).chern
        for _ in range(3):
            cg = wc.congruence(c, random_pseudo_unitary(rng, 2))
            assert np.allclose(wc.curvature(cg, lam).chern, base, rtol=0, atol=1e-10)
            h = 1e-6
            fd = (cg.B(lam + h) - cg.B(lam - h)) / (2 * h)
            assert np.allclose(cg.dB(lam), fd, rtol=0, atol=1e-7 * (1 + np.abs(fd).max()))


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


@pytest.mark.parametrize("name", ["sturm_liouville", "reparameterized_sl", "exponential"])
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(0.1, 50.0), st.booleans()),
                max_size=6))
def test_frame_many_equals_stacked_frame(c_q0, name, points):
    c = {"sturm_liouville": c_q0, "exponential": wc.exponential(),
         "reparameterized_sl": wc.reparameterize(c_q0, np.array([[2.0, 0.5], [0.2, 0.55]]))}[name]
    # off the real axis, where the reparameterization has its pole
    lams = np.array([complex(x, y if up else -y) for x, y, up in points], dtype=complex)
    got = c.frame_many(lams)
    assert got.shape == (len(lams), 2 * c.n, c.n)
    assert np.array_equal(got, np.array([c.frame(lam) for lam in lams]).reshape(got.shape))


def test_reparameterized_sl_frames_take_one_batched_solve(monkeypatch):
    from weylcurve import sturm

    p = wc.SLProblem(potential=wc.Potential.zero())
    cg = wc.reparameterize(wc.curve_provider(p), np.array([[2.0, 0.5], [0.2, 0.55]]))
    lams = np.array([0.5, 3.0, 7.25 + 1j, 40.0])
    calls = []
    many = sturm.fundamental_many
    monkeypatch.setattr(sturm, "fundamental_many", lambda q, ls: calls.append(len(ls)) or many(q, ls))
    monkeypatch.setattr(sturm, "fundamental", lambda q, lam: pytest.fail("a per-lambda solve"))
    frames = cg.frame_many(lams)
    assert calls == [4] and len(p._memo) == 4
    assert frames.shape == (4, 4, 2)


def test_B_many_takes_real_arrays():
    c = wc.exponential()
    us = np.linspace(-2e4, 2e4, 101)
    assert np.array_equal(c.B_many(us), np.array([c.B(u) for u in us]))
    assert [c.phase_speed(u) for u in us[:3]] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("name", ["q0", "cos24", "qx", "exponential", "reparameterized"])
@given(st.lists(st.floats(-30.0, 450.0), min_size=1, max_size=6))
def test_speed_fn_is_the_phase_speed_at_each_point(p_q0, p_qcos, p_qx, name, us):
    # m(u) = u / (1 - u / 1000) has its pole far to the right of [-30, 450]
    g = np.array([[1.0, 0.0], [-1e-3, 1.0]])
    c = {"q0": lambda: wc.curve_provider(p_q0), "cos24": lambda: wc.curve_provider(p_qcos),
         "qx": lambda: wc.curve_provider(p_qx), "exponential": wc.exponential,
         "reparameterized": lambda: wc.reparameterize(wc.curve_provider(p_q0), g)}[name]()
    us = np.array(us)
    got = c.speed_fn(us)
    assert got.shape == us.shape
    assert got.tolist() == [c.phase_speed(u) for u in us]


def test_a_speed_fn_of_one_point_is_rejected():
    c = wc.CurveProvider(1, "entire", eval_fn=lambda lam: np.array([[np.exp(1j * lam)]]),
                         speed_fn=lambda u: 1.0)
    with pytest.raises(wc.ValidationError, match="speed_fn"):
        c.phase_speed(0.5)
    with pytest.raises(wc.ValidationError, match="speed_fn"):
        c.phase_path.cover(0.0, 10.0)


@given(st.lists(st.floats(-1e5, 1e5), max_size=20))
def test_step_caps_are_the_step_cap_at_each_point(us):
    # the step rule reads the caps of an array, the lattice one point at a time
    assert curves._step_cap(np.array(us)).tolist() == [float(curves._step_cap(u)) for u in us]


def test_providers_are_freed_without_the_cycle_collector(p_q0):
    # the path refers to its provider weakly, so a provider, and with it the
    # problem whose solutions it memoizes, goes when its last reference does
    import gc
    import weakref

    gc.disable()
    try:
        p = wc.SLProblem(potential=p_q0.potential)
        for make in (wc.curve_provider, lambda _: wc.exponential()):
            c = make(p)
            c.phase_path.cover(-5.0, 40.0)
            ref = weakref.ref(c)
            del c
            assert ref() is None
        ref = weakref.ref(p)
        del p
        assert ref() is None
    finally:
        gc.enable()


def _kinked():
    # arg B(u) = u below 100 and 1.2 u - 20 above: the speed jumps at the kink
    def arg(lam):
        return np.where(np.real(lam) < 100.0, lam, 1.2 * lam - 20.0)

    return wc.CurveProvider(1, "entire", eval_fn=lambda lam: np.array([[np.exp(1j * arg(lam))]]),
                            many_fn=lambda lams: np.exp(1j * arg(lams))[:, None, None],
                            speed_fn=lambda us: np.where(us < 100.0, 1.0, 1.2))


def _fast():
    # B = e^{10 i lambda}: every cell is cut into many steps
    return wc.CurveProvider(1, "entire", eval_fn=lambda lam: np.array([[np.exp(10j * lam)]]),
                            many_fn=lambda lams: np.exp(10j * lams)[:, None, None],
                            speed_fn=lambda us: np.full(len(us), 10.0))


def _wobbly():
    # arg B(u) = u + 0.9 sin u: the speed 1 + 0.9 cos u changes along every cell
    def arg(lam):
        return lam + 0.9 * np.sin(lam)

    return wc.CurveProvider(1, "entire", eval_fn=lambda lam: np.array([[np.exp(1j * arg(lam))]]),
                            many_fn=lambda lams: np.exp(1j * arg(lams))[:, None, None],
                            speed_fn=lambda us: 1.0 + 0.9 * np.cos(us))


def _curve(name, p_q0=None, p_qcos=None):
    return {"q0": lambda: wc.curve_provider(p_q0), "cos24": lambda: wc.curve_provider(p_qcos),
            "exponential": wc.exponential, "kinked": _kinked, "fast": _fast,
            "wobbly": _wobbly}[name]()


def _assert_steps_pass_the_step_rule(c):
    """Every step of c's path passes the step rule, recomputed one step at a
    time from c.B and c.phase_speed at its two knots, and turns the phase by
    its lifted turn."""
    path = c.phase_path
    for k, (u0, u1) in enumerate(zip(path.us[:-1].tolist(), path.us[1:].tolist())):
        d0, d1 = (complex(np.linalg.det(c.B(u))) for u in (u0, u1))
        s0, s1 = (max(c.phase_speed(u), 0.0) for u in (u0, u1))
        predicted = (u1 - u0) * 0.5 * (s0 + s1)
        apparent = cmath.phase(d1 / d0)
        turn = apparent + 2 * math.pi * round((predicted - apparent) / (2 * math.pi))
        # the outer knot is at most one step cap out from the inner one
        assert u0 < u1
        if u1 <= 0:
            assert u0 >= u1 - curves._step_cap(u1)
        else:
            assert u1 <= u0 + curves._step_cap(u0)
        assert max(abs(turn), predicted) <= curves.STEP_CAP
        assert abs(turn - predicted) <= 0.4 * predicted + 0.2
        assert path.phis[k + 1] - path.phis[k] == pytest.approx(turn, abs=1e-12)


@pytest.mark.parametrize("name, a, b", [("q0", -0.5, 450.0), ("q0", -60.0, 60.0),
                                        ("cos24", -2.0, 150.0),
                                        ("exponential", -2000.0, 3000.0),
                                        ("exponential", -20.0, 20.0),
                                        ("kinked", -50.0, 400.0)])
def test_every_step_passes_the_step_rule(p_q0, p_qcos, name, a, b):
    c = _curve(name, p_q0, p_qcos)
    c.phase_path.cover(a, b)
    path = c.phase_path
    assert path.us[0] <= a and b <= path.us[-1]
    assert np.array_equal(path.Bs, np.array([c.B(u) for u in path.us]))
    assert path.speeds.tolist() == [max(c.phase_speed(u), 0.0) for u in path.us]
    _assert_steps_pass_the_step_rule(c)


@given(st.floats(-600.0, 600.0), st.floats(0.0, 300.0))
def test_every_step_of_a_drawn_cover_passes_the_step_rule(a, length):
    c = _wobbly()
    c.phase_path.cover(a, a + length)
    _assert_steps_pass_the_step_rule(c)


@given(st.floats(-600.0, 600.0), st.floats(0.0, 300.0))
def test_zero_is_a_knot_with_its_principal_phase(a, length):
    # a path that reaches 0 holds it as a knot, at the principal value of
    # arg det B(0); one that does not starts at its knot nearest 0
    c = _wobbly()
    c.phase_path.cover(a, a + length)
    path = c.phase_path
    i = int(np.abs(path.us).argmin())
    if path.us[0] <= 0.0 <= path.us[-1]:
        assert path.us[i] == 0.0
        # arg det B(u) = u + 0.9 sin u, which is 0 at 0
        assert np.allclose(path.phis, path.us + 0.9 * np.sin(path.us), rtol=0, atol=1e-9)
    assert path.phis[i] == np.angle(np.linalg.det(c.B(path.us[i])))


def _assert_same_path(c, ref):
    for name in ("us", "Bs", "dets", "phis", "speeds"):
        assert np.array_equal(getattr(c.phase_path, name), getattr(ref.phase_path, name)), name


@pytest.mark.parametrize("name", ["q0", "exponential", "fast"])
def test_a_path_grown_across_zero_has_the_knots_of_one_request(p_q0, name):
    c, ref = _curve(name, p_q0), _curve(name, p_q0)
    c.phase_path.cover(5.0, 40.0)
    c.phase_path.cover(-30.0, 40.0)
    ref.phase_path.cover(-30.0, 40.0)
    _assert_same_path(c, ref)
    path = c.phase_path
    i = int(np.searchsorted(path.us, 0.0))
    assert path.us[i] == 0.0 and path.phis[i] == np.angle(np.linalg.det(c.B(0.0)))


@pytest.mark.parametrize("name", ["wobbly", "kinked"])
@given(st.tuples(st.floats(-400.0, 400.0), st.floats(0.0, 200.0)),
       st.tuples(st.floats(-400.0, 400.0), st.floats(0.0, 200.0)))
def test_covering_in_two_requests_gives_the_knots_of_one(name, first, second):
    # the path depends only on the cells it covers: after two requests it is
    # the path of one request over its extent
    (a1, l1), (a2, l2) = first, second
    c, ref = _curve(name), _curve(name)
    c.phase_path.cover(a1, a1 + l1)
    us = c.phase_path.us
    grows = max(us[0] - (a2 + l2), a2 - us[-1]) <= l2
    c.phase_path.cover(a2, a2 + l2)
    us = c.phase_path.us
    assert us[0] <= a2 and a2 + l2 <= us[-1]
    if grows:
        assert us[0] <= a1 and a1 + l1 <= us[-1]
    ref.phase_path.cover(us[0], us[-1])
    _assert_same_path(c, ref)


@pytest.mark.parametrize("name, a, b, budget", [("q0", -0.5, 450.0, 8),
                                                ("cos24", -2.0, 150.0, 8),
                                                ("exponential", -10501.0, 10501.0, 4)])
def test_a_cover_takes_few_B_many_calls(monkeypatch, p_q0, p_qcos, name, a, b, budget):
    calls = []
    many = curves.CurveProvider.B_many

    def counted(self, lams):
        calls.append(len(lams))
        return many(self, lams)

    monkeypatch.setattr(curves.CurveProvider, "B_many", counted)
    c = _curve(name, p_q0, p_qcos)
    c.phase_path.cover(a, b)
    # every knot is evaluated once
    assert sum(calls) == len(c.phase_path.us)
    assert len(calls) <= budget


@pytest.mark.parametrize("name", ["q0", "exponential"])
@given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=8))
def test_sampling_an_array_is_sampling_each_point(p_q0, name, xs):
    c = _curve(name, p_q0)
    path = c.phase_path
    path.cover(-40.0, 40.0)
    # knots among the drawn points
    xs = np.concatenate([xs, path.us[::17]])
    Bs, phis = path.sample(xs)
    for x, B, phi in zip(xs, Bs, phis):
        B1, phi1 = path.sample(np.array([x]))
        assert np.array_equal(B, B1[0]) and phi == phi1[0]


def test_a_phase_jump_no_step_can_predict_raises_step_underflow():
    # arg B(u) = u, with a jump of 2 at u = 1.3 that the speed does not see
    def arg(lam):
        return lam + 2.0 * (np.real(lam) > 1.3)

    c = wc.CurveProvider(1, "entire", eval_fn=lambda lam: np.array([[np.exp(1j * arg(lam))]]),
                         many_fn=lambda lams: np.exp(1j * arg(lams))[:, None, None],
                         speed_fn=lambda us: np.ones(len(us)))
    with pytest.raises(wc.NumericalError, match="step underflow"):
        c.phase_path.cover(0.0, 5.0)
