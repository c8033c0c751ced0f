import cmath
import math

import numpy as np
import pytest

import weylcurve as wc

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
