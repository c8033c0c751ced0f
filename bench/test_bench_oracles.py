"""Fast tests of the benchmark's oracles against textbook values."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import mathieu_a, mathieu_b

import oracles as o


def test_cos_galerkin_matches_mathieu_characteristic_values():
    # -y'' + cos(x) y = lam y on [0, pi] is Mathieu's equation in z = x/2
    # with a = 4 lam, q = 2: Dirichlet <-> b_{2k}, Neumann <-> a_{2k}
    dir_ = [v for v, _ in o.cos_galerkin("dirichlet", -10, 150)]
    neu = [v for v, _ in o.cos_galerkin("neumann", -10, 150)]
    assert len(dir_) == 12 and len(neu) == 13
    for k, v in enumerate(dir_, start=1):
        assert v == pytest.approx(mathieu_b(2 * k, 2.0) / 4, abs=1e-10)
    for k, v in enumerate(neu):
        assert v == pytest.approx(mathieu_a(2 * k, 2.0) / 4, abs=1e-10)


def test_q0_spectra_and_counting():
    assert o.q0_dirichlet(-0.5, 10) == [(1.0, 1), (4.0, 1), (9.0, 1)]
    assert o.q0_neumann(-0.5, 10) == [(0.0, 1), (1.0, 1), (4.0, 1), (9.0, 1)]
    assert o.q0_periodic(-0.5, 40) == [(0.0, 1), (4.0, 2), (16.0, 2), (36.0, 2)]
    r = 10.37
    assert o.counting(o.q0_dirichlet(-1, 20), r) == pytest.approx(
        math.log(r) + math.log(r / 4) + math.log(r / 9), abs=1e-14)
    # a zero at the origin counts ln r
    assert o.counting([(0.0, 1)], r) == pytest.approx(math.log(r), abs=1e-14)


def test_q0_phase_agrees_with_unfactored_weyl_formula():
    # away from zeros of s(pi) the textbook 2x2 formula for B is accurate
    ts = np.array([-7.3, -1.1, 0.0, 0.4, 2.5, 17.2, 30.9])
    phi = o.q0_phase(ts)
    for t, p in zip(ts, phi):
        k = np.sqrt(complex(t))
        c = sp = np.cos(k * np.pi)
        s = np.pi if k == 0 else np.sin(k * np.pi) / k
        d = (c - 1j * s) * (sp - 1j * s) - 1
        B = np.array([[(c + 1j * s) * (sp - 1j * s) - 1, 2j * s],
                      [2j * s, (c - 1j * s) * (sp + 1j * s) - 1]]) / d
        diff = p - np.angle(np.linalg.det(B))
        assert abs(diff - 2 * np.pi * round(diff / (2 * np.pi))) < 1e-9


def test_q0_height_converges_in_the_grid_step():
    radii = [0.5, 10.37, 50.0]
    coarse = o.q0_height(radii, step=4e-3)
    fine = o.q0_height(radii, step=2e-3)
    assert np.allclose(coarse, fine, atol=1e-9)
    # h grows like sqrt(r) with positive values
    assert 0 < fine[0] < fine[1] < fine[2]


def test_q0_proximity_satisfies_jensen_relation():
    # the Neumann minor is c' = -lam s(lam); by Jensen's formula the circle
    # means of ln|c'| and ln|s| differ by ln r, so m_N(r) = m_D(r) - ln r
    r = 10.37
    m_d = o.q0_proximity("dirichlet", r, nodes=512, dps=20)
    m_n = o.q0_proximity("neumann", r, nodes=512, dps=20)
    assert m_n - m_d == pytest.approx(-math.log(r), abs=1e-12)
    # geometric convergence of the trapezoid rule
    assert o.q0_proximity("dirichlet", r, nodes=256, dps=20) == pytest.approx(m_d, abs=1e-10)


def test_robin_roots_solve_the_characteristic_equation():
    alpha = 0.5 + 1j
    roots = o.robin_eigenvalues(alpha, (0.3, 30, -3, 3))
    assert len(roots) == 6
    for lam, mult in roots:
        k = mpmath.sqrt(mpmath.mpc(lam))
        f = k * mpmath.cos(k * mpmath.pi) - alpha * mpmath.sin(k * mpmath.pi)
        assert mult == 1 and abs(f) < 1e-9 * (1 + abs(k))


def test_exponential_references():
    zeros = o.exp_chart_zeros(0.5 + 0.2j, (-10, 10, -2.5, 2.5))
    assert len(zeros) == 3
    for lam, _ in zeros:
        assert abs(np.exp(1j * lam) - (0.5 + 0.2j)) < 1e-14
    spec = o.exp_unitary_spectrum(0.3, -20, 20)
    assert [round(v, 12) for v, _ in spec] == [round(0.3 + 2 * np.pi * k, 12) for k in range(-3, 4)]
    assert o.exp_height(1e4) == pytest.approx(1e4 / np.pi, rel=1e-15)


@pytest.mark.parametrize("r, nodes", [(100.0, 2 ** 18), (1e4, 2 ** 22)])
def test_exponential_proximity_matches_brute_force_trapezoid(r, nodes):
    # -ln section norm = -ln|B - U| + ln(1 + |B|^2)/2 + ln(2)/2, B = e^{i lam},
    # written as -ln|1 - U/B| + ln(1 + |B|^-2)/2 where |B| > 1 so that
    # nothing overflows; at r = 1e4 the features near theta = 0, pi are
    # ~1/r wide, so 2^22 nodes
    U = np.exp(0.3j)
    total = 0.0
    for j in range(0, nodes, 2 ** 18):  # in chunks, to keep memory small
        lam = r * np.exp(2j * np.pi * np.arange(j, j + 2 ** 18) / nodes)
        small = lam.imag >= 0  # |B| <= 1
        B = np.exp(1j * np.where(small, lam, lam.conj()))  # |B| or 1/|B|, never above 1
        f = np.where(small, -np.log(np.abs(B - U)), -np.log(np.abs(1 - U * B.conj())))
        total += np.sum(f + 0.5 * np.log1p(np.abs(B) ** 2))
    brute = total / nodes + 0.5 * np.log(2)
    assert o.exp_proximity(0.3, r) == pytest.approx(brute, abs=1e-10)


def test_order_estimate_of_a_power_law():
    radii = np.array([1.0, 10.0, 30.0, 100.0])
    rho, tau = o.order_estimate(radii, 2.0 * radii ** 0.5)
    assert rho == pytest.approx(0.5, abs=1e-12)
    assert tau == pytest.approx(2.0, rel=1e-12)
