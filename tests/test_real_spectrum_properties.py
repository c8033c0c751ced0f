"""Property tests of real-axis counting on a closed-form n = 2 curve.

B(lam) = V diag(e^{i a lam}, e^{i b lam}) V* is entire, unitary on the real
axis and monotone.  For U = V diag(e^{i alpha}, e^{i beta}) V* the
eigenvalues are (alpha + 2 pi k) / a and (beta + 2 pi k) / b; with a = b
and alpha = beta every one of them is double.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import weylcurve as wc

LO, HI = -20.0, 25.0

angle = st.floats(0.0, 2 * np.pi, exclude_max=True)
rate = st.floats(0.2, 3.0)
# (theta, psi, chi) of V = [[e^{i psi} cos theta, e^{i chi} sin theta],
#                           [-e^{-i chi} sin theta, e^{-i psi} cos theta]]
su2 = st.tuples(st.floats(0.0, np.pi / 2), angle, angle)


def _unitary(theta, psi, chi):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[np.exp(1j * psi) * c, np.exp(1j * chi) * s],
                     [-np.exp(-1j * chi) * s, np.exp(-1j * psi) * c]])


def _curve(V, a, b):
    def ev(lam):
        return V @ np.diag([np.exp(1j * a * lam), np.exp(1j * b * lam)]) @ V.conj().T

    def dv(lam):
        return V @ np.diag([1j * a * np.exp(1j * a * lam),
                            1j * b * np.exp(1j * b * lam)]) @ V.conj().T

    return wc.CurveProvider(2, "entire", eval_fn=ev, deriv_fn=dv)


def _branch(rate_, phase, lo, hi):
    k = np.arange(np.floor((lo * rate_ - phase) / (2 * np.pi)),
                  np.ceil((hi * rate_ - phase) / (2 * np.pi)) + 1)
    lam = (phase + 2 * np.pi * k) / rate_
    return lam[(lam > lo) & (lam <= hi)]


def _problem(V, a, b, alpha, beta, points=(LO, HI)):
    """The curve, the condition and the exact eigenvalues in (LO, HI], each
    listed once per multiplicity; examples with an eigenvalue near one of
    `points` or with two distinct eigenvalues almost together are skipped."""
    ex = np.sort(np.concatenate([_branch(a, alpha, LO - 1, HI + 1),
                                 _branch(b, beta, LO - 1, HI + 1)]))
    gaps = np.diff(ex)
    assume(np.all((gaps < 1e-12) | (gaps > 1e-5)))
    assume(all(np.min(np.abs(ex - p)) > 1e-6 for p in points))
    U = V @ np.diag([np.exp(1j * alpha), np.exp(1j * beta)]) @ V.conj().T
    return _curve(V, a, b), wc.bc_from_unitary(U), ex[(ex > LO) & (ex <= HI)]


@given(su2, rate, rate, angle, angle, st.booleans())
@example((0.3, 1.0, 2.0), 1.0, 1.0, 0.5, 0.5, True)
# the first secant point of a step with two crossings lands exactly on the second
@example((0.75, 0.0, 0.0), 0.34375, 1.0, 3.25, 3.0, False)
def test_eigenvalues_real_closed_form(v, a, b, alpha, beta, double):
    if double:
        b, beta = a, alpha
    c, bc, exact = _problem(_unitary(*v), a, b, alpha, beta)
    evs = wc.eigenvalues_real(c, bc, (LO, HI))
    got = np.array([e.lam.real for e in evs for _ in range(e.multiplicity)])
    assert got == pytest.approx(exact, abs=1e-8)
    if double:
        assert all(e.multiplicity == 2 for e in evs)


@given(su2, rate, rate, angle, angle, st.floats(LO + 1.0, HI - 1.0))
def test_count_real_is_additive(v, a, b, alpha, beta, split):
    c, bc, exact = _problem(_unitary(*v), a, b, alpha, beta, points=(LO, split, HI))
    total = wc.count_real(c, bc, LO, HI)
    assert total == len(exact)
    assert wc.count_real(c, bc, LO, split) + wc.count_real(c, bc, split, HI) == total


@given(su2, rate, rate, su2, angle, su2, angle, st.floats(1.0, 25.0))
def test_interlace_and_phase_count_gaps(v, a, b, v1, d1, v2, d2, r):
    c = _curve(_unitary(*v), a, b)
    bc1 = wc.bc_from_unitary(np.exp(1j * d1) * _unitary(*v1))
    bc2 = wc.bc_from_unitary(np.exp(1j * d2) * _unitary(*v2))
    out = wc.interlace(c, bc1, bc2, r)
    assert abs(out["n1"] - out["n2"]) <= 2
    assert out["bound_satisfied"]
    for bc, n in ((bc1, out["n1"]), (bc2, out["n2"])):
        pc = wc.phase_count(c, bc, r)
        assert pc["n_T"] == n
        assert pc["gap"] <= 2.0


@given(su2, rate, angle, st.floats(5e-4, 2e-3))
@example((0.3, 1.0, 2.0), 1.0, 0.5, 1e-3)
def test_close_crossings_in_one_step_are_simple_roots(v, a, alpha, gap):
    # a = b and beta = alpha + a gap: the eigenvalues come in pairs gap apart
    c, bc, exact = _problem(_unitary(*v), a, a, alpha, alpha + a * gap)
    evs = wc.eigenvalues_real(c, bc, (LO, HI))
    # some pair lies inside one step of the path
    us, lows = c.phase_path.samples(LO, HI)[0], _branch(a, alpha, LO, HI)
    assume(np.any(np.searchsorted(us, lows) == np.searchsorted(us, lows + gap)))
    assert [e.multiplicity for e in evs] == [1] * len(exact)
    assert [e.lam.real for e in evs] == pytest.approx(exact, abs=1e-10)


@given(su2, rate, angle, st.floats(1e-11, 5e-8))
@example((0.3, 1.0, 2.0), 1.0, 0.5, 1e-9)
def test_crossings_closer_than_the_cluster_tolerance_are_one_double_root(v, a, alpha, gap):
    # the same pairs, closer than the cluster tolerance 1e-7 (1 + |lambda|)
    V = _unitary(*v)
    exact = _branch(a, alpha, LO, HI)
    assume(len(exact) and np.min(np.abs(np.concatenate([exact - LO, exact + gap - HI]))) > 1e-6)
    U = V @ np.diag([np.exp(1j * alpha), np.exp(1j * (alpha + a * gap))]) @ V.conj().T
    evs = wc.eigenvalues_real(_curve(V, a, a), wc.bc_from_unitary(U), (LO, HI))
    assert [e.multiplicity for e in evs] == [2] * len(exact)
    assert [e.lam.real for e in evs] == pytest.approx(exact, abs=1e-8)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0)])
@pytest.mark.parametrize("d", [1e-3, 0.2])
def test_a_crossing_on_the_knot_at_zero_leaves_the_one_before_it(a, b, d):
    # V = I and alpha = 0: the eigenphase a lam is exactly 0 at the knot
    # lam = 0, so the nearest eigenphase is 0 at the right end of a step
    # whose first crossing, at -d, lies inside it
    beta = 2 * np.pi - d * b
    exact = np.sort(np.concatenate([_branch(a, 0.0, LO, HI), _branch(b, beta, LO, HI)]))
    evs = wc.eigenvalues_real(_curve(np.eye(2), a, b),
                              wc.bc_from_unitary(np.diag([1.0, np.exp(1j * beta)])), (LO, HI))
    got = np.array([e.lam.real for e in evs for _ in range(e.multiplicity)])
    assert got == pytest.approx(exact, abs=1e-8)
    assert -d == pytest.approx(got[np.argmin(np.abs(got + d))], abs=1e-10)
