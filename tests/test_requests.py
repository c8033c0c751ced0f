"""Requests the real-axis reads cannot serve raise ValidationError at once.

Each read takes an interval (a, b] or some radii r.  The range, every
|lambda| within LAMBDA_MAX, is checked where the phase path is covered; the
interval (a self-adjoint condition, an entire curve, a < b) and the radii
(each in (0, LAMBDA_MAX]) are each checked by one reader in spectral.
None of these requests may hang, return a value or raise another error.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import weylcurve as wc
from weylcurve import curves, sturm
from weylcurve.curves import LAMBDA_MAX

from conftest import DIRICHLET_ROWS, NEUMANN_ROWS, PERIODIC_ROWS, _cos_potential

U = wc.bc_from_unitary([[np.exp(0.3j)]])
V = wc.bc_from_unitary([[1.0]])
NOT_SELFADJOINT = wc.bc_from_chart([[0.5]])

# numbers outside the range, NaN among them
OUTSIDE = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300]),
                    st.floats(min_value=LAMBDA_MAX, exclude_min=True),
                    st.floats(max_value=-LAMBDA_MAX, exclude_max=True))
INSIDE = st.floats(-LAMBDA_MAX, LAMBDA_MAX)
BAD_RADII = st.one_of(OUTSIDE, st.floats(max_value=0.0))
BAD_INTERVALS = st.one_of(
    st.tuples(OUTSIDE, INSIDE), st.tuples(INSIDE, OUTSIDE),
    # reversed or empty
    st.tuples(INSIDE, INSIDE).map(lambda ab: (max(ab), min(ab))))

RADIUS_READS = {
    "counting": lambda c, r: wc.counting(c, U, r),
    "proximity": lambda c, r: wc.proximity(c, U, r),
    "phase_count": lambda c, r: wc.phase_count(c, U, r),
    "interlace": lambda c, r: wc.interlace(c, U, V, r),
    "height_grid": lambda c, r: wc.height_grid(c, [1.0, r]),
    "fmt_report": lambda c, r: wc.fmt_report(c, [U], [1.0, r]),
}
INTERVAL_READS = {
    "eigenvalues_real": lambda c, a, b: wc.eigenvalues_real(c, U, (a, b)),
    "count_real": lambda c, a, b: wc.count_real(c, U, a, b),
    "eigenvalues_complex re": lambda c, a, b: wc.eigenvalues_complex(
        c, NOT_SELFADJOINT, (a, b, -1.0, 1.0)),
    "eigenvalues_complex im": lambda c, a, b: wc.eigenvalues_complex(
        c, NOT_SELFADJOINT, (-1.0, 1.0, a, b)),
}
# reads of a well-formed request on the curve c with the condition bc
READS = {
    "eigenvalues_real": lambda c, bc: wc.eigenvalues_real(c, bc, (-3.0, 3.0)),
    "count_real": lambda c, bc: wc.count_real(c, bc, -3.0, 3.0),
    "phase_count": lambda c, bc: wc.phase_count(c, bc, 3.0),
    "interlace": lambda c, bc: wc.interlace(c, bc, V, 3.0),
    "counting": lambda c, bc: wc.counting(c, bc, 3.0),
    "eigenvalues_complex": lambda c, bc: wc.eigenvalues_complex(c, bc, (-3.0, 3.0, -1.0, 1.0)),
}
NEEDS_SELFADJOINT = ["eigenvalues_real", "count_real", "phase_count", "interlace"]


@given(name=st.sampled_from(sorted(RADIUS_READS)), r=BAD_RADII)
@example(name="height_grid", r=1e300)
@example(name="height_grid", r=np.inf)
@example(name="phase_count", r=-3.0)
@example(name="interlace", r=-3.0)
@example(name="proximity", r=0.0)
@example(name="fmt_report", r=np.nan)
def test_a_radius_outside_the_range_raises(name, r):
    with pytest.raises(wc.ValidationError):
        RADIUS_READS[name](wc.exponential(), r)


@given(name=st.sampled_from(sorted(INTERVAL_READS)), ab=BAD_INTERVALS)
@example(name="eigenvalues_real", ab=(0.0, 1e300))
@example(name="eigenvalues_real", ab=(0.5, np.inf))
@example(name="count_real", ab=(5.0, 1.0))
@example(name="count_real", ab=(np.nan, 1.0))
@example(name="eigenvalues_complex im", ab=(-1.0, np.inf))
def test_an_interval_outside_the_range_or_reversed_raises(name, ab):
    with pytest.raises(wc.ValidationError):
        INTERVAL_READS[name](wc.exponential(), *ab)


@given(u=OUTSIDE)
@example(u=np.nan)
def test_a_total_phase_outside_the_range_raises(u):
    with pytest.raises(wc.ValidationError):
        wc.total_phase(wc.exponential(), [0.5, u])


@given(case=st.sampled_from([(name, "constant curve") for name in sorted(READS)]
                             + [(name, "not self-adjoint") for name in NEEDS_SELFADJOINT]))
def test_a_curve_that_is_not_entire_or_a_condition_that_is_not_selfadjoint_raises(case):
    name, bad = case
    c, bc = (wc.constant([[0.5]]), V) if bad == "constant curve" else (wc.exponential(),
                                                                       NOT_SELFADJOINT)
    with pytest.raises(wc.ValidationError):
        READS[name](c, bc)


# -- results that were once returned silently ----------------------------------


def test_count_real_on_a_curve_that_is_not_entire_raises():
    with pytest.raises(wc.ValidationError, match="entire"):
        wc.count_real(wc.constant([[0.5]]), V, -1, 1)


def test_count_real_on_a_reversed_interval_raises():
    with pytest.raises(wc.ValidationError, match="a < b"):
        wc.count_real(wc.exponential(), U, 5, 1)


def test_phase_count_on_a_curve_that_is_not_entire_raises():
    with pytest.raises(wc.ValidationError, match="entire"):
        wc.phase_count(wc.constant([[0.5]]), V, 3.0)


def test_phase_count_and_interlace_refuse_a_negative_radius():
    # r = -3 once read a phase integral of 0.045 and a crossing count of -1
    for read in (lambda c: wc.phase_count(c, U, -3.0), lambda c: wc.interlace(c, U, V, -3.0)):
        with pytest.raises(wc.ValidationError, match="radii"):
            read(wc.exponential())


def test_proximity_refuses_radius_zero():
    with pytest.raises(wc.ValidationError, match="radii"):
        wc.proximity(wc.exponential(), U, 0.0)


def test_total_phase_refuses_no_points():
    with pytest.raises(wc.ValidationError):
        wc.total_phase(wc.exponential(), [])


def test_the_range_is_checked_before_the_path_grows():
    c = wc.exponential()
    with pytest.raises(wc.ValidationError, match="real-axis request"):
        c.phase_path.cover(0.0, 2 * LAMBDA_MAX)
    assert c.phase_path.us.size == 0


def test_sturm_reads_the_range_of_curves():
    assert sturm.LAMBDA_MAX == LAMBDA_MAX
    p = wc.SLProblem(potential=wc.Potential.zero())
    for lam in (np.nan, 2 * LAMBDA_MAX, complex(0.0, np.inf)):
        with pytest.raises(wc.ValidationError, match="supported range"):
            wc.fundamental(p, lam)


@pytest.mark.parametrize("make", [
    lambda: wc.Potential.polynomial([np.nan]),
    lambda: wc.Potential.polynomial([1.0, np.inf]),
    lambda: wc.Potential.table([0.0, 1.0, 2.0, np.inf], [0.0] * 4),
    lambda: wc.SLProblem(potential=wc.Potential.zero(), length=np.inf),
    lambda: wc.SLProblem(potential=wc.Potential.zero(), length=np.nan),
    # every eigenvalue of a potential this large lies outside the range
    lambda: wc.fundamental(wc.SLProblem(potential=wc.Potential.polynomial([1e300, 1.0])), 1.0),
])
def test_non_finite_or_overflowing_problem_data_raise(make):
    with pytest.raises(wc.ValidationError):
        make()


def test_the_real_sweep_solves_each_lambda_once(monkeypatch):
    # the path is covered before the degeneracy test, whose first sample is
    # the interval start: the sweep finds it solved, and every lambda passes
    # _solve once
    p = wc.SLProblem(potential=wc.Potential.zero())
    c = wc.curve_provider(p)
    solve, passed = sturm._solve, []

    def counted(pan, at, **kw):
        passed.append(np.size(at))
        return solve(pan, at, **kw)

    monkeypatch.setattr(sturm, "_solve", counted)
    for rows in (DIRICHLET_ROWS, NEUMANN_ROWS, PERIODIC_ROWS):
        wc.eigenvalues_real(c, wc.bc_from_physical(rows, "functional"), (-0.5, 450.0))
    assert sum(passed) == len(p._memo)


# e^{i lambda / 10^4}: the phase turns once per 2 pi 10^4, so a read out to
# LAMBDA_MAX covers few knots
SLOW_EXP = wc.reparameterize(wc.exponential(), [[100.0, 0.0], [0.0, 0.01]])


@pytest.mark.parametrize("bc, r, zeros", [
    # B = e^{i 0.3}: lambda = 10^4 (0.3 + 2 pi k)
    (U, 999_999.0, lambda k: 1e4 * (0.3 + 2 * np.pi * k)),
    (U, LAMBDA_MAX, lambda k: 1e4 * (0.3 + 2 * np.pi * k)),
    # B = Y: lambda = 10^4 (-i log Y + 2 pi k), by the contour search
    (wc.bc_from_chart([[0.5 + 0.2j]]), 960_000.0,
     lambda k: 1e4 * (-1j * np.log(0.5 + 0.2j) + 2 * np.pi * k)),
    (wc.bc_from_chart([[0.5 + 0.2j]]), LAMBDA_MAX,
     lambda k: 1e4 * (-1j * np.log(0.5 + 0.2j) + 2 * np.pi * k)),
])
def test_counting_reads_radii_up_to_the_range_edge(bc, r, zeros):
    # the real sweep's margin r (1 + 1e-3) and the contour's square of
    # half-side 1.05 r stop at LAMBDA_MAX
    moduli = np.abs(zeros(np.arange(-40, 41)))
    inside = moduli[moduli < r]
    got = wc.counting(SLOW_EXP, bc, r)
    assert got["n_T"] == inside.size == 31
    assert got["N_T"] == pytest.approx(np.log(r / inside).sum(), rel=1e-9)
    assert got["r_used"] == r


def test_the_lattice_ends_at_the_range_edge():
    # the outer cell is clipped at +-LAMBDA_MAX, and a request that ends
    # there covers up to it and no further
    assert curves._lattice(9.9e5, LAMBDA_MAX)[-1] == LAMBDA_MAX
    assert curves._lattice(-LAMBDA_MAX, -9.9e5)[0] == -LAMBDA_MAX
    assert curves._lattice(LAMBDA_MAX, LAMBDA_MAX).tolist() == [LAMBDA_MAX]
    c = wc.exponential()
    c.phase_path.cover(LAMBDA_MAX, LAMBDA_MAX)
    assert c.phase_path.us.tolist() == [LAMBDA_MAX]
    assert c.phase_path.sample([LAMBDA_MAX])[1][0] == np.angle(np.exp(1j * LAMBDA_MAX))
    c = wc.curve_provider(wc.SLProblem(potential=wc.Potential.zero()))
    c.phase_path.cover(999_000.0, LAMBDA_MAX)
    us = c.phase_path.us
    assert us[0] <= 999_000.0 and us[-1] == LAMBDA_MAX


@pytest.mark.parametrize("length", [1e9, 1e300])
def test_a_solve_that_needs_too_many_panels_raises_before_allocating(length):
    p = wc.SLProblem(potential=wc.Potential.zero(), length=length)
    with pytest.raises(wc.ValidationError,
                       match=re.escape(f"[0, {length:g}]") + ".* panels, more than"):
        wc.fundamental(p, 1.0)
    assert not p._panel_cache and not p._memo


def test_the_panel_bound_admits_default_length_problems_across_the_range():
    lams = [LAMBDA_MAX, -LAMBDA_MAX, LAMBDA_MAX * 1j, 0.0]
    for pot in (wc.Potential.zero(), wc.Potential.polynomial([0.0, 1.0]),
                _cos_potential(), wc.Potential.polynomial([LAMBDA_MAX])):
        p = wc.SLProblem(potential=pot)
        assert max(sturm._panel_count(p, lam) for lam in lams) == 4096


def test_a_short_interval_takes_the_fewest_panels():
    # a step longer than the interval asks for one panel, not a negative shift
    p = wc.SLProblem(potential=wc.Potential.zero(), length=1e-6)
    assert sturm._panel_count(p, 4.0) == 16
    fd = wc.fundamental(p, 4.0)
    assert fd.c == pytest.approx(np.cos(2e-6), abs=1e-14)
    assert fd.s == pytest.approx(np.sin(2e-6) / 2, abs=1e-14)
