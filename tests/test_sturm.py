import cmath
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import simpson, solve_ivp

import weylcurve as wc
from weylcurve import sturm
from weylcurve.spectral import sections
from weylcurve.sturm import (
    TRIPLET_MAP, fundamental, fundamental_many, gamma_plus, gamma_minus, gamma_plus_gram,
    solution_values, degeneracy_scan,
)

from conftest import (
    DIRICHLET_ROWS, DEGENERATE_ROWS_SPAN, LENGTH, _cos_potential,
    _mixed_table_potential, frame_reader,
)

rng = np.random.default_rng(5521)


# -- coordinates -------------------------------------------------------------


def test_triplet_map_is_unitary():
    assert np.allclose(TRIPLET_MAP.conj().T @ TRIPLET_MAP, np.eye(4), atol=1e-14)


def test_triplet_map_takes_boundary_form_to_canonical_gram():
    # in physical coordinates (y(0), y'(0), y(pi), y'(pi)) the pulled-back
    # form is the Lagrange bracket
    #   [y, z] = y(0) z'(0)~ - y'(0) z(0)~ - y(pi) z'(pi)~ + y'(pi) z(pi)~
    J = wc.form_gram(2)
    S = np.zeros((4, 4), dtype=complex)
    S[0, 1], S[1, 0] = 1.0, -1.0
    S[2, 3], S[3, 2] = -1.0, 1.0
    assert np.allclose(TRIPLET_MAP.conj().T @ J @ TRIPLET_MAP, S, atol=1e-13)


# -- fundamental system -------------------------------------------------------


def test_fundamental_q0_closed_form(p_q0):
    lam = 4.0
    fd = fundamental(p_q0, lam)
    k = np.sqrt(lam)
    assert fd.c == pytest.approx(np.cos(k * LENGTH), abs=1e-10)
    assert fd.sp == pytest.approx(np.cos(k * LENGTH), abs=1e-10)
    assert fd.s == pytest.approx(np.sin(k * LENGTH) / k, abs=1e-10)
    assert fd.cp == pytest.approx(-k * np.sin(k * LENGTH), abs=1e-10)


@pytest.mark.parametrize("lam", [2.5, -7.0, 1e3, 3 + 4j])
def test_wronskian_conserved(p_qcos, lam):
    fd = fundamental(p_qcos, lam)
    w = fd.c * fd.sp - fd.cp * fd.s
    scale = max(abs(fd.c * fd.sp), abs(fd.cp * fd.s), 1.0)
    assert abs(w - 1.0) <= 1e-9 * scale


def test_conjugation_symmetry(p_qtable):
    lam = 3.0 + 2.0j
    fd = fundamental(p_qtable, lam)
    fdc = fundamental(p_qtable, np.conj(lam))
    for a, b in [(fd.c, fdc.c), (fd.s, fdc.s), (fd.cp, fdc.cp), (fd.sp, fdc.sp)]:
        assert abs(np.conj(a) - b) <= 1e-10 * (1 + abs(a))


def test_lambda_range_guard(p_q0):
    with pytest.raises(wc.ValidationError):
        fundamental(p_q0, 1e7)


# -- the panel propagator against DOP853 ----------------------------------------

ORACLE_POTENTIALS = {"q0": wc.Potential.zero(), "cos": _cos_potential(),
                     "x": wc.Potential.polynomial([0.0, 1.0]),
                     "table": _mixed_table_potential()}
# a fresh problem per potential, so that every panel count is sampled here
ORACLE_PROBLEMS = {k: wc.SLProblem(potential=v) for k, v in ORACLE_POTENTIALS.items()}
# errors are relative to the scale of each quantity (below) and may reach
# ten times the ODE tolerance of the problem
ORACLE_TOL = 10 * wc.SLProblem(potential=wc.Potential.zero()).ode_rtol
LAM_RE = st.floats(-1e4, 1e4)
LAM_IM = st.floats(-50.0, 50.0)
# a uniform grid and random points between its nodes
DENSE_XS = np.sort(np.concatenate([np.linspace(0.0, LENGTH, 101),
                                   np.random.default_rng(7).uniform(0.0, LENGTH, 60)]))


def _scalar_q(pot):
    """Scalar q and q' for the oracle's right-hand side (Horner for polynomials)."""
    if pot.kind == "zero":
        return (lambda x: 0.0), (lambda x: 0.0)
    if pot.kind == "polynomial":
        a = [float(v) for v in pot.coeffs]
        da = [k * v for k, v in enumerate(a)][1:] or [0.0]

        def horner(cs):
            def f(x):
                acc = 0.0
                for v in reversed(cs):
                    acc = acc * x + v
                return acc
            return f
        return horner(a), horner(da)
    q, qd = pot.evaluator(LENGTH), pot.deriv_evaluator(LENGTH)
    return (lambda x: float(q(x))), (lambda x: float(qd(x)))


def _dop853(pot, lam, moments=True, xs=None):
    """DOP853 at rtol 1e-13 on (c, c', s, s'), with the moment integrals and
    w = c - s' (w'' = (q - lam) w - q' s) as extra components if asked."""
    q, qd = _scalar_q(pot)

    def rhs(x, y):
        v = q(x) - lam
        out = [y[1], v * y[0], y[3], v * y[2]]
        if moments:
            out += [y[0] * np.conj(y[0]), y[0] * np.conj(y[2]), y[2] * np.conj(y[2]),
                    y[8], v * y[7] - qd(x) * y[2]]
        return out

    y0 = np.array([1, 0, 0, 1, 0, 0, 0, 0, 0][:9 if moments else 4], dtype=complex)
    sol = solve_ivp(rhs, (0.0, LENGTH), y0, method="DOP853", rtol=1e-13, atol=1e-15,
                    t_eval=xs)
    assert sol.success
    return sol.y if xs is not None else sol.y[:, -1]


@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
@settings(max_examples=8)
@given(re=LAM_RE, im=LAM_IM)
@example(re=-1e4, im=-50.0)
@example(re=1e4, im=50.0)
@example(re=1e5, im=0.0)
@example(re=1e5, im=50.0)
def test_fundamental_matches_dop853(name, re, im):
    lam = complex(re, im)
    fd = fundamental(ORACLE_PROBLEMS[name], lam)
    errs = _dop853_errors(name, lam, fd)
    assert max(errs) <= ORACLE_TOL, errs


def _dop853_errors(name, lam, fd):
    """The errors of fd's fields and of the moments at its lambda against
    DOP853, each relative to its scale."""
    pot = ORACLE_POTENTIALS[name]
    (fd_m_cc, _), (fd_m_cs, fd_m_ss) = sturm._moments(ORACLE_PROBLEMS[name], [lam])[0]
    c, cp, s, sp, m_cc, m_cs, m_ss, w, wp = _dop853(pot, lam)
    k = np.sqrt(1.0 + abs(lam))
    # the oracle's own w loses digits where q' is rough (a spline table);
    # c - s' from the same run is the better reference wherever that
    # subtraction keeps all but three digits
    if abs(c - sp) >= 1e-3 * (abs(c) + abs(sp)):
        w, wp = c - sp, cp - (_scalar_q(pot)[0](LENGTH) - lam) * s
    env_c, env_s = abs(c) + abs(cp) / k, abs(s) + abs(sp) / k
    pairs = [(fd.c, c, env_c), (fd.cp, cp, k * env_c), (fd.s, s, env_s),
             (fd.sp, sp, k * env_s), (fd_m_cc, m_cc, abs(m_cc)),
             (fd_m_cs, m_cs, np.sqrt(abs(m_cc)) * np.sqrt(abs(m_ss))),
             (fd_m_ss, m_ss, abs(m_ss))]
    if name == "q0":
        assert fd.w == 0 and fd.wp == 0  # exact for constant q
    else:
        env_w = abs(w) + abs(wp) / k
        pairs += [(fd.w, w, env_w), (fd.wp, wp, k * env_w)]
    return [abs(got - ref) / scale for got, ref, scale in pairs]


@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
@settings(max_examples=6)
@given(re=LAM_RE, im=LAM_IM)
def test_solution_values_match_dense_dop853(name, re, im):
    lam = complex(re, im)
    got = solution_values(ORACLE_PROBLEMS[name], lam, DENSE_XS)
    ref = _dop853(ORACLE_POTENTIALS[name], lam, moments=False, xs=DENSE_XS)
    k = np.sqrt(1.0 + abs(lam))
    for (y, yp), (ry, ryp) in (((got[0], got[1]), (ref[0], ref[1])),
                               ((got[2], got[3]), (ref[2], ref[3]))):
        env = abs(ry) + abs(ryp) / k
        assert np.all(np.abs(y - ry) <= ORACLE_TOL * env)
        assert np.all(np.abs(yp - ryp) <= ORACLE_TOL * k * env)


@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
@given(re=LAM_RE, im=LAM_IM)
def test_wronskian_is_one(name, re, im):
    fd = fundamental(ORACLE_PROBLEMS[name], complex(re, im))
    scale = max(abs(fd.c * fd.sp), abs(fd.cp * fd.s), 1.0)
    assert abs(fd.wronskian - 1.0) <= 1e-12 * scale


@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
@given(re=LAM_RE, im=st.floats(0.05, 50.0))
def test_B_at_conjugate_is_inverse_adjoint(name, re, im):
    # B(conj lam) = (B(lam)^*)^{-1}
    p = ORACLE_PROBLEMS[name]
    lam = complex(re, im)
    B = wc.sl_weyl(p, lam)["B"]
    Bc = wc.sl_weyl(p, np.conj(lam))["B"]
    dev = np.linalg.norm(Bc @ B.conj().T - np.eye(2), 2)
    assert dev <= 1e-9 * np.linalg.norm(Bc, 2)


@pytest.mark.parametrize("lam", [-13000.0, -20000.0])
def test_overflow_is_a_typed_error_without_warnings(p_qcos, lam):
    # the moments pass the floating-point range near lambda = -12,750
    p = wc.SLProblem(potential=p_qcos.potential)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wc.NumericalError, match="moment overflow") as err:
            sturm._moments(p, [lam])
        assert f"{lam:g}" in str(err.value)
        assert np.isfinite(sturm._moments(p, [-12000.0])[0, 0, 0])


@pytest.mark.parametrize("name", ["q0", "cos"])
@pytest.mark.parametrize("im", [0.0, 37.0])
def test_endpoint_reads_reach_past_the_moments_without_warnings(name, im):
    # the endpoint fields leave the range _FIELD_MAX near lambda = -47,600,
    # far past the moments: every endpoint reader returns finite values on
    # one side and raises the typed error naming lambda on the other, with
    # no warning and no untyped exception (Python's complex abs raises
    # OverflowError, and a product of two fields can reach inf)
    p = wc.SLProblem(potential=ORACLE_POTENTIALS[name])
    c = wc.curve_provider(p)
    bc = wc.bc_from_physical(np.array([[1, 0, 0, 0], [0, 0, -(0.5 + 1j), 1]]), "functional")
    fields = ("c", "cp", "s", "sp", "w", "wp")
    readers = (lambda lam: [getattr(fundamental(p, lam), f) for f in fields],
               lambda lam: sections(c, bc, [lam, lam + 1])[:2], c.B, c.frame)
    outcome = {}
    for re in np.arange(-44000.0, -51000.0, -500.0):
        lam = complex(re, im)
        got = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for read in readers:
                try:
                    got.append(bool(np.isfinite(read(lam)).all()))
                except wc.NumericalError as err:
                    assert type(err) is wc.NumericalError and f"{lam:g}" in str(err)
                    assert "fundamental overflow" in str(err)
                    got.append(None)
        outcome[re] = got
        assert got in ([True] * 4, [None] * 4), (lam, got)
    assert outcome[-44000.0] == [True] * 4 and outcome[-50500.0] == [None] * 4
    with pytest.raises(wc.NumericalError, match="moment overflow"):
        sturm._moments(p, [complex(-44000.0, im)])


# -- the sixth-order Magnus step -----------------------------------------------------


def _commutator_exponent(q1, q2, q3, h, lam):
    """The Blanes-Casas-Ros sixth-order Magnus exponent of one step of
    y' = [[0, 1], [q - lam, 0]] y, by the generic 2x2 commutator formula."""
    A1, A2, A3 = (np.array([[0, 1], [q - lam, 0]], dtype=complex) for q in (q1, q2, q3))

    def com(x, y):
        return x @ y - y @ x

    a1 = h * A2
    a2 = np.sqrt(15) * h / 3 * (A3 - A1)
    a3 = 10 * h / 3 * (A3 - 2 * A2 + A1)
    c1 = com(a1, a2)
    c2 = -com(a1, 2 * a3 + c1) / 60
    return a1 + a3 / 12 + com(-20 * a1 - a3 + c1, a2 + c2) / 240


@settings(max_examples=200)
@given(qs=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3), h=st.floats(1e-3, 0.5),
       re=st.floats(-1e5, 1e5), im=st.one_of(st.just(0.0), st.floats(-50.0, 50.0)))
@example(qs=[0.0, 0.0, 0.0], h=0.3, re=7.0, im=0.0)
@example(qs=[-3.0, 40.0, 12.0], h=0.5, re=-1e5, im=50.0)
def test_magnus_coefficients_match_the_commutator_formula(qs, h, re, im):
    # the closed-form exponent is affine in lambda: its lambda^2 terms cancel
    lam = complex(re, im)
    a0, a1, b, c0, c1 = (float(v) for v in sturm._magnus_coeffs(*np.array(qs), np.array(h)))
    ref = _commutator_exponent(*qs, h, lam)
    got = np.array([[a0 + lam * a1, b], [c0 + lam * c1, -(a0 + lam * a1)]])
    # the commutators carry products some h^2 |lambda| times larger than the
    # exponent, which cancel; so does their rounding
    tol = 1e-14 * (1 + h * h * abs(lam)) * np.abs(ref).max()
    assert np.abs(got - ref).max() <= tol, (got, ref)


def test_magnus_step_is_exact_for_constant_q():
    # the exponent of a constant q is h [[0, 1], [q - lam, 0]]: for q = 0,
    # b = h, c = -lam h and a = 0 bitwise
    h = np.pi / 64
    a0, a1, b, c0, c1 = sturm._magnus_coeffs(*np.zeros((3, 5)), np.full(5, h))
    assert np.all(a0 == 0) and np.all(a1 == 0) and np.all(c0 == 0)
    assert np.all(b == h) and np.all(c1 == -h)
    q = 2.5
    a0, a1, b, c0, c1 = sturm._magnus_coeffs(q, q, q, h)
    assert (a0, a1, b, c1) == (0, 0, h, -h) and c0 == pytest.approx(q * h, rel=1e-15)


def test_magnus_step_is_sixth_order(p_qcos):
    # halving the step divides the error of (c, c', s, s') by about 2^6 = 64
    ref = sturm._solve(sturm._panels(p_qcos, 1024), np.array(1.0))[:4]
    errs = [np.abs(sturm._solve(sturm._panels(p_qcos, n), np.array(1.0))[:4] - ref).max()
            for n in (8, 16, 32, 64)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(40 <= r <= 90 for r in ratios), (errs, ratios)


@pytest.mark.parametrize("name, lams, most", [
    ("cos", np.linspace(-2.0, 450.0, 227), 256),
    ("x", np.linspace(-2.0, 450.0, 227), 256),
    # q = 0 depends on |lambda| alone
    ("q0", 450.0 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 64)), 64),
    ("q0", np.linspace(-450.0, 450.0, 181), 64),
])
def test_panel_counts_at_the_default_tolerance(name, lams, most):
    p = ORACLE_PROBLEMS[name]
    assert p.ode_rtol == 1e-10
    counts = {sturm._panel_count(p, lam) for lam in lams}
    assert max(counts) <= most, sorted(counts)


@pytest.mark.parametrize("z", [np.linspace(0.5, 40.0, 50), -np.linspace(0.0, 40.0, 50)])
def test_one_signed_cosh_sinhc_is_bitwise_the_mixed_one(z):
    # nodes that share a sign evaluate one branch; a node of the other sign
    # makes the call select per node, with the same values on the others
    other = np.array([1.0 if z[-1] <= 0 else -1.0])
    one = sturm._cosh_sinhc(z)
    mixed = sturm._cosh_sinhc(np.concatenate([z, other]))
    assert all(np.array_equal(a, b[:-1]) for a, b in zip(one, mixed))


# -- the batch entry ------------------------------------------------------------

# |lambda| from 0 to 1e4 in any direction: every panel count from 16 to 256
# for q = 0 and from 128 to 1024 for the other potentials; the second example
# takes those through more than one propagation pass at 1024 panels
BATCH_LAMS = st.lists(st.builds(lambda r, t: r * cmath.exp(1j * t),
                                st.floats(0.0, 1e4), st.floats(0.0, 2 * np.pi)),
                      min_size=2, max_size=10)


@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
@settings(max_examples=10)
@given(lams=BATCH_LAMS, memo=st.lists(st.booleans(), min_size=10, max_size=10))
@example(lams=[0.0, 50.0j, -300.0, 1e4, 2e3 + 1j, 1e4 - 5j, -1e4, 7.0], memo=[False] * 10)
@example(lams=[1e4, -1e4, 9e3, -9e3, 8e3 + 1j, 9.5e3, -8.5e3, 1e4 - 5j, 3.0, -1e4 + 50j],
         memo=[False] * 10)
def test_fundamental_many_is_bitwise_fundamental(name, lams, memo):
    pot = ORACLE_POTENTIALS[name]
    one, many = wc.SLProblem(potential=pot), wc.SLProblem(potential=pot)
    ref = [fundamental(one, lam) for lam in lams]
    for lam, hit in zip(lams, memo):
        if hit:  # partly memoized
            fundamental(many, lam)
    got = fundamental_many(many, lams + [lams[0]])  # and one lambda repeated
    assert got == ref + [ref[0]]
    assert all(many._memo[(fd.lam.real, fd.lam.imag)] == fd for fd in ref)


def _pass_peak_in_node_arrays(pan, lam, **kw):
    """The peak memory of one _solve pass over the lambdas of a column, in
    arrays over its K N J quadrature nodes."""
    import tracemalloc
    node_array = lam.size * pan.step[0].size * len(sturm._QUAD_WEIGHTS) * lam.itemsize
    tracemalloc.start()
    try:
        sturm._solve(pan, lam, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / node_array


@pytest.mark.parametrize("n", [16, 64])
def test_a_full_complex_pass_holds_few_node_arrays(p_q0, n):
    # numpy allocates every result; a full pass (one that forms the moments,
    # the only one that runs the node pass on q = 0) of K N = 4096 complex
    # lambda-panels works in place, so its peak is under eight arrays over
    # the K N J quadrature nodes (over ten when each operation allocated its
    # result)
    lam = (50.0 * np.exp(1j * np.linspace(0.1, 3.0, sturm._BATCH_PANELS // n)))[:, None]
    assert _pass_peak_in_node_arrays(sturm._panels(p_q0, n), lam, moments=True) < 8


@pytest.mark.parametrize("n", [16, 64])
def test_a_full_real_pass_holds_few_node_arrays(p_q0, n):
    # the same bound in float64, on both signs of the axis in one pass
    lam = np.linspace(-50.0, 400.0, sturm._BATCH_PANELS // n)[:, None]
    assert _pass_peak_in_node_arrays(sturm._panels(p_q0, n), lam, moments=True) < 8


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("moments", [False, True])
def test_a_forced_pass_holds_few_node_arrays(moments, n):
    # the same bound where the forcing of w is not zero, so that the node
    # pass runs with or without the moments, complex and real
    pan = sturm._panels(ORACLE_PROBLEMS["x"], n)
    for lam in (50.0 * np.exp(1j * np.linspace(0.1, 3.0, sturm._BATCH_PANELS // n)),
                np.linspace(-50.0, 400.0, sturm._BATCH_PANELS // n)):
        assert _pass_peak_in_node_arrays(pan, lam[:, None], moments=moments) < 8


def _envelope_errors(got, ref, env, k):
    """|got - ref| for pairs (y, y') along the first axis, relative to env
    for y and to k env for y'."""
    return max(np.max(np.abs(got[0] - ref[0]) / env),
               np.max(np.abs(got[1] - ref[1]) / (k * env)))


@settings(max_examples=20)
@given(lams=st.lists(st.one_of(st.floats(-2e3, 1e4),
                               st.builds(complex, st.floats(-2e3, 1e4), st.floats(-50.0, 50.0))),
                     min_size=1, max_size=4),
       n=st.sampled_from([16, 64, 256]))
@example(lams=[100.0], n=16)
@example(lams=[-2e3 + 50j, 1e4], n=256)
@example(lams=[complex(8907.552695220365, 1 / 3)], n=16)
def test_scan_and_carry_are_the_sequential_recurrences(lams, n):
    # the Hillis-Steele scan and the pairwise affine composition reorder the
    # products of the one-panel-at-a-time recurrences, and agree with them
    # to N eps of the envelope |y| + |y'|/k of the columns of each prefix
    # product, and of the largest iterate of the affine recurrence; one
    # lambda runs on 1-D panel arrays
    pan = sturm._panels(ORACLE_PROBLEMS["x"], n)
    col = np.array(lams if len(lams) > 1 else lams[0])
    at = col[:, None] if col.ndim else col
    E = sturm._magnus_exp(pan.step, at)
    assert E.shape == (2, 2) + np.shape(at)[:-1] + (n,)
    Y = sturm._prefix(E)
    v = rng.standard_normal((2, n))
    w = sturm._carry(E, E[:, 0] * v[0] + E[:, 1] * v[1])
    E, Y, w = E.reshape(2, 2, -1, n), Y.reshape(2, 2, -1, n + 1), np.reshape(w, (2, -1))
    # k^2 = 1 + |lambda| + max |q|, the wavenumber scale of the envelope
    k = np.sqrt(1.0 + np.abs(np.atleast_1d(col)) + np.pi)
    for i in range(len(k)):
        seq, y, env = [np.eye(2)], np.zeros(2), 0.0
        for j in range(n):
            seq.append(E[..., i, j] @ seq[-1])
            y = E[..., i, j] @ y + E[:, 0, i, j] * v[0, j] + E[:, 1, i, j] * v[1, j]
            env = max(env, abs(y[0]) + abs(y[1]) / k[i])
        seq = np.moveaxis(seq, 0, -1)
        tol = n * np.finfo(float).eps
        assert _envelope_errors(Y[:, :, i], seq, np.abs(seq[0]) + np.abs(seq[1]) / k[i],
                                k[i]) <= tol
        assert _envelope_errors(w[:, i], y, env, k[i]) <= tol


def test_fundamental_many_overflow_names_the_first_failing_lambda(p_qcos):
    p = wc.SLProblem(potential=p_qcos.potential)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wc.NumericalError, match="moment overflow") as err:
            sturm._moments(p, [5.0, -13000.0, -12000.0, -20000.0])
    assert f"{complex(-13000.0):g}" in str(err.value)
    assert "-20000" not in str(err.value)


# -- the float64 kernel on the real axis ------------------------------------------


def _field_scales(v, lam):
    """The scale of each of the nine rows (c, c', s, s', w, w', m_cc, m_cs,
    m_ss) of one solve with moments, as in the DOP853 comparison."""
    c, cp, s, sp, w, wp, m_cc, _, m_ss = np.abs(v)
    k = np.sqrt(1.0 + abs(lam))
    env_c, env_s, env_w = c + cp / k, s + sp / k, w + wp / k
    return np.array([env_c, k * env_c, env_s, k * env_s, env_w, k * env_w, m_cc,
                     np.sqrt(m_cc) * np.sqrt(m_ss), m_ss])


@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
@settings(max_examples=8)
@given(lam=st.floats(-1e4, 1e4))
@example(lam=-1e4)
@example(lam=0.0)
@example(lam=1e4)
@example(lam=1e5)
def test_real_kernel_matches_the_complex_kernel_and_dop853(name, lam):
    p = ORACLE_PROBLEMS[name]
    n = sturm._panel_count(p, lam)
    pan = sturm._panels(p, n)
    got = sturm._solve(pan, np.array(lam), moments=True)
    ref = sturm._solve(pan, np.array(complex(lam)), moments=True)
    assert got.dtype == float and ref.dtype == complex
    # fundamental and the moment read run the real kernel and store their
    # fields as complex
    fd = fundamental(p, lam)
    (m_cc, _), (m_cs, m_ss) = sturm._moments(p, [lam])[0]
    assert [fd.c, fd.cp, fd.s, fd.sp, fd.w, fd.wp, m_cc, m_cs, m_ss] == got.tolist()
    m_memo = p._moment_memo[(float(lam), 0.0)]
    assert all(isinstance(v, complex) for v in (fd.c, m_memo[1], fd.wp))
    # the two kernels round differently by about an ulp per panel factor
    # (numpy's float64 cosh is not its complex one), and N factors carry it
    # to about N ulps, twice that in the moments
    scale = _field_scales(ref, lam)
    assert np.all(np.abs(got - ref) <= 4 * n * np.finfo(float).eps * scale)
    errs = _dop853_errors(name, complex(lam), fd)
    assert max(errs) <= ORACLE_TOL, errs


@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
@settings(max_examples=10)
@given(lams=st.lists(st.one_of(st.floats(-1e4, 1e4),
                               st.builds(complex, st.floats(-1e4, 1e4), st.floats(-50.0, 50.0))),
                     min_size=2, max_size=12))
@example(lams=[3.0, 3.0 + 1e-9j, -7.5, 1e4, 1e4 + 5j, 0.0, -0.0, 450.0])
def test_fundamental_many_mixing_real_and_complex_is_bitwise_fundamental(name, lams):
    pot = ORACLE_POTENTIALS[name]
    one, many = wc.SLProblem(potential=pot), wc.SLProblem(potential=pot)
    ref = [fundamental(one, lam) for lam in lams]
    assert fundamental_many(many, lams) == ref


# -- the moment read ------------------------------------------------------------

MIXED_LAMS = st.lists(st.one_of(st.floats(-1e4, 1e4),
                                st.builds(complex, st.floats(-1e4, 1e4), st.floats(-50.0, 50.0))),
                      min_size=1, max_size=10)


def _field_bits(fds) -> bytes:
    fields = [[fd.c, fd.cp, fd.s, fd.sp, fd.w, fd.wp] for fd in fds]
    return np.array(fields, dtype=complex).tobytes()


@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
@settings(max_examples=10)
@given(lams=MIXED_LAMS, first=st.lists(st.booleans(), min_size=10, max_size=10))
@example(lams=[3.0, -7.5 + 2j, 1e4, -1e4, 450.0 - 50j], first=[True, False] * 5)
def test_endpoint_fields_are_bitwise_the_same_with_or_without_moments(name, lams, first):
    # endpoint passes of the whole batch against moment passes of a part of
    # it first: the memo then holds fields from both kinds of pass
    pot = ORACLE_POTENTIALS[name]
    plain, mixed = wc.SLProblem(potential=pot), wc.SLProblem(potential=pot)
    sturm._moments(mixed, [lam for lam, f in zip(lams, first) if f])
    got = fundamental_many(mixed, lams)
    assert _field_bits(got) == _field_bits(fundamental_many(plain, lams))
    assert _field_bits(got) == _field_bits([fundamental(wc.SLProblem(potential=pot), lam)
                                            for lam in lams])


@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
@settings(max_examples=10)
@given(lams=MIXED_LAMS)
@example(lams=[0.0, 2.5, -40.0, 7.0 + 3.0j, 300.0 - 20.0j, -1e3 + 1j, 1e4])
def test_moments_are_bitwise_the_rows_of_the_one_lambda_moment_pass(name, lams):
    # whatever the batch, a lambda's moments are those of its own nine-row
    # pass, in the layout [[m_cc, conj m_cs], [m_cs, m_ss]]
    p = wc.SLProblem(potential=ORACLE_POTENTIALS[name])
    got = sturm._moments(p, lams)
    for lam, mom in zip(lams, got):
        lam = complex(lam)
        pan = sturm._panels(p, sturm._panel_count(p, lam))
        v = sturm._solve(pan, np.array(lam.real if lam.imag == 0 else lam), moments=True)
        m_cc, m_cs, m_ss = v[6:].astype(complex)
        ref = np.array([[m_cc, m_cs.conj()], [m_cs, m_ss]])
        assert mom.tobytes() == ref.tobytes()


def _count_passes(monkeypatch):
    """Record each _solve pass as (lambdas, moments, node pass): the node
    pass shows as a _cosh_sinhc call over the quadrature nodes."""
    passes = []
    solve, cosh_sinhc = sturm._solve, sturm._cosh_sinhc

    def counted(pan, lam, **kw):
        passes.append((np.ravel(lam).tolist(), kw.get("moments", False), False))
        return solve(pan, lam, **kw)

    def nodes(z):
        if np.shape(z)[-1] == len(sturm._QUAD_WEIGHTS):
            passes[-1] = passes[-1][:2] + (True,)
        return cosh_sinhc(z)

    monkeypatch.setattr(sturm, "_solve", counted)
    monkeypatch.setattr(sturm, "_cosh_sinhc", nodes)
    return passes


def test_q0_forms_moments_only_at_the_cover_knots(monkeypatch, bc_dirichlet):
    # q = 0: proximity, the contour and the samples of the heights read
    # endpoints only, and so run no node pass; the fmt report forms moments
    # at its cover knots alone, each knot in one pass
    bc_robin = wc.bc_from_physical(np.array([[1, 0, 0, 0], [0, 0, -(0.5 + 1j), 1]]),
                                   "functional")
    passes = _count_passes(monkeypatch)
    c = wc.curve_provider(wc.SLProblem(potential=wc.Potential.zero()))
    wc.proximity(c, bc_dirichlet, 50.37)
    wc.eigenvalues_complex(c, bc_robin, (0.3, 30.0, -3.0, 3.0))
    assert passes and not any(mom or node for _, mom, node in passes)
    passes.clear()
    wc.height_grid(c, [0.5, 5.0, 50.0])
    # the knots, then the samples between them
    assert [node for _, _, node in passes] == [mom for _, mom, _ in passes]
    knots = [lam for lams, mom, _ in passes if mom for lam in lams]
    assert sorted(knots) == c.phase_path.us.tolist()
    assert any(not mom for _, mom, _ in passes)
    passes.clear()
    p = wc.SLProblem(potential=wc.Potential.zero())
    c = wc.curve_provider(p)
    wc.fmt_report(c, [bc_dirichlet], [10.37, 30.37, 50.37])
    knots = [lam for lams, mom, _ in passes if mom for lam in lams]
    assert sorted(knots) == c.phase_path.us.tolist() == sorted(set(knots))
    assert [node for _, _, node in passes] == [mom for _, mom, _ in passes]
    assert len(p._memo) == sum(len(lams) for lams, _, _ in passes)
    assert set(p._moment_memo) == {(u, 0.0) for u in knots}


@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
def test_real_and_complex_kernels_overflow_at_the_same_lambda(name):
    # the moments leave the double range near lambda = -12,750
    p = ORACLE_PROBLEMS[name]
    lams = np.arange(-12900.0, -12600.0, 5.0)
    with np.errstate(all="ignore"):
        finite = [[np.isfinite(sturm._solve(sturm._panels(p, sturm._panel_count(p, lam)),
                                            np.array(x), moments=True)).all()
                   for x in (lam, complex(lam))]
                  for lam in lams]
    assert [r for r, _ in finite] == [c for _, c in finite]
    assert not finite[0][0] and finite[-1][0]
    fresh = wc.SLProblem(potential=p.potential)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wc.NumericalError, match="moment overflow at lambda = -13000"):
            sturm._moments(fresh, [-13000.0])


def test_stable_lognorm_takes_arrays(c_qx):
    bc = wc.bc_from_physical([[1, 0, 0, 0], [0, 1, 0, -2]], "functional")
    # near the positive axis, where the solutions stay small and the generic
    # slogdet form of the frame keeps its digits
    lams = 40.0 * np.exp(1j * np.linspace(-0.5, 0.5, 16))
    F, scale, got = c_qx.section_fn(bc.point, lams)
    assert got.shape == F.shape == scale.shape == lams.shape
    assert [c_qx.section_fn(bc.point, [lam])[2][0] for lam in lams] == list(got)
    ref = [wc.section_lognorm(bc.point, c_qx.frame(lam)) for lam in lams]
    assert got == pytest.approx(ref, abs=1e-8)
    # the same determinant as the stacked-frame reader's; the minor
    # expansion's scale bounds it, tighter than the frame's column norms
    F_gen, scale_gen, ln_gen = sections(frame_reader(c_qx), bc, lams)
    assert ln_gen == pytest.approx(ref, abs=1e-12)
    assert np.all(np.abs(F - F_gen) <= 1e-12 * scale_gen)
    assert np.all((np.abs(F) <= scale) & (scale <= scale_gen))


def test_real_sweep_residuals_are_one_batch(monkeypatch, p_q0, c_q0, bc_dirichlet):
    # the residuals of an SL eigenvalue sweep are one fundamental_many call
    # over all its eigenvalues, the sweep's last
    calls = []

    def spy(p, lams):
        calls.append(np.ravel(np.asarray(lams, dtype=complex)).tolist())
        return fundamental_many(p, lams)

    monkeypatch.setattr(sturm, "fundamental_many", spy)
    evs = wc.eigenvalues_real(c_q0, bc_dirichlet, (0.5, 40.0))
    assert len(evs) == 6
    assert calls[-1] == [e.lam for e in evs]


# -- Weyl functions -----------------------------------------------------------


def test_sl_weyl_quarter(p_q0):
    out = wc.sl_weyl(p_q0, 0.25)
    assert not out["pole"]
    expect = np.array([[-0.6, -0.8j], [-0.8j, -0.6]])
    assert np.allclose(out["B"], expect, atol=1e-9)
    # c = 0, s = 2, s' = 0 at lam = 1/4, so M = [[0, 1/2], [1/2, 0]]
    assert np.allclose(out["M"], np.array([[0.0, 0.5], [0.5, 0.0]]), atol=1e-9)


def test_sl_weyl_pole(p_q0):
    out = wc.sl_weyl(p_q0, 1.0)
    assert out["pole"] and out["M"] is None
    assert np.allclose(out["B"], np.array([[0, 1], [1, 0]]), atol=1e-9)


def test_B_unitary_on_reals_contractive_above(p_qcos):
    for u in (0.3, 7.7, -4.0):
        B = wc.sl_weyl(p_qcos, u)["B"]
        assert np.linalg.norm(B @ B.conj().T - np.eye(2), 2) < 1e-8
        assert np.linalg.norm(B - B.T, 2) < 1e-10
    for lam in (0.5 + 1j, -3 + 0.5j, 10 + 2j):
        B = wc.sl_weyl(p_qcos, lam)["B"]
        assert np.linalg.norm(B, 2) < 1.0


def test_curve_provider_matches_sl_weyl(c_qx, p_qx):
    lam = 2.2 + 0.7j
    assert np.allclose(c_qx.B(lam), wc.sl_weyl(p_qx, lam)["B"], atol=1e-12)
    # frame reproduces the same graph point: chart of frame equals B
    pt = wc.GrassPoint(c_qx.frame(lam))
    assert np.allclose(wc.chart_convert(pt), c_qx.B(lam), atol=1e-9)


def test_phase_speed_positive_on_reals(c_qcos):
    for u in (0.5, 12.0, 150.0):
        assert c_qcos.phase_speed(u) > 0


# -- gamma fields --------------------------------------------------------------


def test_gamma_plus_norm_matches_quadrature(p_qx):
    lam = 1.3 + 0.8j
    phi = np.array([0.7 - 0.2j, 0.1 + 0.9j])
    out = gamma_plus(p_qx, lam, phi)
    xs = np.linspace(0.0, LENGTH, 4001)
    cv, _, sv, _ = solution_values(p_qx, lam, xs)
    y = out["coeffs"][0] * cv + out["coeffs"][1] * sv
    quad = simpson(np.abs(y) ** 2, x=xs)
    assert out["l2_norm_sq"] == pytest.approx(quad, rel=1e-8)


def _q0_gamma_norm_sq(lam, phi, sign):
    """||y||^2 on [0, pi] of the q = 0 solution y of -y'' = lam y with
    (y'(0) + i sign y(0), -y'(pi) + i sign y(pi)) = sqrt(2) phi: y = A e^{ikx}
    + B e^{ik(pi - x)} with Im k >= 0, whose two terms stay at most 1 on
    [0, pi], so neither the solve nor the quadrature cancels."""
    k = cmath.sqrt(lam)
    e, p, m = cmath.exp(1j * k * np.pi), 1j * k + 1j * sign, 1j * sign - 1j * k
    A, B = np.linalg.solve(np.array([[p, e * m], [e * m, p]]) / np.sqrt(2), phi)
    x, wt = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, np.pi, 65)
    xs = ((edges[:-1, None] + edges[1:, None]) + np.diff(edges)[:, None] * x) / 2
    y = A * np.exp(1j * k * xs) + B * np.exp(1j * k * (np.pi - xs))
    return float(np.sum(np.abs(y) ** 2 * wt) * np.diff(edges)[0] / 2)


def test_gamma_norms_match_the_q0_closed_form_or_raise(p_q0):
    # c* mom c is a difference of the moments of c and s, which grow like
    # e^{pi sqrt(-lambda)} while the field stays bounded: where that
    # cancels below noise the norm raises the typed error, never a
    # negative value (-0.285 at the first lambda once)
    gen = np.random.default_rng(2)
    drawn = zip(gen.uniform(-50.0, 300.0, 50), gen.uniform(-20.0, 20.0, 50))
    lams = [complex(-43.14, 1.11)] + [complex(re, im) for re, im in drawn]
    kept = 0
    for lam in lams:
        for phi in (np.array([1.0, 0.0]), np.array([0.3 - 0.2j, 1.0])):
            for sign, gamma in ((+1, gamma_plus), (-1, gamma_minus)):
                try:
                    got = gamma(p_q0, lam, phi)["l2_norm_sq"]
                except wc.NumericalError as err:
                    assert "cancels" in str(err) and f"{lam:g}" in str(err)
                    continue
                ref = _q0_gamma_norm_sq(lam, phi, sign)
                assert got >= 0 and abs(got - ref) <= 1e-6 * ref, (lam, phi, sign, got, ref)
                kept += 1
    assert kept >= 4 * 40


def test_gamma_plus_gram_is_kernel_diagonal(p_qx, c_qx):
    lam = 0.9 + 1.4j
    G = gamma_plus_gram(p_qx, lam)
    B = c_qx.B(lam)
    K = 1j * (np.eye(2) - B.conj().T @ B) / (lam - np.conj(lam))
    assert np.allclose(G, K, atol=1e-8 * (1 + np.abs(K).max()))


def test_gamma_minus_is_B_times_gamma_plus(p_qx, c_qx):
    # Gamma_-(gamma_+(lam) e_j) = B(lam) e_j  column by column
    lam = 1.7 + 0.6j
    B = c_qx.B(lam)
    from weylcurve.sturm import _gamma_coeffs, _gamma_system, fundamental as fund
    fd = fund(p_qx, lam)
    got = _gamma_system([fd], -1)[0] @ _gamma_coeffs([fd], +1)[0]
    assert np.allclose(got, B, atol=1e-9)


@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
def test_stacked_gamma_systems_and_moments_are_the_one_element_stacks(name):
    from weylcurve.sturm import _gamma_system, _moments
    p = ORACLE_PROBLEMS[name]
    fds = fundamental_many(p, [0.0, 2.5, -40.0, 7.0 + 3.0j, 300.0 - 20.0j, -1e3 + 1j])

    def moments(f):
        return _moments(p, [fd.lam for fd in f])

    for stack in (lambda f: _gamma_system(f, +1), lambda f: _gamma_system(f, -1), moments):
        got = stack(fds)
        assert got.shape == (len(fds), 2, 2)
        assert np.array_equal(got, np.concatenate([stack([fd]) for fd in fds]))
    assert moments([]).shape == _gamma_system([], 1).shape == (0, 2, 2)


def test_gamma_plus_singular_in_lower_half(p_q0):
    # gamma_+ system loses invertibility exactly on the real spectrum side:
    # at a real Neumann-type resonance the +i combination may degenerate;
    # just exercise the guard with a synthetic near-singular call.
    out = gamma_plus(p_q0, 2.0 + 1e-6j, [1.0, 0.0])
    assert out["l2_norm_sq"] > 0


# -- boundary conditions --------------------------------------------------------


def test_bc_from_physical_modes_agree():
    b_fun = wc.bc_from_physical(DIRICHLET_ROWS, "functional")
    # Dirichlet data is spanned by (0,1,0,0) and (0,0,0,1)
    span = np.array([[0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    b_span = wc.bc_from_physical(span, "span")
    pr1 = b_fun.point.frame @ b_fun.point.frame.conj().T
    pr2 = b_span.point.frame @ b_span.point.frame.conj().T
    assert np.allclose(pr1, pr2, atol=1e-10)


def test_bc_from_physical_rejects_bad_shapes():
    with pytest.raises(wc.ValidationError):
        wc.bc_from_physical(np.eye(3), "span")
    with pytest.raises(wc.ValidationError):
        wc.bc_from_physical(np.vstack([DIRICHLET_ROWS[0], DIRICHLET_ROWS[0]]),
                            "functional")


_RANK_SCALES = [1e-300, 1e-11, 1e-9, 1.0, 1e11, 1e300]


@pytest.mark.parametrize("mode", ["functional", "span"])
@pytest.mark.parametrize("scale", _RANK_SCALES)
def test_a_scaled_condition_is_the_condition(mode, scale):
    # the rank check is relative, so the rows at any scale give their frame
    ref = wc.bc_from_physical(DIRICHLET_ROWS, mode)
    got = wc.bc_from_physical(scale * DIRICHLET_ROWS, mode)
    assert np.allclose(got.point.frame, ref.point.frame, rtol=0, atol=1e-14)
    assert got.selfadjoint


@pytest.mark.parametrize("mode", ["functional", "span"])
@pytest.mark.parametrize("scale", _RANK_SCALES)
def test_a_rank_one_condition_is_refused_at_any_scale(mode, scale):
    rows = scale * np.outer([1.0, 2.0 - 1.0j], [1.0, 0.5, -0.3j, 2.0])
    with pytest.raises(wc.ValidationError, match="must have full rank 2"):
        wc.bc_from_physical(rows, mode)


def test_bc_classification_self_adjoint_is_lagrangian(bc_dirichlet, bc_periodic):
    assert wc.classify_subspace(bc_dirichlet.point) == "lagrangian"
    assert wc.classify_subspace(bc_periodic.point) == "lagrangian"


# -- resolvent solves ------------------------------------------------------------


def test_solve_bvp_q0_closed_form(p_q0, bc_dirichlet):
    # -y'' - lam y = f with y(0)=y(pi)=0, f = sin(3x), lam = 2:
    # y = sin(3x)/(9 - 2)
    xs, y = wc.solve_bvp(p_q0, bc_dirichlet, 2.0, lambda x: np.sin(3 * x))
    assert np.allclose(y, np.sin(3 * xs) / 7.0, atol=1e-8)


def test_solve_bvp_residual(p_qcos, bc_neumann):
    lam = 1.5
    xs, y = wc.solve_bvp(p_qcos, bc_neumann, lam, lambda x: np.exp(-x) * np.sin(x))
    # second derivative via finite differences on the interior
    h = xs[1] - xs[0]
    ypp = (y[2:] - 2 * y[1:-1] + y[:-2]) / h / h
    q = np.cos(xs[1:-1])
    resid = -ypp + (q - lam) * y[1:-1] - np.exp(-xs[1:-1]) * np.sin(xs[1:-1])
    assert np.max(np.abs(resid)) < 1e-4


def test_solve_bvp_at_eigenvalue_raises(p_q0, bc_dirichlet):
    with pytest.raises(wc.NumericalError):
        wc.solve_bvp(p_q0, bc_dirichlet, 4.0, lambda x: np.sin(x))


# -- degeneracy ------------------------------------------------------------------


def test_degeneracy_scan_q0_flags(p_q0, p_qcos):
    out = degeneracy_scan(p_q0)
    assert out["weakly_degenerate"]
    out2 = degeneracy_scan(p_qcos)
    assert not out2["weakly_degenerate"]


def test_degeneracy_scan_grid_guard(p_q0):
    with pytest.raises(wc.ValidationError):
        degeneracy_scan(p_q0, grid=np.linspace(0, 10, 8))


# -- potential serialization ------------------------------------------------------


def test_potential_json_roundtrip():
    for pot in (wc.Potential.zero(),
                wc.Potential.polynomial([0.5, -1.0, 2.0]),
                wc.Potential.table(np.linspace(0, np.pi, 9),
                                   np.sin(np.linspace(0, np.pi, 9)))):
        back = wc.Potential.from_json(pot.to_json())
        assert back == pot


def test_potential_table_validation():
    with pytest.raises(wc.ValidationError):
        wc.Potential.table([0.0, 1.0, 0.5, 2.0], [0, 0, 0, 0])
    with pytest.raises(wc.ValidationError):
        wc.Potential.table([0.0, 1.0], [0.0, 1.0])


def test_problem_tolerance_guard():
    with pytest.raises(wc.ValidationError):
        wc.SLProblem(potential=wc.Potential.zero(), ode_rtol=1e-2)
