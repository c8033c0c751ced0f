import copy

import numpy as np
import pytest
from hypothesis import settings

import weylcurve as wc

# Property tests are derandomized and keep no example database, so two runs
# of one source tree draw the same examples, at most max_examples per test;
# solves are too slow for a per-example deadline.  Hypothesis (6.155) also
# draws literals that it mines from the local modules, the code under test
# and these tests, and no setting turns that off: an edit to any literal can
# change what is drawn.  So each case a property test has found is pinned
# as an @example.
settings.register_profile("weylcurve", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("weylcurve")

LENGTH = np.pi


def _cos_potential():
    # cos x on [0, pi] as its Taylor polynomial of degree 24
    # (remainder < 2e-12 at x = pi; much faster to evaluate than a spline)
    from math import factorial
    coeffs = np.zeros(25)
    for k in range(13):
        coeffs[2 * k] = (-1) ** k / factorial(2 * k)
    return wc.Potential.polynomial(coeffs)


def _mixed_table_potential(num=1601):
    xs = np.linspace(0.0, LENGTH, num)
    return wc.Potential.table(xs, 0.3 * np.sin(2 * xs) + xs / 5.0)


@pytest.fixture(scope="session")
def p_q0():
    return wc.SLProblem(potential=wc.Potential.zero())


@pytest.fixture(scope="session")
def p_qcos():
    return wc.SLProblem(potential=_cos_potential())


@pytest.fixture(scope="session")
def p_qx():
    return wc.SLProblem(potential=wc.Potential.polynomial([0.0, 1.0]))


@pytest.fixture(scope="session")
def p_qtable():
    return wc.SLProblem(potential=_mixed_table_potential())


@pytest.fixture(scope="session")
def c_q0(p_q0):
    return wc.curve_provider(p_q0)


@pytest.fixture(scope="session")
def c_qcos(p_qcos):
    return wc.curve_provider(p_qcos)


@pytest.fixture(scope="session")
def c_qx(p_qx):
    return wc.curve_provider(p_qx)


@pytest.fixture(scope="session")
def c_exp():
    return wc.exponential()


def frame_reader(c):
    """A twin of the provider c without its section, so that
    spectral.sections reads the section off the stacked frames."""
    twin = copy.copy(c)
    twin.section_fn = None
    return twin


def random_symmetric_unitary(rng, n=2):
    """Symmetric unitary U = O diag(e^{i theta}) O^T with O real orthogonal."""
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    th = rng.uniform(0, 2 * np.pi, n)
    return q @ np.diag(np.exp(1j * th)) @ q.T


def random_contraction(rng, n=2, rmax=0.9):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = np.linalg.norm(a, 2)
    return a * (rmax * rng.uniform(0.2, 1.0) / s)


def random_pseudo_unitary(rng, n=2):
    """Random element of U(n,n) preserving diag(I, -I): [[A,B],[B*,A~]] form.

    Built as diag(U1, U2) @ boost(B) with B a strict contraction: the boost
    [[X, X B*],[B X~?, ...]] uses X = (I - B* B)^{-1/2}, Xt = (I - B B*)^{-1/2}.
    """
    B = random_contraction(rng, n, rmax=0.7)
    X = np.linalg.inv(_sqrtm_psd(np.eye(n) - B.conj().T @ B))
    Xt = np.linalg.inv(_sqrtm_psd(np.eye(n) - B @ B.conj().T))
    boost = np.block([[X, X @ B.conj().T], [Xt @ B, Xt]])
    U1 = _haar_unitary(rng, n)
    U2 = _haar_unitary(rng, n)
    g = np.block([[U1, np.zeros((n, n))], [np.zeros((n, n)), U2]]) @ boost
    return wc.PseudoUnitary(g)


def _haar_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def _sqrtm_psd(m):
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return v @ np.diag(np.sqrt(np.clip(w, 0, None))) @ v.conj().T


DIRICHLET_ROWS = np.array([[1, 0, 0, 0], [0, 0, 1, 0]], dtype=complex)
NEUMANN_ROWS = np.array([[0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
PERIODIC_ROWS = np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=complex)
DEGENERATE_ROWS_SPAN = np.array([[1, 0, -1, 0], [0, 1, 0, 1]], dtype=complex)
PICARD_Z2_SPAN = np.array([[1, 0, -2, 0], [0, 1, 0, 2]], dtype=complex)


@pytest.fixture(scope="session")
def bc_dirichlet():
    return wc.bc_from_physical(DIRICHLET_ROWS, "functional", label="dirichlet")


@pytest.fixture(scope="session")
def bc_neumann():
    return wc.bc_from_physical(NEUMANN_ROWS, "functional", label="neumann")


@pytest.fixture(scope="session")
def bc_periodic():
    return wc.bc_from_physical(PERIODIC_ROWS, "functional", label="periodic")


def pytest_terminal_summary(terminalreporter):
    # surface the per-criterion verdict lines past output capture
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
