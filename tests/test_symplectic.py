import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import weylcurve as wc
from weylcurve.symplectic import (_chart_rows, canonicalize, frame_sections, null_space,
                                  section_lognorm)

from conftest import random_contraction, random_pseudo_unitary, _haar_unitary

rng = np.random.default_rng(20240817)


def test_form_gram_and_eval():
    J = wc.form_gram(2)
    assert np.allclose(J, np.diag([1j, 1j, -1j, -1j]))
    x = np.array([1, 0, 0, 0], dtype=complex)
    assert wc.form_eval(x, x) == pytest.approx(1j)
    y = np.array([0, 0, 1, 0], dtype=complex)
    assert wc.form_eval(y, y) == pytest.approx(-1j)
    # sesquilinearity: [ax, y] = a [x, y],  [x, ay] = conj(a) [x, y]
    a = 0.7 - 0.4j
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert wc.form_eval(a * u, v) == pytest.approx(a * wc.form_eval(u, v))
    assert wc.form_eval(u, a * v) == pytest.approx(np.conj(a) * wc.form_eval(u, v))
    # anti-hermitian symmetry [x,y] = -conj([y,x]) (the factor i)
    assert wc.form_eval(u, v) == pytest.approx(-np.conj(wc.form_eval(v, u)))


def test_canonicalize_deterministic_and_span_preserving():
    f = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q1 = canonicalize(f)
    q2 = canonicalize(f @ np.array([[2.0, 1.0], [0.5, -3.0]]))
    assert np.allclose(q1.conj().T @ q1, np.eye(2), atol=1e-12)
    # one span, one frame
    assert np.allclose(q1, q2, rtol=0, atol=1e-14)
    assert np.allclose(q1 @ q1.conj().T, f @ np.linalg.pinv(f), atol=1e-12)


def test_canonicalize_rejects_rank_deficient():
    f = np.zeros((4, 2), dtype=complex)
    f[:, 0] = [1, 0, 0, 0]
    f[:, 1] = [2, 0, 0, 0]
    with pytest.raises(wc.ValidationError):
        canonicalize(f)


def test_classify_graph_of_unitary_is_lagrangian():
    for _ in range(5):
        U = _haar_unitary(rng, 3)
        pt = wc.graph_of(U)
        assert wc.classify_subspace(pt) == "lagrangian"


def test_classify_graph_of_strict_contraction_positive():
    B = random_contraction(rng, 2, rmax=0.8)
    assert wc.classify_subspace(wc.graph_of(B)) == "positive_definite"


def test_classify_negative_definite():
    # span of the minus-factor: frame (0; I)
    pt = wc.GrassPoint(np.vstack([np.zeros((2, 2)), np.eye(2)]))
    assert wc.classify_subspace(pt) == "negative_definite"


@pytest.mark.parametrize("frame, kind", [
    # e1 is positive and e3 negative for the form: the compressed form is diag(1, -1)
    ([[1, 0], [0, 0], [0, 1], [0, 0]], "indefinite"),
    # e1 and the isotropic e2 + e4: diag(1, 0)
    ([[1, 0], [0, 1], [0, 0], [0, 1]], "degenerate"),
])
def test_classify_indefinite_and_degenerate(frame, kind):
    assert wc.classify_subspace(wc.GrassPoint(np.array(frame, dtype=complex))) == kind


def test_chart_roundtrip():
    B = random_contraction(rng, 3)
    pt = wc.graph_of(B)
    assert np.allclose(wc.chart_convert(pt), B, atol=1e-10)


def test_chart_convert_outside_chart_raises():
    pt = wc.GrassPoint(np.vstack([np.zeros((2, 2)), np.eye(2)]))
    with pytest.raises(wc.ChartError):
        wc.chart_convert(pt)


def test_cayley_roundtrip_and_nevanlinna_direction():
    B = random_contraction(rng, 2, rmax=0.9)
    M = wc.cayley(B, "to_M")
    assert np.allclose(wc.cayley(M, "to_B"), B, atol=1e-10)
    # strict contraction -> M has positive imaginary part
    imag = (M - M.conj().T) / 2j
    assert np.linalg.eigvalsh(imag).min() > 0


def test_mobius_group_action_composition():
    B = random_contraction(rng, 2)
    g1 = random_pseudo_unitary(rng, 2)
    g2 = random_pseudo_unitary(rng, 2)
    lhs = wc.mobius_pu(g2.g @ g1.g, B)
    rhs = wc.mobius_pu(g2, wc.mobius_pu(g1, B))
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_mobius_preserves_contractions():
    for _ in range(10):
        B = random_contraction(rng, 2)
        g = random_pseudo_unitary(rng, 2)
        out = wc.mobius_pu(g, B)
        assert np.linalg.norm(out, 2) < 1.0


def test_pseudo_unitary_validation():
    with pytest.raises(wc.ValidationError):
        wc.PseudoUnitary(np.diag([2.0, 1.0, 1.0, 1.0]))


def test_transversality():
    p = wc.graph_of(np.zeros((2, 2)))
    q = wc.GrassPoint(np.vstack([np.zeros((2, 2)), np.eye(2)]))
    t = wc.transversality(p, q)
    assert t["transversal"] and t["dim_intersection"] == 0
    t2 = wc.transversality(p, p)
    assert t2["dim_intersection"] == 2


def test_section_norm_bounded_by_one():
    for _ in range(25):
        v = wc.GrassPoint(
            rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        w = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        assert wc.section_norm(v, w) <= 1.0 + 1e-12


def test_section_zero_iff_intersection():
    v = wc.graph_of(np.eye(2))
    # W sharing a vector with V
    shared = v.frame[:, [0]]
    other = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    w = np.hstack([shared, other])
    assert abs(wc.schubert_section(v, w)) < 1e-12
    assert wc.section_norm(v, w) < 1e-12


def test_section_lognorm_matches_norm():
    v = wc.GrassPoint(
        rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    w = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    assert np.exp(section_lognorm(v, w)) == pytest.approx(wc.section_norm(v, w))


@given(st.integers(1, 3), st.integers(0, 4), st.data())
def test_frame_sections_are_the_one_frame_sections(n, k, data):
    # a stack of k frames W, one of them meeting V, against a drawn V
    re, im = data.draw(arrays(float, (2, k + 1, 2 * n, n), elements=st.floats(-1.0, 1.0)))
    try:
        v = wc.GrassPoint(re[0] + 1j * im[0])
    except wc.ValidationError:  # a rank-deficient V
        assume(False)
    ws = re[1:] + 1j * im[1:]
    if k:
        ws[0, :, 0] = v.frame[:, 0]
    F, scale, ln = frame_sections(v, ws)
    assert F.shape == scale.shape == ln.shape == (k,)
    assert F.tolist() == [wc.schubert_section(v, w) for w in ws]
    assert ln.tolist() == [section_lognorm(v, w) for w in ws]
    assert np.all(np.abs(F) <= scale * (1 + 1e-12))


def test_one_frame_sections_check_the_shape():
    v = wc.graph_of(np.eye(2))
    for section in (wc.schubert_section, section_lognorm, wc.section_norm):
        with pytest.raises(wc.ValidationError):
            section(v, np.ones((4, 1)))


# -- the numpy null space against scipy -------------------------------------


@settings(max_examples=200)
@given(st.integers(1, 3), st.data())
def test_null_space_is_that_of_scipy(n, data):
    re, im = data.draw(arrays(float, (2, n, 2 * n), elements=st.floats(-1.0, 1.0)))
    rows = re + 1j * im
    if data.draw(st.booleans()):
        rows[-1] = rows[0]  # rank deficient
    assert np.array_equal(null_space(rows), scipy.linalg.null_space(rows))


# -- properties of the frames and the group actions --------------------------


@st.composite
def frames(draw):
    """2n x k complex frames, n = 1..3: plain, with one column scaled by 1e-3,
    with orthonormal columns, or the graph (I; U) of a unitary U, whose span
    has a projector of constant diagonal: ties up to rounding for _chart_rows."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["plain", "scaled", "orthonormal", "graph"]))
    k = n if kind == "graph" else draw(st.integers(1, 2 * n))
    re, im = draw(arrays(float, (2, 2 * n, k), elements=st.floats(-1.0, 1.0)))
    f = re + 1j * im
    if kind == "scaled":
        f[:, draw(st.integers(0, k - 1))] *= 1e-3
    elif kind == "orthonormal":
        f = np.linalg.qr(f)[0]
    elif kind == "graph":
        f = np.vstack([np.eye(n), np.linalg.qr(f[:n])[0]])
    return f


# a frame whose columns came out swapped when canonicalized twice by
# column-pivoted QR
_SWAPPED = np.array([[1, 0], [0, 1], [-0.5 - 0.5j, -0.7 + 0.1j], [-0.5 - 0.5j, 0.7 - 0.1j]])


@example(f=_SWAPPED)
@given(frames())
def test_canonicalize_properties(f):
    try:
        q = canonicalize(f)
    except wc.ValidationError:
        return
    assert q.shape == (f.shape[0], min(f.shape))
    assert np.allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-12)
    # its rows on some k coordinates form a Hermitian positive-definite block
    a = q[_chart_rows(q)]
    assert np.allclose(a, a.conj().T, rtol=0, atol=1e-14)
    assert np.linalg.eigvalsh((a + a.conj().T) / 2).min() > 0
    # idempotent
    assert np.allclose(canonicalize(q), q, rtol=0, atol=1e-14)
    # the span is kept
    # (pinv breaks down on subnormal frames)
    if np.abs(f).max() > 1e-300 and np.linalg.cond(f) < 1e6 and f.shape[1] <= f.shape[0]:
        assert np.allclose(q @ q.conj().T, f @ np.linalg.pinv(f), atol=1e-9)


@given(frames(), st.data())
def test_canonicalize_depends_on_the_span_alone(f, data):
    # f G spans what f spans up to the rounding of the product, which moves
    # the span by about eps cond(f) cond(G): up to 6.8e-16 cond(f) cond(G)
    # over 5,000 random draws
    k = f.shape[1]
    re, im = data.draw(arrays(float, (2, k, k),
                              elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    G = re + 1j * im
    assume(np.linalg.cond(G) <= 1e4 and np.linalg.cond(f) <= 1e6)
    # no underflow in f G
    G /= np.abs(G).max()
    assume(np.abs(f).max() > 1e-300)
    q = canonicalize(f)
    tol = max(1e-12, 4e-15 * np.linalg.cond(f) * np.linalg.cond(G))
    assert np.allclose(canonicalize(f @ G), q, rtol=0, atol=tol)


@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_canonical_frame_of_a_unitary_graph_is_its_normalized_graph(n, seed):
    U = _haar_unitary(np.random.default_rng(seed), n)
    graph = np.vstack([np.eye(n), U])
    # to a few rounding errors: 1.2e-15 at most over 9,000 draws, n = 1..3
    assert np.allclose(canonicalize(graph), graph / np.sqrt(2), rtol=0, atol=2e-15)
    assert np.allclose(wc.graph_of(U).frame, graph / np.sqrt(2), rtol=0, atol=2e-15)


@given(frames(), st.data())
def test_canonicalize_rejects_drawn_rank_deficient_frames(f, data):
    k = f.shape[1]
    j = data.draw(st.integers(0, k - 1))
    # column j made zero, or a combination of the other columns
    c = data.draw(arrays(float, k, elements=st.floats(-2.0, 2.0)))
    c[j] = 0.0
    f[:, j] = f @ c
    # (below 1e-300 the rounding of subnormals could lift the rank)
    assume(not f.any() or np.abs(f).max() > 1e-300)
    with pytest.raises(wc.ValidationError):
        canonicalize(f)


@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_cayley_round_trips(n, seed):
    r = np.random.default_rng(seed)
    B = random_contraction(r, n)
    M = wc.cayley(B, "to_M")
    assert np.allclose(wc.cayley(M, "to_B"), B, atol=1e-10)
    assert np.allclose(wc.cayley(wc.cayley(M, "to_B"), "to_M"), M,
                       atol=1e-9 * (1 + np.abs(M).max()))


@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_mobius_round_trip_and_group_law(n, seed):
    r = np.random.default_rng(seed)
    B = random_contraction(r, n)
    g1, g2 = random_pseudo_unitary(r, n), random_pseudo_unitary(r, n)
    J = wc.form_gram(n)
    g1_inv = wc.PseudoUnitary(np.linalg.inv(J) @ g1.g.conj().T @ J)
    assert np.allclose(wc.mobius_pu(g1_inv, wc.mobius_pu(g1, B)), B, atol=1e-9)
    assert np.allclose(wc.mobius_pu(g2.g @ g1.g, B), wc.mobius_pu(g2, wc.mobius_pu(g1, B)),
                       atol=1e-9)
