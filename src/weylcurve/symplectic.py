"""Finite-dimensional boundary space C^n (+) C^n with signature (n, n).

The space carries the indefinite sesquilinear form

    [x, y] = i <x_+, y_+> - i <x_-, y_->,

whose Gram matrix in the standard basis is diag(i*I_n, -i*I_n).  A
subspace, a point of the Grassmannian, is a GrassPoint, which holds the
one orthonormal frame canonicalize assigns to its span; so the Schubert
determinant pairing det [V | W] used for eigenvalue localization is a
function of the subspace V, not of the basis it was written in.  Module
contents besides: classification of subspaces by the sign of the
compressed form, the contraction chart (maximal positive subspaces as
graphs of strict contractions), the unitary chart for Lagrangians, the
pseudounitary group action by matrix Moebius transformations and the
Cayley transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ChartError, ValidationError

RANK_TOL = 1e-10
CLASS_TOL = 1e-9
PU_TOL = 1e-8


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def form_gram(n: int) -> np.ndarray:
    """Gram matrix diag(i*I_n, -i*I_n) of the boundary form."""
    return np.diag([1j] * n + [-1j] * n)


def form_eval(x, y) -> complex:
    """Evaluate [x, y] = i<x_+, y_+> - i<x_-, y_-> on 2n-vectors."""
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    if x.shape != y.shape or x.size % 2 != 0:
        raise ValidationError("form_eval needs two vectors of equal even length")
    n = x.size // 2
    return 1j * np.vdot(y[:n], x[:n]) - 1j * np.vdot(y[n:], x[n:])


def null_space(a) -> np.ndarray:
    """Orthonormal basis of the null space of a, as columns: the right
    singular vectors past the numerical rank, with the rank cut at
    eps * max(shape) of the largest singular value."""
    a = np.asarray(a)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.amax(s, initial=0.0) * (np.finfo(s.dtype).eps * max(a.shape))
    return vh[np.sum(s > tol, dtype=int):].conj().T


def rank_deficient(m) -> bool:
    """Whether the smallest singular value of m is at most RANK_TOL times the
    largest: a rank check that does not depend on the scale of m."""
    sv = np.linalg.svd(m, compute_uv=False)
    return bool(sv.min() <= RANK_TOL * max(sv.max(), 1e-300))


def _chart_rows(q: np.ndarray) -> list:
    """k coordinate rows of an orthonormal 2n x k frame q, ascending, by
    pivoted Cholesky on the projector P = q q*: each step takes the row of
    largest residual norm, ties within a relative 1e-7 to the lowest index,
    and projects it out of the others.  The residual norms depend on the
    span only."""
    r, rows = q.copy(), []
    for _ in range(q.shape[1]):
        d = np.linalg.norm(r, axis=1)
        i = int(np.argmax(d > (1.0 - 1e-7) * d.max()))
        rows.append(i)
        r -= np.outer(r @ r[i].conj(), r[i] / d[i] ** 2)
    return sorted(rows)


def canonicalize(frame: np.ndarray) -> np.ndarray:
    """The orthonormal frame of the column span that depends on the span
    alone: with Q an orthonormal basis and A = Q_I its rows I that
    _chart_rows picks, Q A* (A A*)^{-1/2} = P E (E* P E)^{-1/2}, P = Q Q*
    and E the coordinate vectors of I.  It is the polar factor of the chart
    frame Q A^{-1}; its I rows form a Hermitian positive-definite block, and
    a graph (I; U) of a unitary U gives (I; U) / sqrt(2).  ValidationError
    when the smallest singular value is at most RANK_TOL times the largest.
    """
    q, s, _ = np.linalg.svd(_as_matrix(frame), full_matrices=False)
    if s.size and s.min() <= RANK_TOL * s.max():
        raise ValidationError("rank-deficient frame has no canonical form")
    a = q[_chart_rows(q)]
    w, v = np.linalg.eigh(a @ a.conj().T)
    return q @ a.conj().T @ (v / np.sqrt(w)) @ v.conj().T


@dataclass(frozen=True)
class GrassPoint:
    """A k-dimensional subspace of the 2n boundary space, held as its
    canonical frame: the frame given is replaced by canonicalize(frame), so
    two writings of one subspace hold the same frame."""

    frame: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame", canonicalize(self.frame))

    @property
    def k(self) -> int:
        return self.frame.shape[1]

    @property
    def two_n(self) -> int:
        return self.frame.shape[0]


@dataclass(frozen=True)
class PseudoUnitary:
    """An element of U(n, n): g* J g = J with J = diag(i*I, -i*I)."""

    g: np.ndarray = field()

    def __post_init__(self):
        g = _as_matrix(self.g)
        if g.shape[0] != g.shape[1] or g.shape[0] % 2 != 0:
            raise ValidationError("pseudounitary matrix must be square of even size")
        object.__setattr__(self, "g", g)
        n = g.shape[0] // 2
        J = form_gram(n)
        dev = np.linalg.norm(g.conj().T @ J @ g - J, ord=2)
        if dev > PU_TOL * max(1.0, np.linalg.norm(g, ord=2) ** 2):
            raise ValidationError(f"matrix is not pseudounitary (deviation {dev:.3e})")

    @property
    def n(self) -> int:
        return self.g.shape[0] // 2

    def blocks(self):
        n = self.n
        g = self.g
        return g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]


def classify_subspace(P: GrassPoint) -> str:
    """Classify a subspace by the spectrum of the compressed form.

    The compressed Hermitian form is -i * frame* J frame = F_+* F_+ - F_-* F_-.
    """
    n = P.two_n // 2
    f = P.frame
    comp = f[:n].conj().T @ f[:n] - f[n:].conj().T @ f[n:]
    ev = np.linalg.eigvalsh((comp + comp.conj().T) / 2)
    near_zero = np.abs(ev) <= CLASS_TOL
    if np.all(ev > CLASS_TOL):
        return "positive_definite"
    if np.all(ev < -CLASS_TOL):
        return "negative_definite"
    if np.all(near_zero):
        return "lagrangian" if P.k == n else "isotropic"
    if not np.any(near_zero):
        return "indefinite"
    return "degenerate"


def chart_convert(P: GrassPoint) -> np.ndarray:
    """Contraction-chart coordinate B of an n-dimensional subspace.

    The subspace must be a graph over the first factor:  span(I; B) with
    B = bottom * top^{-1}.
    """
    f = P.frame
    n = f.shape[0] // 2
    if P.k != n:
        raise ChartError("chart_convert needs an n-dimensional subspace")
    top, bottom = f[:n], f[n:]
    if rank_deficient(top):
        raise ChartError("subspace is outside the contraction chart (top block singular)")
    return bottom @ np.linalg.inv(top)


def graph_of(B) -> GrassPoint:
    """Subspace {x + Bx}, the span of (I; B), as a GrassPoint."""
    B = _as_matrix(B)
    if B.shape[0] != B.shape[1]:
        raise ValidationError("graph_of needs a square matrix")
    n = B.shape[0]
    return GrassPoint(np.vstack([np.eye(n), B]))


def mobius_pu(g, B) -> np.ndarray:
    """Pseudounitary Moebius action B -> (g21 + g22 B)(g11 + g12 B)^{-1}."""
    if not isinstance(g, PseudoUnitary):
        g = PseudoUnitary(g)
    B = _as_matrix(B)
    g11, g12, g21, g22 = g.blocks()
    den = g11 + g12 @ B
    if rank_deficient(den):
        raise ValidationError("Moebius denominator singular; input outside the action's domain")
    return (g21 + g22 @ B) @ np.linalg.inv(den)


def cayley(A, direction: str) -> np.ndarray:
    """Cayley transform between chart coordinates B and Weyl values M.

    to_M: M = i (I + B)(I - B)^{-1};  to_B: B = (M - i)(M + i)^{-1}.
    """
    A = _as_matrix(A)
    n = A.shape[0]
    eye = np.eye(n)
    if direction == "to_M":
        pencil = eye - A
        num = 1j * (eye + A)
    elif direction == "to_B":
        pencil = A + 1j * eye
        num = A - 1j * eye
    else:
        raise ValidationError("direction must be 'to_M' or 'to_B'")
    if rank_deficient(pencil):
        raise ChartError("Cayley pencil singular at the requested point")
    return num @ np.linalg.inv(pencil)


def transversality(P: GrassPoint, Q: GrassPoint) -> dict:
    """Intersection/sum dimensions of two n-dimensional subspaces."""
    if P.two_n != Q.two_n:
        raise ValidationError("transversality needs subspaces of the same ambient space")
    n = P.two_n // 2
    if P.k != n or Q.k != n:
        raise ValidationError("transversality is defined for n-dimensional subspaces")
    stacked = np.hstack([P.frame, Q.frame])
    sv = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(sv > RANK_TOL * max(sv.max(), 1e-300)))
    dim_int = 2 * n - rank
    return {
        "dim_intersection": dim_int,
        "dim_sum": rank,
        "transversal": dim_int == 0,
    }


def frame_sections(point: GrassPoint, frames) -> tuple:
    """Arrays (F, scale, log norm) over a (K, 2n, n) stack of frames W:
    F = det [frame_point | W], its Hadamard scale and ln |F| / vol(W), -inf
    at zeros, by slogdet, so that it does not overflow where vol(W) does."""
    M = np.concatenate([np.broadcast_to(point.frame, frames.shape), frames], axis=2)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.prod(np.linalg.norm(M, axis=1), axis=1)
        sign, logdet = np.linalg.slogdet(M)
        _, loggram = np.linalg.slogdet(frames.conj().transpose(0, 2, 1) @ frames)
        return np.linalg.det(M), scale, np.where(sign == 0, -np.inf, logdet - 0.5 * loggram)


def _one_frame(Vy: GrassPoint, W) -> tuple:
    """frame_sections of the one frame W, a GrassPoint or a matrix."""
    Wf = W.frame if isinstance(W, GrassPoint) else _as_matrix(W)
    if Wf.shape != Vy.frame.shape:
        raise ValidationError("frames must have matching shapes")
    return frame_sections(Vy, Wf[None])


def schubert_section(Vy: GrassPoint, W) -> complex:
    """det [frame_Vy | frame_W]; zero iff the subspaces meet nontrivially."""
    return complex(_one_frame(Vy, W)[0][0])


def section_lognorm(Vy: GrassPoint, W) -> float:
    """ln of section_norm; -inf at zeros.  Overflow-safe via slogdet."""
    return float(_one_frame(Vy, W)[2][0])


def section_norm(Vy: GrassPoint, W) -> float:
    """|schubert_section| normalized by the frame volume of W; <= 1."""
    return float(np.exp(section_lognorm(Vy, W)))
