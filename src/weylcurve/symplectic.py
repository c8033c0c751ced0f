"""Finite-dimensional boundary space C^n (+) C^n with signature (n, n).

The space carries the indefinite sesquilinear form

    [x, y] = i <x_+, y_+> - i <x_-, y_->,

whose Gram matrix in the standard basis is diag(i*I_n, -i*I_n).  Module
contents: classification of subspaces by the sign of the compressed form,
the contraction chart (maximal positive subspaces as graphs of strict
contractions), the unitary chart for Lagrangians, the pseudounitary group
action by matrix Moebius transformations, the Cayley transform, and the
Schubert determinant pairing used for eigenvalue localization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ChartError, ValidationError

RANK_TOL = 1e-10
CLASS_TOL = 1e-9
PU_TOL = 1e-8
# LAPACK's threshold for recomputing a downdated column norm: sqrt(eps)
_TOL3Z = np.sqrt(np.finfo(float).eps / 2)


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


def _column_norms(a: np.ndarray) -> np.ndarray:
    """2-norms of the columns, the squares summed in order in extended
    precision as OpenBLAS's x86-64 norm kernel does, so that columns of
    near-equal norm are ordered as LAPACK orders them."""
    sq = np.stack([a.real, a.imag], axis=1).reshape(-1, a.shape[1]).astype(np.longdouble) ** 2
    return np.sqrt(np.cumsum(sq, axis=0)[-1]).astype(float)


def _pivot_order(a: np.ndarray) -> list:
    """Column order of LAPACK's pivoted QR (geqp3) of a.

    Each step takes the column of largest remaining norm, first on ties,
    and swaps it with the column in its place; the other norms are then
    downdated by the new row of R, or recomputed from R where the downdate
    would cancel.
    """
    m, k = a.shape
    perm = list(range(k))
    vn1 = _column_norms(a)
    vn2 = vn1.copy()
    for i in range(min(m, k - 1)):
        p = i + int(np.argmax(vn1[i:]))
        perm[i], perm[p] = perm[p], perm[i]
        vn1[p], vn2[p] = vn1[i], vn2[i]
        r = np.linalg.qr(a[:, perm], mode="r")
        for j in range(i + 1, k):
            if vn1[j] == 0:
                continue
            temp = max(1.0 - (abs(r[i, j]) / vn1[j]) ** 2, 0.0)
            if temp * (vn1[j] / vn2[j]) ** 2 <= _TOL3Z:
                vn1[j] = vn2[j] = np.linalg.norm(r[i + 1:, j])
            else:
                vn1[j] *= np.sqrt(temp)
    return perm


def canonicalize(frame: np.ndarray) -> np.ndarray:
    """Orthonormalize a frame deterministically.

    QR with LAPACK's column pivoting followed by a phase normalization
    making the leading (largest-modulus, ties to lowest index) entry of each
    column real positive.  The column span is unchanged.
    """
    frame = _as_matrix(frame)
    q, r = np.linalg.qr(frame[:, _pivot_order(frame)])
    sv = np.abs(np.diag(r))
    if sv.size and sv.min() <= RANK_TOL * max(sv.max(), 1e-300):
        raise ValidationError("rank-deficient frame cannot be canonicalized")
    for j in range(q.shape[1]):
        col = q[:, j]
        lead = np.argmax(np.abs(col) > (1.0 - 1e-7) * np.abs(col).max())
        ph = col[lead]
        if abs(ph) > 0:
            q[:, j] = col * (abs(ph) / ph)
    return q


@dataclass(frozen=True)
class GrassPoint:
    """A k-dimensional subspace of the 2n boundary space, held as a frame."""

    frame: np.ndarray
    canonical: bool = False

    @classmethod
    def from_frame(cls, frame) -> "GrassPoint":
        return cls(frame=canonicalize(_as_matrix(frame)), canonical=True)

    @property
    def k(self) -> int:
        return self.frame.shape[1]

    @property
    def two_n(self) -> int:
        return self.frame.shape[0]

    def canonicalized(self) -> "GrassPoint":
        if self.canonical:
            return self
        return GrassPoint.from_frame(self.frame)


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
    if not P.canonical:
        raise ValidationError("classify_subspace requires a canonical frame")
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
    sv = np.linalg.svd(top, compute_uv=False)
    if sv.min() <= RANK_TOL * max(sv.max(), 1e-300):
        raise ChartError("subspace is outside the contraction chart (top block singular)")
    return bottom @ np.linalg.inv(top)


def graph_of(B) -> GrassPoint:
    """Subspace {x + Bx} as a canonical GrassPoint, frame stack (I; B)."""
    B = _as_matrix(B)
    if B.shape[0] != B.shape[1]:
        raise ValidationError("graph_of needs a square matrix")
    n = B.shape[0]
    return GrassPoint.from_frame(np.vstack([np.eye(n), B]))


def mobius_pu(g, B) -> np.ndarray:
    """Pseudounitary Moebius action B -> (g21 + g22 B)(g11 + g12 B)^{-1}."""
    if not isinstance(g, PseudoUnitary):
        g = PseudoUnitary(g)
    B = _as_matrix(B)
    g11, g12, g21, g22 = g.blocks()
    den = g11 + g12 @ B
    sv = np.linalg.svd(den, compute_uv=False)
    if sv.min() <= RANK_TOL * max(sv.max(), 1e-300):
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
    sv = np.linalg.svd(pencil, compute_uv=False)
    if sv.min() <= RANK_TOL * max(sv.max(), 1e-300):
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


def schubert_section(Vy: GrassPoint, W) -> complex:
    """det [frame_Vy | frame_W]; zero iff the subspaces meet nontrivially."""
    if not Vy.canonical:
        raise ValidationError("schubert_section requires a canonical reference frame")
    Wf = W.frame if isinstance(W, GrassPoint) else _as_matrix(W)
    if Wf.shape != Vy.frame.shape:
        raise ValidationError("frames must have matching shapes")
    return complex(np.linalg.det(np.hstack([Vy.frame, Wf])))


def section_lognorm(Vy: GrassPoint, W) -> float:
    """ln of section_norm; -inf at zeros.  Overflow-safe via slogdet."""
    if not Vy.canonical:
        raise ValidationError("section_lognorm requires a canonical reference frame")
    Wf = W.frame if isinstance(W, GrassPoint) else _as_matrix(W)
    sign, logdet = np.linalg.slogdet(np.hstack([Vy.frame, Wf]))
    if sign == 0:
        return -np.inf
    _, loggram = np.linalg.slogdet(Wf.conj().T @ Wf)
    return float(logdet - 0.5 * loggram)


def section_norm(Vy: GrassPoint, W) -> float:
    """|schubert_section| normalized by the frame volume of W; <= 1."""
    ln = section_lognorm(Vy, W)
    return 0.0 if ln == -np.inf else float(np.exp(ln))
