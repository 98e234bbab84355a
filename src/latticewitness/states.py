# src/latticewitness/states.py
"""State constructors and functionals (entropy, Schmidt decomposition);
every sigma-diagonal matrix sum_w c_w P_w is summed by `_projector_sum`.

Conventions fixed here:
  * the maximally entangled vector carries a 1/sqrt(d) prefactor, so the
    associated projector P+ = (1/d) sum_ij |i><j| x |i><j| is idempotent
    with unit trace;
  * a Pauli word (mu_1, ..., mu_n) has flat index sum mu_i * 4^(n-i)
    (big-endian), used for sigma-diagonal weight vectors;
  * a lattice point (alpha, beta) occupies bit 4*beta + alpha of a
    16-bit subset mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import index

import numpy as np

from . import linalg, pauli


class OutOfRange(ValueError):
    pass


class BadWeights(ValueError):
    pass


class EmptySubset(ValueError):
    pass


class NotOrthonormal(ValueError):
    pass


class OddDim(ValueError):
    pass


@dataclass(eq=False)
class DensityMatrix:
    mat: np.ndarray
    dims: tuple  # (d1, d2)


def assert_density(rho: DensityMatrix) -> None:
    """Raise if rho is not Hermitian, unit-trace and PSD within tolerance."""
    if not linalg.is_hermitian(rho.mat, 1e-10):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho.mat).real - 1.0) > 1e-10:
        raise ValueError("density matrix trace differs from 1")
    if linalg.min_eig(rho.mat) < -1e-9:
        raise ValueError("density matrix has a negative eigenvalue")


def max_symmetric_vector(d: int) -> np.ndarray:
    """(1/sqrt(d)) sum_j |jj> on C^d x C^d."""
    if d < 2:
        raise OutOfRange("d must be at least 2")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def words(n: int) -> list:
    """All 4^n Pauli words in flat-index order."""
    return [w for w in product(range(4), repeat=n)]


def word_flat_index(w) -> int:
    idx = 0
    for a in w:
        idx = 4 * idx + pauli.check_index(a)
    return idx


def _basis_vectors(n: int) -> np.ndarray:
    """Rows (1 x sigma_w)|max symmetric> for the 4^n words in flat-index order."""
    d = 2**n
    plus = max_symmetric_vector(d)
    return np.array([linalg.tensor(np.eye(d), pauli.word_matrix(w)) @ plus for w in words(n)])


@lru_cache(maxsize=None)  # one array per n, shared by every caller
def _basis_projectors(n: int) -> np.ndarray:
    """Array of the 4^n rank-1 projectors (1 x sigma_w) P+ (1 x sigma_w)."""
    if n > 2:  # checked before allocating (4^n)^3 entries, 16 GiB at n = 5
        raise pauli.TooLarge("basis projectors are materialized for n <= 2 only")
    B = _basis_vectors(n)
    return B[:, :, None] * B.conj()[:, None, :]


def _projector_sum(coeffs, n: int) -> np.ndarray:
    """sum_w coeffs[w] P_w, summed without BLAS: tensordot wakes OpenBLAS
    helper threads that keep spinning after the call, which doubled the
    process CPU of the see-saw and of certificate checks."""
    return (coeffs[:, None, None] * _basis_projectors(n)).sum(axis=0)


def basis_projector(w) -> DensityMatrix:
    """Projector onto (1 x sigma_w)|max symmetric>; the basis element P_w."""
    n = len(w)
    d = 2**n
    return DensityMatrix(_basis_projectors(n)[word_flat_index(w)].copy(), (d, d))


def sigma_diagonal_state(n: int, weights) -> DensityMatrix:
    """State sum_w r_w P_w with nonnegative weights summing to 1."""
    r = np.asarray(weights, dtype=float)
    if r.shape != (4**n,):
        raise BadWeights(f"expected {4**n} weights, got shape {r.shape}")
    if not (np.all(r >= -1e-12) and abs(r.sum() - 1.0) <= 1e-12):  # NaN and inf fail too
        raise BadWeights("weights must be finite, nonnegative and sum to 1")
    return DensityMatrix(_projector_sum(r, n), (2**n, 2**n))


def mask_points(mask: int) -> list:
    """Lattice points of a 16-bit subset mask (bit 4*beta + alpha)."""
    return [(b % 4, b // 4) for b in range(16) if mask >> b & 1]


def points_mask(points) -> int:
    mask = 0
    for alpha, beta in points:
        mask |= 1 << (4 * pauli.check_index(beta) + pauli.check_index(alpha))
    return mask


def check_mask(mask: int) -> int:
    """Return `mask`, as a Python int, if it is a nonempty 16-bit lattice
    subset; raise TypeError for a mask that is not an integer (Python or
    numpy; 3.0 too), EmptySubset for 0 and OutOfRange outside 0x0001..0xffff."""
    if not 0 < (mask := index(mask)) <= 0xFFFF:
        if mask == 0:
            raise EmptySubset("empty lattice subset")
        raise OutOfRange(f"subset mask {mask:#x} outside 0x0001..0xffff")
    return mask


def lattice_indicator(mask: int) -> np.ndarray:
    """0/1 vector over the 16 two-qubit words in flat-index order: entry
    4*alpha + beta is 1 iff point (alpha, beta) lies in the mask."""
    return np.array([mask >> (4 * (w % 4) + w // 4) & 1 for w in range(16)], dtype=float)


def lattice_state(mask: int) -> DensityMatrix:
    """Uniform sigma-diagonal state on the lattice subset of a 16-bit mask."""
    ind = lattice_indicator(check_mask(mask))
    return DensityMatrix(_projector_sum(ind, 2) / ind.sum(), (4, 4))


_BELL = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


def bell_state(kind: str) -> np.ndarray:
    try:
        return _BELL[kind].copy()
    except KeyError:
        raise OutOfRange(f"unknown Bell state {kind!r}; use one of {sorted(_BELL)}")


def werner_state(alpha: float) -> DensityMatrix:
    """alpha |psi-><psi-| + (1-alpha)/4 identity, -1/3 <= alpha <= 1."""
    if not -1 / 3 - 1e-12 <= alpha <= 1 + 1e-12:
        raise OutOfRange("werner parameter must lie in [-1/3, 1]")
    psi = bell_state("psi-")
    mat = alpha * np.outer(psi, psi.conj()) + (1 - alpha) / 4 * np.eye(4)
    return DensityMatrix(mat, (2, 2))


def _ket(d: int, j: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[j] = 1.0
    return v


def tiles_upb() -> list:
    """The five Tiles product vectors in C^3 x C^3 (each normalized)."""
    k = lambda j: _ket(3, j)
    raw = [
        np.kron(k(0), k(0) - k(1)),
        np.kron(k(2), k(1) - k(2)),
        np.kron(k(0) - k(1), k(2)),
        np.kron(k(1) - k(2), k(0)),
        np.kron(k(0) + k(1) + k(2), k(0) + k(1) + k(2)),
    ]
    return [v / np.linalg.norm(v) for v in raw]


def upb_complement_state(vectors, dims) -> DensityMatrix:
    """Uniform state on the orthogonal complement of the given vectors."""
    d = dims[0] * dims[1]
    n = len(vectors)
    gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
    if np.max(np.abs(gram - np.eye(n))) > 1e-10:
        raise NotOrthonormal("input vectors are not orthonormal")
    mat = np.eye(d, dtype=complex)
    for v in vectors:
        mat -= np.outer(v, v.conj())
    return DensityMatrix(mat / (d - n), dims)


def even_d_upb(d: int) -> list:
    """Product vectors |psi_mn>, |phi_mn> for even d >= 4 (normalized).

    omega = exp(i 4 pi / d); m runs over 1..d/2-1 and n over 0..d-1, so
    the list has 2 (d/2 - 1) d vectors.
    """
    if d < 4 or d % 2:
        raise OddDim("d must be even and at least 4")
    omega = np.exp(4j * np.pi / d)

    def stripe(n, m, shift):  # sum_j omega^(jm) |j + n + shift>, normalized
        v = np.zeros(d, dtype=complex)
        for j in range(d // 2):
            v[(j + n + shift) % d] += omega ** (j * m)
        return v / np.linalg.norm(v)

    pairs = [(m, n) for m in range(1, d // 2) for n in range(d)]
    return ([np.kron(_ket(d, n), stripe(n, m, 1)) for m, n in pairs]
            + [np.kron(stripe(n, m, 0), _ket(d, n)) for m, n in pairs])


def horodecki_3x3(a: float) -> DensityMatrix:
    """The 3x3 PPT entangled family, parameter 0 < a < 1."""
    if not 0 < a < 1:
        raise OutOfRange("parameter a must lie strictly between 0 and 1")
    up = (1 + a) / 2
    x = np.sqrt(1 - a * a) / 2
    M = a * np.eye(9)
    for i, j in ((0, 4), (0, 8), (4, 8)):
        M[i, j] = M[j, i] = a
    M[6, 6] = M[8, 8] = up
    M[6, 8] = M[8, 6] = x
    return DensityMatrix(M.astype(complex) / (8 * a + 1), (3, 3))


def horodecki_2x4(b: float) -> DensityMatrix:
    """The 2x4 PPT entangled family, parameter 0 <= b <= 1."""
    if not 0 <= b <= 1:
        raise OutOfRange("parameter b must lie in [0, 1]")
    up = (1 + b) / 2
    x = np.sqrt(1 - b * b) / 2
    M = b * np.eye(8)
    for i, j in ((0, 5), (1, 6), (2, 7)):
        M[i, j] = M[j, i] = b
    M[4, 4] = M[7, 7] = up
    M[4, 7] = M[7, 4] = x
    return DensityMatrix(M.astype(complex) / (7 * b + 1), (2, 4))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda ln lambda (natural log)."""
    w, _ = linalg.hermitian_eig(rho.mat)
    w = np.clip(w.real, 0.0, None)
    nz = w[w > 1e-15]
    return float(-np.sum(nz * np.log(nz)))


def schmidt(v: np.ndarray, dims):
    """Schmidt decomposition of a bipartite unit vector.

    Returns (coefficients descending, left columns, right columns); the
    vector columns are kept only for coefficients above 1e-12, and
    v = sum_i c_i (left_i x right_i) within numerical precision.
    """
    d1, d2 = dims
    v = np.asarray(v, dtype=complex)
    if v.shape != (d1 * d2,):
        raise linalg.DimMismatch(f"vector length {v.shape} does not match dims {dims}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise OutOfRange("schmidt expects a unit vector")
    X = v.reshape(d1, d2)
    w, U = linalg.hermitian_eig(X @ X.conj().T)
    coeffs = np.sqrt(np.clip(w.real, 0.0, None))[: min(d1, d2)]
    left = []
    right = []
    for i, c in enumerate(coeffs):
        if c > 1e-12:
            li = U[:, i]
            left.append(li)
            right.append(X.T @ li.conj() / c)  # v = sum c_i (l_i x r_i)
    left = np.array(left).T if left else np.zeros((d1, 0), dtype=complex)
    right = np.array(right).T if right else np.zeros((d2, 0), dtype=complex)
    return coeffs, left, right
