# src/latticewitness/states.py
"""State constructors and named reference states; every sigma-diagonal
matrix sum_w c_w P_w is summed by `_projector_sum`.

Conventions fixed here:
  * the maximally entangled vector carries a 1/sqrt(d) prefactor, so the
    associated projector P+ = (1/d) sum_ij |i><j| x |i><j| is idempotent
    with unit trace;
  * each party holds two qubits: a Pauli word is a lattice point
    (alpha, beta), and point (alpha, beta) is bit 4*beta + alpha, both of
    a 16-bit subset mask and of the 16 coefficients of a sigma-diagonal
    matrix (`ALL_POINTS` order).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index

import numpy as np

from . import linalg, pauli


class OutOfRange(ValueError):
    pass


class BadWeights(ValueError):
    pass


class EmptySubset(ValueError):
    pass


class PointNotInSubset(ValueError):
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


ALL_POINTS = [(b & 3, b >> 2) for b in range(16)]  # the point at each bit


def point_bit(p) -> int:  # a point off the lattice raises ValueError
    a, b = pauli.check_point(p)
    return 4 * b + a


@lru_cache(maxsize=None)  # built on first use, then shared by every caller
def _basis_projectors() -> np.ndarray:
    """Array of the 16 rank-1 projectors (1 x sigma_w) P+ (1 x sigma_w),
    in bit order."""
    plus = max_symmetric_vector(4)
    B = np.array([np.kron(np.eye(4), pauli.word_matrix(w)) @ plus for w in ALL_POINTS])
    return B[:, :, None] * B.conj()[:, None, :]


def _projector_sum(coeffs) -> np.ndarray:
    """sum_w coeffs[w] P_w, summed without BLAS: tensordot wakes OpenBLAS
    helper threads that keep spinning after the call, which doubled the
    process CPU of the see-saw and of certificate checks."""
    return (coeffs[:, None, None] * _basis_projectors()).sum(axis=0)


def sigma_diagonal_state(weights) -> DensityMatrix:
    """State sum_w r_w P_w with 16 nonnegative weights summing to 1."""
    r = np.asarray(weights, dtype=float)
    if r.shape != (16,):
        raise BadWeights(f"expected 16 weights, got shape {r.shape}")
    if not (np.all(r >= -1e-12) and abs(r.sum() - 1.0) <= 1e-12):  # NaN and inf fail too
        raise BadWeights("weights must be finite, nonnegative and sum to 1")
    return DensityMatrix(_projector_sum(r), (4, 4))


def mask_points(mask: int) -> list:
    """Lattice points of a 16-bit subset mask, in bit order."""
    return [ALL_POINTS[b] for b in range(16) if mask >> b & 1]


def points_mask(points) -> int:
    mask = 0
    for p in points:
        mask |= 1 << point_bit(p)
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


def point_in(mask: int, p) -> int:
    """Bit of the point p of the subset `mask`, checked by `check_mask`; a
    coordinate that is not an integer raises TypeError, and a point off the
    lattice or outside the subset PointNotInSubset."""
    mask = check_mask(mask)
    try:
        b = point_bit(p)
    except ValueError:  # (5, 0), (-1, 0) or three coordinates
        raise PointNotInSubset(f"{p} is not a lattice point") from None
    if not mask >> b & 1:
        raise PointNotInSubset(f"{p} not in subset {mask:#06x}")
    return b


def lattice_indicator(mask: int) -> np.ndarray:
    """0/1 vector over the 16 words: entry b is bit b of the mask."""
    return np.array([mask >> b & 1 for b in range(16)], dtype=float)


def lattice_state(mask: int) -> DensityMatrix:
    """Uniform sigma-diagonal state on the lattice subset of a 16-bit mask."""
    ind = lattice_indicator(check_mask(mask))
    return DensityMatrix(_projector_sum(ind) / ind.sum(), (4, 4))


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


def _horodecki(p: float, dims, pairs, i: int, j: int) -> DensityMatrix:
    """p on the diagonal and at each symmetric index pair, the block
    [[(1+p)/2, x], [x, (1+p)/2]], x = sqrt(1-p^2)/2, at rows and columns
    i, j, all divided by 1 + p(n-1) for n = d1 d2."""
    n = dims[0] * dims[1]
    M = p * np.eye(n)
    for r, c in pairs:
        M[r, c] = M[c, r] = p
    M[i, i] = M[j, j] = (1 + p) / 2
    M[i, j] = M[j, i] = np.sqrt(1 - p * p) / 2
    return DensityMatrix(M.astype(complex) / (1 + p * (n - 1)), dims)


def horodecki_3x3(a: float) -> DensityMatrix:
    """The 3x3 PPT entangled family, parameter 0 < a < 1."""
    if not 0 < a < 1:
        raise OutOfRange("parameter a must lie strictly between 0 and 1")
    return _horodecki(a, (3, 3), ((0, 4), (0, 8), (4, 8)), 6, 8)


def horodecki_2x4(b: float) -> DensityMatrix:
    """The 2x4 PPT entangled family, parameter 0 <= b <= 1."""
    if not 0 <= b <= 1:
        raise OutOfRange("parameter b must lie in [0, 1]")
    return _horodecki(b, (2, 4), ((0, 5), (1, 6), (2, 7)), 4, 7)
