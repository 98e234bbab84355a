# src/latticewitness/pauli.py
"""Exact algebra of Pauli indices and tensor words.

Indices 0..3 label (identity, x, y, z).  A word is a tuple of indices,
one per qubit; for two qubits a word doubles as a point (alpha, beta)
of the 4x4 lattice, alpha indexing the column and beta the row.
Only the matrices `SIGMA` are written out; the tables follow from them:
sigma_a sigma_m is a phase times sigma_{a ^ m}, and two Paulis commute
iff one is the identity or they are equal.
"""

from __future__ import annotations

import numpy as np

PauliWord = tuple
LatticePoint = tuple  # (alpha, beta)


class LengthMismatch(ValueError):
    pass


SIGMA = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# sigma_a sigma_m = PRODUCT_PHASE[a][m] * sigma_{PRODUCT_INDEX[a][m]}; the
# phase is tr(sigma_a sigma_m sigma_{a^m}) / 2, as sigma_{a^m} squares to 1
PRODUCT_INDEX = tuple(tuple(a ^ m for m in range(4)) for a in range(4))
PRODUCT_PHASE = tuple(tuple(complex(np.trace(SIGMA[a] @ SIGMA[m] @ SIGMA[a ^ m])) / 2 for m in range(4))
                      for a in range(4))

# +1 when sigma_a and sigma_g commute, -1 when they anticommute
COMMUTE_SIGN = tuple(tuple(1 if a * g == 0 or a == g else -1 for g in range(4)) for a in range(4))


def check_index(a) -> int:
    a = int(a)
    if not 0 <= a <= 3:
        raise ValueError(f"Pauli index out of range: {a}")
    return a


def check_point(p) -> LatticePoint:  # (alpha, beta), both checked by check_index
    a, b = p
    return check_index(a), check_index(b)


def pauli_product(a: int, m: int) -> tuple[int, complex]:
    """Index and phase of sigma_a sigma_m."""
    return PRODUCT_INDEX[a][m], PRODUCT_PHASE[a][m]


def commute_sign(a: int, g: int) -> int:
    return COMMUTE_SIGN[a][g]


def words_commute(p: PauliWord, q: PauliWord) -> bool:
    """True iff the tensor words commute (product of per-site signs is +1)."""
    if len(p) != len(q):
        raise LengthMismatch(f"word lengths differ: {len(p)} vs {len(q)}")
    sign = 1
    for a, g in zip(p, q):
        sign *= COMMUTE_SIGN[a][g]
    return sign == 1


class TooLarge(ValueError):
    pass


def word_matrix(p: PauliWord) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the tensor word sigma_{p_1} x ... x sigma_{p_n}."""
    if len(p) > 3:
        raise TooLarge("word matrices are only materialized for n <= 3")
    out = SIGMA[check_index(p[0])]
    for a in p[1:]:
        out = np.kron(out, SIGMA[check_index(a)])
    return out


def tau(t: LatticePoint, p: LatticePoint) -> LatticePoint:
    """Lattice translation: componentwise Pauli-product index map.

    Involutive bijection of the lattice for every t.
    """
    (a, b), (c, d) = check_point(t), check_point(p)
    return (PRODUCT_INDEX[a][c], PRODUCT_INDEX[b][d])

