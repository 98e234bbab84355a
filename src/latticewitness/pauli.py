# src/latticewitness/pauli.py
"""Exact algebra of Pauli indices and two-qubit Pauli words.

Indices 0..3 label (identity, x, y, z).  Each party holds two qubits, so
a word is a pair of indices and is the same thing as a point
(alpha, beta) of the 4x4 lattice, alpha indexing the column and beta
the row; its matrix is sigma_alpha x sigma_beta.
Only the matrices `SIGMA` are written out; the rest follows from them:
sigma_a sigma_m is a phase times sigma_{a ^ m}, and two Paulis commute
iff one is the identity or they are equal.
"""

from __future__ import annotations

from operator import index

import numpy as np

LatticePoint = tuple  # (alpha, beta), also the word sigma_alpha x sigma_beta

SIGMA = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def check_index(a) -> int:  # an index that is not an integer (1.5, 1.0) raises TypeError
    a = index(a)
    if not 0 <= a <= 3:
        raise ValueError(f"Pauli index out of range: {a}")
    return a


def check_point(p) -> LatticePoint:  # (alpha, beta), both checked by check_index
    a, b = p
    return check_index(a), check_index(b)


def commute_sign(a: int, g: int) -> int:
    """+1 when sigma_a and sigma_g commute, -1 when they anticommute."""
    a, g = check_index(a), check_index(g)
    return 1 if a * g == 0 or a == g else -1


def words_commute(p: LatticePoint, q: LatticePoint) -> bool:
    """True iff the words commute: their qubits anticommute twice or never."""
    (a, b), (c, d) = check_point(p), check_point(q)
    return commute_sign(a, c) == commute_sign(b, d)


def word_matrix(p: LatticePoint) -> np.ndarray:
    """The 4x4 matrix sigma_alpha x sigma_beta of the word (alpha, beta)."""
    a, b = check_point(p)
    return np.kron(SIGMA[a], SIGMA[b])


def tau(t: LatticePoint, p: LatticePoint) -> LatticePoint:
    """Lattice translation: componentwise Pauli-product index map.

    Involutive bijection of the lattice for every t.
    """
    (a, b), (c, d) = check_point(t), check_point(p)
    return (a ^ c, b ^ d)
