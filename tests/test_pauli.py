"""Pauli tables and word algebra, checked against direct 2x2 matrix
arithmetic built independently inside the tests."""

import numpy as np
import pytest

from latticewitness import pauli

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMAS = [I2, X, Y, Z]


def test_single_qubit_matrices():
    for a in range(4):
        assert np.array_equal(pauli.SIGMA[a], SIGMAS[a])


def test_product_table_against_matrix_products():
    for a in range(4):
        for m in range(4):
            idx, phase = pauli.pauli_product(a, m)
            assert np.allclose(SIGMAS[a] @ SIGMAS[m], phase * SIGMAS[idx])


def test_product_index_is_xor():
    for a in range(4):
        for m in range(4):
            assert pauli.pauli_product(a, m)[0] == a ^ m
            assert pauli.PRODUCT_INDEX[a][m] == a ^ m


def test_commute_sign_matches_matrix_commutators():
    for a in range(4):
        for g in range(4):
            ab = SIGMAS[a] @ SIGMAS[g]
            ba = SIGMAS[g] @ SIGMAS[a]
            expected = 1 if np.allclose(ab, ba) else -1
            assert pauli.commute_sign(a, g) == expected


def test_phases_are_unit_modulus():
    for a in range(4):
        for m in range(4):
            assert abs(abs(pauli.pauli_product(a, m)[1]) - 1) < 1e-15


def test_word_matrix_tensor_structure():
    for a in range(4):
        for b in range(4):
            assert np.array_equal(pauli.word_matrix((a, b)), np.kron(SIGMAS[a], SIGMAS[b]))


def test_word_matrix_rejects_long_words():
    with pytest.raises(pauli.TooLarge):
        pauli.word_matrix((1, 2, 3, 0))


def test_words_commute_against_matrices():
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    ma = pauli.word_matrix((a, b))
                    mb = pauli.word_matrix((c, d))
                    expected = np.allclose(ma @ mb, mb @ ma)
                    assert pauli.words_commute((a, b), (c, d)) == expected


def test_words_commute_length_mismatch():
    with pytest.raises(pauli.LengthMismatch):
        pauli.words_commute((1, 2), (1, 2, 3))


def test_tau_is_involutive_translation():
    for t in [(a, b) for a in range(4) for b in range(4)]:
        for p in [(a, b) for a in range(4) for b in range(4)]:
            q = pauli.tau(t, p)
            assert pauli.tau(t, q) == p
            assert q == (p[0] ^ t[0], p[1] ^ t[1])
            # so tau_t XORs the bit index 4*beta + alpha with that of t
            assert 4 * q[1] + q[0] == (4 * t[1] + t[0]) ^ (4 * p[1] + p[0])


def test_tau_rejects_points_off_the_lattice():
    # (4, 0) used to raise a bare IndexError from the product table
    for bad in ((4, 0), (0, 4), (-1, 0)):
        with pytest.raises(ValueError, match="Pauli index out of range"):
            pauli.tau(bad, (1, 1))
        with pytest.raises(ValueError, match="Pauli index out of range"):
            pauli.tau((1, 1), bad)


def test_check_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        pauli.check_index(4)
    with pytest.raises(ValueError):
        pauli.check_index(-1)
