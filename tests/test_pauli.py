"""Pauli tables and word algebra, checked against direct 2x2 matrix
arithmetic built independently in tests/reference.py."""

import numpy as np
import pytest
import reference

from latticewitness import pauli, states

SIGMAS = reference.SIGMA  # I, X, Y, Z


def test_single_qubit_matrices():
    for a in range(4):
        assert np.array_equal(pauli.SIGMA[a], SIGMAS[a])


def test_commute_sign_matches_matrix_commutators():
    for a in range(4):
        for g in range(4):
            ab = SIGMAS[a] @ SIGMAS[g]
            ba = SIGMAS[g] @ SIGMAS[a]
            expected = 1 if np.allclose(ab, ba) else -1
            assert pauli.commute_sign(a, g) == expected


def test_word_matrix_tensor_structure():
    for b, w in enumerate(reference.POINTS):  # the reference word at bit b is sigma_alpha x sigma_beta
        assert np.array_equal(pauli.word_matrix(w), reference.word_matrices()[b])


def test_words_commute_against_matrices():
    form = reference.commutation_form()  # from the products of the word matrices
    for a, w in enumerate(reference.POINTS):
        for b, v in enumerate(reference.POINTS):
            assert pauli.words_commute(w, v) == (not form[a][b])


def test_tau_is_involutive_translation():
    for t in [(a, b) for a in range(4) for b in range(4)]:
        for p in [(a, b) for a in range(4) for b in range(4)]:
            q = pauli.tau(t, p)
            assert pauli.tau(t, q) == p
            assert q == (p[0] ^ t[0], p[1] ^ t[1])
            # so tau_t XORs the bit index 4*beta + alpha with that of t
            assert 4 * q[1] + q[0] == (4 * t[1] + t[0]) ^ (4 * p[1] + p[0])


def test_tau_rejects_points_off_the_lattice():
    # (4, 0) used to raise a bare IndexError from the product table, and
    # -1 read as sigma_z: words_commute((-1, 0), (1, 0)) gave False
    for bad in ((4, 0), (0, 4), (-1, 0), (0, -1)):
        for call in (lambda: pauli.tau(bad, (1, 1)), lambda: pauli.tau((1, 1), bad),
                     lambda: pauli.words_commute(bad, (1, 0)), lambda: pauli.words_commute((1, 0), bad),
                     lambda: pauli.word_matrix(bad), lambda: pauli.commute_sign(*bad)):
            with pytest.raises(ValueError, match="Pauli index out of range"):
                call()


def test_check_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        pauli.check_index(4)
    with pytest.raises(ValueError):
        pauli.check_index(-1)


def test_point_checks_take_integer_indices_only():
    # int() used to truncate: (1.5, 0) read as (1, 0), 1.9 as 1 and 1.7 as 1
    i, j = np.int64(1), np.uint8(0)
    assert states.point_bit((i, j)) == 1
    assert pauli.tau((np.int8(1), j), (1, 1)) == (0, 1)
    assert np.array_equal(pauli.word_matrix((i, j)), np.kron(SIGMAS[1], SIGMAS[0]))
    with pytest.raises(TypeError):
        states.point_bit((1.5, 0))
    with pytest.raises(TypeError):
        pauli.tau((1.9, 0), (1, 1))
    with pytest.raises(TypeError):
        pauli.word_matrix((1.7, 0))
