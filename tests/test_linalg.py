"""Linear-algebra kernel, checked against numpy.linalg as the oracle."""

import numpy as np
import pytest

from latticewitness import linalg


def random_hermitian(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (M + M.conj().T) / 2


def random_unitary(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(M)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_hermitian_eig_matches_oracle_on_1000_matrices():
    rng = np.random.default_rng(7)
    for i in range(1000):
        n = [4, 8, 16][i % 3]
        M = random_hermitian(rng, n)
        vals, vecs = linalg.hermitian_eig(M)
        oracle = np.linalg.eigvalsh(M)[::-1]
        assert np.allclose(vals, oracle, atol=1e-9)
        # eigenvector residuals and orthonormality
        assert np.max(np.abs(M @ vecs - vecs * vals)) < 1e-8
        assert np.allclose(vecs.conj().T @ vecs, np.eye(n), atol=1e-9)


def test_hermitian_eig_descending_order():
    rng = np.random.default_rng(1)
    vals, _ = linalg.hermitian_eig(random_hermitian(rng, 10))
    assert np.all(np.diff(vals) <= 1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(linalg.NotHermitian):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    t = linalg.trace_norm(M)
    for _ in range(5):
        U = random_unitary(rng, 8)
        V = random_unitary(rng, 8)
        assert abs(linalg.trace_norm(U @ M @ V) - t) < 1e-8


def test_partial_trace_complementary_traces():
    rng = np.random.default_rng(4)
    M = random_hermitian(rng, 12)
    r1 = linalg.partial_trace(M, (3, 4), which=2)
    r2 = linalg.partial_trace(M, (3, 4), which=1)
    assert abs(np.trace(r1) - np.trace(M)) < 1e-12
    assert abs(np.trace(r2) - np.trace(M)) < 1e-12
    assert r1.shape == (3, 3) and r2.shape == (4, 4)


def test_partial_trace_of_tensor_product():
    rng = np.random.default_rng(5)
    A = random_hermitian(rng, 3)
    B = random_hermitian(rng, 4)
    M = np.kron(A, B)
    assert np.allclose(linalg.partial_trace(M, (3, 4), which=2), A * np.trace(B))
    assert np.allclose(linalg.partial_trace(M, (3, 4), which=1), B * np.trace(A))


def test_partial_transpose_commutes_with_reduction():
    # tracing out the untransposed party transposes the reduction
    rng = np.random.default_rng(6)
    M = random_hermitian(rng, 16)
    pt = linalg.partial_transpose(M, (4, 4))
    assert np.allclose(linalg.partial_trace(pt, (4, 4), which=1),
                       linalg.partial_trace(M, (4, 4), which=1).T)
    assert np.allclose(linalg.partial_trace(pt, (4, 4), which=2),
                       linalg.partial_trace(M, (4, 4), which=2))


def test_partial_transpose_is_involution_and_preserves_trace():
    rng = np.random.default_rng(7)
    M = random_hermitian(rng, 12)
    pt = linalg.partial_transpose(M, (3, 4))
    assert np.allclose(linalg.partial_transpose(pt, (3, 4)), M)
    assert abs(np.trace(pt) - np.trace(M)) < 1e-12
    # the transpose on party 1 is the full transpose of this one, so it
    # has the same spectrum and needs no function of its own
    pt1 = M.reshape(3, 4, 3, 4).transpose(2, 1, 0, 3).reshape(12, 12)
    assert np.array_equal(pt.T, pt1)
    assert np.allclose(np.linalg.eigvalsh(pt1), np.linalg.eigvalsh(pt))


def test_reshuffle_is_involution():
    rng = np.random.default_rng(8)
    M = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    assert np.allclose(linalg.reshuffle(linalg.reshuffle(M, (4, 4)), (4, 4)), M)


def test_reshuffle_of_tensor_product_has_rank_one_trace_norm():
    # ||(A x B)^R||_1 = ||A||_2 ||B||_2
    rng = np.random.default_rng(9)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    got = linalg.trace_norm(linalg.reshuffle(np.kron(A, B), (3, 3)))
    assert abs(got - np.linalg.norm(A) * np.linalg.norm(B)) < 1e-6 * got


def test_reshuffle_requires_square_parties():
    with pytest.raises(linalg.DimMismatch):
        linalg.reshuffle(np.eye(6), (2, 3))
