# src/latticewitness/linalg.py
"""Dense complex linear algebra for small matrices (dim <= ~100).

Matrices are plain numpy complex arrays.  The Hermitian eigensolver is
a self-contained cyclic Jacobi iteration, vectorized over disjoint
rotation pairs; the trace norm is numpy.linalg's nuclear norm.
Bipartite index convention is fixed once: composite index
i = i1*d2 + i2.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class DimMismatch(ValueError):
    pass


class NotHermitian(ValueError):
    pass


class NoConvergence(RuntimeError):
    pass


def _square(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {M.shape}")
    return M


def is_hermitian(M: np.ndarray, tol: float = 1e-10) -> bool:
    M = _square(M)
    return float(np.max(np.abs(M - M.conj().T))) <= tol


@lru_cache(maxsize=None)  # one schedule per matrix dimension
def _round_robin_pairs(n: int):
    """Pairings of 0..n-1 so each sweep visits every pair exactly once,
    as read-only index arrays shared by every call.

    Circle method: one slot fixed, the rest rotate; within a round the
    pairs are disjoint, so their rotations commute and can be applied in
    one vectorized pass.
    """
    m = n + (n % 2)
    circle = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = []
        for i in range(m // 2):
            a, b = circle[i], circle[m - 1 - i]
            if a < n and b < n:
                pairs.append((min(a, b), max(a, b)))
        ps, qs = np.array([p for p, _ in pairs]), np.array([q for _, q in pairs])
        ps.setflags(write=False)
        qs.setflags(write=False)
        rounds.append((ps, qs))
        circle = [circle[0]] + [circle[-1]] + circle[1:-1]
    return tuple(rounds)


def _jacobi_rounds(A, V, skip, target):
    """Cyclic Jacobi sweeps to convergence, one round-robin round of
    disjoint pairs at a time.

    Rotates A in place (A becomes diagonal), accumulates the unitary in
    V.  Returns the sweep count, or -1 if 100 sweeps did not converge.
    """
    n = A.shape[0]
    rounds = _round_robin_pairs(n)
    for sweep in range(100):
        off = np.linalg.norm(A - np.diag(np.diag(A)))
        if off < target:
            return sweep
        for ps, qs in rounds:
            apq = A[ps, qs]
            aa = np.abs(apq)
            act = aa > skip
            if not np.any(act):
                continue
            aa = np.where(act, aa, 1.0)
            phase = np.where(act, apq / aa, 1.0)
            theta = (A[qs, qs].real - A[ps, ps].real) / (2 * aa)
            t = np.where(theta >= 0, 1.0, -1.0) / (np.abs(theta) + np.sqrt(1 + theta * theta))
            c = np.where(act, 1.0 / np.sqrt(1 + t * t), 1.0)
            s = np.where(act, t * c, 0.0)
            jqp = -s * np.conj(phase)
            jqq = c * np.conj(phase)
            col_p = A[:, ps]
            col_q = A[:, qs]
            A[:, ps] = col_p * c + col_q * jqp
            A[:, qs] = col_p * s + col_q * jqq
            row_p = A[ps, :]
            row_q = A[qs, :]
            A[ps, :] = row_p * c[:, None] + row_q * np.conj(jqp)[:, None]
            A[qs, :] = row_p * s[:, None] + row_q * np.conj(jqq)[:, None]
            vp = V[:, ps]
            vq = V[:, qs]
            V[:, ps] = vp * c + vq * jqp
            V[:, qs] = vp * s + vq * jqq
            A[ps, qs] = 0.0
            A[qs, ps] = 0.0
    return -1


def hermitian_eig(M: np.ndarray, tol: float = 1e-10):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (eigenvalues descending, eigenvector columns).  Sweeps stop
    when the off-diagonal Frobenius norm drops below 1e-12 * ||M||_F,
    with a cap of 100 sweeps.
    """
    M = _square(M)
    if not is_hermitian(M, tol):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    n = M.shape[0]
    A = np.ascontiguousarray((M + M.conj().T) / 2)
    V = np.eye(n, dtype=complex)
    fnorm = float(np.linalg.norm(A))
    if fnorm == 0.0 or n == 1:
        return np.real(np.diag(A)).copy(), V
    # pivots below this size cannot push the off-diagonal norm above target
    skip = 1e-13 * fnorm / n
    target = 1e-12 * fnorm
    if _jacobi_rounds(A, V, skip, target) < 0:
        raise NoConvergence("Jacobi sweep cap (100) exceeded")
    w = np.real(np.diag(A))
    order = np.argsort(-w)
    return w[order].copy(), V[:, order].copy()


def trace_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, "nuc"))


def _bipartite(M: np.ndarray, dims) -> np.ndarray:
    M = _square(M)
    d1, d2 = dims
    if d1 * d2 != M.shape[0]:
        raise DimMismatch(f"dims {dims} do not match matrix dim {M.shape[0]}")
    return M.reshape(d1, d2, d1, d2)


def partial_trace(M: np.ndarray, dims, which: int) -> np.ndarray:
    """Trace out subsystem `which` (1 or 2)."""
    T = _bipartite(M, dims)
    if which == 1:
        return np.einsum("ijil->jl", T)
    if which == 2:
        return np.einsum("ijkj->ik", T)
    raise ValueError("which must be 1 or 2")


def partial_transpose(M: np.ndarray, dims) -> np.ndarray:
    """Transpose subsystem 2.  The transpose on subsystem 1 is the full
    transpose of this one, so it has the same spectrum."""
    d1, d2 = dims
    return _bipartite(M, dims).transpose(0, 3, 2, 1).reshape(d1 * d2, d1 * d2)


def reshuffle(M: np.ndarray, dims) -> np.ndarray:
    """Reshuffled matrix: entry (m mu, n nu) of the result is M_(nu mu, n m).

    Implemented for d1 = d2 (square result); an involution under this
    convention.
    """
    d1, d2 = dims
    if d1 != d2:
        raise DimMismatch("reshuffle is implemented for equal party dimensions")
    T = _bipartite(M, dims)
    return T.transpose(3, 1, 2, 0).reshape(d1 * d2, d1 * d2)


def min_eig(M: np.ndarray) -> float:
    w, _ = hermitian_eig(M, 1e-8)
    return float(w[-1])
