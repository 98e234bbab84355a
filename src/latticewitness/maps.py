# src/latticewitness/maps.py
"""Linear maps on matrix algebras via their Choi matrices.

Convention: the Choi matrix of a map L acting on M_n is
C = (id x L)[P+] with the *normalized* maximally entangled projector,
so entry C[(i,j),(p,q)] = (1/n) <j| L[|i><p|] |q> and the Choi matrix
of the identity map is P+ itself (trace 1).

Each party holds two qubits, so a sigma-diagonal map L = sum_w lambda_w S_w
(S_w[X] = sigma_w X sigma_w) on M_4 is a plain vector of 16 coefficients,
word (alpha, beta) at the bit 4*beta + alpha of its lattice point; its Choi
matrix sum_w lambda_w P_w (summed by `states._projector_sum`, like every
sigma-diagonal matrix) has exactly the coefficients as eigenvalues.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from operator import index

import numpy as np

from . import linalg, pauli, states


class NonPositiveMu(ValueError):
    pass


class BadParameter(ValueError):
    pass


@dataclass(eq=False)
class ChoiMap:
    choi: np.ndarray
    in_dim: int
    out_dim: int


def _diag_coeffs(coeffs) -> np.ndarray:  # the 16 coefficients of a sigma-diagonal map
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (16,):
        raise BadParameter(f"expected 16 coefficients, got shape {c.shape}")
    return c


def choi_of_diag(coeffs) -> ChoiMap:
    """Choi matrix sum_w lambda_w P_w of the sigma-diagonal map lambda."""
    return ChoiMap(states._projector_sum(_diag_coeffs(coeffs)), 4, 4)


def extend_apply(m: ChoiMap, rho: states.DensityMatrix) -> np.ndarray:
    """(id x L)[rho] for a bipartite rho with the map acting on party 2."""
    d1, d2 = rho.dims
    if m.in_dim != d2:
        raise linalg.DimMismatch(f"map in_dim {m.in_dim} does not match party-2 dim {d2}")
    R = rho.mat.reshape(d1, d2, d1, d2)
    T = m.choi.reshape(d2, m.out_dim, d2, m.out_dim)
    out = d2 * np.einsum("aubv,ujvq->ajbq", R, T)
    return out.reshape(d1 * m.out_dim, d1 * m.out_dim)


def is_completely_positive(m: ChoiMap):
    """(verdict, min Choi eigenvalue); CP iff the Choi matrix is PSD."""
    if not linalg.is_hermitian(m.choi, 1e-10):
        raise linalg.NotHermitian("Choi matrix is not Hermitian")
    low = linalg.min_eig(m.choi)
    return low >= -1e-9, low


_eigh_lo = np.linalg._umath_linalg.eigh_lo  # the LAPACK gufunc behind np.linalg.eigh


def _eigh(M):  # np.linalg.eigh of a complex stack, bit for bit, without the wrapper
    w, V = _eigh_lo(M, signature="D->dD")
    if math.isnan(w.sum()):  # LAPACK did not converge
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w, V


def _seesaw_batch(A, psi, d2, minimize, iters=500):
    # A[(i,p),(j,q)] = C[(i,j),(p,q)]; psi is an (R, d1) stack of start
    # vectors.  A restart stops once its value moves by less than 1e-10
    # (v starts at NaN, so never after step one) and leaves the live set
    # (indices live, vectors p, values v), which is gathered and scattered
    # only on the steps where one stops and at the step cap.
    (R, d1), k = psi.shape, 0 if minimize else -1
    phi, val = np.empty((R, d2), complex), np.empty(R)
    live, p, v = np.arange(R), psi, np.full(R, np.nan)
    for step in range(iters):
        Mphi = ((p.conj()[:, :, None] * p[:, None, :]).reshape(-1, d1 * d1) @ A).reshape(-1, d2, d2)
        f = _eigh(Mphi)[1][..., k]
        Mpsi = ((f.conj()[:, :, None] * f[:, None, :]).reshape(-1, d2 * d2) @ A.T).reshape(-1, d1, d1)
        w, V = _eigh(Mpsi)
        w, p = w[:, k], V[..., k]
        done = np.abs(w - v) < 1e-10
        if done.any() or step == iters - 1:
            psi[live], phi[live], val[live] = p, f, w
            live, p, w = live[~done], p[~done], w[~done]
            if not live.size:
                break
        v = w
    return val, psi, phi


@lru_cache(maxsize=8)  # callers repeat one seed and restart count
def _start_vectors(seed: int, restarts: int, d1: int) -> np.ndarray:
    """Read-only (restarts, d1) stack: row i is the normalised vector of
    complex(g(0.0, 1.0), g(0.0, 1.0)) draws, g the `gauss` of
    random.Random(s*(s+1)//2 + i), s = seed + i: the Cantor pair of (seed, i),
    so row i does not depend on `restarts`, and an integer seed needs neither
    numpy.random nor hashlib.  `_seesaw_batch` writes into it: pass a copy."""
    psi = np.empty((restarts, d1), complex)
    for i in range(restarts):
        s = seed + i
        g = random.Random(s * (s + 1) // 2 + i).gauss
        psi[i] = [complex(g(0.0, 1.0), g(0.0, 1.0)) for _ in range(d1)]
        psi[i] /= np.linalg.norm(psi[i])
    psi.setflags(write=False)
    return psi


def seesaw_extremum(m: ChoiMap, restarts: int = 64, seed: int = 0xC0FFEE, minimize: bool = True):
    """Best product-vector expectation value of the Choi matrix found by
    alternating eigenvector iteration with `restarts` seeded restarts.

    Restart i starts from row i of `_start_vectors(seed, ...)`, drawn with
    the standard library's `random.Random`; all restarts run together as
    one stack, each stopping once its value moves by less than 1e-10 (never
    after the first step).  A restart still moving at the 500-step cap
    enters the merge with its last value, unflagged.  The merge is
    deterministic (extremal value, ties to the lowest restart index).  A
    non-Hermitian Choi matrix raises `linalg.NotHermitian`; `restarts < 1`
    or `seed < 0` raises `BadParameter`, a seed that is not an integer
    `TypeError`; an eigensolve that does not converge raises
    `numpy.linalg.LinAlgError`, never a NaN value.  The half-steps call
    numpy's LAPACK `eigh` gufunc directly (`_eigh`): most stacks hold 1-4
    live 4x4 matrices, where `np.linalg.eigh`'s wrapper costs as much as
    the solve.
    """
    seed = index(seed)  # random.Random would hash a float or a string
    if restarts < 1:
        raise BadParameter("restarts must be at least 1")
    if seed < 0:
        raise BadParameter("seed must be nonnegative")
    if not linalg.is_hermitian(m.choi, 1e-10):
        raise linalg.NotHermitian("Choi matrix is not Hermitian")
    d1, d2 = m.in_dim, m.out_dim
    A = m.choi.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)
    with np.errstate(invalid="ignore"):  # LAPACK's NaN on failure: `_eigh` raises instead
        val, psi, phi = _seesaw_batch(A, _start_vectors(seed, restarts, d1).copy(), d2, minimize)
    best = 0
    for i in range(1, restarts):
        if val[i] < val[best] - 1e-15 if minimize else val[i] > val[best] + 1e-15:
            best = i
    return float(val[best]), psi[best], phi[best]


def product_expectation(m: ChoiMap, psi: np.ndarray, phi: np.ndarray) -> float:
    v = np.kron(psi, phi)
    return float(np.real(np.vdot(v, m.choi @ v)))


def trace_map() -> np.ndarray:
    """X -> Tr(X) 1 on M_4: all coefficients 1/4."""
    return np.full(16, 0.25)


_EPS = (1.0, 1.0, -1.0, 1.0)  # sigma_a^T = eps_a sigma_a


def transposition_map() -> np.ndarray:
    """Transposition on M_4: coefficient eps_alpha eps_beta / 4 at word
    (alpha, beta)."""
    return np.kron(_EPS, _EPS) / 4


def reduction_map(d: int) -> ChoiMap:
    """X -> Tr(X) 1 - X on M_d; Choi matrix (1 - d P+)/d."""
    if d < 2:
        raise BadParameter("d must be at least 2")
    plus = states.max_symmetric_vector(d)
    C = np.eye(d * d, dtype=complex) / d - np.outer(plus, plus.conj())
    return ChoiMap(C, d, d)


def gamma_map(t: float) -> np.ndarray:
    """The one-parameter positive diagonal family on M_4 (t >= 0)."""
    if not t >= 0:  # NaN fails this too
        raise BadParameter("t must be nonnegative")
    e = np.exp(-4.0 * t)
    a = (1 + 3 * e) / 4
    b = (1 - e) / 4
    cpl = (3 + e) / 4
    coeffs = np.zeros(16)
    coeffs[0] = a * cpl  # word (0,0)
    for i in range(1, 4):
        coeffs[4 * i] = _EPS[i] * a * b  # words (0,i)
        coeffs[i] = b * cpl  # words (i,0)
    return coeffs


def phi_v_map(v_col, v_row) -> ChoiMap:
    """The map Tr - T - V^dag . V on M_4 built from an antisymmetric V.

    V = sum_{a != 2} v_col[a] sigma_(a,2) + sum_{b != 2} v_row[b] sigma_(2,b);
    the six coefficients (indexed 0,1,3; entry 2 ignored) must satisfy
    sum |v|^2 = 1 and give V operator norm <= 1 (within 1e-10), else
    `BadParameter`.  Then the map is positive: V^dag phi is orthogonal to
    conj(phi) for antisymmetric V, so |phi><phi| maps to 1 minus two
    orthogonal rank-one terms of norm <= 1 (Breuer 2006; Hall 2006).
    """
    v_col = np.asarray(v_col, dtype=complex)
    v_row = np.asarray(v_row, dtype=complex)
    total = sum(abs(v_col[a]) ** 2 for a in (0, 1, 3)) + sum(abs(v_row[b]) ** 2 for b in (0, 1, 3))
    if not abs(total - 1.0) <= 1e-10:  # NaN fails this too
        raise BadParameter("coefficients must satisfy sum |v|^2 = 1")
    V = np.zeros((4, 4), dtype=complex)
    for a in (0, 1, 3):
        V += v_col[a] * pauli.word_matrix((a, 2))
        V += v_row[a] * pauli.word_matrix((2, a))
    if np.linalg.norm(V, 2) > 1 + 1e-10:
        raise BadParameter("V must have operator norm at most 1")
    tr_t = choi_of_diag(trace_map() - transposition_map()).choi
    w = np.kron(np.eye(4), V.conj().T) @ states.max_symmetric_vector(4)  # X -> V^dag X V has Choi |w><w|
    return ChoiMap(tr_t - np.outer(w, w.conj()), 4, 4)


def stormer_cp_part(coeffs, mu: float):
    """Write the sigma-diagonal map as mu * (trace map - cp part); returns
    (cp part coefficients, all-nonnegative flag).  `mu` must be finite
    and positive, else `NonPositiveMu`."""
    if not 0 < mu < np.inf:  # NaN fails this too
        raise NonPositiveMu(f"mu must be finite and positive, got {mu}")
    cp = 0.25 - _diag_coeffs(coeffs) / mu
    return cp, bool(np.all(cp >= -1e-12))
