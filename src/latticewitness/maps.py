# src/latticewitness/maps.py
"""Linear maps on matrix algebras via their Choi matrices.

Convention: the Choi matrix of a map L acting on M_n is
C = (id x L)[P+] with the *normalized* maximally entangled projector,
so entry C[(i,j),(p,q)] = (1/n) <j| L[|i><p|] |q> and the Choi matrix
of the identity map is P+ itself (trace 1).

Sigma-diagonal maps L = sum_w lambda_w S_w (S_w[X] = sigma_w X sigma_w)
are kept as plain coefficient vectors; their Choi matrix
sum_w lambda_w P_w (summed by `states._projector_sum`, like every
sigma-diagonal matrix) has exactly the coefficients as eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


@dataclass(eq=False)
class SigmaDiagMap:
    n: int  # qubits per party; acts on M_{2^n}
    coeffs: np.ndarray  # length 4^n, real, indexed by flat word index

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (4**self.n,):
            raise BadParameter(f"expected {4**self.n} coefficients")


@dataclass(eq=False)
class KrausSet:
    terms: list  # of (coefficient: float, operator: ndarray)


def choi_of_diag(m: SigmaDiagMap) -> ChoiMap:
    """Choi matrix sum_w lambda_w P_w of a sigma-diagonal map."""
    return ChoiMap(states._projector_sum(m.coeffs, m.n), 2**m.n, 2**m.n)


def choi_of_kraus(k: KrausSet, in_dim: int) -> ChoiMap:
    """Choi matrix of X -> sum_i c_i K_i X K_i^dag."""
    out_dim = k.terms[0][1].shape[0]
    plus = states.max_symmetric_vector(in_dim)
    P = np.outer(plus, plus.conj())
    C = np.zeros((in_dim * out_dim, in_dim * out_dim), dtype=complex)
    for c, K in k.terms:
        op = linalg.tensor(np.eye(in_dim), np.asarray(K, dtype=complex))
        C += c * (op @ P @ op.conj().T)
    return ChoiMap(C, in_dim, out_dim)


def apply(m: ChoiMap, X: np.ndarray) -> np.ndarray:
    """Apply the map to X by contracting against the Choi matrix."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (m.in_dim, m.in_dim):
        raise linalg.DimMismatch(f"input shape {X.shape} does not match in_dim {m.in_dim}")
    T = m.choi.reshape(m.in_dim, m.out_dim, m.in_dim, m.out_dim)
    return m.in_dim * np.einsum("ip,ijpq->jq", X, T)


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


@dataclass
class SeesawResult:
    """Outcome of the product-vector see-saw on a Choi matrix.

    `violated` carries a sound certificate (psi, phi, value with
    value < -1e-9); otherwise the result only says the heuristic found
    no violation ("presumed positive"), with the extremal value found.
    """

    violated: bool
    value: float
    psi: np.ndarray
    phi: np.ndarray


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
    """Read-only (restarts, d1) stack: row i is a random unit vector drawn with
    sub-seed [seed, i].  `_seesaw_batch` writes into its start vectors: pass a copy."""
    psi = np.empty((restarts, d1), complex)
    for i in range(restarts):
        rng = np.random.default_rng([seed, i])
        psi[i] = rng.normal(size=d1) + 1j * rng.normal(size=d1)
        psi[i] /= np.linalg.norm(psi[i])
    psi.setflags(write=False)
    return psi


def seesaw_extremum(m: ChoiMap, restarts: int = 64, seed: int = 0xC0FFEE, minimize: bool = True):
    """Best product-vector expectation value of the Choi matrix found by
    alternating eigenvector iteration with `restarts` seeded restarts.

    Restart i starts from a random vector drawn with sub-seed [seed, i];
    all restarts run together as one stack, each stopping once its value
    moves by less than 1e-10 (never after the first step, at most 500
    steps).  The merge is deterministic (extremal value, ties to the
    lowest sub-seed).  A non-Hermitian Choi matrix raises
    `linalg.NotHermitian`; `restarts < 1` or `seed < 0` raises
    `BadParameter`; an eigensolve that does not converge raises
    `numpy.linalg.LinAlgError`, never a NaN value.  The half-steps call
    numpy's LAPACK `eigh` gufunc directly (`_eigh`): most stacks hold 1-4
    live 4x4 matrices, where `np.linalg.eigh`'s wrapper costs as much as
    the solve.
    """
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


def block_positivity_seesaw(m: ChoiMap, restarts: int = 64, seed: int = 0xC0FFEE) -> SeesawResult:
    """Search for a product vector with <psi x phi|C|psi x phi> < 0.

    A violation is a sound entanglement/non-positivity certificate; the
    no-violation outcome is heuristic.
    """
    val, psi, phi = seesaw_extremum(m, restarts, seed, minimize=True)
    return SeesawResult(val < -1e-9, val, psi, phi)


def product_expectation(m: ChoiMap, psi: np.ndarray, phi: np.ndarray) -> float:
    v = np.kron(psi, phi)
    return float(np.real(np.vdot(v, m.choi @ v)))


def trace_map(n: int) -> SigmaDiagMap:
    """X -> Tr(X) 1 on M_{2^n}: all coefficients 1/2^n."""
    return SigmaDiagMap(n, np.full(4**n, 1.0 / 2**n))


def transposition_map(n: int) -> SigmaDiagMap:
    """Transposition on M_{2^n}: coefficients prod_i eps_{mu_i} / 2^n,
    eps = (1,1,-1,1)."""
    eps = np.array([1.0, 1.0, -1.0, 1.0])
    coeffs = np.ones(1)
    for _ in range(n):
        coeffs = np.kron(coeffs, eps)
    return SigmaDiagMap(n, coeffs / 2**n)


def reduction_map(d: int) -> ChoiMap:
    """X -> Tr(X) 1 - X on M_d; Choi matrix (1 - d P+)/d."""
    if d < 2:
        raise BadParameter("d must be at least 2")
    plus = states.max_symmetric_vector(d)
    C = np.eye(d * d, dtype=complex) / d - np.outer(plus, plus.conj())
    return ChoiMap(C, d, d)


def gamma_map(t: float) -> SigmaDiagMap:
    """The one-parameter positive diagonal family on M_4 (t >= 0)."""
    if not t >= 0:  # NaN fails this too
        raise BadParameter("t must be nonnegative")
    e = np.exp(-4.0 * t)
    a = (1 + 3 * e) / 4
    b = (1 - e) / 4
    cpl = (3 + e) / 4
    eps = np.array([1.0, 1.0, -1.0, 1.0])
    coeffs = np.zeros(16)
    coeffs[0] = a * cpl  # word (0,0)
    for i in range(1, 4):
        coeffs[i] = eps[i] * a * b  # words (0,i)
        coeffs[4 * i] = b * cpl  # words (i,0)
    return SigmaDiagMap(2, coeffs)


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
    if linalg.singular_values(V)[0] > 1 + 1e-10:
        raise BadParameter("V must have operator norm at most 1")
    tr = choi_of_diag(trace_map(2)).choi
    tp = choi_of_diag(transposition_map(2)).choi
    sand = choi_of_kraus(KrausSet([(1.0, V.conj().T)]), 4).choi
    return ChoiMap(tr - tp - sand, 4, 4)


def coefficient_matrix(m: ChoiMap) -> np.ndarray:
    """Full coefficient matrix lambda_{w,w'} with L = sum lambda_{w,w'} S_{w,w'},
    where S_{w,w'}[X] = sigma_w X sigma_w'; equals <Psi_w|C|Psi_w'>."""
    d = m.in_dim
    n = d.bit_length() - 1
    if 2**n != d or m.out_dim != d:
        raise BadParameter("coefficient extraction needs a square qubit algebra")
    B = states._basis_vectors(n)  # rows are <Psi_w|
    return B.conj() @ m.choi @ B.T


def diagonalize_map(coeff_matrix: np.ndarray, n: int) -> SigmaDiagMap:
    """Keep only the diagonal lambda_{w,w} of a full coefficient matrix."""
    coeff_matrix = np.asarray(coeff_matrix)
    if coeff_matrix.shape != (4**n, 4**n):
        raise BadParameter(f"expected a {4**n}x{4**n} coefficient matrix")
    diag = np.real(np.diag(coeff_matrix))
    return SigmaDiagMap(n, diag)


def stormer_cp_part(m: SigmaDiagMap, mu: float):
    """Write the input as mu * (trace map - cp part); returns
    (cp part coefficients as a SigmaDiagMap, all-nonnegative flag)."""
    if mu <= 0:
        raise NonPositiveMu("mu must be positive")
    cp = 1.0 / 2**m.n - m.coeffs / mu
    return SigmaDiagMap(m.n, cp), bool(np.all(cp >= -1e-12))
