"""Entanglement criteria and witnesses.

Numeric detectors (PPT, realignment, reduction) return a uniform verdict
record; witness constructors produce Hermitian matrices that are
nonnegative on product vectors (exactly for the diagonal lattice witness
at delta <= `max_delta`, heuristically for the edge witness).
`max_delta` is the closed form `lattice.exact_delta` plus one see-saw
re-check.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, maps, states


class NonSquareParties(ValueError):
    pass


class PointNotInSubset(ValueError):
    pass


class NotPpt(ValueError):
    pass


class ZeroKernels(ValueError):
    pass


class DeltaViolated(RuntimeError):
    pass


@dataclass
class CriterionVerdict:
    """Outcome of a single criterion: `evidence` is the scalar the
    detection threshold was applied to (min eigenvalue, trace norm, ...)."""

    name: str
    detected: bool
    evidence: float


@dataclass
class Witness:
    """Hermitian witness matrix with its bipartite dims and a provenance
    note ("exact" or "heuristic") describing how block positivity was
    established.  Stored unnormalized; `normalized` rescales to unit trace
    (the detection predicate sign(Tr(W rho)) is scale-invariant)."""

    mat: np.ndarray
    dims: tuple
    provenance: str = "exact"

    def normalized(self) -> "Witness":
        t = float(np.real(np.trace(self.mat)))
        return Witness(self.mat / t, self.dims, self.provenance)


def ppt_check(rho: states.DensityMatrix) -> CriterionVerdict:
    """Partial-transposition test: detected iff PT over the second party
    has an eigenvalue below -1e-9."""
    pt = linalg.partial_transpose(rho.mat, rho.dims, which=2)
    low = linalg.min_eig(pt)
    return CriterionVerdict("ppt", low < -1e-9, low)


def realignment_check(rho: states.DensityMatrix) -> CriterionVerdict:
    """Realignment (CCNR) test: detected iff the trace norm of the
    reshuffled matrix exceeds 1.  Square party dimensions only."""
    if rho.dims[0] != rho.dims[1]:
        raise NonSquareParties(f"party dims differ: {rho.dims}")
    norm = linalg.trace_norm(linalg.reshuffle(rho.mat, rho.dims))
    return CriterionVerdict("realignment", norm > 1 + 1e-9, norm)


def reduction_check(rho: states.DensityMatrix) -> CriterionVerdict:
    """Reduction test: detected iff 1 x rho_B - rho or rho_A x 1 - rho
    has an eigenvalue below -1e-9; evidence is the smaller minimum."""
    d1, d2 = rho.dims
    rho_a = linalg.partial_trace(rho.mat, rho.dims, which=2)
    rho_b = linalg.partial_trace(rho.mat, rho.dims, which=1)
    low = min(
        linalg.min_eig(linalg.tensor(np.eye(d1), rho_b) - rho.mat),
        linalg.min_eig(linalg.tensor(rho_a, np.eye(d2)) - rho.mat),
    )
    return CriterionVerdict("reduction", low < -1e-9, low)


def witness_value(W: Witness, rho: states.DensityMatrix) -> float:
    """Tr(W rho); negative values certify entanglement."""
    if W.dims != rho.dims or W.mat.shape != rho.mat.shape:
        raise linalg.DimMismatch(f"witness dims {W.dims} vs state dims {rho.dims}")
    val = np.trace(W.mat @ rho.mat)
    if abs(val.imag) > 1e-12:
        raise linalg.NotHermitian("witness expectation is not real")
    return float(val.real)


def _check_point(I: int, p) -> None:
    states.check_mask(I)
    if tuple(p) not in states.mask_points(I):  # a JSON point is a list
        raise PointNotInSubset(f"{p} not in subset {I:#06x}")


def diagonal_lattice_witness(I: int, p, delta: float) -> Witness:
    """Witness for the lattice state on subset `I` (16-bit mask): the Choi
    matrix of the diagonal map with coefficient 1/4 off I, -delta/4 at the
    point `p` in I, and 0 elsewhere.  Tr(W rho_I) = -delta/(4 N_I)."""
    _check_point(I, p)
    if not abs(delta) < np.inf:  # NaN fails this too
        raise maps.BadParameter(f"delta must be finite, got {delta}")
    coeffs = 0.25 * (1.0 - states.lattice_indicator(I))
    coeffs -= delta / 4.0 * states.lattice_indicator(states.points_mask([p]))
    choi = maps.choi_of_diag(maps.SigmaDiagMap(2, coeffs))
    return Witness(choi.choi, (4, 4), "exact")


def _delta_choi(I: int, p, delta: float) -> maps.ChoiMap:
    # Choi whose product expectation equals the block-positivity margin:
    # coefficient 1 on I plus an extra delta at p.
    coeffs = states.lattice_indicator(I) + delta * states.lattice_indicator(states.points_mask([p]))
    return maps.choi_of_diag(maps.SigmaDiagMap(2, coeffs))


def delta_violation(I: int, p, delta: float, restarts: int = 64, seed: int = 0xC0FFEE):
    """Largest product expectation of the delta quantity found by see-saw.

    The witness from `diagonal_lattice_witness(I, p, delta)` is block
    positive iff this never exceeds 1; values above 1 are sound
    counterexamples, values at or below 1 are heuristic."""
    _check_point(I, p)
    return maps.seesaw_extremum(_delta_choi(I, p, delta), restarts=restarts, seed=seed, minimize=False)


def max_delta(I: int, p, seed: int = 0xC0FFEE, restarts: int = 64) -> float:
    """Largest delta for which `diagonal_lattice_witness(I, p, delta)` is
    block positive: the exact `lattice.exact_delta(I, p)`, re-checked by
    one see-saw with `restarts` restarts seeded by `seed` (`restarts < 1`
    raises `maps.BadParameter`); a product vector above 1 + 1e-9 raises
    `DeltaViolated`."""
    from .lattice import exact_delta  # lattice imports this module

    delta = exact_delta(I, p)
    val, _, _ = delta_violation(I, p, delta, restarts=restarts, seed=seed)
    if val > 1 + 1e-9:
        raise DeltaViolated(f"see-saw value {val!r} > 1 at delta {delta} on {I:#06x}, {p}")
    return delta


def edge_witness(delta_state: states.DensityMatrix, seed: int = 0xC0FFEE,
                 restarts: int = 64) -> Witness:
    """Non-decomposable witness a(P + Q^{T2}) - eps*1 built from a PPT
    state: P and Q project onto the kernels of the state and of its
    partial transpose, a = 1/Tr(P + Q), and eps is the heuristic see-saw
    minimum of the product expectation of a(P + Q^{T2})."""
    rho = delta_state.mat
    pt = linalg.partial_transpose(rho, delta_state.dims, which=2)
    if not linalg.is_psd(pt):
        raise NotPpt("input state has a negative partial transpose")

    def kernel_projector(M):
        vals, vecs = linalg.hermitian_eig(M)
        cols = vecs[:, vals < 1e-9]
        return cols @ cols.conj().T, cols.shape[1]

    P, kp = kernel_projector(rho)
    QT2, kq = kernel_projector(pt)
    if kp + kq == 0:
        raise ZeroKernels("state and partial transpose are both full rank")
    core = P + linalg.partial_transpose(QT2, delta_state.dims, which=2)
    a = 1.0 / float(np.real(np.trace(core)))
    cm = maps.ChoiMap(a * core, delta_state.dims[0], delta_state.dims[1])
    eps, _, _ = maps.seesaw_extremum(cm, restarts=restarts, seed=seed, minimize=True)
    return Witness(a * core - eps * np.eye(rho.shape[0]), delta_state.dims, "heuristic")
