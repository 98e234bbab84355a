"""Entanglement criteria and witnesses.

Numeric detectors (PPT, realignment, reduction) return a uniform verdict
record; `diagonal_lattice_witness` returns the `maps.ChoiMap` of a
sigma-diagonal map, a witness whose Choi matrix is nonnegative on product
vectors for delta <= `max_delta`.
`max_delta` is the closed form `lattice.exact_delta` plus one see-saw
re-check.
"""

from dataclasses import dataclass

import numpy as np

from . import lattice, linalg, maps, states
from .states import PointNotInSubset  # re-exported


class DeltaViolated(RuntimeError):
    pass


@dataclass
class CriterionVerdict:
    """Outcome of a single criterion: `evidence` is the scalar the
    detection threshold was applied to (min eigenvalue, trace norm, ...)."""

    name: str
    detected: bool
    evidence: float


def ppt_check(rho: states.DensityMatrix) -> CriterionVerdict:
    """Partial-transposition test: detected iff PT over the second party
    has an eigenvalue below -1e-9."""
    pt = linalg.partial_transpose(rho.mat, rho.dims)
    low = linalg.min_eig(pt)
    return CriterionVerdict("ppt", low < -1e-9, low)


def realignment_check(rho: states.DensityMatrix) -> CriterionVerdict:
    """Realignment (CCNR) test: detected iff the trace norm of the
    reshuffled matrix exceeds 1.  Square party dimensions only
    (`linalg.reshuffle` raises `linalg.DimMismatch` otherwise)."""
    norm = linalg.trace_norm(linalg.reshuffle(rho.mat, rho.dims))
    return CriterionVerdict("realignment", norm > 1 + 1e-9, norm)


def reduction_check(rho: states.DensityMatrix) -> CriterionVerdict:
    """Reduction test: detected iff 1 x rho_B - rho or rho_A x 1 - rho
    has an eigenvalue below -1e-9; evidence is the smaller minimum."""
    d1, d2 = rho.dims
    rho_a = linalg.partial_trace(rho.mat, rho.dims, which=2)
    rho_b = linalg.partial_trace(rho.mat, rho.dims, which=1)
    low = min(
        linalg.min_eig(np.kron(np.eye(d1), rho_b) - rho.mat),
        linalg.min_eig(np.kron(rho_a, np.eye(d2)) - rho.mat),
    )
    return CriterionVerdict("reduction", low < -1e-9, low)


def witness_value(W: maps.ChoiMap, rho: states.DensityMatrix) -> float:
    """Tr(W.choi rho); negative values certify entanglement."""
    dims = (W.in_dim, W.out_dim)
    if dims != rho.dims or W.choi.shape != rho.mat.shape:
        raise linalg.DimMismatch(f"witness dims {dims} vs state dims {rho.dims}")
    val = np.trace(W.choi @ rho.mat)
    if abs(val.imag) > 1e-12:
        raise linalg.NotHermitian("witness expectation is not real")
    return float(val.real)


def diagonal_lattice_witness(I: int, p, delta: float) -> maps.ChoiMap:
    """Witness for the lattice state on subset `I` (16-bit mask): the
    `ChoiMap` of the diagonal map with coefficient 1/4 off I, -delta/4 at the
    point `p` in I, and 0 elsewhere.  Tr(W rho_I) = -delta/(4 N_I)."""
    b = states.point_in(I, p)
    if not abs(delta) < np.inf:  # NaN fails this too
        raise maps.BadParameter(f"delta must be finite, got {delta}")
    coeffs = 0.25 * (1.0 - states.lattice_indicator(I))
    coeffs[b] -= delta / 4.0
    return maps.choi_of_diag(coeffs)


def _delta_choi(I: int, b: int, delta: float) -> maps.ChoiMap:
    # Choi whose product expectation equals the block-positivity margin:
    # coefficient 1 on I plus an extra delta at bit b.
    coeffs = states.lattice_indicator(I)
    coeffs[b] += delta
    return maps.choi_of_diag(coeffs)


def delta_violation(I: int, p, delta: float, restarts: int = 64, seed: int = 0xC0FFEE):
    """Largest product expectation of the delta quantity found by see-saw.

    The witness from `diagonal_lattice_witness(I, p, delta)` is block
    positive iff this never exceeds 1; values above 1 are sound
    counterexamples, values at or below 1 are heuristic."""
    b = states.point_in(I, p)
    return maps.seesaw_extremum(_delta_choi(I, b, delta), restarts=restarts, seed=seed, minimize=False)


def max_delta(I: int, p, seed: int = 0xC0FFEE, restarts: int = 64) -> float:
    """Largest delta for which `diagonal_lattice_witness(I, p, delta)` is
    block positive: the exact `lattice.exact_delta(I, p)`, re-checked by
    one see-saw with `restarts` restarts seeded by `seed` (`restarts < 1`
    raises `maps.BadParameter`); a product vector above 1 + 1e-9 raises
    `DeltaViolated`."""
    delta = lattice.exact_delta(I, p)
    val, _, _ = delta_violation(I, p, delta, restarts=restarts, seed=seed)
    if val > 1 + 1e-9:
        raise DeltaViolated(f"see-saw value {val!r} > 1 at delta {delta} on {I:#06x}, {p}")
    return delta

