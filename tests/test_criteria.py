"""Numeric detectors, witness construction, and the delta search."""

import numpy as np
import pytest

from latticewitness import criteria, lattice, linalg, maps, states


def random_density(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = M @ M.conj().T
    return rho / np.trace(rho)


def random_separable(rng, d1, d2, terms=6):
    mat = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    w = rng.random(terms)
    w /= w.sum()
    for p in w:
        mat += p * np.kron(random_density(rng, d1), random_density(rng, d2))
    return states.DensityMatrix(mat, (d1, d2))


def test_no_detector_fires_on_500_random_separable_states():
    rng = np.random.default_rng(42)
    for i in range(500):
        d = [2, 3, 4][i % 3]
        rho = random_separable(rng, d, d)
        assert not criteria.ppt_check(rho).detected
        assert not criteria.realignment_check(rho).detected
        assert not criteria.reduction_check(rho).detected


def test_low_dimension_cross_consistency_on_500_random_states():
    # for d1*d2 <= 6 the partial-transposition test is exhaustive, so no
    # other detector may fire on a state it passes
    rng = np.random.default_rng(43)
    for i in range(500):
        d1, d2 = [(2, 2), (2, 3)][i % 2]
        rho = states.DensityMatrix(random_density(rng, d1 * d2), (d1, d2))
        if not criteria.ppt_check(rho).detected:
            if d1 == d2:
                assert not criteria.realignment_check(rho).detected
            assert not criteria.reduction_check(rho).detected


def test_detectors_on_named_states():
    bell = states.bell_state("phi+")
    rho = states.DensityMatrix(np.outer(bell, bell.conj()), (2, 2))
    v = criteria.ppt_check(rho)
    assert v.detected and abs(v.evidence + 0.5) < 1e-10
    assert criteria.reduction_check(rho).detected

    v = criteria.ppt_check(states.werner_state(0.5))
    assert v.detected and abs(v.evidence + 0.125) < 1e-10

    tiles = states.upb_complement_state(states.tiles_upb(), (3, 3))
    assert not criteria.ppt_check(tiles).detected
    r = criteria.realignment_check(tiles)
    assert r.detected and r.evidence > 1.05

    mixed = states.DensityMatrix(np.eye(4) / 4, (2, 2))
    assert not criteria.reduction_check(mixed).detected
    v1 = np.array([1.0, 0.0])
    v2 = np.array([0.6, 0.8])
    pure = np.kron(np.outer(v1, v1), np.outer(v2, v2))
    prod = states.DensityMatrix(pure.astype(complex), (2, 2))
    assert abs(criteria.realignment_check(prod).evidence - 1) < 1e-10


def test_werner_sweep_detection_boundary():
    alphas = np.arange(-1 / 3, 1.0 + 1e-9, 0.05)
    for a in alphas:
        det = criteria.ppt_check(states.werner_state(float(a))).detected
        if abs(a - 1 / 3) > 0.05:
            assert det == (a > 1 / 3)


def test_realignment_on_lattice_states():
    # separable rank-4 quadruple states sit exactly at the threshold;
    # some PPT lattice states land strictly above it (e.g. 0x036a)
    for q in lattice.ALL_QUADRUPLES[:8]:
        v = criteria.realignment_check(states.lattice_state(states.points_mask(q)))
        assert not v.detected and abs(v.evidence - 1.0) < 1e-8
    v = criteria.realignment_check(states.lattice_state(0x036A))
    assert v.detected and abs(v.evidence - 1.5) < 1e-8
    assert lattice.ppt_combinatorial(0x036A)


def test_realignment_rejects_non_square_parties():
    with pytest.raises(criteria.NonSquareParties):
        criteria.realignment_check(states.horodecki_2x4(0.5))


def test_witness_value_identity_and_dim_check():
    rho = states.lattice_state(0x00FF)
    assert abs(criteria.witness_value(criteria.Witness(np.eye(16), (4, 4)), rho) - 1) < 1e-12
    with pytest.raises(linalg.DimMismatch):
        criteria.witness_value(criteria.Witness(np.eye(4), (2, 2)), rho)


def test_diagonal_lattice_witness_bookkeeping():
    rng = np.random.default_rng(45)
    for _ in range(25):
        mask = int(rng.integers(1, 1 << 16))
        pts = states.mask_points(mask)
        p = pts[int(rng.integers(len(pts)))]
        delta = float(rng.uniform(0.1, 3.0))
        W = criteria.diagonal_lattice_witness(mask, p, delta)
        got = criteria.witness_value(W, states.lattice_state(mask))
        assert abs(got + delta / (4 * len(pts))) < 1e-12
        # off-subset lattice states avoiding p give value 1/4
        comp = 0xFFFF & ~mask
        if comp:
            got_c = criteria.witness_value(W, states.lattice_state(comp))
            assert abs(got_c - 0.25) < 1e-12
    with pytest.raises(criteria.PointNotInSubset):
        criteria.diagonal_lattice_witness(0x0001, (1, 1), 1.0)


def test_diagonal_lattice_witness_vanishes_with_delta():
    W = criteria.diagonal_lattice_witness(0x00FF, (0, 0), 1e-9)
    got = criteria.witness_value(W, states.lattice_state(0x00FF))
    assert abs(got) < 1e-9


def test_max_delta_zero_when_point_sits_in_a_contained_quadruple():
    q = lattice.ALL_QUADRUPLES[0]
    mask = states.points_mask(q)
    assert criteria.max_delta(mask, q[0]) == 0.0
    assert criteria.max_delta(0xFFFF, (2, 1)) == 0.0


def test_max_delta_positive_on_a_special_subset_and_self_consistent():
    pts = [(0, 0), (2, 0), (3, 0), (3, 1), (1, 2), (2, 2), (2, 3), (3, 3)]
    mask = states.points_mask(pts)
    p = lattice.special_subset_point(mask)
    assert p == (2, 2)
    delta = criteria.max_delta(mask, p)
    assert delta > 0
    # re-check at 4x the restarts: no product vector beats the bound
    val, _, _ = criteria.delta_violation(mask, p, delta, restarts=256)
    assert val <= 1 + 1e-9
    W = criteria.diagonal_lattice_witness(mask, p, delta)
    got = criteria.witness_value(W, states.lattice_state(mask))
    assert abs(got + delta / (4 * len(pts))) < 1e-12


def test_max_delta_rejects_points_outside_the_subset():
    with pytest.raises(criteria.PointNotInSubset):
        criteria.max_delta(0x0001, (1, 1))
    # off-lattice points: (5, 0) must not alias bit 5, (-1, 0) must not
    # reach a negative shift
    for p in ((5, 0), (-1, 0)):
        with pytest.raises(criteria.PointNotInSubset):
            criteria.max_delta(0xFFFF, p)
        with pytest.raises(criteria.PointNotInSubset):
            criteria.diagonal_lattice_witness(0xFFFF, p, 1.0)
    # the special subset of the test above: its search reaches validation
    special = states.points_mask([(0, 0), (2, 0), (3, 0), (3, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    with pytest.raises(maps.BadParameter):
        criteria.max_delta(special, (2, 2), restarts=0)


def test_edge_witness_detects_its_source_state():
    for src in (states.upb_complement_state(states.tiles_upb(), (3, 3)),
                states.horodecki_2x4(0.5)):
        W = criteria.edge_witness(src, restarts=16)
        assert W.provenance == "heuristic"
        assert criteria.witness_value(W, src) < -1e-5
        # nonnegative on random separable states up to the heuristic margin
        rng = np.random.default_rng(46)
        for _ in range(20):
            sep = random_separable(rng, *src.dims)
            assert criteria.witness_value(W, sep) > -1e-9


def test_edge_witness_error_paths():
    with pytest.raises(criteria.NotPpt):
        criteria.edge_witness(states.werner_state(1.0))
    with pytest.raises(criteria.ZeroKernels):
        criteria.edge_witness(states.DensityMatrix(np.eye(4) / 4, (2, 2)))


def test_witness_normalization_preserves_sign():
    W = criteria.diagonal_lattice_witness(0x00FF, (0, 0), 1.0)
    Wn = W.normalized()
    rho = states.lattice_state(0x00FF)
    a = criteria.witness_value(W, rho)
    b = criteria.witness_value(Wn, rho)
    assert a < 0 and b < 0
    assert abs(np.trace(Wn.mat) - 1) < 1e-12
