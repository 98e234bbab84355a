"""Numeric detectors, witness construction, and the exact witness delta."""

import itertools
import os
import time

import numpy as np
import pytest
import reference

from latticewitness import criteria, lattice, linalg, maps, pauli, states


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


def test_realignment_on_lattice_states():
    # separable rank-4 quadruple states sit exactly at the threshold;
    # some PPT lattice states land strictly above it (e.g. 0x036a)
    for q in lattice.QUAD_MASKS[:8]:
        v = criteria.realignment_check(states.lattice_state(q))
        assert not v.detected and abs(v.evidence - 1.0) < 1e-8
    v = criteria.realignment_check(states.lattice_state(0x036A))
    assert v.detected and abs(v.evidence - 1.5) < 1e-8
    assert lattice.ppt_combinatorial(0x036A)


def test_realignment_rejects_non_square_parties():
    with pytest.raises(linalg.DimMismatch):
        criteria.realignment_check(states.horodecki_2x4(0.5))


def test_witness_value_identity_and_dim_check():
    rho = states.lattice_state(0x00FF)
    assert abs(criteria.witness_value(maps.ChoiMap(np.eye(16), 4, 4), rho) - 1) < 1e-12
    with pytest.raises(linalg.DimMismatch):
        criteria.witness_value(maps.ChoiMap(np.eye(4), 2, 2), rho)


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


def test_diagonal_lattice_witness_rejects_a_delta_that_is_not_finite():
    # a NaN delta used to give a NaN matrix marked "exact"
    for delta in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(maps.BadParameter):
            criteria.diagonal_lattice_witness(0x0001, (0, 0), delta)


def test_max_delta_zero_when_point_sits_in_a_contained_quadruple():
    mask = lattice.QUAD_MASKS[0]
    assert criteria.max_delta(mask, states.mask_points(mask)[0]) == 0.0
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
    # exact integers, where a step search lands one 1e-4 step low
    assert criteria.max_delta(0x0001, (0, 0)) == 3.0
    assert criteria.max_delta(0x1EEF, (0, 0)) == 1.0
    assert criteria.max_delta(0x1FEE, (0, 2)) == 1.0


def test_max_delta_is_exact_on_every_point(monkeypatch):
    """delta* = max_delta(I, p) is the exact largest delta for which the
    diagonal witness is block positive, for every subset I and point p in
    I.  The map Lambda = sum_w c_w S_w (S_w[X] = sigma_w X sigma_w, c_w
    the witness coefficients times 4: 1 off I, -delta at p, 0 on the
    rest of I) is positive iff the witness is block positive.  Since
    S_{w+p} = S_w o S_p, the pair (I, p) and the translate (I + p, (0,0))
    have the same answer, so the 2^15 masks J containing (0,0) cover
    every pair."""
    optimize = pytest.importorskip("scipy.optimize")
    sig = reference.word_matrices()  # in bit order, as states.ALL_POINTS
    psi = np.array([np.kron(np.eye(4), s) @ states.max_symmetric_vector(4) for s in sig])

    # translation: the delta Choi of (I, p) is the (1 x sigma_p)-conjugate
    # of the one of (I + p, (0,0))
    for I, p in ((0xF587, (3, 3)), (0x1FEE, (0, 2)), (0x8421, (2, 2))):
        J = lattice.translate_mask(p, I)
        U = np.kron(np.eye(4), pauli.word_matrix(p))
        C_ip = criteria._delta_choi(I, states.point_bit(p), 1.5).choi
        C_j0 = criteria._delta_choi(J, 0, 1.5).choi
        assert np.allclose(C_ip, U @ C_j0 @ U.conj().T, atol=1e-14)

    # upper bound: for each quadruple Q = t + L (L Lagrangian), the joint
    # eigenvectors a of L's stabilizer give v = conj(a) x sigma_t a with
    # |<v|Psi_w>|^2 = 1/4 on Q and 0 off Q, so the delta quantity at v is
    # (|Q & I| + delta)/4 when p is in Q: above 1 for delta > 4 - |Q & I|
    for qmask in lattice.QUAD_MASKS:
        q = states.mask_points(qmask)
        t = q[0]
        gens = [pauli.tau(t, w) for w in q[1:3]]
        _, A = np.linalg.eigh(pauli.word_matrix(gens[0]) + 2 * pauli.word_matrix(gens[1]))
        choi = criteria._delta_choi(qmask, states.point_bit(t), 0.5)
        for a in A.T:
            b = pauli.word_matrix(t) @ a
            overlaps = np.abs(psi.conj() @ np.kron(a.conj(), b)) ** 2
            assert np.allclose(overlaps, 0.25 * states.lattice_indicator(qmask), atol=1e-12)
            assert abs(maps.product_expectation(choi, a.conj(), b) - 4.5 / 4) < 1e-12
    through_origin = [s for s in reference.special_quadruples() if s & 1]
    assert len(through_origin) == 15

    masks = [J for J in range(1 << 16) if J & 1]
    upper = {J: 4 - max((J & s).bit_count() for s in through_origin) for J in masks}
    monkeypatch.setattr(criteria, "delta_violation", lambda I, p, delta, restarts, seed: (1.0, None, None))
    assert all(criteria.max_delta(J, (0, 0)) == upper[J] for J in masks)

    # lower bound at delta*: c >= 0 (delta* = 0, Lambda is CP), the ovoid
    # identity (delta* = 1), or an exact decomposition c = a + t*b with
    # a, b >= 0 (Lambda = CP + transposition o CP, t the coefficients of
    # the transposition map and * XOR convolution).
    # Ovoid identity: for 5 pairwise anticommuting words O and any state
    # rho = (1 + sum r_w sigma_w)/4, sum_O S_w[rho] - rho = 1 - sum_O r_w
    # sigma_w >= 0, so sum_O S_w - S_0 is positive, and so is Lambda when
    # the complement of J contains O.
    others = states.ALL_POINTS[1:]
    ovoids = [o for o in itertools.combinations(others, 5)
              if not any(pauli.words_commute(x, y) for x, y in itertools.combinations(o, 2))]
    assert len(ovoids) == 6
    rng = np.random.default_rng(47)
    for o in ovoids:
        for _ in range(20):
            rho = random_density(rng, 4)
            lhs = sum(s @ rho @ s for s in map(pauli.word_matrix, o)) - rho
            rhs = np.eye(4) - sum(np.trace(rho @ s).real * s for s in map(pauli.word_matrix, o))
            assert np.allclose(lhs, rhs, atol=1e-12)
            assert np.linalg.eigvalsh(rhs)[0] > -1e-12
    # sum_w (t*b)_w S_w is the transposition after sum_v b_v S_v
    t = maps.transposition_map()
    b = rng.random(16)
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    tb = [sum(t[w ^ v] * b[v] for v in range(16)) for w in range(16)]
    assert np.allclose(sum(c * s @ X @ s for c, s in zip(tb, sig)),
                       sum(c * s @ X @ s for c, s in zip(b, sig)).T, atol=1e-12)
    ovoid_masks = [states.points_mask(o) for o in ovoids]  # word (alpha, beta) is point (alpha, beta)
    t4 = np.rint(4 * t).astype(int)
    assert np.array_equal(np.abs(t4), np.ones(16, dtype=int))
    T4 = np.array([[t4[w ^ v] for v in range(16)] for w in range(16)])
    # One LP per orbit of the symplectic maps g keeping t (96 LPs for 2812
    # masks): g fixes (0,0), delta* and the ovoids, and as g is linear c =
    # a + t*b of J gives a o g^-1 + t*(b o g^-1) for gJ; each b is checked.
    keep_t = [g for g in reference.symplectic_group() if all(t4[g[w]] == t4[w] for w in range(16))]
    found = {}
    census = {"cp": 0, "ovoid": 0}
    lp = {1: 0, 2: 0, 3: 0}
    for J in masks:
        d = upper[J]
        if d == 0:
            census["cp"] += 1
            continue
        if d == 1 and any(o & J == 0 for o in ovoid_masks):
            census["ovoid"] += 1
            continue
        c16 = 16 * (1 - states.lattice_indicator(J)).astype(int)
        c16[0] = -16 * d
        if J not in found:
            res = optimize.linprog(np.zeros(16), A_ub=T4 / 4, b_ub=c16 / 16, bounds=(0, None), method="highs")
            assert res.status == 0, f"{J:#06x}: no decomposition found"
            b4 = np.rint(4 * res.x).astype(int)
            for g in keep_t:  # b o g^-1 is b4[g^-1], and argsort inverts a permutation
                found.setdefault(sum(1 << g[x] for x in range(16) if J >> x & 1), b4[np.argsort(g)])
        b4 = found[J]
        assert (b4 >= 0).all() and (c16 - T4 @ b4 >= 0).all(), f"{J:#06x}: inexact decomposition"
        assert not lattice.ppt_combinatorial(J)  # a decomposable witness detects only NPT states
        lp[d] += 1
    assert census == {"cp": 24823, "ovoid": 5133}
    assert lp == {1: 2620, 2: 191, 3: 1}


def test_max_delta_rejects_points_outside_the_subset():
    with pytest.raises(criteria.PointNotInSubset):
        criteria.max_delta(0x0001, (1, 1))
    # off-lattice points: (5, 0) must not alias bit 5, (-1, 0) must not
    # reach a negative shift, and a third coordinate is not ignored
    calls = (criteria.max_delta, lambda I, p: criteria.diagonal_lattice_witness(I, p, 1.0),
             lambda I, p: criteria.delta_violation(I, p, 1.0, restarts=1), lattice.exact_delta)
    for call in calls:
        for p in ((5, 0), (-1, 0), (0, 0, 0)):
            with pytest.raises(criteria.PointNotInSubset):
                call(0xFFFF, p)
        with pytest.raises(TypeError):  # (1.0, 0) equals (1, 0) but is no lattice point
            call(0xFFFF, (1.0, 0))
    # masks outside the lattice: -1 and 0x10000 must not pass for 0xFFFF
    # or 0, nor 0x1000F for 0x000F
    for call in calls:
        with pytest.raises(states.EmptySubset):
            call(0, (0, 0))
        for mask in (-1, 0x10000, 0x1000F):
            with pytest.raises(states.OutOfRange):
                call(mask, (0, 0))
    with pytest.raises(criteria.PointNotInSubset):
        criteria.delta_violation(0x0001, (1, 1), 1.0, restarts=1)
    # the special subset of the test above: its search reaches validation
    special = states.points_mask([(0, 0), (2, 0), (3, 0), (3, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    with pytest.raises(maps.BadParameter):
        criteria.max_delta(special, (2, 2), restarts=0)


def test_max_delta_raises_when_the_seesaw_beats_it(monkeypatch):
    seen = []

    def fake(I, p, delta, restarts, seed):
        seen.append((I, p, delta, restarts, seed))
        return 1.5, None, None

    monkeypatch.setattr(criteria, "delta_violation", fake)
    with pytest.raises(criteria.DeltaViolated):
        criteria.max_delta(0x1EEF, (0, 0), seed=7, restarts=3)
    assert seen == [(0x1EEF, (0, 0), 1.0, 3, 7)]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="no second CPU for a helper thread")
def test_witness_path_runs_on_the_calling_thread_only():
    # a BLAS call on the witness path wakes helper threads that keep
    # spinning through the see-saw; then process CPU is about twice the
    # calling thread's CPU.  The idle lets threads woken by earlier
    # tests go back to sleep.
    time.sleep(0.5)
    w = np.full(16, 1 / 16)
    proc, thread = time.process_time(), time.thread_time()
    for _ in range(10):
        criteria.max_delta(0xF587, (3, 3))
    for _ in range(50):
        states.sigma_diagonal_state(w)
    proc, thread = time.process_time() - proc, time.thread_time() - thread
    assert proc / thread <= 1.3
