"""Choi representations, named positive maps, and the product-vector
see-saw."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import reference

from latticewitness import criteria, linalg, maps, pauli, states


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def apply_map(cm, X):  # L[X], as (id x L) on a bipartite state with a 1-dim first party
    return maps.extend_apply(cm, states.DensityMatrix(X, (1, cm.in_dim)))


def choi_of_kraus(terms, d):  # Choi map of X -> sum c K X K^dag, by definition sum c (1 x K) P+ (1 x K)^dag
    plus = states.max_symmetric_vector(d)
    P, ops = np.outer(plus, plus.conj()), [(c, np.kron(np.eye(d), K)) for c, K in terms]
    return maps.ChoiMap(sum(c * op @ P @ op.conj().T for c, op in ops), d, len(terms[0][1]))


def test_kraus_choi_round_trip_on_200_random_maps():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        terms = [(float(rng.uniform(0.2, 2.0)), random_matrix(rng, d))
                 for _ in range(int(rng.integers(1, 4)))]
        X = random_matrix(rng, d)
        direct = sum(c * (A @ X @ A.conj().T) for c, A in terms)
        assert np.allclose(apply_map(choi_of_kraus(terms, d), X), direct, atol=1e-10)
    # Phi_V = Tr - T - V^dag . V on the six single-word V and two sums of words
    e, r = np.eye(4), np.sqrt(0.5)
    vs = [(e[a], 0 * e[a]) for a in (0, 1, 3)] + [(0 * e[a], e[a]) for a in (0, 1, 3)]
    for v_col, v_row in vs + [([0, r, 0, r], [0, 0, 0, 0]), ([0, 0.6, 0, 0], [0, 0, 0, 0.8j])]:
        V = sum(c * pauli.word_matrix((a, 2)) + v * pauli.word_matrix((2, a))
                for a, c, v in zip(range(4), v_col, v_row) if a != 2)
        X = random_matrix(rng, 4)
        direct = np.trace(X) * np.eye(4) - X.T - V.conj().T @ X @ V
        assert np.allclose(apply_map(maps.phi_v_map(v_col, v_row), X), direct, atol=1e-10)


def test_diag_maps_take_16_coefficients():
    for bad in (np.ones(4), np.ones(64), np.ones((4, 4))):
        with pytest.raises(maps.BadParameter, match="expected 16 coefficients"):
            maps.choi_of_diag(bad)
        with pytest.raises(maps.BadParameter, match="expected 16 coefficients"):
            maps.stormer_cp_part(bad, 1.0)


def test_diag_map_applies_as_weighted_conjugations():
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=16)
    cm = maps.choi_of_diag(coeffs)
    X = random_matrix(rng, 4)
    direct = sum(c * pauli.word_matrix(w) @ X @ pauli.word_matrix(w) for c, w in zip(coeffs, states.ALL_POINTS))
    assert np.allclose(apply_map(cm, X), direct, atol=1e-10)


def test_coefficient_matrix_round_trip():
    # lambda_{w,w'} = <Psi_w|C|Psi_w'> of a sigma-diagonal map is diagonal,
    # with the coefficients on the diagonal
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=16)
    cm = maps.choi_of_diag(coeffs)
    B = reference.bell_basis()  # rows are <Psi_w|
    C = B.conj() @ cm.choi @ B.T
    assert np.max(np.abs(C - np.diag(coeffs))) <= 1e-12


def test_trace_map_sends_everything_to_the_trace():
    rng = np.random.default_rng(4)
    cm = maps.choi_of_diag(maps.trace_map())
    X = random_matrix(rng, 4)
    assert np.allclose(apply_map(cm, X), np.trace(X) * np.eye(4), atol=1e-10)


def test_transposition_map_transposes():
    rng = np.random.default_rng(5)
    cm = maps.choi_of_diag(maps.transposition_map())
    X = random_matrix(rng, 4)
    assert np.allclose(apply_map(cm, X), X.T, atol=1e-10)


def test_transposition_and_reduction_are_positive_but_not_cp():
    ok, low = maps.is_completely_positive(maps.choi_of_diag(maps.transposition_map()))
    assert not ok and low < -1e-3
    for d in (2, 3, 4):
        cm = maps.reduction_map(d)
        ok, low = maps.is_completely_positive(cm)
        assert not ok
        assert abs(low - (1 - d) / d) < 1e-8
    ok, _ = maps.is_completely_positive(maps.choi_of_diag(maps.trace_map()))
    assert ok


def test_reduction_map_action():
    rng = np.random.default_rng(6)
    d = 3
    X = random_matrix(rng, d)
    got = apply_map(maps.reduction_map(d), X)
    assert np.allclose(got, np.trace(X) * np.eye(d) - X, atol=1e-10)


def test_stormer_split_of_transposition():
    # trace - transposition/mu is completely positive from mu = 1 on
    vals, nonneg = maps.stormer_cp_part(maps.transposition_map(), 1.0)
    assert nonneg
    hits = [w for w, v in zip(states.ALL_POINTS, vals) if v > 1e-12]
    assert all(abs(vals[states.point_bit(w)] - 0.5) < 1e-12 for w in hits)
    assert len(hits) == 6 and all(list(w).count(2) == 1 for w in hits)
    _, nonneg_small = maps.stormer_cp_part(maps.transposition_map(), 0.5)
    assert not nonneg_small
    # NaN gave an all-NaN map flagged not CP, inf the trace map flagged CP
    for mu in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(maps.NonPositiveMu):
            maps.stormer_cp_part(maps.transposition_map(), mu)


def test_gamma_family_is_positive_but_not_cp_for_positive_times():
    # t = 0 is the identity map; every t > 0 gives a positive map whose
    # Choi matrix is not PSD, i.e. a genuine witness family
    rng = np.random.default_rng(7)
    X = random_matrix(rng, 4)
    cm0 = maps.choi_of_diag(maps.gamma_map(0.0))
    assert np.allclose(apply_map(cm0, X), X, atol=1e-10)
    for t in (0.1, 0.5, 2.0):
        cm = maps.choi_of_diag(maps.gamma_map(t))
        ok, low = maps.is_completely_positive(cm)
        assert not ok and low < -1e-3
        assert maps.seesaw_extremum(cm, restarts=16)[0] >= -1e-9
    for t in (-0.1, float("nan")):
        with pytest.raises(maps.BadParameter):
            maps.gamma_map(t)


def test_gamma_map_coefficients_sit_at_their_words():
    # Gamma_t[X] = sum_p c_p sigma_p X sigma_p, c_p the coefficient at
    # point_bit(p); every word is an eigenvector.  The multiples of
    # sigma_(0,1) and sigma_(1,0) differ, so they catch the (0,i) and (i,0)
    # coefficients trading places, which the spectrum and see-saw do not
    coeffs = maps.gamma_map(0.5)
    cm = maps.choi_of_diag(coeffs)
    for q, multiple in (((0, 1), 0.859816548922092), ((1, 0), 0.182063100262582)):
        X = pauli.word_matrix(q)
        direct = sum(coeffs[states.point_bit(p)] * pauli.word_matrix(p) @ X @ pauli.word_matrix(p)
                     for p in states.ALL_POINTS)
        assert np.allclose(direct, multiple * X, atol=1e-12)
        assert np.allclose(apply_map(cm, X), direct, atol=1e-12)


def test_phi_v_map_requires_unit_vector():
    with pytest.raises(maps.BadParameter):
        maps.phi_v_map(np.array([1.0, 1.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0, 0.0]))


def test_phi_v_map_rejects_nan_and_inf_coefficients():
    # |nan - 1| > 1e-10 is False, so NaN used to pass as a unit vector
    for bad in (float("nan"), float("inf")):
        with pytest.raises(maps.BadParameter):
            maps.phi_v_map([bad, 0, 0, 0], [0, 0, 0, 0])


def test_phi_v_map_accepts_only_positive_maps():
    # sum |v|^2 = 1 but |V| = sqrt(2): the see-saw finds -0.25 on its Choi matrix
    r = np.sqrt(0.5)
    with pytest.raises(maps.BadParameter, match="operator norm"):
        maps.phi_v_map([r, 0, 0, 0], [r, 0, 0, 0])
    for a in (0, 1, 3):  # the six single-word maps Phi_w, w = (a,2) or (2,a)
        e = np.eye(4)[a]
        for v_col, v_row in ((e, 0 * e), (0 * e, e)):
            assert maps.seesaw_extremum(maps.phi_v_map(v_col, v_row))[0] >= -1e-9
    # Tr V^dag V = 4 makes |V| <= 1 mean V^dag V = 1, which a generic vector
    # misses; real coefficients (times one phase) give it exactly when the
    # words carrying them pairwise anticommute
    rng = np.random.default_rng(10)
    words = [(a, 2) for a in (0, 1, 3)] + [(2, b) for b in (0, 1, 3)]
    accepted = 0
    for _ in range(80):
        v = rng.normal(size=6) * (rng.random(6) < 0.5)
        if not v.any():
            continue
        v = v / np.linalg.norm(v) * np.exp(2j * np.pi * rng.random())
        support = [w for w, x in zip(words, v) if x]
        anticommuting = not any(pauli.words_commute(w, u) for w in support for u in support if w < u)
        v_col, v_row = np.insert(v[:3], 2, 0), np.insert(v[3:], 2, 0)
        if not anticommuting:
            with pytest.raises(maps.BadParameter, match="operator norm"):
                maps.phi_v_map(v_col, v_row)
            continue
        accepted += 1
        assert maps.seesaw_extremum(maps.phi_v_map(v_col, v_row))[0] >= -1e-9
    assert accepted >= 10


def test_extend_apply_matches_kron_of_choi_action():
    rng = np.random.default_rng(8)
    coeffs = rng.normal(size=16)
    cm = maps.choi_of_diag(coeffs)
    A = random_matrix(rng, 4)
    B = random_matrix(rng, 4)
    R = np.kron(A, B)
    rho = states.DensityMatrix(R, (4, 4))
    LB = sum(c * pauli.word_matrix(w) @ B @ pauli.word_matrix(w) for c, w in zip(coeffs, states.ALL_POINTS))
    assert np.allclose(maps.extend_apply(cm, rho), np.kron(A, LB), atol=1e-9)


def test_seesaw_is_deterministic_and_bounded_by_extremal_eigenvalues():
    cm = maps.reduction_map(3)
    a = maps.seesaw_extremum(cm, restarts=16, seed=123, minimize=True)
    b = maps.seesaw_extremum(cm, restarts=16, seed=123, minimize=True)
    assert a[0] == b[0]
    assert a[0] >= np.linalg.eigvalsh(cm.choi)[0] - 1e-12
    top = maps.seesaw_extremum(cm, restarts=16, seed=123, minimize=False)
    assert top[0] <= np.linalg.eigvalsh(cm.choi)[-1] + 1e-12


def _start_vector(seed, i, d):
    # the documented recipe: complex Gaussians from random.Random seeded by
    # the Cantor pair of (seed, i), real part first, then normalised
    s = seed + i
    g = random.Random(s * (s + 1) // 2 + i).gauss
    z = np.array([complex(g(0.0, 1.0), g(0.0, 1.0)) for _ in range(d)])
    return z / np.linalg.norm(z)


def test_seesaw_start_vectors_are_drawn_once_and_left_unchanged():
    cm = criteria._delta_choi(0xf587, states.point_bit((3, 3)), 1.5)
    first = maps.seesaw_extremum(cm, restarts=64, seed=5, minimize=False)
    second = maps.seesaw_extremum(cm, restarts=64, seed=5, minimize=False)
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1]) and np.array_equal(first[2], second[2])
    cached = maps._start_vectors(5, 64, 4)
    assert not cached.flags.writeable
    for i in range(64):
        assert np.array_equal(cached[i], _start_vector(5, i, 4))
    assert np.array_equal(maps._start_vectors(5, 8, 4), cached[:8])  # independent of restarts


def test_seesaw_takes_integer_seeds_only():
    cm = maps.reduction_map(2)
    assert maps.seesaw_extremum(cm, restarts=4, seed=np.int64(3))[0] == maps.seesaw_extremum(
        cm, restarts=4, seed=3)[0]
    for bad in (1.5, "3"):  # random.Random would hash these into a seed
        with pytest.raises(TypeError):
            maps.seesaw_extremum(cm, restarts=4, seed=bad)
    with pytest.raises(maps.BadParameter):
        maps.seesaw_extremum(cm, restarts=4, seed=-1)


def test_max_delta_does_not_import_numpy_random():
    # the test modules import numpy.random themselves: check in a fresh interpreter
    code = ("import sys; from latticewitness import criteria; "
            "criteria.max_delta(0x1eef, (0, 0)); assert 'numpy.random' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_seesaw_rejects_fewer_than_one_restart():
    cm = maps.reduction_map(2)
    for restarts in (0, -1):
        with pytest.raises(maps.BadParameter):
            maps.seesaw_extremum(cm, restarts=restarts)


def test_seesaw_certificate_is_reproducible_from_the_vectors():
    cm = maps.choi_of_diag(maps.transposition_map())
    val, psi, phi = maps.seesaw_extremum(cm, restarts=16, seed=99)
    # transposition is a positive map: block positive Choi, min exactly 0
    assert abs(val - maps.product_expectation(cm, psi, phi)) < 1e-10
    assert val > -1e-9


def test_seesaw_finds_violations_of_non_positive_maps():
    # coefficient -1 on a single nonzero word gives a non block-positive Choi
    coeffs = np.zeros(16)
    coeffs[0] = 0.1
    coeffs[5] = -1.0
    cm = maps.choi_of_diag(coeffs)
    val, psi, phi = maps.seesaw_extremum(cm, restarts=16, seed=7)
    assert val < -1e-9
    assert maps.product_expectation(cm, psi, phi) < -1e-6


def test_seesaw_rejects_a_non_hermitian_choi_matrix():
    # eigh reads one triangle only, so without the check this returns -8.23
    cm = maps.ChoiMap(np.arange(16.0).reshape(4, 4) + 0j, 2, 2)
    for minimize in (True, False):
        with pytest.raises(linalg.NotHermitian):
            maps.seesaw_extremum(cm, restarts=4, minimize=minimize)


def _seesaw_reference(cm, restarts, seed, minimize):
    # one restart at a time, contracting with einsum: the oracle for the
    # batched kernel
    d1, d2 = cm.in_dim, cm.out_dim
    T = cm.choi.reshape(d1, d2, d1, d2)
    k = 0 if minimize else -1
    best = None
    for i in range(restarts):
        psi = _start_vector(seed, i, d1)
        prev = None
        for _ in range(500):
            phi = np.linalg.eigh(np.einsum("i,ijpq,p->jq", psi.conj(), T, psi))[1][:, k]
            w, V = np.linalg.eigh(np.einsum("j,ijpq,q->ip", phi.conj(), T, phi))
            psi, val = V[:, k], float(w[k])
            if prev is not None and abs(val - prev) < 1e-10:
                break
            prev = val
        if best is None or (val < best - 1e-15 if minimize else val > best + 1e-15):
            best = val
    return best


def test_batched_seesaw_matches_the_per_restart_loop(monkeypatch):
    rng = np.random.default_rng(9)
    kraus = [(c, rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))) for c in (1.0, 0.5)]
    capped = criteria._delta_choi(0x1276, states.point_bit((0, 1)), 1.0)  # restart 0 runs 500 steps
    cases = [
        (capped, False),
        (criteria._delta_choi(0xf587, states.point_bit((3, 3)), 1.5), False),
        (maps.reduction_map(3), True),
        (choi_of_kraus(kraus, 2), True),  # M_2 -> M_4
    ]
    for cm, minimize in cases:
        for restarts in (1, 64):
            val, psi, phi = maps.seesaw_extremum(cm, restarts=restarts, minimize=minimize)
            assert psi.shape == (cm.in_dim,) and phi.shape == (cm.out_dim,)
            assert abs(val - _seesaw_reference(cm, restarts, 0xC0FFEE, minimize)) < 1e-12
            assert abs(val - maps.product_expectation(cm, psi, phi)) < 1e-10
    solves = []  # two eigensolves per step: the capped case reaches the cap

    def counted(M, eigh=maps._eigh):
        solves.append(len(M))
        return eigh(M)

    monkeypatch.setattr(maps, "_eigh", counted)
    maps.seesaw_extremum(capped, restarts=1, minimize=False)
    assert len(solves) == 2 * 500


def test_bare_eigh_kernel_is_numpy_eigh_and_raises_on_nan(monkeypatch):
    rng = np.random.default_rng(4)
    stacks = []
    for n in (1, 3, 64):
        X = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
        stacks.append(X + X.conj().transpose(0, 2, 1))
    U = np.linalg.qr(random_matrix(rng, 4))[0]
    stacks.append((U * [1.0, 1.0, 1.0, -2.0]) @ U.conj().T[None])  # degenerate spectrum
    for M in stacks:
        w, V = maps._eigh(M)
        w_ref, V_ref = np.linalg.eigh(M)
        assert w.dtype == w_ref.dtype and V.dtype == V_ref.dtype
        assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)

    def nan_eigh(M, signature):
        w, V = np.linalg.eigh(M)
        w[0, 0] = np.nan  # what LAPACK's non-convergence leaves
        return w, V

    monkeypatch.setattr(maps, "_eigh_lo", nan_eigh)
    with pytest.raises(np.linalg.LinAlgError):
        maps.seesaw_extremum(maps.reduction_map(2), restarts=4)
