"""Choi representations, named positive maps, and the product-vector
see-saw."""

import numpy as np
import pytest

from latticewitness import criteria, linalg, maps, pauli, states


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_kraus_choi_round_trip_on_200_random_maps():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        terms = [(float(rng.uniform(0.2, 2.0)), random_matrix(rng, d))
                 for _ in range(int(rng.integers(1, 4)))]
        cm = maps.choi_of_kraus(maps.KrausSet(terms), d)
        X = random_matrix(rng, d)
        direct = sum(c * (A @ X @ A.conj().T) for c, A in terms)
        assert np.allclose(maps.apply(cm, X), direct, atol=1e-10)


def test_choi_of_diag_spectrum_is_the_coefficient_multiset():
    rng = np.random.default_rng(1)
    coeffs = rng.normal(size=16)
    cm = maps.choi_of_diag(maps.SigmaDiagMap(2, coeffs))
    assert np.allclose(np.sort(np.linalg.eigvalsh(cm.choi)), np.sort(coeffs), atol=1e-12)


def test_diag_map_applies_as_weighted_conjugations():
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=16)
    cm = maps.choi_of_diag(maps.SigmaDiagMap(2, coeffs))
    X = random_matrix(rng, 4)
    direct = sum(
        coeffs[states.word_flat_index(w)] * pauli.word_matrix(w) @ X @ pauli.word_matrix(w)
        for w in states.words(2)
    )
    assert np.allclose(maps.apply(cm, X), direct, atol=1e-10)


def test_coefficient_matrix_round_trip():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=16)
    cm = maps.choi_of_diag(maps.SigmaDiagMap(2, coeffs))
    C = maps.coefficient_matrix(cm)
    assert np.allclose(np.diag(C), coeffs, atol=1e-10)
    assert np.allclose(C - np.diag(np.diag(C)), 0, atol=1e-10)
    back = maps.diagonalize_map(C, 2)
    assert np.allclose(back.coeffs, coeffs, atol=1e-10)


def test_trace_map_sends_everything_to_the_trace():
    rng = np.random.default_rng(4)
    for n in (1, 2):
        d = 2 ** n
        cm = maps.choi_of_diag(maps.trace_map(n))
        X = random_matrix(rng, d)
        assert np.allclose(maps.apply(cm, X), np.trace(X) * np.eye(d), atol=1e-10)


def test_transposition_map_transposes():
    rng = np.random.default_rng(5)
    for n in (1, 2):
        d = 2 ** n
        cm = maps.choi_of_diag(maps.transposition_map(n))
        X = random_matrix(rng, d)
        assert np.allclose(maps.apply(cm, X), X.T, atol=1e-10)


def test_transposition_and_reduction_are_positive_but_not_cp():
    for n in (1, 2):
        ok, low = maps.is_completely_positive(maps.choi_of_diag(maps.transposition_map(n)))
        assert not ok and low < -1e-3
    for d in (2, 3, 4):
        cm = maps.reduction_map(d)
        ok, low = maps.is_completely_positive(cm)
        assert not ok
        assert abs(low - (1 - d) / d) < 1e-8
    ok, _ = maps.is_completely_positive(maps.choi_of_diag(maps.trace_map(2)))
    assert ok


def test_reduction_map_action():
    rng = np.random.default_rng(6)
    d = 3
    X = random_matrix(rng, d)
    got = maps.apply(maps.reduction_map(d), X)
    assert np.allclose(got, np.trace(X) * np.eye(d) - X, atol=1e-10)


def test_stormer_split_of_transposition():
    # trace - transposition/mu is completely positive from mu = 1 on
    cp, nonneg = maps.stormer_cp_part(maps.transposition_map(2), 1.0)
    assert nonneg
    vals = np.asarray(cp.coeffs)
    hits = [w for w in states.words(2) if vals[states.word_flat_index(w)] > 1e-12]
    assert all(abs(vals[states.word_flat_index(w)] - 0.5) < 1e-12 for w in hits)
    assert len(hits) == 6 and all(list(w).count(2) == 1 for w in hits)
    _, nonneg_small = maps.stormer_cp_part(maps.transposition_map(2), 0.5)
    assert not nonneg_small
    with pytest.raises(maps.NonPositiveMu):
        maps.stormer_cp_part(maps.transposition_map(2), 0.0)


def test_gamma_family_is_positive_but_not_cp_for_positive_times():
    # t = 0 is the identity map; every t > 0 gives a positive map whose
    # Choi matrix is not PSD, i.e. a genuine witness family
    rng = np.random.default_rng(7)
    X = random_matrix(rng, 4)
    cm0 = maps.choi_of_diag(maps.gamma_map(0.0))
    assert np.allclose(maps.apply(cm0, X), X, atol=1e-10)
    for t in (0.1, 0.5, 2.0):
        cm = maps.choi_of_diag(maps.gamma_map(t))
        ok, low = maps.is_completely_positive(cm)
        assert not ok and low < -1e-3
        res = maps.block_positivity_seesaw(cm, restarts=16)
        assert not res.violated
    for t in (-0.1, float("nan")):
        with pytest.raises(maps.BadParameter):
            maps.gamma_map(t)


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


def test_extend_apply_matches_kron_of_choi_action():
    rng = np.random.default_rng(8)
    coeffs = rng.normal(size=16)
    cm = maps.choi_of_diag(maps.SigmaDiagMap(2, coeffs))
    A = random_matrix(rng, 4)
    B = random_matrix(rng, 4)
    R = np.kron(A, B)
    rho = states.DensityMatrix(R, (4, 4))
    assert np.allclose(maps.extend_apply(cm, rho), np.kron(A, maps.apply(cm, B)), atol=1e-9)


def test_seesaw_is_deterministic_and_bounded_by_extremal_eigenvalues():
    cm = maps.reduction_map(3)
    a = maps.seesaw_extremum(cm, restarts=16, seed=123, minimize=True)
    b = maps.seesaw_extremum(cm, restarts=16, seed=123, minimize=True)
    assert a[0] == b[0]
    assert a[0] >= np.linalg.eigvalsh(cm.choi)[0] - 1e-12
    top = maps.seesaw_extremum(cm, restarts=16, seed=123, minimize=False)
    assert top[0] <= np.linalg.eigvalsh(cm.choi)[-1] + 1e-12


def test_seesaw_start_vectors_are_drawn_once_and_left_unchanged():
    cm = criteria._delta_choi(0xf587, (3, 3), 1.5)
    first = maps.seesaw_extremum(cm, restarts=64, seed=5, minimize=False)
    second = maps.seesaw_extremum(cm, restarts=64, seed=5, minimize=False)
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1]) and np.array_equal(first[2], second[2])
    cached = maps._start_vectors(5, 64, 4)
    assert not cached.flags.writeable
    for i in range(64):
        rng = np.random.default_rng([5, i])
        fresh = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.array_equal(cached[i], fresh / np.linalg.norm(fresh))


def test_seesaw_rejects_fewer_than_one_restart():
    cm = maps.reduction_map(2)
    for restarts in (0, -1):
        with pytest.raises(maps.BadParameter):
            maps.seesaw_extremum(cm, restarts=restarts)
        with pytest.raises(maps.BadParameter):
            maps.block_positivity_seesaw(cm, restarts=restarts)


def test_seesaw_certificate_is_reproducible_from_the_vectors():
    cm = maps.choi_of_diag(maps.transposition_map(2))
    res = maps.block_positivity_seesaw(cm, restarts=16, seed=99)
    # transposition is a positive map: block positive Choi, min exactly 0
    assert not res.violated
    assert abs(res.value - maps.product_expectation(cm, res.psi, res.phi)) < 1e-10
    assert res.value > -1e-9


def test_seesaw_finds_violations_of_non_positive_maps():
    # coefficient -1 on a single nonzero word gives a non block-positive Choi
    coeffs = np.zeros(16)
    coeffs[0] = 0.1
    coeffs[5] = -1.0
    cm = maps.choi_of_diag(maps.SigmaDiagMap(2, coeffs))
    res = maps.block_positivity_seesaw(cm, restarts=16, seed=7)
    assert res.violated
    assert maps.product_expectation(cm, res.psi, res.phi) < -1e-6


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
        rng = np.random.default_rng([seed, i])
        psi = rng.normal(size=d1) + 1j * rng.normal(size=d1)
        psi /= np.linalg.norm(psi)
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


def test_batched_seesaw_matches_the_per_restart_loop():
    rng = np.random.default_rng(9)
    kraus = maps.KrausSet([(c, rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
                           for c in (1.0, 0.5)])
    cases = [
        (criteria._delta_choi(0x037f, (3, 0), 1.0), False),  # one restart runs 500 steps
        (criteria._delta_choi(0xf587, (3, 3), 1.5), False),
        (maps.reduction_map(3), True),
        (maps.choi_of_kraus(kraus, 2), True),  # M_2 -> M_4
    ]
    for cm, minimize in cases:
        for restarts in (1, 64):
            val, psi, phi = maps.seesaw_extremum(cm, restarts=restarts, minimize=minimize)
            assert psi.shape == (cm.in_dim,) and phi.shape == (cm.out_dim,)
            assert abs(val - _seesaw_reference(cm, restarts, 0xC0FFEE, minimize)) < 1e-12
            assert abs(val - maps.product_expectation(cm, psi, phi)) < 1e-10


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
