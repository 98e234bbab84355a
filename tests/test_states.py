"""State constructors: sigma-diagonal and lattice states, named
reference states, and spectral helpers."""

import numpy as np
import pytest
import reference

from latticewitness import criteria, linalg, maps, states


def schmidt_coefficients(v, d1, d2):  # numpy's SVD as an independent oracle
    return np.linalg.svd(np.reshape(v, (d1, d2)), compute_uv=False)


def test_basis_projectors_are_orthonormal_rank_one():
    # P_w = |Psi_w><Psi_w| for the orthonormal Bell basis Psi_w of
    # tests/reference.py, with Psi_(0,0) = max_symmetric_vector(4): so every
    # sum_w c_w P_w has spectrum c and Tr(P_v P_w) = [v == w], to rounding
    B = reference.bell_basis()
    assert np.max(np.abs(B.conj() @ B.T - np.eye(16))) <= 1e-15
    assert np.max(np.abs(states._basis_projectors() - B[:, :, None] * B.conj()[:, None, :])) <= 1e-15
    assert np.array_equal(states.max_symmetric_vector(4), B[0])


def test_sigma_diagonal_state_rejects_bad_weights():
    with pytest.raises(states.BadWeights):
        states.sigma_diagonal_state(np.full(16, 0.1))
    with pytest.raises(states.BadWeights):
        w = np.zeros(16)
        w[0], w[1] = 1.5, -0.5
        states.sigma_diagonal_state(w)
    # NaN fails both a sign and a sum comparison, so it once passed
    for bad in ([0.25, np.nan, 0.25, 0.25], [0.25, np.inf, 0.25, 0.25], [0.5, np.inf, -np.inf, 0.5]):
        with pytest.raises(states.BadWeights):
            states.sigma_diagonal_state(bad + [0.0] * 12)


def test_lattice_state_rejects_empty_subset():
    with pytest.raises(states.EmptySubset):
        states.lattice_state(0)


def test_lattice_indicator_and_state_match_the_projector_sum():
    # the indicator is in bit order, point (alpha, beta) at 4*beta + alpha;
    # the state equals the plain loop over the subset's projectors, bit
    # for bit
    for mask in (0x0001, 0x8421, 0xFFFF, 0x1234, 0x2D71):
        ind = states.lattice_indicator(mask)
        points = states.mask_points(mask)
        for alpha in range(4):
            for beta in range(4):
                assert ind[4 * beta + alpha] == ((alpha, beta) in points)
        ref = np.zeros((16, 16), dtype=complex)
        for alpha, beta in points:
            ref += states._basis_projectors()[states.point_bit((alpha, beta))]
        assert np.array_equal(states.lattice_state(mask).mat, ref / len(points))


def test_projector_sum_matches_the_tensordot_reference():
    # every sigma-diagonal builder sums sum_w c_w P_w without BLAS; the
    # reference is the BLAS contraction it replaced
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rng.normal(size=16)
        ref = np.tensordot(c, states._basis_projectors(), axes=1)
        got = maps.choi_of_diag(c).choi
        assert np.max(np.abs(got - ref)) <= 1e-15
    for _ in range(20):
        w = rng.random(16)
        w /= w.sum()
        ref = np.tensordot(w, states._basis_projectors(), axes=1)
        assert np.max(np.abs(states.sigma_diagonal_state(w).mat - ref)) <= 1e-15


def test_mask_points_round_trip():
    for mask in (0x0001, 0x8421, 0xFFFF, 0x1234):
        assert states.points_mask(states.mask_points(mask)) == mask


def test_point_bit_layout():
    # point (alpha, beta) lives at bit 4*beta + alpha
    assert states.mask_points(1 << 4 * 2 + 3) == [(3, 2)]
    assert states.point_bit((3, 2)) == 11 and states.ALL_POINTS[11] == (3, 2)
    assert [states.point_bit(p) for p in states.ALL_POINTS] == list(range(16))


def test_bell_states_are_orthonormal_and_maximally_entangled():
    kinds = ["phi+", "phi-", "psi+", "psi-"]
    vecs = [states.bell_state(k) for k in kinds]
    for i, v in enumerate(vecs):
        for j, w in enumerate(vecs):
            assert abs(np.vdot(v, w) - (i == j)) < 1e-12
        coeffs = schmidt_coefficients(v, 2, 2)
        assert np.allclose(coeffs[:2], [np.sqrt(0.5)] * 2) and np.sum(coeffs > 1e-6) == 2


def test_werner_partial_transpose_spectrum():
    for alpha in (-1 / 3, 0.0, 0.2, 1 / 3, 0.6, 1.0):
        rho = states.werner_state(alpha)
        pt = linalg.partial_transpose(rho.mat, (2, 2))
        vals = np.sort(np.linalg.eigvalsh(pt))
        expected = np.sort([(1 + alpha) / 4] * 3 + [(1 - 3 * alpha) / 4])
        assert np.allclose(vals, expected, atol=1e-12)


def test_werner_rejects_out_of_range_parameter():
    with pytest.raises(states.OutOfRange):
        states.werner_state(1.5)


def test_tiles_vectors_are_an_orthonormal_product_family():
    vecs = states.tiles_upb()
    assert len(vecs) == 5
    for i, v in enumerate(vecs):
        coeffs = schmidt_coefficients(v, 3, 3)
        assert np.sum(coeffs > 1e-6) == 1 and abs(coeffs[0] - 1) < 1e-10  # product vector
        for w in vecs[i + 1:]:
            assert abs(np.vdot(v, w)) < 1e-12


def test_tiles_family_is_unextendible():
    # no product vector orthogonal to all five: the orthogonal complement
    # contains no product vector, so every vector there has Schmidt rank > 1
    vecs = states.tiles_upb()
    G = np.eye(9) - sum(np.outer(v, v.conj()) for v in vecs)
    basis = np.linalg.eigh(G)[1][:, -4:]  # complement spans 4 dimensions
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = basis @ c
        coeffs = schmidt_coefficients(v / np.linalg.norm(v), 3, 3)
        assert np.sum(coeffs > 1e-6) > 1


def test_upb_complement_state_is_ppt_and_orthogonal_to_the_family():
    vecs = states.tiles_upb()
    rho = states.upb_complement_state(vecs, (3, 3))
    states.assert_density(rho)
    for v in vecs:
        assert abs(np.vdot(v, rho.mat @ v)) < 1e-12
    pt = linalg.partial_transpose(rho.mat, (3, 3))
    assert np.linalg.eigvalsh(pt)[0] > -1e-10


def test_upb_complement_state_rejects_non_orthonormal_input():
    v = np.zeros(9)
    v[0] = 1.0
    with pytest.raises(states.NotOrthonormal):
        states.upb_complement_state([v, v], (3, 3))


def test_even_d_upb_orthonormal_products():
    for d in (4, 6):
        vecs = states.even_d_upb(d)
        assert len(vecs) == 2 * (d // 2 - 1) * d  # two families, m = 1..d/2-1, n = 0..d-1
        for i, v in enumerate(vecs):
            coeffs = schmidt_coefficients(v, d, d)
            assert np.sum(coeffs > 1e-6) == 1 and abs(coeffs[0] - 1) < 1e-10
            for w in vecs[i + 1:]:
                assert abs(np.vdot(v, w)) < 1e-10


def test_even_d_upb_rejects_odd_dimension():
    with pytest.raises(states.OddDim):
        states.even_d_upb(5)


def horodecki_definition(p, dims):  # the two families written out entry by entry (P. Horodecki 1997)
    u, x = (1 + p) / 2, np.sqrt(1 - p * p) / 2
    if dims == (3, 3):
        return np.array([[p, 0, 0, 0, p, 0, 0, 0, p],
                         [0, p, 0, 0, 0, 0, 0, 0, 0],
                         [0, 0, p, 0, 0, 0, 0, 0, 0],
                         [0, 0, 0, p, 0, 0, 0, 0, 0],
                         [p, 0, 0, 0, p, 0, 0, 0, p],
                         [0, 0, 0, 0, 0, p, 0, 0, 0],
                         [0, 0, 0, 0, 0, 0, u, 0, x],
                         [0, 0, 0, 0, 0, 0, 0, p, 0],
                         [p, 0, 0, 0, p, 0, x, 0, u]]) / (8 * p + 1)
    return np.array([[p, 0, 0, 0, 0, p, 0, 0],
                     [0, p, 0, 0, 0, 0, p, 0],
                     [0, 0, p, 0, 0, 0, 0, p],
                     [0, 0, 0, p, 0, 0, 0, 0],
                     [0, 0, 0, 0, u, 0, 0, x],
                     [p, 0, 0, 0, 0, p, 0, 0],
                     [0, p, 0, 0, 0, 0, p, 0],
                     [0, 0, p, 0, x, 0, 0, u]]) / (7 * p + 1)


def test_horodecki_families_match_their_definition():
    for family, dims, params in ((states.horodecki_3x3, (3, 3), (1e-6, 0.1, 1 / 3, 0.5, 0.9)),
                                 (states.horodecki_2x4, (2, 4), (0.0, 0.1, 1 / 3, 0.5, 0.9, 1.0))):
        for p in params:
            rho = family(p)
            assert rho.dims == dims
            assert np.max(np.abs(rho.mat - horodecki_definition(p, dims))) <= 1e-15


def test_horodecki_families_are_ppt_densities():
    # the 3x3 family is PPT entangled, and realignment detects it
    for a in (0.1, 0.5, 0.9):
        rho = states.horodecki_3x3(a)
        states.assert_density(rho)
        assert np.linalg.eigvalsh(linalg.partial_transpose(rho.mat, (3, 3)))[0] > -1e-10
        assert criteria.realignment_check(rho).detected
    for b in (0.1, 0.5, 0.9):
        rho = states.horodecki_2x4(b)
        states.assert_density(rho)
        assert np.linalg.eigvalsh(linalg.partial_transpose(rho.mat, (2, 4)))[0] > -1e-10
