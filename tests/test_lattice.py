"""Combinatorial lattice criteria against the numeric oracle."""

import hashlib
import itertools

import numpy as np
import pytest

from latticewitness import cli, criteria, lattice, linalg, pauli, states


def test_quadruple_census():
    quads = lattice.all_quadruples()
    assert len(quads) == 60
    assert len(set(quads)) == 60
    for q in quads:
        assert len(q) == 4
        assert lattice.is_special(q)
    # each lattice point lies in exactly 15 quadruples
    for p in lattice.ALL_POINTS:
        assert sum(p in q for q in quads) == 15
    q00 = lattice.quadruples_q00()
    assert len(q00) == 15
    for q in q00:
        assert (0, 0) in q


def test_quadruples_are_the_translates_of_the_commuting_planes():
    # independent of the derivation in `lattice`: word matrices from the
    # test's own Pauli matrices, products and commutation by matrix
    # products; point (alpha, beta) is bit 4*beta + alpha
    sig = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    word = [np.kron(sig[b & 3], sig[b >> 2]) for b in range(16)]
    points = [(b & 3, b >> 2) for b in range(16)]

    def product(a, b):  # the word that word a times word b is a phase times
        return next(c for c in range(16) if abs(np.trace(word[c].conj().T @ word[a] @ word[b])) > 1)

    planes = {frozenset((0, a, b, product(a, b))) for a in range(1, 16) for b in range(a + 1, 16)}
    assert len(planes) == 35
    commuting = [q for q in planes
                 if all(np.allclose(word[a] @ word[b], word[b] @ word[a]) for a, b in itertools.combinations(q, 2))]
    assert len(commuting) == 15
    translates = {tuple(sorted(points[product(t, b)] for b in q)) for q in commuting for t in range(16)}
    assert len(translates) == 60
    assert lattice.all_quadruples() == sorted(translates)
    assert lattice.quadruples_q00() == sorted(tuple(sorted(points[b] for b in q)) for q in commuting)


def test_q00_quadruples_pairwise_commute():
    # the words of a special quadruple through the origin commute pairwise
    for q in lattice.quadruples_q00():
        for i in range(4):
            for j in range(i + 1, 4):
                assert pauli.words_commute(q[i], q[j])


def test_nonzero_word_commutant_structure():
    # every nonzero two-qudit word commutes with exactly 6 other nonzero
    # words and lies in exactly 3 origin quadruples
    q00 = lattice.quadruples_q00()
    nonzero = [p for p in lattice.ALL_POINTS if p != (0, 0)]
    for w in nonzero:
        others = [v for v in nonzero if v != w and pauli.words_commute(w, v)]
        assert len(others) == 6
        assert sum(w in q for q in q00) == 3


def test_quadruple_states_separable_and_ppt():
    for q in lattice.all_quadruples()[:10]:
        mask = states.points_mask(q)
        assert lattice.ppt_combinatorial(mask)
        assert lattice.pt_min_eig(mask) > -1e-12
        cls = lattice.classify(mask)
        assert cls.tag == "Separable"
        assert cls.covering.multiplicity == 1


def test_combinatorial_ppt_matches_numeric_sample():
    rng = np.random.default_rng(7)
    for _ in range(300):
        mask = int(rng.integers(1, 1 << 16))
        comb = lattice.ppt_combinatorial(mask)
        assert comb == (lattice.pt_min_eig(mask) >= -1e-9)
        if not comb:
            assert abs(lattice.classify(mask).min_pt_eig - lattice.pt_min_eig(mask)) < 1e-12


def test_ppt_empty_subset_raises():
    with pytest.raises(lattice.EmptySubset):
        lattice.ppt_combinatorial(0)
    with pytest.raises(lattice.EmptySubset):
        lattice.classify(0)
    with pytest.raises(states.EmptySubset):
        lattice.classify(0)


def test_criteria_require_ppt():
    npt_mask = cli.example_mask("npt-5")
    assert not lattice.ppt_combinatorial(npt_mask)
    with pytest.raises(lattice.NotPpt):
        lattice.entangled_one_point(npt_mask)
    with pytest.raises(lattice.NotPpt):
        lattice.k_criterion(npt_mask)


def test_exhaustive_criteria_implications():
    # on every PPT mask the one-point criterion implies the k-criterion;
    # on every mask the special-subset flag is absent exactly when the
    # quadruples inside I cover I (checked on point tuples)
    quads = [frozenset(q) for q in lattice.all_quadruples()]
    n_ppt = 0
    for mask in range(1, 1 << 16):
        if lattice.ppt_combinatorial(mask):
            n_ppt += 1
            if lattice.entangled_one_point(mask) is not None:
                assert lattice.k_criterion(mask) is not None
        points = frozenset(states.mask_points(mask))
        covered = set()
        for q in quads:
            if q <= points:
                covered |= q
        sp = lattice.special_subset_point(mask)
        assert (sp is None) == (covered == points)
        if sp is not None:
            assert sp in points and sp not in covered
    assert n_ppt == 11423


def test_one_point_examples():
    for name in ("one-point-6", "one-point-8"):
        mask = cli.example_mask(name)
        assert lattice.entangled_one_point(mask) == (0, 0)
        assert lattice.pt_min_eig(mask) > -1e-9  # PPT yet entangled


def test_k_criterion_examples():
    mask10 = cli.example_mask("k-10")
    assert lattice.entangled_one_point(mask10) is None
    assert lattice.k_criterion(mask10) == (0, 0)
    mask11 = cli.example_mask("k-11")
    assert lattice.k_criterion(mask11) is not None


def test_special_subset_examples():
    # the 8-point grid: faithfully computed values (the state is NPT with
    # special point (2,2); see the one Q00 quadruple it contains)
    mask8 = cli.example_mask("special-8")
    assert lattice.special_subset_point(mask8) == (2, 2)
    assert lattice.special_subset_point(cli.example_mask("special-10")) == (3, 3)
    assert lattice.special_subset_point(cli.example_mask("special-11")) == (0, 0)


def test_covering_examples():
    cov = lattice.uniform_covering(cli.example_mask("cover-10"))
    assert cov.multiplicity == 2 and cov.total_weight == 5
    cov = lattice.uniform_covering(cli.example_mask("cover-8"))
    assert cov.multiplicity == 2 and cov.total_weight == 4
    cov9 = lattice.uniform_covering(cli.example_mask("cover-9"))
    assert cov9.multiplicity == 4 and cov9.total_weight == 9


def test_certificate_verifies():
    for name in ("cover-10", "cover-8", "cover-9", "open-11"):
        mask = cli.example_mask(name)
        cov = lattice.uniform_covering(mask)
        assert cov is not None
        rec = lattice.separability_certificate(mask, cov)
        assert rec.reconstruction_error < 1e-12
        assert rec.all_quadruple_states_ppt
        assert abs(sum(w for _, w in rec.weights) - 1) < 1e-12


def test_certificate_rejects_bad_coverings():
    mask = cli.example_mask("cover-8")
    cov = lattice.uniform_covering(mask)
    outside = lattice.Covering([(lattice.all_quadruples()[0], 1)], 1)
    if states.points_mask(lattice.all_quadruples()[0]) & mask != states.points_mask(
        lattice.all_quadruples()[0]
    ):
        with pytest.raises(lattice.BadCovering):
            lattice.separability_certificate(mask, outside)
    lopsided = lattice.Covering([(cov.items[0][0], 1)], cov.multiplicity)
    with pytest.raises(lattice.BadCovering):
        lattice.separability_certificate(mask, lopsided)


def test_certificate_rejects_weights_that_are_not_positive_integers():
    # the four cosets of one origin plane at weight 2 and of another at
    # weight -1 cover the full lattice once, with a total weight of 4, so
    # every count and the total check out; a negative weight proves nothing
    def cosets(q):
        return {lattice._QUADRUPLE[lattice.translate_mask(t, states.points_mask(q))] for t in lattice.ALL_POINTS}

    first, second = lattice.quadruples_q00()[:2]
    items = [(q, 2) for q in cosets(first)] + [(q, -1) for q in cosets(second)]
    with pytest.raises(lattice.BadCovering, match="positive integer"):
        lattice.separability_certificate(0xFFFF, lattice.Covering(items, 1))
    q = lattice.quadruples_q00()[0]
    for w in (0, 1.0, 0.5):
        with pytest.raises(lattice.BadCovering, match="positive integer"):
            lattice.separability_certificate(states.points_mask(q), lattice.Covering([(q, w)], w))


def test_certificate_rejects_items_that_are_not_special_quadruples():
    # off-lattice points are caught before any bit shift ((5, 0) would
    # alias (1, 1) and complete the special quadruple 0x0033), and the
    # four rows of the full lattice, whose uniform mixture reproduces its
    # state, are not special
    rows = [tuple((a, b) for a in range(4)) for b in range(4)]
    for mask, items in ((0xFFFF, [(((-1, 0), (0, 1), (1, 0), (1, 1)), 1)]),
                        (0x0033, [(((0, 0), (1, 0), (5, 0), (0, 1)), 1)]),
                        (0x0033, [(((0, 0), 1, 4, 5), 1)]),
                        (0xFFFF, [(r, 1) for r in rows])):
        with pytest.raises(lattice.BadCovering):
            lattice.separability_certificate(mask, lattice.Covering(items, 1))


def test_masks_outside_the_lattice_are_out_of_range():
    # -1 used to index past the point list, 0x1000F was read as 0x000F,
    # and lattice_state(-1) built the full-lattice state
    cov = lattice.uniform_covering(0x000F)
    entry_points = [
        lattice.classify, lattice.ppt_combinatorial, lattice.special_subset_point,
        lattice.entangled_one_point, lattice.k_criterion, lattice.uniform_covering, lattice.canonical_mask,
        lambda m: lattice.separability_certificate(m, cov), states.lattice_state,
    ]
    for mask in (-1, 0x10000, 0x1000F):
        for fn in entry_points:
            with pytest.raises(states.OutOfRange, match="outside 0x0001..0xffff"):
                fn(mask)
        # the bit helpers also take the empty mask
        for fn in (lattice.popcount, lambda m: lattice.translate_mask((1, 0), m)):
            with pytest.raises(states.OutOfRange, match="outside 0x0000..0xffff"):
                fn(mask)
    assert lattice.popcount(0) == 0
    assert lattice.translate_mask((1, 0), 0) == 0


def test_translate_mask_rejects_points_off_the_lattice():
    # (4, 0) used to read as (0, 1), and (0, 4) as the identity
    for bad in ((4, 0), (0, 4), (-1, 0)):
        with pytest.raises(ValueError, match="Pauli index out of range"):
            lattice.translate_mask(bad, 0x0003)


def test_bit_helpers_match_their_definitions():
    for mask in range(1 << 16):
        assert lattice.popcount(mask) == bin(mask).count("1")
    for t in lattice.ALL_POINTS:
        s = lattice.point_bit(t)
        for mask in range(1, 1 << 16):
            assert lattice.translate_mask(t, mask) == sum(1 << (b ^ s) for b in range(16) if mask >> b & 1)


def test_cross_counts_match_a_recount_from_points():
    # the criteria kernel against a recount from point tuples on every
    # mask: the point count, the largest cross count (row plus column,
    # the point itself excluded), the special point, the one-point point
    # and the k pair, each the first in bit order.  The single-mask row
    # is cached for the last mask asked, so masks are asked in
    # alternation: a stale entry would be returned for the wrong mask.
    # The kernel run on all masks at once gives the same rows.
    quads = [frozenset(q) for q in lattice.all_quadruples()]

    def recount(I):
        pts = set(states.mask_points(I))
        cross = {(alpha, beta): sum((a == alpha) + (b == beta) for a, b in pts) - 2 * ((alpha, beta) in pts)
                 for alpha, beta in lattice.ALL_POINTS}
        covered = set().union(*(q for q in quads if q <= pts))
        return (len(pts), max(cross.values()),
                next((p for p in lattice.ALL_POINTS if p in pts and p not in covered), None),
                next((p for p in lattice.ALL_POINTS if p not in pts and cross[p] == 1), None),
                next(((mu, nu) for mu in range(4) for nu in range(4)
                      if cross[((mu + 2) % 4, (nu + 2) % 4)] == 1), None))

    masks = range(1, 1 << 16)
    block = lattice._criteria(np.array(masks, dtype=np.uint16))
    prev, ref_prev = 0xFFFF, recount(0xFFFF)
    for I, n, c, sp, op, kc in zip(masks, *block):
        ref = recount(I)
        assert lattice._criteria_row(I) == ref
        assert lattice._criteria_row(prev) == ref_prev
        assert lattice._criteria_row(I) == ref
        assert (n, c, sp, op, kc) == ref
        prev, ref_prev = I, ref


def test_translation_covariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        mask = int(rng.integers(1, 1 << 16))
        t = lattice.ALL_POINTS[int(rng.integers(16))]
        img = lattice.translate_mask(t, mask)
        assert lattice.popcount(img) == lattice.popcount(mask)
        assert lattice.translate_mask(t, img) == mask  # involutive
        assert lattice.ppt_combinatorial(img) == lattice.ppt_combinatorial(mask)
        assert lattice.classify(img).tag == lattice.classify(mask).tag


def test_canonical_mask():
    # reference: the first least of the 16 translates, in ALL_POINTS order
    for mask in range(1, 1 << 16):
        imgs = [lattice.translate_mask(t, mask) for t in lattice.ALL_POINTS]
        i = imgs.index(min(imgs))
        assert lattice.canonical_mask(mask) == (imgs[i], lattice.ALL_POINTS[i])


def test_quadruple_translate_table():
    for i, q in enumerate(lattice.QUAD_MASKS):
        for s, t in enumerate(lattice.ALL_POINTS):
            assert lattice.QUAD_MASKS[lattice._QUAD_TRANSLATE[i][s]] == lattice.translate_mask(t, q)


def test_block_canonical_matches_canonical_mask():
    masks = list(range(1, 1 << 16))
    canon, index = lattice._block_canonical(np.array(masks, dtype=np.uint16))
    for mask, c, s in zip(masks, canon, index):
        assert lattice.canonical_mask(mask) == (c, lattice.ALL_POINTS[s])


def test_survey_runs_every_covering_search_afresh(monkeypatch):
    # `lw survey` is timed by calling it repeatedly in one process: a
    # covering cache that outlived one survey would read as a speed-up
    searches = []
    search = lattice.uniform_covering

    def counting(I):
        searches.append(I)
        return search(I)

    monkeypatch.setattr(lattice, "uniform_covering", counting)
    for _ in range(2):
        searches.clear()
        for _rec in lattice.survey():
            pass
        assert len(searches) == len(set(searches)) == 680


def test_classify_consistency_invariants():
    rng = np.random.default_rng(17)
    for _ in range(200):
        mask = int(rng.integers(1, 1 << 16))
        cls = lattice.classify(mask)
        if cls.tag == "NptEntangled":
            assert cls.min_pt_eig < -1e-9
        elif cls.tag == "PptEntangled":
            assert cls.criteria_fired
            assert lattice.pt_min_eig(mask) > -1e-9
        elif cls.tag == "Separable":
            rec = lattice.separability_certificate(mask, cls.covering)
            assert rec.reconstruction_error < 1e-10


def test_classify_with_witness():
    mask = cli.example_mask("special-10")
    cls = lattice.classify(mask)
    assert cls.tag == "PptEntangled"
    assert cls.witness_delta == lattice.exact_delta(mask, cls.special_point) == 1.0
    W = criteria.diagonal_lattice_witness(mask, cls.special_point, cls.witness_delta)
    rho = states.lattice_state(mask)
    val = criteria.witness_value(W, rho)
    assert abs(val + cls.witness_delta / (4 * lattice.popcount(mask))) < 1e-12


def test_survey_sample_matches_classify():
    # survey and classify read one criteria kernel; what differs is the
    # dispatch (survey tags NPT masks in its block loop and shares their
    # records) and the covering memo kept across the masks of a survey,
    # checked here on every mask, as is the exact NPT eigenvalue against
    # numpy.linalg
    for rec in lattice.survey(cross_validate=True):
        assert rec.classification == lattice.classify(rec.mask)
        assert rec.n_points == lattice.popcount(rec.mask)
        assert rec.cross_check_ok
    assert next(lattice.survey()).cross_check_ok is None


def test_every_survey_covering_is_uniform_on_its_mask():
    # an integer recount, apart from `separability_certificate`: every item
    # is a special quadruple inside the mask with a positive int weight,
    # and covers each point of the mask `multiplicity` times, no other point
    special = set(lattice.all_quadruples())
    separable = 0
    for rec in lattice.survey():
        cov = rec.classification.covering
        if rec.classification.tag != "Separable":
            assert cov is None
            continue
        separable += 1
        points = set(states.mask_points(rec.mask))
        counts = dict.fromkeys(lattice.ALL_POINTS, 0)
        for q, w in cov.items:
            assert q in special and points.issuperset(q)
            assert type(w) is int and w > 0
            for p in q:
                counts[p] += w
        assert all(k == (cov.multiplicity if p in points else 0) for p, k in counts.items())
    assert separable == 8735


def test_survey_and_classify_reject_masks_that_are_not_integers():
    # a uint16 cast would read 1.5 as mask 0x0001 and 3.0 as 0x0003
    for mask in (1.5, 3.0, np.float64(3)):
        with pytest.raises(TypeError):
            lattice.classify(mask)
    # numpy integer masks are read as the Python ints they hold
    for mask in (np.int64(0x0003), np.uint16(0x0033), np.uint16(0x0777), np.int32(0xF587)):
        assert states.check_mask(mask) == int(mask) and type(states.check_mask(mask)) is int
        assert lattice.classify(mask) == lattice.classify(int(mask))
    # the survey takes no masks: it sweeps the lattice, its record masks
    # Python ints in order
    with pytest.raises(TypeError):
        lattice.survey(range(3))
    masks = [rec.mask for rec in lattice.survey()]
    assert masks == list(range(1, 1 << 16)) and all(type(mask) is int for mask in masks)


def test_every_entry_point_reads_numpy_integer_masks():
    # a numpy integer mask gives the result of the Python int it holds,
    # masks in results are Python ints, and a float is not a mask
    sep, ppt_ent, npt = 0x0777, cli.example_mask("one-point-8"), cli.example_mask("npt-5")
    cov = lattice.uniform_covering(sep)
    some = (sep, ppt_ent, npt)
    for fn, masks in ((lattice.classify, some), (lattice.ppt_combinatorial, some),
                      (lattice.special_subset_point, some), (lattice.entangled_one_point, (sep, ppt_ent)),
                      (lattice.k_criterion, (sep, ppt_ent)), (lattice.uniform_covering, (sep,)),
                      (lambda m: lattice.separability_certificate(m, cov), (sep,)),
                      (lattice.canonical_mask, some), (lattice.pt_min_eig, some),
                      (lambda m: states.lattice_state(m).mat.tolist(), some),
                      (lambda m: lattice.exact_delta(m, states.mask_points(m)[-1]), some),
                      (lattice.popcount, some), (lambda m: lattice.translate_mask((1, 2), m), some)):
        for mask in masks:
            want = fn(mask)
            for typed in (np.int64(mask), np.uint16(mask), np.int32(mask)):
                got = fn(typed)
                assert got == want and type(got) is type(want)
        with pytest.raises(TypeError):
            fn(1.5)
    assert type(lattice.translate_mask((1, 0), np.uint16(3))) is int
    assert all(type(lattice.canonical_mask(typed)[0]) is int for typed in (np.int64(6), np.uint16(6)))


def test_survey_shares_npt_records_within_one_survey_only():
    recs = list(itertools.islice(lattice.survey(), 0x3FF))
    npt = {}
    for rec in recs:
        cls = rec.classification
        if cls.tag == "NptEntangled":  # (n, min eigenvalue) fixes the largest cross count
            assert npt.setdefault((rec.n_points, cls.min_pt_eig), cls) is cls
    assert len(npt) < sum(rec.classification.tag == "NptEntangled" for rec in recs)
    # classify builds a new record on every call, shared with no survey
    shared = recs[0x0003 - 1].classification
    assert shared.tag == "NptEntangled"
    fresh = lattice.classify(0x0003)
    assert fresh == shared and fresh is not shared and fresh is not lattice.classify(0x0003)
    shared.min_pt_eig = 99.0
    shared.criteria_fired.append("mutated")
    assert lattice.classify(0x0003) == fresh
    again = list(itertools.islice(lattice.survey(), 3))[-1]
    assert again.mask == 0x0003
    assert again.classification == fresh and again.classification is not shared


def test_survey_reads_its_masks_one_block_at_a_time(monkeypatch):
    # the criteria of a 4096-mask block are computed when its first
    # record is asked for, not before, and only on the block's PPT masks
    calls = []
    kernel = lattice._criteria

    def counting(m):
        calls.append(m.tolist())
        return kernel(m)

    monkeypatch.setattr(lattice, "_criteria", counting)
    next(lattice.survey())
    assert len(calls) == 1
    calls.clear()
    assert len(list(itertools.islice(lattice.survey(), 5000))) == 5000
    assert len(calls) == 2
    monkeypatch.undo()
    for block, masks in enumerate(calls):
        ppt = [I for I in range(1 + 4096 * block, 1 + 4096 * (block + 1)) if lattice.ppt_combinatorial(I)]
        assert masks == ppt


# sha256 of repr([(mask, multiplicity, items)]) of `uniform_covering` over
# the Separable translation-canonical masks, in mask order
COVERINGS_SHA256 = "c8b9fd0066131b0a3c93565047b17fe2574ef88c883cd13dec21e824472327f8"


def test_covering_search_finds_the_same_first_covering():
    # pins the search order of `_multicover`: any change to it that finds
    # another (still valid) covering first changes the digest
    canon = [rec.mask for rec in lattice.survey() if rec.classification.tag == "Separable"
             and lattice.canonical_mask(rec.mask)[0] == rec.mask]
    found = [(I, lattice.uniform_covering(I)) for I in canon]
    mult = {}
    for _, cov in found:
        mult[cov.multiplicity] = mult.get(cov.multiplicity, 0) + 1
    assert len(canon) == 680 and mult == {1: 91, 2: 483, 4: 106}
    digest = hashlib.sha256(repr([(I, cov.multiplicity, cov.items) for I, cov in found]).encode()).hexdigest()
    assert digest == COVERINGS_SHA256


def test_survey_witness_delta_is_the_checked_exact_delta():
    # the survey takes delta from the unchecked closed form; the public
    # exact_delta checks that the point lies in the mask first
    deltas = [(rec.mask, rec.classification) for rec in lattice.survey()
              if rec.classification.tag == "PptEntangled"]
    assert len(deltas) == 2688
    for mask, cls in deltas:
        assert cls.witness_delta == lattice.exact_delta(mask, cls.special_point)
