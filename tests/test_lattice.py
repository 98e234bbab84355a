"""Combinatorial lattice criteria against the numeric oracle."""

import hashlib
import itertools
import re

import numpy as np
import pytest
import reference

from latticewitness import cli, lattice, linalg, pauli, states

QUADS = [tuple(sorted(states.mask_points(q))) for q in lattice.QUAD_MASKS]  # as sorted point tuples
Q00 = [q for q in QUADS if q[0] == (0, 0)]  # the 15 through the origin, sorted


def test_quadruple_census():
    assert len(QUADS) == len(set(QUADS)) == 60 and len(Q00) == 15
    assert all(type(q) is int and q.bit_count() == 4 for q in lattice.QUAD_MASKS)
    assert all(len(q) == 4 and states.points_mask(q) in lattice.QUAD_MASKS for q in QUADS)
    assert all(sum(p in q for q in QUADS) == 15 for p in states.ALL_POINTS)  # 15 through each point


def test_quadruples_are_the_translates_of_the_commuting_planes():
    # independent of the derivation in `lattice`: tests/reference.py reads
    # the commutation of the words off their matrix products
    form = reference.commutation_form()
    planes = {frozenset((0, a, b, a ^ b)) for a in range(1, 16) for b in range(a + 1, 16)}
    commuting = [q for q in planes if not any(form[a][b] for a in q for b in q)]
    assert (len(planes), len(commuting), len(reference.special_quadruples())) == (35, 15, 60)
    as_points = [tuple(sorted(reference.POINTS[b] for b in range(16) if q >> b & 1))
                 for q in reference.special_quadruples()]
    assert QUADS == sorted(as_points)  # QUAD_MASKS is in the order of its point lists
    assert Q00 == sorted(tuple(sorted(reference.POINTS[b] for b in q)) for q in commuting)


def test_nonzero_word_commutant_structure():
    # every nonzero two-qudit word commutes with exactly 6 other nonzero
    # words and lies in exactly 3 origin quadruples
    nonzero = [p for p in states.ALL_POINTS if p != (0, 0)]
    for w in nonzero:
        assert sum(v != w and pauli.words_commute(w, v) for v in nonzero) == 6
        assert sum(w in q for q in Q00) == 3


def test_quadruple_states_separable_and_ppt():
    for mask in lattice.QUAD_MASKS[:10]:
        assert lattice.ppt_combinatorial(mask)
        assert lattice.pt_min_eig(mask) > -1e-12
        cls = lattice.classify(mask)
        assert cls.tag == "Separable"
        assert cls.covering.multiplicity == 1


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


def test_covering_examples():
    # each example's least multiplicity M and total weight N_Q
    for name, M, n_q in (("cover-10", 2, 5), ("cover-8", 2, 4), ("cover-9", 4, 9), ("open-11", 4, 11)):
        cov = lattice.uniform_covering(cli.example_mask(name))
        assert (cov.multiplicity, cov.total_weight) == (M, n_q)


def test_certificate_verifies():
    shared = {id(q) for q in lattice.QUAD_MASKS}
    for name in ("cover-10", "cover-8", "cover-9", "open-11"):
        mask = cli.example_mask(name)
        cov = lattice.uniform_covering(mask)
        assert cov is not None
        rec = lattice.separability_certificate(mask, cov)
        assert rec.reconstruction_error < 1e-12
        assert rec.all_quadruple_states_ppt
        assert abs(sum(w for _, w in rec.weights) - 1) < 1e-12
        # coverings and records hold the ints of QUAD_MASKS, not copies
        assert all(id(q) in shared for q, _ in cov.items + rec.weights)
        # numpy integer masks and weights are accepted, and read as the
        # shared ints and as Python ints
        typed = lattice.Covering([(np.uint16(q), np.int64(w)) for q, w in cov.items], cov.multiplicity)
        rec_typed = lattice.separability_certificate(mask, typed)
        assert rec_typed == rec and all(id(q) in shared for q, _ in rec_typed.weights)
        assert all(type(w) is float for _, w in rec_typed.weights)


def test_certificate_rejects_bad_coverings():
    mask = cli.example_mask("cover-8")
    cov = lattice.uniform_covering(mask)
    q = lattice.QUAD_MASKS[0]
    assert q & ~mask
    with pytest.raises(lattice.BadCovering, match="leaves the subset"):
        lattice.separability_certificate(mask, lattice.Covering([(q, 1)], 1))
    lopsided = lattice.Covering([(cov.items[0][0], 1)], cov.multiplicity)
    with pytest.raises(lattice.BadCovering):
        lattice.separability_certificate(mask, lopsided)


def test_certificate_rejects_weights_that_are_not_positive_integers():
    # the four cosets of one origin plane at weight 2 and of another at
    # weight -1 cover the full lattice once, with a total weight of 4, so
    # every count and the total check out; a negative weight proves nothing
    def cosets(q):
        return {lattice.translate_mask(t, states.points_mask(q)) for t in states.ALL_POINTS}

    first, second = Q00[:2]
    items = [(q, 2) for q in cosets(first)] + [(q, -1) for q in cosets(second)]
    with pytest.raises(lattice.BadCovering, match="positive integer"):
        lattice.separability_certificate(0xFFFF, lattice.Covering(items, 1))
    q = states.points_mask(Q00[0])
    for w in (0, -1, 1.0, 0.5, np.int64(0), np.float64(1.0)):
        with pytest.raises(lattice.BadCovering, match=re.escape(f"weight {w!r} is not a positive integer")):
            lattice.separability_certificate(q, lattice.Covering([(q, w)], 1))
    # a numpy integer weight is read through operator.index, as masks are
    rec = lattice.separability_certificate(q, lattice.Covering([(q, np.int64(1))], 1))
    assert rec.weights == [(q, 1.0)] and type(rec.weights[0][1]) is float


def test_certificate_rejects_items_that_are_not_special_quadruples():
    # an item is the mask of a special quadruple: a mask that is not
    # special (the four rows of the full lattice, whose uniform mixture
    # reproduces its state, are not), an item that is not an integer (a
    # tuple of points; 51.0, which equals the special 0x0033) and a mask
    # outside the lattice are rejected
    rows = [0x000F << 4 * b for b in range(4)]
    for mask, items in ((0x000F, [(0x000F, 1)]),
                        (0xFFFF, [(r, 1) for r in rows]),
                        (0x0033, [(((0, 0), (1, 0), (0, 1), (1, 1)), 1)]),
                        (0x0033, [(51.0, 1)]),
                        (0xFFFF, [(-1, 1)]),
                        (0xFFFF, [(0x10000, 1)])):
        with pytest.raises(lattice.BadCovering):
            lattice.separability_certificate(mask, lattice.Covering(items, 1))
    # a numpy integer mask is accepted
    typed = lattice.Covering([(np.int64(0x0033), 1)], 1)
    assert lattice.separability_certificate(0x0033, typed).weights == [(0x0033, 1.0)]
    # a report's JSON point lists verify after points_mask, which rejects
    # off-lattice points before any bit shift ((5, 0) would alias (1, 1)
    # and complete 0x0033) and float points ([1.0, 0.0] equals (1, 0))
    json_items = [(states.points_mask([[0, 0], [0, 1], [1, 0], [1, 1]]), 1)]
    assert lattice.separability_certificate(0x0033, lattice.Covering(json_items, 1)).reconstruction_error < 1e-12
    for points in ([(-1, 0), (0, 1), (1, 0), (1, 1)], [(0, 0), (1, 0), (5, 0), (0, 1)],
                   [(0, 0), 1, 4, 5], [(0, 0), (0, 1), [1.0, 0.0], (1, 1)],
                   [(0, 0), (0, 1), (4, 0), (1, 1)], [(0, 0), (0, 1), "ab", (1, 1)]):
        with pytest.raises((TypeError, ValueError)):
            states.points_mask(points)


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
        # the bit helper also takes the empty mask
        with pytest.raises(states.OutOfRange, match="outside 0x0000..0xffff"):
            lattice.translate_mask((1, 0), mask)
    assert lattice.translate_mask((1, 0), 0) == 0


def test_translate_mask_rejects_points_off_the_lattice():
    # (4, 0) used to read as (0, 1), and (0, 4) as the identity; point_bit
    # gave 4, 16 and -1
    for bad in ((4, 0), (0, 4), (-1, 0)):
        with pytest.raises(ValueError, match="Pauli index out of range"):
            lattice.translate_mask(bad, 0x0003)
        with pytest.raises(ValueError, match="Pauli index out of range"):
            states.point_bit(bad)


def test_bit_helpers_match_their_definitions():
    # every translate of every mask in the block form, and translate_mask's
    # int path on every mask by (3, 3), which applies all four block swaps
    ref = reference.translate_images()
    assert np.array_equal(lattice._translates(np.arange(1, 1 << 16, dtype=np.uint16)), ref[:, 1:])
    assert [lattice.translate_mask((3, 3), mask) for mask in range(1 << 16)] == ref[15].tolist()


def test_cross_counts_match_a_recount_from_points():
    # the criteria kernel, on all masks at once, against the recount of
    # tests/reference.py; then every mask's cached row, asked after another
    # mask's so that a stale entry would show, and each public criterion
    # read from that row (the one-point and k criteria on PPT masks only)
    ref = reference.criteria_rows()
    masks = range(1, 1 << 16)
    assert list(zip(*lattice._criteria(np.array(masks, dtype=np.uint16)))) == ref[1:]
    for I in masks:
        assert lattice._criteria_row(I) == ref[I]
        n, c, sp, op, kc = ref[I]
        assert lattice.ppt_combinatorial(I) == (2 * c <= n)
        assert lattice.special_subset_point(I) == sp
        if 2 * c <= n:
            assert lattice.entangled_one_point(I) == op and lattice.k_criterion(I) == kc


def test_exhaustive_criteria_implications():
    # on the recount, which the test above ties to every public criterion:
    # the special point is absent exactly when the quadruples inside I
    # cover I, and else lies outside their union; on a PPT mask the
    # one-point criterion implies the k-criterion, and a special point
    # exists exactly when the k-criterion fires
    ref, covered = reference.criteria_rows(), reference.covered_bits()
    n_ppt = 0
    for I in range(1, 1 << 16):
        n, c, sp, op, kc = ref[I]
        assert (sp is None) == (covered[I] == I)
        assert sp is None or (I & ~covered[I]) >> states.point_bit(sp) & 1
        if 2 * c <= n:
            n_ppt += 1
            assert op is None or kc is not None
            assert (sp is None) == (kc is None)
    assert n_ppt == 11423


def test_canonical_mask():
    # reference: the first least of the 16 translates, in ALL_POINTS order
    least, first = reference.least_translates()
    for mask in range(1, 1 << 16):
        assert lattice.canonical_mask(mask) == (least[mask], states.ALL_POINTS[first[mask]])


def test_block_canonical_matches_canonical_mask():
    # the survey's block form, on all masks at once, against the same reference
    least, first = reference.least_translates()
    assert lattice._block_canonical(np.arange(1, 1 << 16, dtype=np.uint16)) == (least[1:], first[1:])


def test_quadruple_translate_table():
    shared = {id(q) for q in lattice.QUAD_MASKS}
    assert list(lattice._QUAD_TRANSLATE) == lattice.QUAD_MASKS
    for q, imgs in lattice._QUAD_TRANSLATE.items():
        assert imgs == reference.translate_images()[:, q].tolist()
        assert imgs[0] is q and all(id(img) in shared for img in imgs)


def test_survey_runs_every_covering_search_afresh(monkeypatch, tmp_path):
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
    # and so is `lw survey`, the benchmark's survey item
    for _ in range(2):
        searches.clear()
        assert cli.main(["survey", "--out", str(tmp_path / "survey.csv")]) == 0
        assert len(searches) == len(set(searches)) == 680


def test_pt_oracle_matches_the_reference_and_the_complex_oracle():
    # the basis projectors are real, so the oracle's real arithmetic is exact
    assert not states._basis_projectors().imag.any() and lattice._pt_byte_sums().dtype == np.float64
    low = lattice.pt_min_eig(np.arange(1, 1 << 16, dtype=np.uint16))
    assert low.shape == (65535,) and np.max(np.abs(low - reference.pt_minima()[1:])) < 1e-12
    for name in cli.WORKED_EXAMPLES:
        mask = cli.example_mask(name)
        pt = linalg.partial_transpose(states.lattice_state(mask).mat, (4, 4))
        assert lattice.pt_min_eig(mask) == low[mask - 1]
        assert abs(low[mask - 1] - np.linalg.eigvalsh(pt)[0]) < 1e-12


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


def test_survey_sample_matches_classify():
    # survey and classify read one criteria kernel; what differs is the
    # dispatch (survey tags NPT masks in its block loop and shares their
    # records) and the covering memo kept across the masks of a survey,
    # checked here on every mask, as is the exact NPT eigenvalue against
    # numpy.linalg; with the NPT tag checked against the combinatorial
    # PPT test, the cross-check is test_07's oracle equivalence for the
    # package's own oracle `pt_min_eig`
    for rec in lattice.survey(cross_validate=True):
        assert rec.classification == lattice.classify(rec.mask)
        assert rec.n_points == rec.mask.bit_count()
        assert rec.cross_check_ok
        assert (rec.classification.tag != "NptEntangled") == lattice.ppt_combinatorial(rec.mask)
    assert next(lattice.survey()).cross_check_ok is None


def test_every_survey_covering_is_uniform_on_its_mask():
    # an integer recount, apart from `separability_certificate`: every item
    # is a special quadruple inside the mask with a positive int weight,
    # and covers each point of the mask `multiplicity` times, no other point
    special = set(reference.special_quadruples())
    separable = 0
    for rec in lattice.survey():
        cov = rec.classification.covering
        if rec.classification.tag != "Separable":
            assert cov is None
            continue
        separable += 1
        counts = [0] * 16  # per bit
        for q, w in cov.items:
            assert q in special and q & ~rec.mask == 0
            assert type(w) is int and w > 0
            counts = [k + w * (q >> b & 1) for b, k in enumerate(counts)]
        assert counts == [cov.multiplicity * (rec.mask >> b & 1) for b in range(16)]
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
                      (lambda m: lattice.translate_mask((1, 2), m), some)):
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
# the Separable translation-canonical masks, in mask order, each item's
# quadruple as its sorted point tuple
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
    as_points = [(I, cov.multiplicity, [(tuple(sorted(states.mask_points(q))), w) for q, w in cov.items])
                 for I, cov in found]
    digest = hashlib.sha256(repr(as_points).encode()).hexdigest()
    assert digest == COVERINGS_SHA256


def test_survey_witness_delta_is_the_checked_exact_delta():
    # the survey takes delta from the unchecked closed form; the public
    # exact_delta checks that the point lies in the mask first
    deltas = [(rec.mask, rec.classification) for rec in lattice.survey()
              if rec.classification.tag == "PptEntangled"]
    assert len(deltas) == 2688
    for mask, cls in deltas:
        assert cls.witness_delta == lattice.exact_delta(mask, cls.special_point)
