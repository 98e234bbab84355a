# src/latticewitness/lattice.py
"""Combinatorics of the 4x4 lattice: subset masks, the geometric
entanglement criteria, special quadruples and the exact witness
strength, uniform coverings, and the end-to-end classifier.

A subset I of the lattice is a 16-bit mask with bit 4*beta + alpha set
for point (alpha, beta); a special quadruple is the mask of its four
points, one of the shared ints of `QUAD_MASKS`.  Point tuples appear
only where the public API takes or returns points, converted by
`point_bit` and `ALL_POINTS` of `states`.  The criteria are exact
integer combinatorics, written once in `_criteria` for an array of
masks; the functions for one mask read its row.  The minimum
partial-transpose eigenvalue of an NPT subset is the closed form
(N - 2c)/(4N), c the largest cross count; `pt_min_eig`, an independent
numpy.linalg oracle for cross-validation only, computes it per block.
A lattice translation tau_t XORs each point's bit index with that of t,
and the special quadruples are the translates of the 15 planes
{0, a, b, a^b} of bit indices whose words commute.
The survey sweeps masks 1..0xffff in 4096-mask blocks: it counts every
mask's points and largest cross count, all an NPT record needs, runs
the rest of `_criteria` and the least translates on PPT masks only,
classifies with the tag dispatch of `classify` and, cross-validating,
runs the oracle once per block; `survey` yields the records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import index

import numpy as np

from . import criteria, linalg, pauli, states
from .states import ALL_POINTS, EmptySubset, check_mask, point_bit  # EmptySubset is re-exported


class BadCovering(ValueError):
    pass


class NotPpt(ValueError):
    pass


def _translates(m) -> list:
    """The 16 translates of a mask, or of each mask of a uint16 array:
    image s is the translate by ALL_POINTS[s].  Per bit k of a point
    index, the swap of adjacent k-bit blocks (lo marks the low block of
    each pair) doubles the list, so swap k was applied to image s iff
    bit k of s is set."""
    imgs = [m]
    for k, lo in ((1, 0x5555), (2, 0x3333), (4, 0x0F0F), (8, 0x00FF)):
        imgs += [(x & lo) << k | (x >> k) & lo for x in imgs]
    return imgs


def translate_mask(t, mask: int) -> int:
    """Image of a subset mask under the lattice translation tau_t, which
    moves bit i to bit i ^ point_bit(t) (Pauli product indices XOR): image
    point_bit(t) of `_translates`.  The mask may be 0."""
    if not 0 <= (mask := index(mask)) <= 0xFFFF:
        raise states.OutOfRange(f"mask {mask:#x} outside 0x0000..0xffff")
    return _translates(mask)[point_bit(t)]


def _build_quad_masks():
    """The 60 special quadruples as masks, ordered by their sorted point
    lists.  Where a and b commute, so do all pairs of {0, a, b, a^b}."""
    planes = {1 | 1 << a | 1 << b | 1 << (a ^ b) for a in range(1, 16) for b in range(a + 1, 16)
              if pauli.words_commute(ALL_POINTS[a], ALL_POINTS[b])}
    masks = {img for q in planes for img in _translates(q)}
    return sorted(masks, key=lambda q: sorted(states.mask_points(q)))


QUAD_MASKS = _build_quad_masks()
_QUAD_BITS = {q: [b for b in range(16) if q >> b & 1] for q in QUAD_MASKS}  # mask -> its 4 bit indices
# _QUAD_TRANSLATE[q][s]: the translate of quadruple q by ALL_POINTS[s], as
# the int of QUAD_MASKS, so that coverings and certificates share them;
# [0] is q itself
_QUAD_TRANSLATE = {q: q for q in QUAD_MASKS}
_QUAD_TRANSLATE = {q: [_QUAD_TRANSLATE[img] for img in _translates(q)] for q in QUAD_MASKS}
_QUADS_THROUGH = [[q for q in QUAD_MASKS if q >> b & 1] for b in range(16)]  # per bit, the 15 quadruples through it


def exact_delta(I: int, p) -> float:
    """Largest delta for which `criteria.diagonal_lattice_witness(I, p,
    delta)` is block positive: delta* = 4 - max |Q & I| over the special
    quadruples Q through the point p of I (0 when such a Q lies inside
    I, else 1, 2 or 3).

    A stabilizer product vector of the maximizing Q gives the delta
    quantity (|Q & I| + delta)/4, which exceeds 1 for every delta above
    delta*; at delta* the witness is block positive, by the ovoid
    identity or by an explicit decomposition (both proved for every
    point in tests/test_criteria.py)."""
    return _delta_at(I, states.point_in(I, p))


def _delta_at(I: int, b: int) -> float:  # exact_delta at bit b of I, unchecked
    return 4.0 - max((q & I).bit_count() for q in _QUADS_THROUGH[b])


# Per bit b = 4*beta + alpha, as uint16 columns: the bit itself, its
# cross (the row plus column through (alpha, beta), the point itself
# excluded), and the bit of the k-pair index j = 4*mu + nu whose pivot
# (mu+2, nu+2) is b; and the special quadruples.
_BIT = np.array([[1 << b] for b in range(16)], dtype=np.uint16)
_CROSS = np.array([[(0xF << (b & 12) | 0x1111 << (b & 3)) & ~(1 << b)] for b in range(16)], dtype=np.uint16)
_K_BIT = np.array([[1 << ((4 * (b & 3) + (b >> 2)) ^ 10)] for b in range(16)], dtype=np.uint16)
_QUADS = np.array(QUAD_MASKS, dtype=np.uint16)[:, None]
# Bit index (16 for none) -> point, and k-pair index -> (mu, nu).
_POINT_AT = ALL_POINTS + [None]
_K_PAIR_AT = [(j >> 2, j & 3) for j in range(16)] + [None]


def _criteria(m):
    """Per mask of the uint16 array m, as lists: the point count, the
    largest cross count, the special point, the one-point point and the
    k pair, each the lowest by bit or k-pair index and None when
    absent, as `special_subset_point`, `entangled_one_point` and
    `k_criterion` report them on a PPT mask.  The temporaries are 2-D,
    one row per cross or per quadruple and one column per mask."""
    counts = np.bitwise_count(_CROSS & m)  # points of m on each cross
    one = counts == 1
    c1 = np.bitwise_or.reduce(one * _BIT, axis=0)  # the bits whose cross meets m once
    k_hits = np.bitwise_or.reduce(one * _K_BIT, axis=0)  # the k-pair indices whose pivot is in c1
    covered = np.bitwise_or.reduce(((m & _QUADS) == _QUADS) * _QUADS, axis=0)
    # lowest set bit, 16 for none: the bits below it, counted in (v & -v) - 1
    sp, op, kc = (np.bitwise_count((v & -v) - 1).tolist() for v in (m & ~covered, c1 & ~m, k_hits))
    return (np.bitwise_count(m).tolist(), counts.max(0).tolist(),
            [_POINT_AT[b] for b in sp], [_POINT_AT[b] for b in op], [_K_PAIR_AT[j] for j in kc])


@lru_cache(maxsize=1)  # the criteria of one mask share one row
def _criteria_row(I: int) -> tuple:
    """`_criteria` of the one mask I: (n, c, special point, one-point
    point, k pair), each of the last three None when absent."""
    return tuple(col[0] for col in _criteria(np.array([I], dtype=np.uint16)))


def ppt_combinatorial(I: int) -> bool:
    """Exact PPT test: every lattice point sees at most N_I/2 subset
    points on its row plus column (the point itself excluded)."""
    n, c = _criteria_row(check_mask(I))[:2]
    return 2 * c <= n


def entangled_one_point(I: int):
    """A point outside I whose row+column meets I exactly once, if any.

    Presence certifies entanglement of a combinatorially-PPT subset.
    """
    if not ppt_combinatorial(I):
        raise NotPpt("one-point criterion applies to PPT subsets only")
    return _criteria_row(check_mask(I))[3]


def k_criterion(I: int):
    """Pair (mu, nu) with k_I^{mu nu} = 1, if any.

    k counts the subset points on the row and column through the pivot
    (mu+2, nu+2) (indices mod 4), the pivot itself excluded from both
    sums, irrespective of whether the pivot belongs to I.  This refines
    the one-point criterion by dropping the membership requirement.
    """
    if not ppt_combinatorial(I):
        raise NotPpt("k-criterion applies to PPT subsets only")
    return _criteria_row(check_mask(I))[4]


def special_subset_point(I: int):
    """A point of I contained in no special quadruple inside I, if any
    (the one with the lowest bit).

    Presence makes I a special subset: its lattice state is entangled.
    """
    return _criteria_row(check_mask(I))[2]


@dataclass
class Covering:
    """Weighted collection of special quadruples inside a subset with
    every subset point covered the same number of times."""

    items: list  # of (quadruple mask, weight)
    multiplicity: int

    @property
    def total_weight(self) -> int:
        return sum(w for _, w in self.items)


def _multicover(quads, I: int, M: int):
    """Exact search: nonnegative integer weights on the quadruple masks
    `quads` (each inside I) such that every point of I is covered
    exactly M times.

    Depth-first with fail-first point selection; returns a weight list
    or None.  The state of a node is two bitsets: `open_`, the bits of I
    whose demand is not met, and `usable`, over quadruple indices, the
    quadruples that miss every bit outside `open_`; `fill` updates
    `weights` and `residual` in place and undoes them on backtracking.
    Complete: once a point's demand is met, any quadruple through it
    becomes unusable, so all its quadruples are decided at the node
    where the point is processed.
    """
    residual = [M] * 16
    weights = [0] * len(quads)
    bits = [_QUAD_BITS[q] for q in quads]
    through = [0] * 16  # per bit, the quadruples through it, as a bitset over indices into quads
    for qi, q_bits in enumerate(bits):
        for b in q_bits:
            through[b] |= 1 << qi

    def fill(b, start, open_, usable):
        # choose a multiset of usable quadruples covering the open bit `b`
        # until its demand is met; index-monotone to avoid duplicate orderings
        cand = through[b] & usable & -(1 << start)
        while cand:
            low = cand & -cand
            qi = low.bit_length() - 1
            weights[qi] += 1  # place quadruple qi once more
            child_open, child_usable = open_, usable
            for x in bits[qi]:
                residual[x] -= 1
                if not residual[x]:
                    child_open &= ~(1 << x)
                    child_usable &= ~through[x]
            if fill(b, qi, child_open, child_usable) if residual[b] else solve(child_open, child_usable):
                return True
            weights[qi] -= 1  # and take it back
            for x in bits[qi]:
                residual[x] += 1
            cand ^= low
        return False

    def solve(open_, usable):
        # fail-first: the open bit with the fewest usable quadruples,
        # ties to the lowest bit
        best = None
        rest = open_
        while rest:
            low = rest & -rest
            b = low.bit_length() - 1
            k = (through[b] & usable).bit_count()
            if not k:
                return False
            if best is None or k < fewest:
                best, fewest = b, k
                if k == 1:
                    break
            rest ^= low
        return best is None or fill(best, 0, open_, usable)

    return weights if solve(I, (1 << len(quads)) - 1) else None


# The largest least multiplicity of a Separable subset, by the orbit
# table of tests/test_orbits.py (every one is 1, 2 or 4).
MAX_MULTIPLICITY = 4


def uniform_covering(I: int):
    """Minimal-multiplicity uniform covering of I by special quadruples
    inside I, searched for M = 1..MAX_MULTIPLICITY; None exactly when I
    is entangled, by the orbit table of tests/test_orbits.py."""
    I = check_mask(I)
    quads = [q for q in QUAD_MASKS if q & I == q]  # with none, every search below fails
    for M in range(1, MAX_MULTIPLICITY + 1):
        if (M * I.bit_count()) % 4:
            continue
        weights = _multicover(quads, I, M)
        if weights is not None:
            return Covering([(q, w) for q, w in zip(quads, weights) if w > 0], M)
    return None


@dataclass
class CertificateRecord:
    """Numeric verification of a covering-based separability certificate."""

    weights: list  # of (quadruple mask, convex weight)
    reconstruction_error: float
    all_quadruple_states_ppt: bool


def separability_certificate(I: int, covering: Covering) -> CertificateRecord:
    """Check that the covering's convex mixture of quadruple states
    reproduces the lattice state of I.  Every item must be the mask of a
    special quadruple (an integer of `QUAD_MASKS`; a report's point list
    converts with `states.points_mask`) with a positive integer weight."""
    I = check_mask(I)
    counts = [0] * 16
    items = []
    for q, w in covering.items:
        try:
            q = _QUAD_TRANSLATE[index(q)][0]  # shared: a record holds no copied masks
        except (TypeError, KeyError):
            raise BadCovering(f"{q!r} is not the mask of a special quadruple") from None
        if q & ~I:
            raise BadCovering("covering quadruple leaves the subset")
        try:
            n = index(w)
        except TypeError:
            n = 0
        if n < 1:
            raise BadCovering(f"weight {w!r} is not a positive integer")
        for b in _QUAD_BITS[q]:
            counts[b] += n
        items.append((q, n))
    M = covering.multiplicity  # uniform on I implies 4 N_Q = M N_I, as 4 points per quadruple
    if any((counts[b] != 0) != bool(I >> b & 1) or (I >> b & 1 and counts[b] != M) for b in range(16)):
        raise BadCovering("covering is not uniform on the subset")
    total = sum(w for _, w in items)
    mix = np.zeros((16, 16), dtype=complex)
    all_ppt = True
    for q, w in items:
        rho_q = states.lattice_state(q)
        mix += (w / total) * rho_q.mat
        if criteria.ppt_check(rho_q).detected:
            all_ppt = False
    err = float(np.max(np.abs(mix - states.lattice_state(I).mat)))
    return CertificateRecord([(q, w / total) for q, w in items], err, all_ppt)


@lru_cache(maxsize=1)  # built on the first oracle call, not at import
def _pt_byte_sums() -> np.ndarray:
    """Per byte value v, for a mask's low and high byte, the flattened sum of the partial transposes
    of the basis projectors at the set bits of v; real, as (1 x sigma_w)|phi+> is real or i times real."""
    pt = np.array([linalg.partial_transpose(P, (4, 4)) for P in states._basis_projectors()]).real
    return np.einsum("vk,bkx->bvx", np.arange(256)[:, None] >> np.arange(8) & 1, pt.reshape(2, 8, 256))


def pt_min_eig(I):
    """Numeric minimum eigenvalue of the partial transpose of the lattice state of the mask I, or
    of each mask of a uint16 array as an array: the numpy.linalg oracle for the combinatorial PPT
    test and the exact NptEntangled eigenvalue.  A mask's matrix is its two bytes' rows of
    `_pt_byte_sums`, its eigenvalues over N: einsum and indexing wake no BLAS threads to spin on."""
    if not isinstance(I, np.ndarray):
        return float(pt_min_eig(np.array([check_mask(I)], dtype=np.uint16))[0])
    low, high = _pt_byte_sums()
    return np.concatenate([
        np.linalg.eigvalsh((low[m & 0xFF] + high[m >> 8]).reshape(-1, 16, 16))[:, 0] / np.bitwise_count(m)
        for m in np.split(I, range(512, len(I), 512))])


@dataclass(slots=True)
class Classification:
    tag: str  # Separable | NptEntangled | PptEntangled
    criteria_fired: list = field(default_factory=list)  # names, precedence order
    special_point: tuple = None
    one_point: tuple = None
    k_pair: tuple = None
    min_pt_eig: float = None
    covering: Covering = None
    witness_delta: float = None  # exact_delta at special_point


def classify(I: int) -> Classification:
    """Evaluation order: combinatorial PPT, then the entanglement
    criteria (special subset, one-point, k), then covering search.  All
    firing criteria are recorded; the tag follows that precedence.

    An NPT subset records the exact minimum partial-transpose eigenvalue
    (N - 2c)/(4N), c the largest cross count.  A special subset records
    the exact witness strength `exact_delta` at its special point.  The
    covering is searched on the translation-canonical mask and moved
    back onto I.
    """
    I = check_mask(I)
    if not ppt_combinatorial(I):
        return _npt_classification(*_criteria_row(I)[:2])
    canon, t = canonical_mask(I)
    hits = special_subset_point(I), entangled_one_point(I), k_criterion(I)
    return _ppt_classification(I, *hits, canon, point_bit(t), {})


def _npt_classification(n: int, c: int) -> Classification:
    return Classification("NptEntangled", ["npt"], None, None, None, (n - 2 * c) / (4 * n))


def _ppt_classification(I: int, sp, op, kc, canon: int, s: int, memo: dict) -> Classification:
    """The classification of the PPT mask I, as `classify` defines it,
    from its special point, one-point point and k pair (each None when
    absent) and its least translate canon, the translate by ALL_POINTS[s].
    `memo` maps canon to its `uniform_covering`."""
    fired = [name for name, hit in (("special_subset", sp), ("one_point", op), ("k_criterion", kc)) if hit is not None]
    if fired:  # then sp is set: a PPT subset is special iff k fires (test_exhaustive_criteria_implications)
        return Classification("PptEntangled", fired, sp, op, kc, witness_delta=_delta_at(I, point_bit(sp)))
    if (cov := memo.get(canon)) is None:  # not searched yet; by the orbit table it finds a covering
        cov = memo[canon] = uniform_covering(canon)
    # tau_s maps I onto canon and is involutive, so it maps back
    moved = [(_QUAD_TRANSLATE[q][s], w) for q, w in cov.items]
    return Classification("Separable", [], covering=Covering(moved, cov.multiplicity))


def canonical_mask(I: int):
    """Least translate of I, with the first translation (in ALL_POINTS
    order) that gives it."""
    imgs = _translates(check_mask(I))
    i = imgs.index(min(imgs))
    return imgs[i], ALL_POINTS[i]


@dataclass(slots=True)
class SurveyRecord:
    mask: int
    n_points: int
    classification: Classification
    cross_check_ok: bool = None  # combinatorial PPT and exact min PT eigenvalue vs numpy.linalg


def _block_canonical(m):
    """Per mask of the uint16 array m, as lists: its least translate and the
    index s of the first translation ALL_POINTS[s] giving it, as in `canonical_mask`."""
    imgs = np.stack(_translates(m))
    return imgs.min(0).tolist(), imgs.argmin(0).tolist()


def _survey_blocks(cross_validate: bool = False):
    """Per 256 masks of 1..0xffff, in order, computed when asked for, as lists: the masks, point
    counts n and largest cross counts c, the classifications of the PPT masks (2c <= n) in mask
    order, and every mask's cross-check against `pt_min_eig` (all None unless cross_validate).
    The rest of `_criteria` and the least translates run per 4096 masks, on PPT masks only;
    within one sweep a least translate's covering is searched once."""
    memo, npt = {}, lru_cache(maxsize=None)(_npt_classification)
    for lo in range(1, 1 << 16, 4096):
        block = np.arange(lo, min(lo + 4096, 1 << 16), dtype=np.uint16)
        ns, cs = np.bitwise_count(block), np.bitwise_count(_CROSS & block).max(0)
        ppt = block[2 * cs <= ns]
        rows = zip(ppt.tolist(), *_criteria(ppt)[2:], *_block_canonical(ppt))
        for j in range(0, len(block), 256):
            m, n_j, c_j = block[j:j + 256], ns[j:j + 256].tolist(), cs[j:j + 256].tolist()
            ppt_cls = [_ppt_classification(*next(rows), memo) for n, c in zip(n_j, c_j) if 2 * c <= n]
            oks = [x >= -1e-9 if 2 * c <= n else x < -1e-9 and abs(npt(n, c).min_pt_eig - x) < 1e-12
                   for n, c, x in zip(n_j, c_j, pt_min_eig(m).tolist())] if cross_validate else [None] * len(m)
            yield m.tolist(), n_j, c_j, ppt_cls, oks


def survey(*, cross_validate: bool = False):
    """Yield a record per nonempty subset, masks 1..0xffff in order, from `_survey_blocks`; the
    NptEntangled ones of one survey share a `Classification` per (n, c), so treat them as read-only."""
    npt = lru_cache(maxsize=None)(_npt_classification)
    for masks, ns, cs, ppt_cls, oks in _survey_blocks(cross_validate):
        ppt = iter(ppt_cls)
        yield from (SurveyRecord(I, n, npt(n, c) if 2 * c > n else next(ppt), ok)
                    for I, n, c, ok in zip(masks, ns, cs, oks))


def survey_all(cross_validate: bool = False, *, workers: int = 1):
    """Every record of one `survey`, as a list in mask order.  `workers`
    is accepted for compatibility and ignored."""
    return list(survey(cross_validate=cross_validate))
