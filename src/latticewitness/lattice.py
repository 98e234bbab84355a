# src/latticewitness/lattice.py
"""Combinatorics of the 4x4 lattice: subset masks, the geometric
entanglement criteria, special quadruples and the exact witness
strength, uniform coverings, and the end-to-end classifier.

A subset I of the lattice is a 16-bit mask with bit 4*beta + alpha set
for point (alpha, beta).  Inside this module subsets, quadruples and
points are masks and bit indices; point tuples appear only where the
public API takes or returns them, converted by `point_bit` (point to
bit) and `ALL_POINTS[b]` (bit to point).  The criteria are exact
integer combinatorics, written once in `_criteria` for an array of
masks; the functions for one mask read its row.  The minimum
partial-transpose eigenvalue of an NPT subset is the closed form
(N - 2c)/(4N), c the largest cross count; `pt_min_eig` computes it
with numpy.linalg as an independent oracle for cross-validation only.
A lattice translation tau_t XORs each point's bit index with that of t,
and the special quadruples are the translates of the 15 planes
{0, a, b, a^b} of bit indices whose words commute.
`survey` sweeps masks 1..0xffff in 4096-mask blocks: it counts every
mask's points and largest cross count, all an NPT record needs, runs
the rest of `_criteria` and the least translates on PPT masks only,
and builds each record with the tag dispatch that `classify` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import index

import numpy as np

from . import criteria, linalg, pauli, states
from .criteria import NotPpt
from .states import EmptySubset, check_mask  # EmptySubset is re-exported


class BadCovering(ValueError):
    pass


ALL_POINTS = [(a, b) for b in range(4) for a in range(4)]


def point_bit(p) -> int:
    return 4 * p[1] + p[0]


def _check_bits(mask: int) -> int:  # the mask as a Python int; 0 is allowed
    if not 0 <= (mask := index(mask)) <= 0xFFFF:
        raise states.OutOfRange(f"mask {mask:#x} outside 0x0000..0xffff")
    return mask


def popcount(mask: int) -> int:
    return _check_bits(mask).bit_count()


# Per bit k of a point index: the swap of adjacent k-bit blocks, as
# (k, mask of the low block of each pair).
_BLOCK_SWAPS = ((1, 0x5555), (2, 0x3333), (4, 0x0F0F), (8, 0x00FF))


def _translates(m) -> list:
    """The 16 translates of a mask, or of each mask of a uint16 array:
    image s is the translate by ALL_POINTS[s].  Each block swap doubles
    the list, so swap k was applied to image s iff bit k of s is set."""
    imgs = [m]
    for k, lo in _BLOCK_SWAPS:
        imgs += [(x & lo) << k | (x >> k) & lo for x in imgs]
    return imgs


def translate_mask(t, mask: int) -> int:
    """Image of a subset mask under the lattice translation tau_t, which
    moves bit i to bit i ^ point_bit(t) (Pauli product indices XOR): one
    swap of adjacent k-bit blocks per set bit k of point_bit(t)."""
    mask = _check_bits(mask)
    s = point_bit(pauli.check_point(t))
    for k, lo in _BLOCK_SWAPS:
        if s & k:
            mask = (mask & lo) << k | (mask >> k) & lo
    return mask


def _build_all_quadruples():
    """The 60 special quadruples as sorted point tuples, in sorted order.
    Where a and b commute, so do all pairs of {0, a, b, a^b}."""
    planes = {1 | 1 << a | 1 << b | 1 << (a ^ b) for a in range(1, 16) for b in range(a + 1, 16)
              if pauli.words_commute(ALL_POINTS[a], ALL_POINTS[b])}
    masks = {img for q in planes for img in _translates(q)}
    return sorted(tuple(sorted(states.mask_points(m))) for m in masks)


ALL_QUADRUPLES = _build_all_quadruples()
QUAD_MASKS = [states.points_mask(q) for q in ALL_QUADRUPLES]
_QUADRUPLE = dict(zip(QUAD_MASKS, ALL_QUADRUPLES))  # mask -> point tuple
_QUAD_INDEX = {q: i for i, q in enumerate(ALL_QUADRUPLES)}  # point tuple -> index
_QUAD_BITS = {q: [b for b in range(16) if q >> b & 1] for q in QUAD_MASKS}  # mask -> its 4 bit indices
# _QUAD_TRANSLATE[i][s]: the index of the translate of quadruple i by ALL_POINTS[s]
_QUAD_TRANSLATE = [[QUAD_MASKS.index(img) for img in _translates(q)] for q in QUAD_MASKS]
_QUADS_THROUGH = [[q for q in QUAD_MASKS if q >> b & 1] for b in range(16)]  # per bit, the 15 quadruples through it


def quadruples_q00() -> list:
    """The 15 special quadruples containing (0,0), in sorted order."""
    return [q for q in ALL_QUADRUPLES if q[0] == (0, 0)]


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
    criteria._check_point(I, p)
    return _delta_at(I, point_bit(p))


def _delta_at(I: int, b: int) -> float:  # exact_delta at bit b of I, unchecked
    return 4.0 - max((q & I).bit_count() for q in _QUADS_THROUGH[b])


def all_quadruples() -> list:
    return list(ALL_QUADRUPLES)


def is_special(points) -> bool:
    """True iff the points form one of the 60 special quadruples."""
    return states.points_mask(points) in _QUADRUPLE


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

    items: list  # of (quadruple point tuple, weight)
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


# Largest multiplicity the covering search tries; the survey finds every
# covering at M = 1, 2 or 4.
MAX_MULTIPLICITY = 12


def uniform_covering(I: int):
    """Minimal-multiplicity uniform covering of I by special quadruples
    inside I, searched for M = 1..MAX_MULTIPLICITY; None if none exists
    in that range."""
    I = check_mask(I)
    quads = [q for q in QUAD_MASKS if q & I == q]  # with none, every search below fails
    for M in range(1, MAX_MULTIPLICITY + 1):
        if (M * I.bit_count()) % 4:
            continue
        weights = _multicover(quads, I, M)
        if weights is not None:
            return Covering([(_QUADRUPLE[q], w) for q, w in zip(quads, weights) if w > 0], M)
    return None


@dataclass
class CertificateRecord:
    """Numeric verification of a covering-based separability certificate."""

    weights: list  # of (quadruple, convex weight)
    reconstruction_error: float
    all_quadruple_states_ppt: bool


def separability_certificate(I: int, covering: Covering) -> CertificateRecord:
    """Check that the covering's convex mixture of quadruple states
    reproduces the lattice state of I.  Every item must be a special
    quadruple (points as tuples, or lists as in a JSON report) of
    `all_quadruples()` with a positive integer weight."""
    I = check_mask(I)
    counts = [0] * 16
    items = [(tuple(tuple(p) if isinstance(p, list) else p for p in q), w) for q, w in covering.items]
    for q, w in items:
        if q not in _QUAD_INDEX:
            raise BadCovering(f"{q} is not a special quadruple")
        if QUAD_MASKS[_QUAD_INDEX[q]] & ~I:
            raise BadCovering("covering quadruple leaves the subset")
        if not isinstance(w, int) or w < 1:
            raise BadCovering(f"weight {w!r} is not a positive integer")
        for p in q:
            counts[point_bit(p)] += w
    M = covering.multiplicity  # uniform on I implies 4 N_Q = M N_I, as 4 points per quadruple
    if any((counts[b] != 0) != bool(I >> b & 1) or (I >> b & 1 and counts[b] != M) for b in range(16)):
        raise BadCovering("covering is not uniform on the subset")
    total = covering.total_weight
    mix = np.zeros((16, 16), dtype=complex)
    all_ppt = True
    for q, w in items:
        rho_q = states.lattice_state(QUAD_MASKS[_QUAD_INDEX[q]])
        mix += (w / total) * rho_q.mat
        if criteria.ppt_check(rho_q).detected:
            all_ppt = False
    err = float(np.max(np.abs(mix - states.lattice_state(I).mat)))
    return CertificateRecord([(q, w / total) for q, w in items], err, all_ppt)


def pt_min_eig(I: int) -> float:
    """Numeric minimum eigenvalue of the partial transpose of the
    lattice state: the independent numpy.linalg oracle against which
    cross-validation checks the combinatorial PPT test and the exact
    NptEntangled eigenvalue."""
    rho = states.lattice_state(I)
    return float(np.linalg.eigvalsh(linalg.partial_transpose(rho.mat, (4, 4), 2))[0])


@dataclass(slots=True)
class Classification:
    tag: str  # Separable | NptEntangled | PptEntangled | Unknown
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
    `memo` maps canon to None or to (multiplicity, [(quadruple index, weight)])."""
    fired = [name for name, hit in (("special_subset", sp), ("one_point", op), ("k_criterion", kc)) if hit is not None]
    if fired:
        delta = None if sp is None else _delta_at(I, point_bit(sp))
        return Classification("PptEntangled", fired, sp, op, kc, witness_delta=delta)
    if canon not in memo:
        cov = uniform_covering(canon)
        memo[canon] = None if cov is None else (cov.multiplicity, [(_QUAD_INDEX[q], w) for q, w in cov.items])
    if memo[canon] is None:
        return Classification("Unknown", [])
    M, items = memo[canon]
    # tau_s maps I onto canon and is involutive, so it maps back
    moved = [(ALL_QUADRUPLES[_QUAD_TRANSLATE[i][s]], w) for i, w in items]
    return Classification("Separable", [], covering=Covering(moved, M))


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


_BLOCK = 4096  # masks per numpy pass of `survey`


def _block_canonical(m):
    """Per mask of the uint16 array m, as lists: its least translate and the
    index s of the first translation ALL_POINTS[s] giving it, as in `canonical_mask`."""
    imgs = np.stack(_translates(m))
    return imgs.min(0).tolist(), imgs.argmin(0).tolist()


def survey(*, cross_validate: bool = False):
    """Yield a record per nonempty subset, masks 1..0xffff in order,
    classifying in one process.  Within one survey the coverings are
    searched once per least translate, and the NptEntangled masks with
    the same point count and largest cross count share one
    `Classification` object: treat records as read-only.  Nothing is
    shared with another survey or with `classify`, which returns a new
    object."""
    memo, npt = {}, lru_cache(maxsize=None)(_npt_classification)  # one NptEntangled record per (n, c)
    for lo in range(1, 1 << 16, _BLOCK):
        m = np.arange(lo, min(lo + _BLOCK, 1 << 16), dtype=np.uint16)
        ns, cs = np.bitwise_count(m), np.bitwise_count(_CROSS & m).max(0)  # point counts, largest cross counts
        ppt = m[2 * cs <= ns]  # the rest of the criteria and the translates only for these
        ppt_rows = zip(*_criteria(ppt)[2:], *_block_canonical(ppt))
        for I, n, c in zip(m.tolist(), ns.tolist(), cs.tolist()):
            cls = npt(n, c) if 2 * c > n else _ppt_classification(I, *next(ppt_rows), memo)
            rec = SurveyRecord(I, n, cls)
            if cross_validate:
                numeric = pt_min_eig(I)
                rec.cross_check_ok = ((cls.tag != "NptEntangled") == (numeric >= -1e-9)
                                      and (cls.min_pt_eig is None or abs(cls.min_pt_eig - numeric) < 1e-12))
            yield rec


def survey_all(cross_validate: bool = False, *, workers: int = 1):
    """Every record of one `survey`, as a list in mask order.  `workers`
    is accepted for compatibility and ignored."""
    return list(survey(cross_validate=cross_validate))
