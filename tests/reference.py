"""Independent references for the tests, built from the definitions of
the words, the lattice states and the criteria and from nothing in `src/`
(checked by tests/test_surface.py); each is built once, on first use.

A point (alpha, beta) is bit 4*beta + alpha, and its word is the 4x4
matrix sigma_alpha x sigma_beta.  Products of words XOR their bits, so
the 16 bits are the vector space F_2^4 and the commutation form of the
words is a symplectic form on it.  A two-qubit Clifford U conjugates
each lattice projector into another, (conj(U) x U) P_w (conj(U) x U)^dag
= P_{g w} with g in Sp(4,2), and 1 x P_t moves P_w to P_{w ^ t}.
Together they are the affine group AGSp(4,2) acting on subset masks.
A per-mask reference is indexed by mask 0..0xffff.
"""

import itertools
from functools import cache

import numpy as np

SIGMA = tuple(np.array(m, dtype=complex) for m in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                                                  [[1, 0], [0, -1]]))
POINTS = [(b & 3, b >> 2) for b in range(16)]  # the point at bit b
MASKS = np.arange(1 << 16)


@cache
def word_matrices() -> tuple:
    """The 16 words sigma_alpha x sigma_beta, at bit 4*beta + alpha."""
    return tuple(np.kron(SIGMA[b & 3], SIGMA[b >> 2]) for b in range(16))


@cache
def commutation_form() -> tuple:
    """form[a][b] = 1 when words a and b anticommute, 0 when they commute,
    from their matrix products."""
    P = word_matrices()
    return tuple(tuple(int(not np.allclose(P[a] @ P[b], P[b] @ P[a])) for b in range(16)) for a in range(16))


@cache
def symplectic_group() -> frozenset:
    """Sp(4,2): every linear bijection g of F_2^4 with form[g a][g b] =
    form[a][b], as the tuple (g 0, ..., g 15).  A linear map is fixed by
    the images of the bits 1, 2, 4 and 8."""
    form = commutation_form()
    group = set()
    for images in itertools.product(range(1, 16), repeat=4):
        g = [0]
        for v in images:  # g[x] is the XOR of images[k] over the set bits k of x
            g += [x ^ v for x in g]
        if len(set(g)) == 16 and all(form[g[a]][g[b]] == form[a][b] for a in range(16) for b in range(a)):
            group.add(tuple(g))
    return frozenset(group)


@cache
def bell_basis() -> np.ndarray:
    """Row w is Psi_w = (1 x w)|Phi+> for the word w, |Phi+> the
    maximally entangled vector of two 4-level parties."""
    return np.array([np.kron(np.eye(4), P) @ (np.eye(4).reshape(16) / 2) for P in word_matrices()])


@cache
def lattice_projectors() -> tuple:
    """P_w = |Psi_w><Psi_w| = (1 x w)|Phi+><Phi+|(1 x w)^dag, 16x16."""
    return tuple(np.outer(v, v.conj()) for v in bell_basis())


def induced_bit_map(V):
    """The bit map w -> v with V P_w V^dag = P_v for every word w, or
    None when V does not permute the lattice projectors."""
    proj = lattice_projectors()
    hits = [[v for v, Q in enumerate(proj) if np.allclose(V @ P @ V.conj().T, Q, atol=1e-12)] for P in proj]
    return tuple(v for v, in hits) if all(len(h) == 1 for h in hits) else None


@cache
def affine_generators() -> dict:
    """Name -> (16x16 local unitary, the bit map it induces or None):
    conj(U) x U for Cliffords U that generate the two-qubit Clifford
    group, H and S on each qubit (qubit 0 carries alpha) and both CNOTs,
    and 1 x P_t for the unit translations t = 1, 2, 4 and 8."""
    H, S, one = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), np.diag([1, 1j]), np.eye(2)
    cliffords = {"H0": np.kron(H, one), "H1": np.kron(one, H), "S0": np.kron(S, one), "S1": np.kron(one, S),
                 "CNOT01": np.eye(4, dtype=complex)[[0, 1, 3, 2]],  # |a b> -> |a, a ^ b>
                 "CNOT10": np.eye(4, dtype=complex)[[0, 3, 2, 1]]}  # |a b> -> |a ^ b, b>
    gens = {name: np.kron(U.conj(), U) for name, U in cliffords.items()}
    gens.update({f"tau{t}": np.kron(np.eye(4), word_matrices()[t]) for t in (1, 2, 4, 8)})
    return {name: (V, induced_bit_map(V)) for name, V in gens.items()}


@cache
def mask_images(bit_map: tuple) -> list:
    """The image of every mask 0..0xffff under a bit map."""
    images = np.zeros(1 << 16, dtype=np.int64)
    for b, v in enumerate(bit_map):
        images |= (MASKS >> b & 1) << v
    return images.tolist()


def orbit_leaders(items, moves) -> dict:
    """Item -> the first of `items` in its orbit under the maps `moves`,
    for every item reachable from `items`."""
    leader = {}
    for first in items:
        if first not in leader:
            leader[first], frontier = first, [first]
            while frontier:
                x = frontier.pop()
                for move in moves:
                    if (y := move(x)) not in leader:
                        leader[y] = first
                        frontier.append(y)
    return leader


@cache
def orbit_roots() -> tuple:
    """Per mask, the least mask of its AGSp(4,2) orbit."""
    leader = orbit_leaders(range(1 << 16), [mask_images(g).__getitem__ for _, g in affine_generators().values()])
    return tuple(leader[m] for m in range(1 << 16))


@cache
def special_quadruples() -> tuple:
    """The 60 special quadruples as masks, in mask order: the translates
    t ^ {0, a, b, a ^ b} of the planes spanned by two commuting words."""
    form = commutation_form()
    planes = {(0, a, b, a ^ b) for a in range(1, 16) for b in range(1, 16) if a != b and not form[a][b]}
    return tuple(sorted({sum(1 << (x ^ t) for x in plane) for plane in planes for t in range(16)}))


@cache
def translate_images() -> np.ndarray:
    """(16, 0x10000) array: row s holds the image of every mask 0..0xffff
    under the translation by point s, which moves each bit b to bit b ^ s."""
    s = np.arange(16)[:, None]
    return sum((MASKS >> b & 1) << (b ^ s) for b in range(16))


@cache
def least_translates() -> tuple:
    """Per mask, the first least of its 16 translates and that
    translation's index in ALL_POINTS order: (least, first)."""
    imgs = translate_images()
    return imgs.min(0).tolist(), imgs.argmin(0).tolist()


@cache
def covered_bits() -> list:
    """Per mask, the union of the special quadruples inside it."""
    covered = np.zeros(1 << 16, dtype=np.int64)
    for q in special_quadruples():
        covered[MASKS & q == q] |= q
    return covered.tolist()


@cache
def criteria_rows() -> list:
    """Per mask: (point count, largest cross count, special point,
    one-point point, k pair).  A special point is in the mask and in no
    special quadruple inside it, a one-point point is outside the mask
    with cross count 1, and a k pair (mu, nu) has cross count 1 at the
    pivot point (mu + 2, nu + 2) mod 4; each is the first by bit or by
    pair index 4*mu + nu, and None when absent.  The cross count of a
    point is the number of points of the mask on its row or its column,
    the point itself excluded."""
    inside = MASKS[:, None] >> np.arange(16) & 1  # per mask and bit b: point b is in the mask
    line = [[int(a != b and (a & 3 == b & 3 or a >> 2 == b >> 2)) for b in range(16)] for a in range(16)]
    cross = inside @ np.array(line)

    def first(hits, labels):  # per mask, the label of the first true column, or None
        return [(labels + [None])[i] for i in np.where(hits.any(1), hits.argmax(1), len(labels)).tolist()]

    uncovered = (MASKS & ~np.array(covered_bits()))[:, None] >> np.arange(16) & 1
    pairs = [(j >> 2, j & 3) for j in range(16)]
    pivots = [4 * ((nu + 2) % 4) + (mu + 2) % 4 for mu, nu in pairs]
    return list(zip(inside.sum(1).tolist(), cross.max(1).tolist(), first(uncovered == 1, POINTS),
                    first((inside == 0) & (cross == 1), POINTS), first(cross[:, pivots] == 1, pairs)))


@cache
def pt_minima() -> list:
    """Per mask, the least eigenvalue of the partial transpose (on the
    second party) of the lattice state sum_{w in I} P_w / N, by
    numpy.linalg; nan for the empty mask.  The transpose is linear, so
    it is taken once per projector; the projectors are real (each word
    is real or i times real), else real_if_close keeps them complex."""
    pt = np.real_if_close([P.reshape(4, 4, 4, 4).transpose(0, 3, 2, 1).reshape(256) for P in lattice_projectors()])
    inside = (MASKS[:, None] >> np.arange(16) & 1).astype(float)
    low = [float("nan")]
    for lo in range(1, 1 << 16, 4096):
        block = inside[lo:lo + 4096]
        low += np.linalg.eigvalsh((block @ pt / block.sum(1, keepdims=True)).reshape(-1, 16, 16))[:, 0].tolist()
    return low


@cache
def pair_orbits() -> dict:
    """(mask, bit) -> the least pair, by mask and then bit, of its
    AGSp(4,2) orbit, for every mask and every uncovered bit of it (a bit
    of the mask in no special quadruple inside it)."""
    pairs = [(m, b) for m, covered in enumerate(covered_bits()) for b in range(16) if (m & ~covered) >> b & 1]
    moves = [lambda pair, images=mask_images(g), g=g: (images[pair[0]], g[pair[1]])
             for _, g in affine_generators().values()]
    return orbit_leaders(pairs, moves)
