"""The affine symplectic symmetry of the lattice, built from its
definitions and from nothing in `src/`.

A point (alpha, beta) is bit 4*beta + alpha, and its word is the 4x4
matrix sigma_alpha x sigma_beta.  Products of words XOR their bits, so
the 16 bits are the vector space F_2^4 and the commutation form of the
words is a symplectic form on it.  A two-qubit Clifford U conjugates
each lattice projector into another, (conj(U) x U) P_w (conj(U) x U)^dag
= P_{g w} with g in Sp(4,2), and 1 x P_t moves P_w to P_{w ^ t}.
Together they are the affine group AGSp(4,2) acting on subset masks.

Test modules reach the helpers through the `affine_symmetry` fixture:
pytest also loads perfbench/tests/conftest.py, under the same module
name, so `import conftest` is not this file.
"""

import itertools
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

SIGMA = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


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
def lattice_projectors() -> tuple:
    """P_w = (1 x w)|Phi+><Phi+|(1 x w)^dag, 16x16, for the 16 words w,
    |Phi+> the maximally entangled vector of two 4-level parties."""
    phi = np.eye(4).reshape(16) / 2
    vectors = [np.kron(np.eye(4), P) @ phi for P in word_matrices()]
    return tuple(np.outer(v, v.conj()) for v in vectors)


def induced_bit_map(V):
    """The bit map w -> v with V P_w V^dag = P_v for every word w, or
    None when V does not permute the lattice projectors."""
    proj = lattice_projectors()
    images = []
    for P in proj:
        image = V @ P @ V.conj().T
        hits = [v for v, Q in enumerate(proj) if np.allclose(image, Q, atol=1e-12)]
        if len(hits) != 1:
            return None
        images.append(hits[0])
    return tuple(images)


@cache
def affine_generators() -> dict:
    """Name -> (16x16 local unitary, the bit map it induces or None):
    conj(U) x U for Cliffords U that generate the two-qubit Clifford
    group, H and S on each qubit (qubit 0 carries alpha) and both CNOTs,
    and 1 x P_t for the unit translations t = 1, 2, 4 and 8."""
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    S = np.diag([1, 1j])
    one = np.eye(2)
    cliffords = {"H0": np.kron(H, one), "H1": np.kron(one, H), "S0": np.kron(S, one), "S1": np.kron(one, S),
                 "CNOT01": np.eye(4, dtype=complex)[[0, 1, 3, 2]],  # |a b> -> |a, a ^ b>
                 "CNOT10": np.eye(4, dtype=complex)[[0, 3, 2, 1]]}  # |a b> -> |a ^ b, b>
    gens = {name: np.kron(U.conj(), U) for name, U in cliffords.items()}
    gens.update({f"tau{t}": np.kron(np.eye(4), word_matrices()[t]) for t in (1, 2, 4, 8)})
    return {name: (V, induced_bit_map(V)) for name, V in gens.items()}


def mask_images(bit_map) -> list:
    """The image of every mask 0..0xffff under a bit map."""
    masks = np.arange(1 << 16)
    images = np.zeros(1 << 16, dtype=np.int64)
    for b, v in enumerate(bit_map):
        images |= (masks >> b & 1) << v
    return images.tolist()


@cache
def orbit_roots() -> tuple:
    """Per mask 0..0xffff, the least mask of its AGSp(4,2) orbit, by a
    union-find over the generators of `affine_generators`."""
    parent = list(range(1 << 16))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, bit_map in affine_generators().values():
        for m, image in enumerate(mask_images(bit_map)):
            a, b = find(m), find(image)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return tuple(find(m) for m in range(1 << 16))


@pytest.fixture(scope="session")
def affine_symmetry():
    """The cached helpers of this module that test modules use."""
    return SimpleNamespace(commutation_form=commutation_form, symplectic_group=symplectic_group,
                           lattice_projectors=lattice_projectors, affine_generators=affine_generators,
                           orbit_roots=orbit_roots)
