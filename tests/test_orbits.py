"""The classification is complete: the affine symplectic group AGSp(4,2)
splits the 65535 nonempty subsets into 68 orbits, and on each orbit the
tag, the least covering multiplicity M, the witness delta and the
minimum partial-transpose eigenvalue are constant.  No orbit is left
undecided, and no covering needs M > 4.

The group and its orbits come from tests/reference.py, built from the
definitions of the words and the lattice states; the table below is
checked against `lattice.survey()` on every mask and numerically on
every representative.  `criteria_fired` is not an orbit invariant (the
one-point criterion fires on 576 of the 1440 masks of orbit 0x037b and
on 96 of the 960 of orbit 0x077f), so it is not in the table.
"""

from collections import Counter
from fractions import Fraction as F

import numpy as np
import reference

from latticewitness import lattice, states

# least mask, orbit size, tag, least covering multiplicity M, witness
# delta, minimum partial-transpose eigenvalue (N - 2c)/(4N)
ORBITS = [
    (0x0001, 16, "NptEntangled", None, None, F(-1, 4)),
    (0x0003, 120, "NptEntangled", None, None, F(-1, 4)),
    (0x0007, 320, "NptEntangled", None, None, F(-1, 4)),
    (0x000f, 80, "NptEntangled", None, None, F(-1, 8)),
    (0x0013, 240, "NptEntangled", None, None, F(-1, 12)),
    (0x0017, 1440, "NptEntangled", None, None, F(-1, 8)),
    (0x001e, 240, "NptEntangled", None, None, F(-1, 4)),
    (0x001f, 960, "NptEntangled", None, None, F(-3, 20)),
    (0x0033, 60, "Separable", 1, None, F(0)),
    (0x0037, 720, "NptEntangled", None, None, F(-1, 20)),
    (0x003f, 720, "NptEntangled", None, None, F(-1, 12)),
    (0x0077, 120, "Separable", 2, None, F(0)),
    (0x007f, 240, "NptEntangled", None, None, F(-1, 28)),
    (0x00ff, 30, "Separable", 1, None, F(0)),
    (0x0117, 1440, "NptEntangled", None, None, F(-3, 20)),
    (0x011e, 96, "NptEntangled", None, None, F(-1, 4)),
    (0x011f, 960, "NptEntangled", None, None, F(-1, 6)),
    (0x0127, 1152, "NptEntangled", None, None, F(-1, 20)),
    (0x012f, 2880, "NptEntangled", None, None, F(-1, 12)),
    (0x0137, 2880, "NptEntangled", None, None, F(-1, 12)),
    (0x013f, 2880, "NptEntangled", None, None, F(-3, 28)),
    (0x016f, 2880, "NptEntangled", None, None, F(-1, 28)),
    (0x0177, 960, "NptEntangled", None, None, F(-1, 28)),
    (0x017f, 1920, "NptEntangled", None, None, F(-1, 16)),
    (0x01ff, 240, "NptEntangled", None, None, F(-1, 36)),
    (0x033f, 480, "NptEntangled", None, None, F(-1, 16)),
    (0x0356, 240, "NptEntangled", None, None, F(-1, 12)),
    (0x0357, 960, "NptEntangled", None, None, F(-1, 28)),
    (0x0359, 192, "PptEntangled", None, 1.0, F(0)),
    (0x035b, 1920, "NptEntangled", None, None, F(-1, 28)),
    (0x035e, 1440, "NptEntangled", None, None, F(-3, 28)),
    (0x035f, 5760, "NptEntangled", None, None, F(-1, 16)),
    (0x0377, 720, "Separable", 2, None, F(0)),
    (0x037b, 1440, "PptEntangled", None, 1.0, F(0)),
    (0x037f, 2880, "NptEntangled", None, None, F(-1, 36)),
    (0x03cf, 360, "Separable", 1, None, F(0)),
    (0x03de, 1440, "NptEntangled", None, None, F(-1, 16)),
    (0x03df, 2880, "NptEntangled", None, None, F(-1, 36)),
    (0x03ff, 720, "Separable", 2, None, F(0)),
    (0x0777, 160, "Separable", 4, None, F(1, 36)),
    (0x077b, 1440, "NptEntangled", None, None, F(-1, 36)),
    (0x077f, 960, "PptEntangled", None, 1.0, F(0)),
    (0x07bd, 1920, "NptEntangled", None, None, F(-1, 36)),
    (0x07bf, 2880, "Separable", 2, None, F(0)),
    (0x07ff, 960, "Separable", 4, None, F(1, 44)),
    (0x0fff, 80, "Separable", 2, None, F(1, 24)),
    (0x111e, 16, "NptEntangled", None, None, F(-1, 4)),
    (0x111f, 160, "NptEntangled", None, None, F(-5, 28)),
    (0x113f, 720, "NptEntangled", None, None, F(-1, 8)),
    (0x117f, 960, "NptEntangled", None, None, F(-1, 12)),
    (0x11ff, 120, "NptEntangled", None, None, F(-1, 20)),
    (0x135f, 960, "NptEntangled", None, None, F(-1, 12)),
    (0x137f, 2880, "NptEntangled", None, None, F(-1, 20)),
    (0x13ff, 720, "NptEntangled", None, None, F(-1, 44)),
    (0x177e, 240, "NptEntangled", None, None, F(-1, 20)),
    (0x177f, 1440, "NptEntangled", None, None, F(-1, 44)),
    (0x17bd, 192, "Separable", 2, None, F(0)),
    (0x17bf, 1152, "NptEntangled", None, None, F(-1, 44)),
    (0x17ff, 1440, "Separable", 2, None, F(0)),
    (0x1eee, 16, "Separable", 2, None, F(1, 20)),
    (0x1eef, 96, "PptEntangled", None, 1.0, F(1, 44)),
    (0x1eff, 240, "Separable", 2, None, F(0)),
    (0x1fff, 320, "Separable", 4, None, F(1, 52)),
    (0x33ff, 60, "Separable", 1, None, F(0)),
    (0x37ff, 240, "Separable", 4, None, F(1, 52)),
    (0x3fff, 120, "Separable", 2, None, F(1, 28)),
    (0x7fff, 16, "Separable", 4, None, F(1, 20)),
    (0xffff, 1, "Separable", 1, None, F(1, 16)),
]


def _row(cls):
    """The table columns a classification determines: tag, M, delta and
    the minimum PT eigenvalue it records (NptEntangled only)."""
    return cls.tag, cls.covering and cls.covering.multiplicity, cls.witness_delta, cls.min_pt_eig


def _expected(row):
    _, _, tag, M, delta, low = row
    return tag, M, delta, float(low) if tag == "NptEntangled" else None


def test_sp42_is_the_720_linear_maps_that_keep_the_commutation_form():
    form = reference.commutation_form()
    # the commutation form is symplectic on the bits under XOR: alternating,
    # bilinear and nondegenerate
    for a in range(16):
        assert form[a][a] == 0
        assert any(form[a]) == (a != 0)
        for b in range(16):
            assert form[a][b] == form[b][a]
            assert all(form[a ^ b][c] == form[a][c] ^ form[b][c] for c in range(16))
    group = reference.symplectic_group()
    assert len(group) == 720  # |Sp(4,2)| = 2^4 (2^2 - 1)(2^4 - 1)
    for g in group:
        assert sorted(g) == list(range(16))
        assert all(g[a ^ b] == g[a] ^ g[b] for a in range(16) for b in range(16))


def test_cliffords_and_translations_permute_the_lattice_projectors():
    group = reference.symplectic_group()
    proj = reference.lattice_projectors()
    cliffords = []
    for name, (V, bit_map) in reference.affine_generators().items():
        assert np.allclose(V @ V.conj().T, np.eye(16))
        assert bit_map is not None, name
        for w, v in enumerate(bit_map):
            assert np.allclose(V @ proj[w] @ V.conj().T, proj[v], atol=1e-12)
        if name.startswith("tau"):
            t = int(name[3:])
            assert bit_map == tuple(w ^ t for w in range(16))
        else:
            assert bit_map in group, name
            cliffords.append(bit_map)
    # the Clifford bit maps generate all of Sp(4,2)
    generated = reference.orbit_leaders([tuple(range(16))], [lambda g, c=c: tuple(c[x] for x in g) for c in cliffords])
    assert set(generated) == group


def test_orbit_table_holds_on_every_mask():
    roots = reference.orbit_roots()
    assert Counter(roots[1:]) == {row[0]: row[1] for row in ORBITS}
    table = {row[0]: _expected(row) for row in ORBITS}
    tags = [row[2] for row in ORBITS]
    assert (tags.count("NptEntangled"), tags.count("PptEntangled"), tags.count("Separable")) == (44, 4, 20)
    assert sorted(row[3] for row in ORBITS if row[3]) == [1] * 5 + [2] * 10 + [4] * 5
    n = 0
    for rec in lattice.survey():
        assert _row(rec.classification) == table[roots[rec.mask]], hex(rec.mask)
        n += 1
    assert n == 65535
    for mask, expected in table.items():
        assert _row(lattice.classify(mask)) == expected


def test_orbit_representatives_check_numerically():
    proj = reference.lattice_projectors()
    for row in ORBITS:
        mask, _, tag, M, _, low = row
        rho = sum(proj[b] for b in range(16) if mask >> b & 1) / mask.bit_count()
        assert np.allclose(rho, states.lattice_state(mask).mat, atol=1e-15)
        assert abs(reference.pt_minima()[mask] - float(low)) < 1e-12, hex(mask)
        cov = lattice.uniform_covering(mask)
        if tag != "Separable":
            assert cov is None, hex(mask)
            continue
        assert cov.multiplicity == M
        cert = lattice.separability_certificate(mask, cov)
        assert cert.reconstruction_error < 1e-12 and cert.all_quadruple_states_ppt
