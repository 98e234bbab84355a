"""End-to-end acceptance checks.

Each test evaluates one criterion at its stated tolerance and prints a
single [PASS]/[FAIL] line regardless of pytest capture settings.
"""

import time
from collections import Counter

import numpy as np
import reference

from latticewitness import cli, criteria, lattice, linalg, states

SEED = 0xC0FFEE


def _report(capsys, name, ok, detail=""):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"{name}: {detail}"


def _warm_up():
    rho = states.werner_state(0.5)
    linalg.min_eig(linalg.partial_transpose(rho.mat, rho.dims))


def test_01_bell_partial_transpose(capsys):
    _warm_up()
    v = states.bell_state("phi+")
    rho = np.outer(v, v.conj())
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        low = linalg.min_eig(linalg.partial_transpose(rho, (2, 2)))
        best = min(best, time.perf_counter() - t0)
    ok = abs(low + 0.5) < 1e-10 and best < 1e-3
    _report(capsys, "bell-partial-transpose",
            ok, f"min eig {low:.12f}, {best * 1e6:.0f} us")


def test_02_werner_sweep(capsys):
    alphas = np.linspace(0.0, 1.0, 28)
    spectra_ok = True
    detections = []
    for a in alphas:
        rho = states.werner_state(a)
        eigs = np.sort(linalg.hermitian_eig(
            linalg.partial_transpose(rho.mat, (2, 2)))[0])
        want = np.sort([(1 - 3 * a) / 4] + [(1 + a) / 4] * 3)
        spectra_ok &= bool(np.max(np.abs(eigs - want)) < 1e-10)
        detections.append(criteria.ppt_check(rho).detected)
    step = alphas[1] - alphas[0]
    boundary_ok = all(
        det == (a > 1 / 3) or abs(a - 1 / 3) < step + 1e-12
        for a, det in zip(alphas, detections)
    )
    _report(capsys, "werner-sweep", spectra_ok and boundary_ok,
            f"28 points, spectra {'ok' if spectra_ok else 'BAD'}, "
            f"boundary {'ok' if boundary_ok else 'BAD'}")


def test_03_tiles_realignment(capsys):
    rho = states.upb_complement_state(states.tiles_upb(), (3, 3))
    t0 = time.perf_counter()
    norm = linalg.trace_norm(linalg.reshuffle(rho.mat, (3, 3)))
    dt = time.perf_counter() - t0
    ppt = not criteria.ppt_check(rho).detected
    ok = abs(norm - 1.32) < 0.005 and ppt and dt < 0.1
    _report(capsys, "tiles-realignment", ok,
            f"norm {norm:.4f} (stated 1.32 +/- 0.005), PPT {ppt}, {dt * 1e3:.1f} ms")


def test_04_lattice_criteria_named_examples(capsys):
    bad = []

    def check(cond, label):
        if not cond:
            bad.append(label)

    for name in ("npt-5", "npt-4", "npt-11"):
        check(not lattice.ppt_combinatorial(cli.example_mask(name)), f"{name} NPT")
    for name in ("one-point-6", "one-point-8"):
        m = cli.example_mask(name)
        check(lattice.ppt_combinatorial(m), f"{name} PPT")
        check(lattice.entangled_one_point(m) == (0, 0), f"{name} one-point (0,0)")
    m = cli.example_mask("k-10")
    check(lattice.entangled_one_point(m) is None, "k-10 one-point silent")
    check(lattice.k_criterion(m) == (0, 0), "k-10 k^00 = 1")
    check(lattice.k_criterion(cli.example_mask("k-11")) is not None, "k-11 flagged")
    for name, point in (("special-8", (0, 0)), ("special-10", (3, 3)),
                        ("special-11", (0, 0))):
        got = lattice.special_subset_point(cli.example_mask(name))
        check(got == point, f"{name} special point {point}, got {got}")
    _report(capsys, "lattice-criteria-examples", not bad,
            "all exact" if not bad else "failed: " + "; ".join(bad))


def test_05_coverings(capsys):
    bad = []
    m = cli.example_mask("cover-10")
    cov = lattice.uniform_covering(m)
    if not (cov and cov.total_weight == 5 and cov.multiplicity == 2):
        bad.append("cover-10 N_Q=5 M=2")
    else:
        rec = lattice.separability_certificate(m, cov)
        if rec.reconstruction_error >= 1e-12:
            bad.append(f"cover-10 reconstruction {rec.reconstruction_error:.2e}")
    for name, nq in (("cover-8", 4), ("cover-9", 9)):
        cov = lattice.uniform_covering(cli.example_mask(name))
        if not (cov and cov.total_weight == nq):
            bad.append(f"{name} N_Q={nq}")
    _report(capsys, "coverings", not bad,
            "exact decompositions" if not bad else "; ".join(bad))


def test_06_large_subsets_separable(capsys):
    t0 = time.perf_counter()
    masks = [m for m in range(1, 1 << 16) if m.bit_count() >= 14]
    tags = [lattice.classify(m).tag for m in masks]
    dt = time.perf_counter() - t0
    ok = len(masks) == 137 and all(t == "Separable" for t in tags) and dt < 30
    _report(capsys, "large-subsets-separable", ok,
            f"{len(masks)} subsets, {dt:.1f} s")


def test_07_exhaustive_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    low = reference.pt_minima()  # numpy.linalg on the states built from their definition
    mismatches = [m for m in range(1, 1 << 16) if lattice.ppt_combinatorial(m) != (low[m] >= -1e-9)]
    dt = time.perf_counter() - t0
    ok = not mismatches and dt < 600
    _report(capsys, "exhaustive-oracle-equivalence", ok,
            f"65535 subsets, {len(mismatches)} mismatches, {dt:.0f} s")


def test_08_quadruple_census(capsys):
    quads = [tuple(sorted(states.mask_points(q))) for q in lattice.QUAD_MASKS]
    per_point = [sum(p in q for q in quads) for p in states.ALL_POINTS]
    # the origin quadruples {(0,0), w1, w2, w1*w2} of tests/reference.py, w1 != w2 commuting
    expect_q00 = {tuple(sorted(reference.POINTS[b] for b in range(16) if q >> b & 1))
                  for q in reference.special_quadruples() if q & 1}
    got_q00 = {q for q in quads if q[0] == (0, 0)}
    ok = (len(quads) == 60 and all(c == 15 for c in per_point)
          and len(got_q00) == 15 and got_q00 == expect_q00)
    _report(capsys, "quadruple-census", ok,
            f"{len(quads)} total, {per_point[0]} per point, {len(got_q00)} at origin")


def test_09_witness_arithmetic(capsys):
    # One see-saw per AGSp(4,2) orbit of pairs (I, p), I special-flagged
    # and p any uncovered point of I: each generator V is a product
    # unitary with V C(I, p, delta) V^dag = C(gI, gp, delta), C the delta
    # Choi, so the see-saw maximum of C is the same on the whole orbit.
    t0 = time.perf_counter()
    orbits, points = reference.pair_orbits(), states.ALL_POINTS
    deltas, bad = {}, []
    for I, b in sorted(set(orbits.values())):
        try:  # max_delta re-checks block positivity at delta with the see-saw
            delta = deltas[I, b] = criteria.max_delta(I, points[b], seed=SEED, restarts=64)
        except criteria.DeltaViolated as exc:
            bad.append(f"{I:#06x} {points[b]}: block positivity violated ({exc})")
            continue
        C = criteria._delta_choi(I, b, delta).choi
        for name, (V, g) in reference.affine_generators().items():
            gC = criteria._delta_choi(reference.mask_images(g)[I], g[b], delta).choi
            if not np.allclose(V @ C @ V.conj().T, gC, rtol=0, atol=1e-12):
                bad.append(f"{I:#06x} {points[b]}: {name} does not conjugate C onto its image")
    bad += [f"{I:#06x} {points[b]}: exact delta differs from its orbit's"
            for (I, b), rep in orbits.items() if lattice.exact_delta(I, points[b]) != deltas.get(rep)]
    flagged = [(I, n, p) for I, (n, _, p, _, _) in enumerate(reference.criteria_rows()) if p is not None]
    for I, n, p in flagged:  # at the special point, the first uncovered point
        delta = deltas.get(orbits[I, states.point_bit(p)], 0)
        got = criteria.witness_value(criteria.diagonal_lattice_witness(I, p, delta), states.lattice_state(I))
        if abs(got + delta / (4 * n)) > 1e-9:
            bad.append(f"{I:#06x}: trace value {got:.3e}")
    pairs = sum((I & ~covered).bit_count() for I, covered in enumerate(reference.covered_bits()))
    census = Counter(deltas.values())
    ok = not bad and len(orbits) == pairs == 127120 and len(flagged) == 43648 and census == {1: 48, 2: 6, 3: 1}
    _report(capsys, "witness-arithmetic", ok,
            f"{len(flagged)} flagged subsets, {len(orbits)} pairs in {len(deltas)} orbits "
            f"(delta 1/2/3: {census[1]}/{census[2]}/{census[3]}), {time.perf_counter() - t0:.1f} s"
            + ("" if not bad else "; " + "; ".join(bad[:3])))


def test_10_open_case_fidelity(capsys):
    bad = []
    open_tag = lattice.classify(cli.example_mask("open-11")).tag
    if open_tag != "Unknown":
        bad.append(f"open-11 stated Unknown, computed {open_tag}")
    npt_tag = lattice.classify(cli.example_mask("npt-10")).tag
    if npt_tag != "NptEntangled":
        bad.append(f"npt-10 computed {npt_tag}")
    _report(capsys, "open-case-fidelity", not bad,
            "both as stated" if not bad else "; ".join(bad))
