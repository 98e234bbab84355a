"""The three workloads: their samplers, the call each item makes, and
the checks on each item's output.

Inputs come from the stored pools in `data/` (see derive.py), never from
the code under test.  The workload seed only picks or orders a sample;
the program receives masks and points.

Each workload is a closed loop: one process, one caller, and the next
item starts when the previous one has returned.  `pass_items(j)` gives
the items of the run's j-th pass, the same for every run with that seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

WITNESS_SAMPLE = 55  # items per pass; a run of two or more passes has >= 10 beyond p90
DELTA_TOL = 1e-4
TRACE_TOL = 1e-9
CERT_TOL = 1e-12
TAG_CODES = {"NptEntangled": "N", "PptEntangled": "P", "Unknown": "U"}


def load(name: str) -> dict:
    with open(DATA / f"{name}.json") as fh:
        return json.load(fh)


def stratified_sample(entries, size: int, rng: random.Random, key):
    """One entry from each of `size` strata of near-equal size, the
    strata cut from the pool sorted by `key`, returned in random order.

    Stratifying by the stored per-entry cost keeps a sample's total cost
    nearly independent of the seed.
    """
    ranked = sorted(entries, key=key)
    bounds = [round(i * len(ranked) / size) for i in range(size + 1)]
    sample = [ranked[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(sample)
    return sample


class Survey:
    """`lw survey` over all 65535 masks, in process; one item is one pass.

    The sweep is exhaustive, so the seed is unused."""

    name = "survey"

    def __init__(self, lw, out_dir: Path, seed: int):
        self.lw = lw
        self.ref = load("survey_ref")
        self.out = out_dir / "survey.csv"
        self.pool_size = self.units_per_item = self.ref["masks"]

    def pass_items(self, j: int) -> list:
        return [None]

    def run(self, _item):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.lw.cli.main(["survey", "--out", str(self.out), "--format", "csv", "--workers", "1"])

    def check(self, _item, code) -> int:
        """Masks whose report row is wrong: all of them if the command
        failed or the report is malformed."""
        total = self.ref["masks"]
        if code != 0:
            return total
        try:
            return check_survey_rows(self.out, self.ref)
        except (OSError, ValueError, KeyError, csv.Error):
            return total


def row_code(row: dict) -> str:
    """The reference code of a report row: N, P, U or the multiplicity."""
    tag = row["tag"]
    if tag == "Separable":
        return str(json.loads(row["certificate"])["multiplicity"])
    return TAG_CODES[tag]


def check_survey_rows(path: Path, ref: dict) -> int:
    """Wrong rows of a survey CSV against the stored per-mask codes; every
    NptEntangled row must carry a negative PT eigenvalue.  The tag and
    multiplicity totals are implied by the per-mask codes."""
    codes = ref["codes"]
    bad = 0
    n = 0
    with open(path, newline="") as fh:
        for n, row in enumerate(csv.DictReader(fh), start=1):
            if n > len(codes) or int(row["mask"], 16) != n:
                return len(codes)
            code = row_code(row)
            if code != codes[n - 1] or (code == "N" and not float(row["min_pt_eig"]) < -1e-9):
                bad += 1
    return bad if n == len(codes) else len(codes)


class Witness:
    """`criteria.max_delta` on seeded, cost-stratified samples of the
    special-flagged translation-orbit representatives, a fresh sample
    for every pass."""

    name = "witness"

    def __init__(self, lw, out_dir: Path, seed: int):
        self.lw = lw
        pool = load("witness_pool")
        self.delta_seed = pool["seed"]
        self.restarts = pool["restarts"]
        self.entries = pool["entries"]
        self.pool_size = len(self.entries)
        self.rng = random.Random(seed)
        self.samples = []
        self.units_per_item = 1

    def pass_items(self, j: int) -> list:
        while len(self.samples) <= j:
            drawn = stratified_sample(self.entries, WITNESS_SAMPLE, self.rng, key=lambda e: (e[3], e[0]))
            self.samples.append([(m, tuple(p), d) for m, p, d, _ in drawn])
        return self.samples[j]

    def run(self, item):
        mask, point, _ = item
        return self.lw.criteria.max_delta(mask, point, seed=self.delta_seed, restarts=self.restarts)

    def check(self, item, delta) -> int:
        mask, point, ref = item
        if isinstance(delta, BaseException) or not delta > 0 or abs(delta - ref) > DELTA_TOL:
            return 1
        lw = self.lw
        W = lw.criteria.diagonal_lattice_witness(mask, point, delta)
        got = lw.criteria.witness_value(W, lw.states.lattice_state(mask))
        n = bin(mask).count("1")
        return int(abs(got + delta / (4 * n)) > TRACE_TOL)


class Certify:
    """`lattice.classify` then `lattice.separability_certificate` on every
    Separable translation-orbit representative, in seeded order."""

    name = "certify"

    def __init__(self, lw, out_dir: Path, seed: int):
        self.lw = lw
        self.items = [tuple(e) for e in load("certify_pool")["entries"]]
        random.Random(seed).shuffle(self.items)
        self.pool_size = len(self.items)
        self.units_per_item = 1

    def pass_items(self, j: int) -> list:
        return self.items

    def run(self, item):
        mask, _ = item
        cls = self.lw.lattice.classify(mask)
        return cls, self.lw.lattice.separability_certificate(mask, cls.covering)

    def check(self, item, result) -> int:
        _, mult = item
        if isinstance(result, BaseException):
            return 1
        cls, cert = result
        return int(not (cls.tag == "Separable" and cls.covering.multiplicity == mult
                        and cert.reconstruction_error < CERT_TOL and cert.all_quadruple_states_ppt))


WORKLOADS = {w.name: w for w in (Survey, Witness, Certify)}
