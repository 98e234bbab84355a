"""Tests of the benchmark itself: checkers, tracer and samplers.

    python3 -m pytest perfbench/tests
"""

import csv
import json
import random
from time import process_time

import pytest

import latticewitness as lw
import tracer
import workloads
from workloads import Certify, Witness, check_survey_rows, stratified_sample

FIELDS = ["mask", "tag", "min_pt_eig", "certificate"]


def write_report(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=FIELDS)
        w.writeheader()
        w.writerows(rows)


def good_rows():
    return [
        {"mask": "0x0001", "tag": "NptEntangled", "min_pt_eig": "-0.25", "certificate": ""},
        {"mask": "0x0002", "tag": "Separable", "min_pt_eig": "",
         "certificate": json.dumps({"multiplicity": 2, "quadruples": []})},
        {"mask": "0x0003", "tag": "PptEntangled", "min_pt_eig": "", "certificate": ""},
    ]


REF = {"masks": 3, "codes": "N2P"}


def test_survey_checker_accepts_reference_and_flags_corruption(tmp_path):
    path = tmp_path / "survey.csv"
    write_report(path, good_rows())
    assert check_survey_rows(path, REF) == 0

    flipped = good_rows()
    flipped[2]["tag"] = "NptEntangled"
    flipped[2]["min_pt_eig"] = "-0.1"
    write_report(path, flipped)
    assert check_survey_rows(path, REF) == 1

    positive = good_rows()
    positive[0]["min_pt_eig"] = "0.0"
    write_report(path, positive)
    assert check_survey_rows(path, REF) == 1

    mult = good_rows()
    mult[1]["certificate"] = json.dumps({"multiplicity": 4, "quadruples": []})
    write_report(path, mult)
    assert check_survey_rows(path, REF) == 1

    write_report(path, good_rows()[:2])
    assert check_survey_rows(path, REF) == 3


def test_survey_reference_totals():
    ref = workloads.load("survey_ref")
    assert ref["tags"] == {"NptEntangled": 54112, "PptEntangled": 2688, "Separable": 8735, "Unknown": 0}
    assert ref["multiplicities"] == {"1": 511, "2": 6528, "4": 1696}
    codes = ref["codes"]
    assert len(codes) == 65535
    assert [codes.count(c) for c in "NPU124"] == [54112, 2688, 0, 511, 6528, 1696]


def test_witness_checker_flags_delta_off_by_1e3(tmp_path):
    wl = Witness(lw, tmp_path, seed=3)
    mask, point, ref = min(wl.pass_items(0), key=lambda it: it[0])
    assert wl.check((mask, point, ref), ref) == 0
    assert wl.check((mask, point, ref), ref + 1e-3) == 1
    assert wl.check((mask, point, ref), 0.0) == 1
    assert wl.check((mask, point, ref), RuntimeError("boom")) == 1


def test_witness_item_matches_reference(tmp_path):
    wl = Witness(lw, tmp_path, seed=3)
    item = min(wl.pass_items(0), key=lambda it: it[0])
    assert wl.check(item, wl.run(item)) == 0


def test_certify_checker_flags_corruption(tmp_path):
    wl = Certify(lw, tmp_path, seed=5)
    item = wl.items[0]
    cls, cert = wl.run(item)
    assert wl.check(item, (cls, cert)) == 0
    assert wl.check((item[0], item[1] + 1), (cls, cert)) == 1
    cls.tag = "PptEntangled"
    assert wl.check(item, (cls, cert)) == 1


def test_stratified_sampler_is_deterministic_in_its_seed():
    pool = [(i, (i * 37) % 101) for i in range(500)]
    key = lambda e: (e[1], e[0])  # noqa: E731
    a = stratified_sample(pool, 50, random.Random(7), key)
    assert a == stratified_sample(pool, 50, random.Random(7), key)
    assert a != stratified_sample(pool, 50, random.Random(8), key)
    ranked = sorted(pool, key=key)
    positions = sorted(ranked.index(e) for e in a)
    assert all(10 * i <= pos < 10 * (i + 1) for i, pos in enumerate(positions))


def test_workload_samples_are_deterministic(tmp_path):
    a, b = Witness(lw, tmp_path, 11), Witness(lw, tmp_path, 11)
    assert a.pass_items(2) == b.pass_items(2) and a.pass_items(0) == b.pass_items(0)
    assert a.pass_items(0) != a.pass_items(1)
    assert a.pass_items(0) != Witness(lw, tmp_path, 12).pass_items(0)
    assert len(a.pass_items(0)) == workloads.WITNESS_SAMPLE
    assert Certify(lw, tmp_path, 11).items == Certify(lw, tmp_path, 11).items
    assert sorted(Certify(lw, tmp_path, 11).items) == sorted(Certify(lw, tmp_path, 12).items)


def traced_certify(tmp_path, n=12):
    wl = Certify(lw, tmp_path, seed=1)
    rec = tracer.Recorder()
    with tracer.installed(rec, lw):
        t0 = process_time()
        with rec.span("perfbench.pass"):
            results = [wl.run(item) for item in wl.items[:n]]
        cpu = process_time() - t0
    assert all(wl.check(i, r) == 0 for i, r in zip(wl.items, results))
    return rec, cpu


def test_self_times_nonnegative_and_sum_to_traced_time(tmp_path):
    rec, cpu = traced_certify(tmp_path)
    self_s = rec.self_times()
    assert min(self_s.values()) >= -1e-9
    root = rec.span_end[0] - rec.span_start[0]
    assert sum(self_s.values()) == pytest.approx(root, rel=1e-9)
    assert root <= cpu and root == pytest.approx(cpu, rel=0.05)
    assert rec.count("lattice.classify") == 12
    assert self_s["linalg.hermitian_eig"] > 0


def test_spans_nest_through_module_attributes(tmp_path):
    rec, _ = traced_certify(tmp_path, n=1)
    names = [rec.names[i] for i in rec.span_name]
    edges = {(names[i], names[p]) for i, p in enumerate(rec.span_parent) if p >= 0}
    assert ("lattice.classify", "perfbench.pass") in edges
    assert ("lattice.ppt_combinatorial", "lattice.classify") in edges
    assert ("lattice.ppt_combinatorial", "lattice.k_criterion") in edges
    assert ("linalg.hermitian_eig", "linalg.min_eig") in edges
    assert "pauli.tau" not in names  # counted only


def test_counts_repeat_exactly(tmp_path):
    a, _ = traced_certify(tmp_path)
    b, _ = traced_certify(tmp_path)
    assert a.calls == b.calls and a.counters == b.counters


def test_wrappers_are_removed_and_call_the_original(tmp_path):
    before = {name: getattr(mod, attr) for mod, attr, name in tracer.public_functions(lw)}
    assert "lattice.pt_min_eig" in before and "cli.cmd_survey" in before
    rec = tracer.Recorder()
    with pytest.raises(RuntimeError):
        with tracer.installed(rec, lw):
            assert lw.lattice.classify is not before["lattice.classify"]
            assert lw.lattice.classify.__wrapped__ is before["lattice.classify"]
            assert lw.pauli.tau((1, 0), (1, 1)) == before["pauli.tau"]((1, 0), (1, 1))
            with pytest.raises(lw.lattice.EmptySubset):
                lw.lattice.uniform_covering(0)
            raise RuntimeError("leave the block early")
    after = {name: getattr(mod, attr) for mod, attr, name in tracer.public_functions(lw)}
    assert after == before
    assert rec.count("pauli.tau") == 1
    assert rec.errors[rec.name_id("lattice.uniform_covering")] == 1


def test_witness_counters(tmp_path):
    wl = Witness(lw, tmp_path, seed=3)
    item = min(wl.pass_items(0), key=lambda it: it[0])
    rec = tracer.Recorder()
    with tracer.installed(rec, lw):
        wl.run(item)
    calls = rec.count("criteria.delta_violation")
    validations = rec.counters["criteria.delta_violation.validation_calls"]
    assert 1 <= validations <= calls == rec.count("maps.seesaw_extremum")
    cutting = calls - validations
    assert rec.counters["maps.seesaw_extremum.restarts"] == 64 * validations + 16 * cutting


class _Spawner:
    """A workload whose item runs a child process."""

    def run(self, _item):
        import subprocess
        import sys

        return subprocess.run([sys.executable, "-c", "sum(range(10**7))"]).returncode


def test_child_process_cpu_is_counted():
    import run

    p, results = run.timed_pass(_Spawner(), [None])
    assert results == [0]
    assert p.child_cpu_s > 0.05 and p.item_cpu_s[0] >= p.child_cpu_s
