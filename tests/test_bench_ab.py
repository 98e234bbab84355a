"""tools/bench_ab.py against stub benchmark trees that print fixed lines."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"

# A stand-in for perfbench/run.py: a text line, then the JSON result
# line, values fixed per tree and seed.  A run that finds the marker of
# an earlier run in its directory, or runs the workload "bad" of the
# head tree, reports correct: false.
STUB = """
import json, os, sys
arg = lambda name: sys.argv[sys.argv.index(name) + 1]
workload, seed = arg("--workload"), int(arg("--seed"))
fresh = not os.path.exists(".perfbench-out/ran")
os.makedirs(".perfbench-out", exist_ok=True)
open(".perfbench-out/ran", "w").close()
print(f"{workload} items_per_cpu_s ...")
print(json.dumps({"correct": fresh and not (HEAD and workload == "bad"), "attempted": 3, "failed": 0,
                  "metrics": {"items_per_cpu_s": {"value": (120 if HEAD else 100) + seed, "unit": "1/s"},
                              "peak_rss_mb": {"value": 10.6 if HEAD else 10.0, "unit": "MB"}}}))
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def stub_tree(path: Path, head: bool) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(f"HEAD = {head}\n" + STUB)
    (path / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "workloads": [{"name": "w"}, {"name": "bad"}],
        "end_to_end": [{"name": "items_per_cpu_s", "unit": "1/s", "better": "higher", "bound": 0.25},
                       {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]}))
    return path


def test_bench_ab_statistics_and_schema(tmp_path, capsys):
    base, head = stub_tree(tmp_path / "base", False), stub_tree(tmp_path / "head", True)
    out = tmp_path / "bench.json"
    argv = ["--base", str(base), "--head", str(head), "--pairs", "3", "--seconds", "1",
            "--seed", "1", "--seed", "2", "--seed", "3", "--out", str(out)]
    assert load_tool().main(argv) == 0
    record = json.loads(out.read_text())
    assert set(record) == {"machine", "trees", "settings", "load_average_before", "load_average_after", "workloads"}
    assert {"cores", "python", "numpy", "scipy", "numba"} <= set(record["machine"])
    assert record["trees"]["base"] == {"source": str(base), "commit": None, "dirty": None}
    assert record["settings"]["workloads"] == ["w", "bad"] and record["settings"]["seeds"] == [1, 2, 3]

    w = record["workloads"]["w"]
    assert [p["first"] for p in w["pairs"]] == ["base", "head", "base"]
    assert [p["base"]["seed"] for p in w["pairs"]] == [1, 2, 3]
    assert w["failures"] == {"base": 0, "head": 0}  # each run had a fresh copy
    items = w["metrics"]["items_per_cpu_s"]
    assert items["base"] == {"n": 3, "median": 102, "q1": 101.5, "q3": 102.5}
    assert items["head"] == {"n": 3, "median": 122, "q1": 121.5, "q3": 122.5}
    assert items["change_pct"] == pytest.approx(100 * 20 / 102) and items["within_bound"]
    assert items["head_better_pairs"] == items["complete_pairs"] == 3 and items["gap_exceeds_base_iqr"]
    rss = w["metrics"]["peak_rss_mb"]
    assert rss["worse_pct"] == pytest.approx(6.0) and not rss["within_bound"] and rss["head_better_pairs"] == 0

    # a run that reports correct: false is a failure, not a number
    bad = record["workloads"]["bad"]
    assert bad["failures"] == {"base": 0, "head": 3}
    assert bad["metrics"]["items_per_cpu_s"]["head"]["n"] == 0 and "change_pct" not in bad["metrics"]["items_per_cpu_s"]
    assert not any(p["head"]["ok"] for p in bad["pairs"])
    text = capsys.readouterr().out
    assert "+19.6% (bound 25%, within), head better in 3/3 pairs" in text and "no complete runs" in text
