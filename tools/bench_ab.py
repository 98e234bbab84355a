"""A/B benchmark of two source trees with the repository's own benchmark.

    python3 tools/bench_ab.py --base HEAD~1 --pairs 10 --seconds 35 \
        --workload survey --workload witness --workload certify --out BENCH_<n>.json

Runs the command that BENCHMARK.json names (`perfbench/run.py`,
unchanged) on a base tree and a head tree, in alternating pairs: pair i
runs the base first when i is even and the head first when it is odd.
Each run gets a fresh copy of its tree, so no run sees another's
`.perfbench-out/` or bytecode cache, and the same environment.

A tree is a git revision, exported with `git archive` (a copy that
leaves the repository's worktree list alone), or a directory: a git
work tree contributes its tracked and untracked, not ignored, files;
any other directory is copied whole.  The head defaults to this
repository's work tree.

The last JSON line of each run's standard output is its result.  A run
that exits non-zero, prints no JSON line or reports `correct: false`
counts as a failure, not as a number.  Per workload, metric and tree the
output holds the median and quartiles; per metric, the change of the
head's median against the base's in %, set against the metric's
BENCHMARK.json bound, the pairs in which the head was better, and
whether the gap between the medians exceeds the base's quartile spread.
The machine record holds the cores, the Python, numpy and scipy
versions, whether numba is present, the load average before and after,
and both commit ids.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True, text=True).stdout


def is_work_tree_top(path: Path) -> bool:
    try:
        proc = subprocess.run(["git", "-C", str(path), "rev-parse", "--show-toplevel"], capture_output=True, text=True)
    except FileNotFoundError:  # no git: any directory is copied whole
        return False
    return proc.returncode == 0 and Path(proc.stdout.strip()).resolve() == path.resolve()


def prepare(spec: str, dest: Path) -> dict:
    """Fill dest with the tree `spec` names; return its description."""
    path = Path(spec)
    if not path.is_dir():  # a revision of this repository
        commit = git(ROOT, "rev-parse", "--verify", f"{spec}^{{commit}}").strip()
        data = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            tar.extractall(dest, filter="data")
        return {"source": f"git archive {spec}", "commit": commit, "dirty": False}
    if not is_work_tree_top(path):
        shutil.copytree(path, dest, dirs_exist_ok=True)
        return {"source": str(path), "commit": None, "dirty": None}
    files = git(path, "ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, files):
        if (path / name).is_file():  # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path / name, dest / name)
    return {"source": str(path), "commit": git(path, "rev-parse", "HEAD").strip(),
            "dirty": bool(git(path, "status", "--porcelain").strip())}


def last_json_line(text: str):
    for line in reversed(text.splitlines()):
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if isinstance(value, dict):
            return value
    return None


def run_once(tree: Path, command: list, workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    """One benchmark run in a fresh copy of tree."""
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copytree(tree, work, dirs_exist_ok=True)
        args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(args, cwd=work, capture_output=True, text=True)
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = last_json_line(proc.stdout) if proc.returncode == 0 else None
    ok = bool(result and result.get("correct") is True and isinstance(result.get("metrics"), dict))
    run = {"seed": seed, "returncode": proc.returncode, "ok": ok, "wall_s": wall}
    if ok:
        run.update(attempted=result.get("attempted"), failed=result.get("failed"),
                   metrics={k: v["value"] for k, v in result["metrics"].items()})
    else:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def summary(values: list) -> dict:
    if not values:
        return {"n": 0, "median": None, "q1": None, "q3": None}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs: list, spec: dict) -> dict:
    """Per end-to-end metric: both trees' summaries and the head's change."""
    out = {}
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        vals = {tree: [p[tree]["metrics"][name] for p in pairs if p[tree]["ok"] and name in p[tree]["metrics"]]
                for tree in ("base", "head")}
        base, head = summary(vals["base"]), summary(vals["head"])
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"], "base": base, "head": head}
        if base["n"] and head["n"] and base["median"]:
            change = (head["median"] - base["median"]) / base["median"]
            worse = -change if higher else change
            both = [p for p in pairs if p["base"]["ok"] and p["head"]["ok"]]
            better = sum((p["head"]["metrics"][name] > p["base"]["metrics"][name]) == higher
                         and p["head"]["metrics"][name] != p["base"]["metrics"][name] for p in both)
            row.update(change_pct=100 * change, worse_pct=100 * worse, within_bound=worse <= m["bound"],
                       head_better_pairs=better, complete_pairs=len(both),
                       gap_exceeds_base_iqr=abs(head["median"] - base["median"]) > base["q3"] - base["q1"])
        out[name] = row
    return out


def machine() -> dict:
    def version(name):
        if importlib.util.find_spec(name) is None:
            return None
        return __import__(name).__version__

    return {"cores": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "numba": importlib.util.find_spec("numba") is not None, "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision or directory of the base tree")
    ap.add_argument("--head", default=str(ROOT), help="git revision or directory of the head tree")
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--seed", type=int, action="append", help="seeds, cycled over the pairs (default: 1)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        tmp = Path(tmp)
        trees = {"base": tmp / "base", "head": tmp / "head"}
        described = {}
        for name, tree in trees.items():
            tree.mkdir()
            described[name] = prepare(getattr(args, name), tree)
        spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        seeds = args.seed or [1]
        record = {"machine": machine(), "trees": described,
                  "settings": {"command": spec["command"], "pairs": args.pairs, "seconds": args.seconds,
                               "seeds": seeds, "workloads": workloads},
                  "load_average_before": os.getloadavg(), "workloads": {}}
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                seed = seeds[i % len(seeds)]
                pair = {"first": order[0]}
                for name in order:
                    pair[name] = run_once(trees[name], spec["command"], workload, seed, args.seconds, tmp)
                    print(f"{workload} pair {i} {name}: {'ok' if pair[name]['ok'] else 'FAILED'}", file=sys.stderr)
                pairs.append(pair)
            record["workloads"][workload] = {
                "failures": {name: sum(not p[name]["ok"] for p in pairs) for name in trees},
                "metrics": compare(pairs, spec), "pairs": pairs}
        record["load_average_after"] = os.getloadavg()
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

    for workload, w in record["workloads"].items():
        print(f"{workload}: failures base {w['failures']['base']}, head {w['failures']['head']}")
        for name, m in w["metrics"].items():
            if "change_pct" not in m:
                print(f"  {name:16s} no complete runs")
                continue
            print(f"  {name:16s} base {m['base']['median']:.6g} [{m['base']['q1']:.6g}, {m['base']['q3']:.6g}]"
                  f"  head {m['head']['median']:.6g} [{m['head']['q1']:.6g}, {m['head']['q3']:.6g}]"
                  f"  {m['change_pct']:+.1f}% (bound {100 * m['bound']:.0f}%, "
                  f"{'within' if m['within_bound'] else 'OUTSIDE'}), head better in "
                  f"{m['head_better_pairs']}/{m['complete_pairs']} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
