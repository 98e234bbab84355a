"""latticewitness benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {survey,witness,certify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
src/.  With --trace 0 the run measures the end-to-end metrics listed in
BENCHMARK.json, with tracing off.  With --trace 1 it runs two untraced
passes and one traced pass over the same items and reports the per-layer
metrics.  Every item's output is checked.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  A run
record with the machine description goes to .perfbench-out/.

Times are CPU seconds of the process, all its threads, plus those of
the child processes it reaped (`cpu_clock`).  Unlike wall time they do
not count the time the machine took the processor away: on a shared
2-vCPU VM that lost time (hypervisor steal, 1-26% of one-second windows)
moved the wall time of one fixed batch of work between 0.98 and 2.01 s,
against 0.94-1.09 s of CPU time.  Work moved onto other threads or
processes is still counted.  Wall times and the calling thread's share
of the CPU time are kept beside them in the run record.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SRC = ROOT / "src"
# Fresh interpreters timed, one after another, all before the parent
# imports the package, so that every probe starts from the same state.
SETUP_STARTS = 7

sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Timed in a fresh interpreter: importing the package and the first
# lattice_state call, which fills the basis-projector cache.  Prints the
# main thread's and the process's CPU seconds and the wall seconds.
# setup_s is the main thread's: importing numpy starts the OpenBLAS
# threads, which spin for as long as the host lets them (0.19-0.26 s of
# process CPU against 0.13-0.16 s on the main thread), a cost outside
# the package.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
c0, p0, t0 = time.thread_time(), time.process_time(), time.perf_counter()
import latticewitness
latticewitness.states.lattice_state(1)
print(repr(time.thread_time() - c0), repr(time.process_time() - p0), repr(time.perf_counter() - t0))
"""


def check_source() -> None:
    if not (SRC / "latticewitness" / "__init__.py").is_file():
        raise SystemExit(f"error: no latticewitness source under {SRC}")


def import_program():
    sys.path.insert(0, str(SRC))
    import latticewitness

    if Path(latticewitness.__file__).resolve().parent != (SRC / "latticewitness").resolve():
        raise SystemExit(f"error: imported latticewitness from {latticewitness.__file__}, not {SRC}")
    return latticewitness


def measure_setup(starts: int = SETUP_STARTS) -> dict:
    """Main-thread CPU, process CPU and wall set-up seconds of `starts`
    fresh interpreters, one after another."""
    probes = {"thread_cpu_s": [], "cpu_s": [], "wall_s": []}
    for _ in range(starts):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        for values, v in zip(probes.values(), proc.stdout.split()[-3:]):
            values.append(float(v))
    return probes


@dataclass
class Pass:
    item_cpu_s: list  # CPU seconds of each item, by cpu_clock
    item_s: list  # wall seconds of each item
    wall_s: float
    thread_cpu_s: float  # the calling thread's share of the pass's CPU seconds
    child_cpu_s: float  # the child processes' share
    failed: int = 0


def children_cpu() -> float:
    """CPU seconds of the child processes this process has reaped."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def cpu_clock() -> float:
    """CPU seconds of this process, all its threads, and of its reaped
    children."""
    return process_time() + children_cpu()


def timed_pass(wl, items) -> tuple:
    """Run every item once, back to back; returns the pass and the results."""
    item_cpu_s, item_s, results = [], [], []
    thread0, child0, t0 = thread_time(), children_cpu(), perf_counter()
    for item in items:
        c, s = cpu_clock(), perf_counter()
        try:
            result = wl.run(item)
        except Exception as exc:  # a failed item is counted, not fatal
            result = exc
        item_cpu_s.append(cpu_clock() - c)
        item_s.append(perf_counter() - s)
        results.append(result)
    p = Pass(item_cpu_s, item_s, perf_counter() - t0, thread_time() - thread0, children_cpu() - child0)
    return p, results


def checked_pass(wl, items) -> Pass:
    p, results = timed_pass(wl, items)
    p.failed = sum(wl.check(item, r) for item, r in zip(items, results))
    return p


def quantile(values, q: int) -> float:
    """The q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine(lw_workers) -> dict:
    import numpy

    info = {
        "LW_WORKERS": lw_workers,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "thread_env": {k: v for k, v in os.environ.items()
                       if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "process_threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        info["blas"] = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        info["blas"] = None
    info.update(openblas_runtime())
    return info


def openblas_runtime() -> dict:
    """Thread count and build string of the OpenBLAS this process has
    loaded, asked of the library itself; empty if there is none."""
    try:
        with open("/proc/self/maps") as fh:
            path = next((ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln), None)
    except OSError:
        return {}
    if path is None:
        return {}
    lib = ctypes.CDLL(path)
    out = {}
    for key, restype, names in (
            ("blas_threads", ctypes.c_int, ("scipy_openblas_get_num_threads64_",
                                            "openblas_get_num_threads64_", "openblas_get_num_threads")),
            ("blas_config", ctypes.c_char_p, ("scipy_openblas_get_config64_",
                                              "openblas_get_config64_", "openblas_get_config"))):
        fn = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, []
            value = fn()
            out[key] = value.decode() if isinstance(value, bytes) else value
    return out


def timing(per_pass, units_per_item: int) -> tuple:
    """Median over passes of units per second, and the p50 and p90 of
    one item in ms, from each pass's per-item seconds."""
    item_ms = [1000.0 * s for item_s in per_pass for s in item_s]
    per_s = statistics.median(len(item_s) * units_per_item / sum(item_s) for item_s in per_pass)
    return per_s, quantile(item_ms, 50), quantile(item_ms, 90)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="latticewitness benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # `lw survey` lets LW_WORKERS override --workers; every workload runs
    # workers=1, so the variable is recorded and dropped.
    lw_workers = os.environ.pop("LW_WORKERS", None)
    check_source()
    setup = None if args.trace else measure_setup()
    lw = import_program()
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](lw, OUT, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "units_per_item": wl.units_per_item,
              "pool_size": wl.pool_size}
    lw.states.lattice_state(1)  # the set-up that setup_s measures

    if args.trace:
        items = wl.pass_items(0)
        # A first untraced pass takes the first-call costs, which would
        # otherwise read as negative tracing overhead.
        warm = checked_pass(wl, items)
        base = checked_pass(wl, items)
        rec = tracer.Recorder()
        with tracer.installed(rec, lw):
            with rec.span("perfbench.pass"):
                traced, results = timed_pass(wl, items)
        traced.failed = sum(wl.check(i, r) for i, r in zip(items, results))
        del results
        passes = [warm, base, traced]
        self_s = rec.self_times()
        overhead = sum(traced.item_cpu_s) - sum(base.item_cpu_s)
        wanted = spec["per_layer"]
        values = {m["name"]: tracer.layer_metric(rec, self_s, m["name"], overhead) for m in wanted}
        spans = OUT / f"spans-{args.workload}.csv"
        rec.write_spans(spans)
        record.update(spans_file=spans.name, spans=len(rec.span_name), self_s_all=self_s,
                      calls_all=dict(zip(rec.names, rec.calls)))
    else:
        # Whole passes, as many as fit in --seconds at the mean pass time
        # so far, and at least one.
        passes = []
        start = perf_counter()
        while not passes or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= args.seconds:
            passes.append(checked_pass(wl, wl.pass_items(len(passes))))
        per_s, p50, p90 = timing([p.item_cpu_s for p in passes], wl.units_per_item)
        e2e = {"setup_s": statistics.median(setup["thread_cpu_s"]), "items_per_cpu_s": per_s,
               "item_cpu_ms_p50": p50, "item_cpu_ms_p90": p90, "peak_rss_mb": peak_rss_mb()}
        wanted = spec["end_to_end"]
        values = {m["name"]: e2e[m["name"]] for m in wanted}
        per_s, p50, p90 = timing([p.item_s for p in passes], wl.units_per_item)
        record.update(setup_probes=setup,
                      wall={"setup_s": statistics.median(setup["wall_s"]), "items_per_s": per_s,
                            "item_ms_p50": p50, "item_ms_p90": p90})

    attempted = sum(len(p.item_s) for p in passes) * wl.units_per_item
    failed = sum(p.failed for p in passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(
        machine=machine(lw_workers), attempted=attempted, failed=failed, failed_frac=failed / attempted,
        passes=[{"items": len(p.item_s), "wall_s": p.wall_s, "cpu_s": sum(p.item_cpu_s),
                 "thread_cpu_s": p.thread_cpu_s, "child_cpu_s": p.child_cpu_s,
                 "cpu_per_wall": sum(p.item_cpu_s) / p.wall_s, "failed": p.failed}
                for p in passes],
        metrics=metrics)
    (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{args.workload:8s} {name:48s} {value} {m['unit']}")
    print(f"{args.workload:8s} {'failed_frac':48s} {failed / attempted:.6g} "
          f"({failed} of {attempted} {'masks' if wl.units_per_item > 1 else 'items'})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
