"""Regenerate the benchmark's stored inputs and reference outputs.

    python3 perfbench/derive.py

Writes perfbench/data/{survey_ref,certify_pool,witness_pool}.json from the
package in src/.  The files are derived once and committed, so that the
benchmark's inputs and expected outputs do not depend on the code under
test: a regression in `lattice` cannot silently change what is measured.
The witness pool needs one `max_delta` call per representative (about
eight minutes of one core, spread over every core this process may
use); each call's wall time is stored as the sampler's cost key.
"""

import json
import multiprocessing
import os
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from latticewitness import criteria, lattice  # noqa: E402
from workloads import TAG_CODES  # noqa: E402

WITNESS_SEED = 0xC0FFEE
WITNESS_RESTARTS = 64


def mask_code(cls) -> str:
    """One character per mask: N, P, U, or the covering multiplicity."""
    if cls.tag == "Separable":
        return str(cls.covering.multiplicity)
    return TAG_CODES[cls.tag]


def _witness_entry(item):
    mask, point = item
    t0 = perf_counter()
    delta = criteria.max_delta(mask, point, seed=WITNESS_SEED, restarts=WITNESS_RESTARTS)
    return [mask, list(point), delta, round(1000.0 * (perf_counter() - t0), 1)]


def main() -> int:
    out = HERE / "data"
    out.mkdir(exist_ok=True)

    records = lattice.survey_all(workers=1)
    codes = "".join(mask_code(r.classification) for r in records)
    tags = {tag: sum(r.classification.tag == tag for r in records)
            for tag in ("NptEntangled", "PptEntangled", "Separable", "Unknown")}
    mult = {m: codes.count(m) for m in sorted(set(codes) - set(TAG_CODES.values()))}
    (out / "survey_ref.json").write_text(json.dumps(
        {"masks": len(codes), "tags": tags, "multiplicities": mult, "codes": codes}) + "\n")

    separable = sorted({lattice.canonical_mask(r.mask)[0] for r in records
                        if r.classification.tag == "Separable"})
    certify = [[m, lattice.uniform_covering(m).multiplicity] for m in separable]
    (out / "certify_pool.json").write_text(json.dumps({"entries": certify}) + "\n")

    flagged = sorted({lattice.canonical_mask(m)[0] for m in range(1, 1 << 16)
                      if lattice.special_subset_point(m) is not None})
    items = [(m, lattice.special_subset_point(m)) for m in flagged]
    # One BLAS thread per worker, so that the workers' timings do not
    # contend for the cores with each other's BLAS helper threads.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        witness = pool.map(_witness_entry, items, chunksize=1)
    (out / "witness_pool.json").write_text(json.dumps(
        {"seed": WITNESS_SEED, "restarts": WITNESS_RESTARTS,
         "fields": ["mask", "point", "ref_delta", "ref_ms"], "entries": witness}) + "\n")
    print(f"survey {tags} {mult}; certify {len(certify)}; witness {len(witness)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
