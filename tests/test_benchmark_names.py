"""The benchmark's per-layer metrics name package functions: the tracer
times a function by swapping a wrapper onto its module attribute, so a
function deleted or renamed would silently drop its metric."""

import importlib
import json
from pathlib import Path

MODULES = ("pauli", "linalg", "states", "maps", "criteria", "lattice", "cli")


def test_per_layer_metrics_name_callable_package_functions():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    traced = [name for name in names if name.split(".")[0] in MODULES]
    assert traced  # the file still lists the package's layers
    for name in traced:
        module, func = name.split(".")[:2]
        assert callable(getattr(importlib.import_module(f"latticewitness.{module}"), func, None)), name
