"""Traced-run recorder: timing wrappers swapped onto the package's public
functions from outside the package.

The package calls its own functions through module attributes (`cli`
calls `lattice.survey_all`, `criteria` calls `maps.seesaw_extremum`,
`lattice.classify` calls `ppt_combinatorial` through its module globals),
so replacing the attribute is enough for a wrapper to see nested calls;
nothing in `src/` is edited.  Each wrapper calls the original function
unchanged.  `installed()` restores every original when it exits.

Spans (name, start, end, parent) are kept in memory and written out by
`write_spans` when the run ends.  Their clock is the process's CPU time,
all threads, as in the end-to-end metrics (see run.py).  A function's
self time is the summed duration of its spans minus the durations of
their direct child spans.
Tiny, very hot functions get a call counter and no span, so their time
is charged to their caller.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from array import array
from time import process_time

import numpy as np

LAYERS = ("pauli", "linalg", "states", "maps", "criteria", "lattice", "cli")

# Called up to millions of times per survey, each for well under a
# microsecond: a span would cost more than the call it measures.
COUNT_ONLY = frozenset({
    "pauli.tau", "pauli.check_index", "pauli.pauli_product", "pauli.commute_sign",
    "pauli.words_commute", "lattice.point_bit", "lattice.popcount",
    "lattice.translate_mask", "lattice.is_special", "states.mask_points",
    "states.points_mask", "states.word_flat_index", "cli.render_pattern",
})


class Recorder:
    """In-memory spans plus per-function call, error and named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.counters: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.full_restarts = None  # restarts of the max_delta call in progress

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.errors.append(0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(process_time())
        return sid

    def close(self, sid: int) -> None:
        self.span_end[sid] = process_time()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(sid)

    def bump(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_times(self) -> dict:
        """Seconds of self time per function name."""
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        own = np.bincount(names, weights=dur - child, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,parent,start,end\n")
            for sid, (nid, parent, start, end) in enumerate(
                    zip(self.span_name, self.span_parent, self.span_start, self.span_end)):
                fh.write(f"{sid},{self.names[nid]},{parent},{start!r},{end!r}\n")


def _arguments(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _before_max_delta(rec, a):
    rec.full_restarts = a["restarts"]


def _before_delta_violation(rec, a):
    if a["restarts"] == rec.full_restarts:
        rec.bump("criteria.delta_violation.validation_calls")


def _before_seesaw(rec, a):
    rec.bump("maps.seesaw_extremum.restarts", a["restarts"])


def _after_covering(rec, a, result):
    if result is not None:
        rec.bump("lattice.uniform_covering.found")


BEFORE = {
    "criteria.max_delta": _before_max_delta,
    "criteria.delta_violation": _before_delta_violation,
    "maps.seesaw_extremum": _before_seesaw,
}
AFTER = {"lattice.uniform_covering": _after_covering}


def _counter(rec, nid, fn):
    calls = rec.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[nid] += 1
        return fn(*args, **kwargs)

    return wrapper


def _spanned(rec, name, nid, fn):
    before, after = BEFORE.get(name), AFTER.get(name)
    sig = inspect.signature(fn) if before or after else None
    calls, errors, open_, close = rec.calls, rec.errors, rec.open, rec.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[nid] += 1
        if sig is not None:
            a = _arguments(sig, args, kwargs)
            if before:
                before(rec, a)
        sid = open_(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            errors[nid] += 1
            raise
        finally:
            close(sid)
        if after:
            after(rec, a, result)
        return result

    return wrapper


def public_functions(package):
    """(module, attribute, qualified name) for every public module-level
    function defined in one of the package's layer modules."""
    for layer in LAYERS:
        mod = getattr(package, layer)
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            yield mod, attr, f"{layer}.{attr}"


@contextlib.contextmanager
def installed(rec: Recorder, package):
    """Swap wrappers onto the package's public functions for the duration
    of the block; the originals are restored on exit, even on error."""
    patched = []
    try:
        for mod, attr, name in public_functions(package):
            fn = getattr(mod, attr)
            nid = rec.name_id(name)
            wrap = _counter(rec, nid, fn) if name in COUNT_ONLY else _spanned(rec, name, nid, fn)
            setattr(mod, attr, wrap)
            patched.append((mod, attr, fn))
        yield rec
    finally:
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)


def layer_metric(rec: Recorder, self_s: dict, name: str, overhead_s: float) -> float:
    """Value of one per-layer metric named in BENCHMARK.json."""
    if name == "trace.overhead_s":
        return overhead_s
    func, _, kind = name.rpartition(".")
    nid = rec._ids.get(func)
    if nid is None:
        print(f"warning: {func} is not a public function of the package", file=sys.stderr)
    if kind == "calls":
        return 0 if nid is None else rec.calls[nid]
    if kind == "errors":
        return 0 if nid is None else rec.errors[nid]
    if kind == "self_s":
        return self_s.get(func, 0.0)
    if kind == "found_ratio":
        calls = rec.count(func)
        return rec.counters.get(f"{func}.found", 0) / calls if calls else 0.0
    return rec.counters.get(name, 0)
