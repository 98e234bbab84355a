"""Every public module-level function and class of the package is used by
other package code, or is kept on purpose: a test checks a claim of the
thesis through it, or the benchmark names it.  A public name that neither
holds nor appears in KEEP is library surface nothing needs."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "latticewitness"
# a KEEP reason that cites one of these files holds only while the file names the function
BENCHMARK_FILES = ("perfbench/tracer.py", "BENCHMARK.json")

KEEP = {
    "criteria.diagonal_lattice_witness": "the thesis's lattice witness; Tr(W rho_I) = -delta/(4N) is tested",
    "criteria.max_delta": "the witness strength delta*; named in BENCHMARK.json",
    "criteria.witness_value": "Tr(W rho), the detection predicate of every witness test",
    "lattice.survey_all": "named in BENCHMARK.json; perfbench/derive.py calls it with workers=",
    "lattice.translate_mask": "named in BENCHMARK.json; translation invariance is tested",
    "maps.extend_apply": "(id x L) rho, the action of a map on a bipartite state",
    "maps.gamma_map": "thesis claim: the gamma family is positive but not CP",
    "maps.is_completely_positive": "thesis claim: transposition and reduction are not CP",
    "maps.phi_v_map": "thesis claim: the Breuer-Hall maps Phi_V are positive",
    "maps.product_expectation": "re-checks a see-saw value from its product vectors",
    "maps.reduction_map": "thesis claim: the reduction map is positive but not CP",
    "maps.stormer_cp_part": "thesis claim: the Stormer split of the transposition",
    "pauli.tau": "the lattice translation; named in BENCHMARK.json",
    "states.assert_density": "checks that each named state is a density matrix",
    "states.sigma_diagonal_state": "the sigma-diagonal states sum_w r_w P_w; exported by the package",
}


def _unreferenced():
    # a reference is a bare name in the defining module or `module.name` /
    # `from .module import name` in another one, outside the definition
    # itself; __init__ only re-exports, so it references nothing
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            found = any(
                isinstance(n, ast.Name) and n.id == node.name and id(n) not in inside
                for n in ast.walk(tree)
            ) or any(
                (isinstance(n, ast.Attribute) and n.attr == node.name
                 and isinstance(n.value, ast.Name) and n.value.id == mod)
                or (isinstance(n, ast.ImportFrom) and n.module == mod
                    and any(a.name == node.name for a in n.names))
                for other, t in trees.items() if other != mod for n in ast.walk(t)
            )
            if not found:
                out.append(f"{mod}.{node.name}")
    return out


def test_every_public_name_has_a_caller_or_a_reason_to_stay():
    unreferenced = _unreferenced()
    extra = sorted(set(unreferenced) - set(KEEP))
    assert not extra, f"public names with no caller in src/ and no entry in KEEP: {extra}"
    stale = sorted(set(KEEP) - set(unreferenced))
    assert not stale, f"KEEP entries that are gone or now have a caller in src/: {stale}"


def test_keep_reasons_that_cite_the_benchmark_hold():
    # the name must appear quoted, alone or as the prefix of a metric name
    texts = {f: (ROOT / f).read_text() for f in BENCHMARK_FILES}
    missing = sorted(f"{name} ({f})" for name, reason in KEEP.items() for f in BENCHMARK_FILES
                     if f in reason and not re.search(f'"{re.escape(name)}[".]', texts[f]))
    assert not missing, f"KEEP entries whose reason cites a benchmark file that does not name them: {missing}"


def test_the_test_references_import_nothing_from_the_package():
    # tests/reference.py is built from definitions: it names the package nowhere
    text = (ROOT / "tests" / "reference.py").read_text()
    imported = {"." * n.level + (n.module or "") for n in ast.walk(ast.parse(text)) if isinstance(n, ast.ImportFrom)}
    imported |= {a.name for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Import) for a in n.names}
    assert imported == {"itertools", "functools", "numpy"} and "latticewitness" not in text
