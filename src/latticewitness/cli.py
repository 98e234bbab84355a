"""Command-line surface: classify lattice subsets, survey all of them,
verify the worked examples, and run the numeric detectors on named states.

JSON output (`lw classify --json`, `lw survey --format jsonl`) is
`report_record` through `json.dumps`.  A CSV survey row holds the same
cells, built from small text tables of the JSON of every point and
covering item, exactly as csv.writer would write that record.

Exit codes: 0 success, 2 parse/usage error, 3 verification failure,
4 I/O error.
"""

import argparse
import json
import re
import sys

import numpy as np

from . import criteria, lattice, states

OCCUPIED = {"x", "X", "×"}
EMPTY = {"."}


class ParseError(ValueError):
    pass


def parse_pattern(text: str) -> int:
    """Parse a 4x4 grid of tokens (x/X/x for occupied, . for empty) into a
    16-bit mask.  The top line is row beta=3; columns are alpha=0..3."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 4:
        raise ParseError(f"expected 4 grid lines, got {len(lines)}")
    mask = 0
    for i, line in enumerate(lines):
        tokens = line.split()
        if len(tokens) != 4:
            raise ParseError(f"line {i + 1}: expected 4 tokens, got {len(tokens)}")
        beta = 3 - i
        for alpha, tok in enumerate(tokens):
            if tok in OCCUPIED:
                mask |= 1 << (4 * beta + alpha)
            elif tok not in EMPTY:
                raise ParseError(f"line {i + 1}, column {alpha + 1}: bad token {tok!r}")
    return mask


# Grid line of each 4-bit row value, alpha = 0..3 left to right, and the
# report pattern of each 8-bit half of a mask: its high row, "/", its low row.
_ROW_TEXT = [" ".join("x" if r >> alpha & 1 else "." for alpha in range(4)) for r in range(16)]
_HALF_TEXT = [f"{_ROW_TEXT[h >> 4]}/{_ROW_TEXT[h & 0xF]}" for h in range(256)]


def render_pattern(mask: int) -> str:
    """Inverse of parse_pattern: 4 lines, top line beta=3."""
    return "\n".join(_ROW_TEXT[mask >> 4 * beta & 0xF] for beta in range(3, -1, -1))


def _parse_mask(text: str) -> int:
    # int(text, 16) alone also takes "_" separators, signs, padding and non-ASCII digits
    if not re.fullmatch(r"(0[xX])?[0-9a-fA-F]+", text):
        raise ParseError(f"not a hex mask: {text!r}")
    mask = int(text, 16)
    if not 1 <= mask <= 0xFFFF:
        raise ParseError(f"mask out of range (0x0001..0xffff): {text}")
    return mask


# The sorted points of each special quadruple mask, as reports show a quadruple.
_QUAD_POINTS = {q: sorted(states.mask_points(q)) for q in lattice.QUAD_MASKS}


def _covering_json(cov):
    if cov is None:
        return None
    return {
        "multiplicity": cov.multiplicity,
        "quadruples": [{"points": [list(p) for p in _QUAD_POINTS[q]], "weight": w} for q, w in cov.items],
    }


# JSON text of each point (k_pair values are points too), and the JSON
# of each covering item (quadruple mask, weight), every quote doubled as
# in a quoted CSV cell; a weight is at most the multiplicity.
_POINT_JSON = {p: json.dumps(list(p)) for p in states.ALL_POINTS}
_ITEM_CSV = {(q, w): '{""points"": %s, ""weight"": %d}' % (json.dumps([list(p) for p in pts]), w)
             for q, pts in _QUAD_POINTS.items() for w in range(1, lattice.MAX_MULTIPLICITY + 1)}
# The NptEntangled row after its pattern, per (min_pt_eig, cross_check_ok).
_NPT_TAIL = {}


REPORT_FIELDS = [
    "mask", "n_points", "pattern", "tag", "criteria_fired", "special_point",
    "one_point", "k_pair", "min_pt_eig", "certificate", "witness_delta",
    "numeric_cross_check",
]


def report_record(rec: lattice.SurveyRecord) -> dict:
    """Flatten a survey record into the stable report schema."""
    cls = rec.classification
    return {
        "mask": f"{rec.mask:#06x}",
        "n_points": rec.n_points,
        "pattern": render_pattern(rec.mask).replace("\n", "/"),
        "tag": cls.tag,
        "criteria_fired": ",".join(cls.criteria_fired),
        "special_point": list(cls.special_point) if cls.special_point else None,
        "one_point": list(cls.one_point) if cls.one_point else None,
        "k_pair": list(cls.k_pair) if cls.k_pair else None,
        "min_pt_eig": cls.min_pt_eig,
        "certificate": _covering_json(cls.covering),
        "witness_delta": cls.witness_delta,
        "numeric_cross_check": rec.cross_check_ok,
    }


def _scalar_cell(x) -> str:
    # csv.writer writes None as an empty cell and a float by its repr
    return "" if x is None else repr(x)


def _point_cell(p) -> str:
    return "" if p is None else f'"{_POINT_JSON[p]}"'


def _csv_row(rec: lattice.SurveyRecord) -> str:
    """The CSV line of `report_record(rec)`, cells in REPORT_FIELDS
    order, quoted where csv.writer quotes: only the point cells, the
    certificate and a multi-criterion criteria_fired hold a comma, and
    only the certificate a quote."""
    cls = rec.classification
    mask = rec.mask
    head = f"{mask:#06x},{rec.n_points},{_HALF_TEXT[mask >> 8]}/{_HALF_TEXT[mask & 0xFF]},"
    if cls.tag == "NptEntangled":  # fired "npt", no points, certificate or delta
        key = cls.min_pt_eig, rec.cross_check_ok
        if key not in _NPT_TAIL:
            _NPT_TAIL[key] = f"NptEntangled,npt,,,,{key[0]!r},,,{_scalar_cell(key[1])}\r\n"
        return head + _NPT_TAIL[key]
    cov = cls.covering
    if cov is not None:  # Separable: no criteria fired, no points, eigenvalue or delta
        items = ", ".join([_ITEM_CSV[item] for item in cov.items])
        return (f'{head}Separable,,,,,,"{{""multiplicity"": {cov.multiplicity}, ""quadruples"": [{items}]}}",,'
                f"{_scalar_cell(rec.cross_check_ok)}\r\n")
    fired = ",".join(cls.criteria_fired)
    return head + ",".join([
        cls.tag, f'"{fired}"' if "," in fired else fired, _point_cell(cls.special_point),
        _point_cell(cls.one_point), _point_cell(cls.k_pair), _scalar_cell(cls.min_pt_eig), "",
        _scalar_cell(cls.witness_delta), _scalar_cell(rec.cross_check_ok),
    ]) + "\r\n"


def cmd_classify(args) -> int:
    if args.pattern:
        try:
            with open(args.pattern, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {args.pattern}: {exc}", file=sys.stderr)
            return 4
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.pattern} is not UTF-8 text: {exc}")
        mask = parse_pattern(text)
        if mask == 0:
            raise ParseError(f"{args.pattern}: the grid has no occupied point")
    else:
        mask = _parse_mask(args.mask)
    cls = lattice.classify(mask)
    rec = report_record(lattice.SurveyRecord(mask, mask.bit_count(), cls))
    if args.json:
        print(json.dumps(rec))
        return 0
    print(f"mask: {mask:#06x}   n_points: {rec['n_points']}")
    print(render_pattern(mask))
    print(f"classification: {cls.tag}")
    if cls.criteria_fired:
        print(f"criteria fired: {', '.join(cls.criteria_fired)}")
    if cls.special_point is not None:
        print(f"special-subset point: {cls.special_point}")
    if cls.one_point is not None:
        print(f"one-point criterion at: {cls.one_point}")
    if cls.k_pair is not None:
        print(f"k criterion at (mu, nu): {cls.k_pair}")
    if cls.min_pt_eig is not None:
        print(f"min PT eigenvalue: {cls.min_pt_eig:.12g}")
    if cls.covering is not None:
        cov = cls.covering
        print(f"uniform covering: {len(cov.items)} distinct quadruples, "
              f"N_Q = {cov.total_weight}, multiplicity M = {cov.multiplicity}")
        for q, w in cov.items:
            print(f"  weight {w}: {_QUAD_POINTS[q]}")
    if cls.witness_delta is not None:
        print(f"witness delta (exact): {cls.witness_delta:.6g}")
        print(f"witness value on the state: {-cls.witness_delta / (4 * rec['n_points']):.12g}")
    return 0


def cmd_survey(args) -> int:
    """Write each report row as soon as its mask is classified; a
    cross-validation mismatch is reported once the whole report is written."""
    counts = {}
    bad = []
    row = _csv_row if args.format == "csv" else lambda rec: json.dumps(report_record(rec)) + "\n"
    try:
        with open(args.out, "w", newline="") as fh:
            if args.format == "csv":
                fh.write(",".join(REPORT_FIELDS) + "\r\n")
            for rec in lattice.survey(cross_validate=args.cross_validate):
                fh.write(row(rec))
                counts[rec.classification.tag] = counts.get(rec.classification.tag, 0) + 1
                if rec.cross_check_ok is False:
                    bad.append(rec.mask)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 4
    if bad:
        print(f"cross-validation mismatch on {len(bad)} masks, first {bad[0]:#06x}", file=sys.stderr)
        return 3
    print(f"records: {sum(counts.values())}")
    for tag in sorted(counts):
        print(f"  {tag}: {counts[tag]}")
    return 0


# Worked examples, keyed by the claimed property and point count.
WORKED_EXAMPLES = {
    "npt-5": [(3, 0), (2, 1), (0, 2), (3, 2), (2, 3)],
    "npt-4": [(0, 0), (2, 1), (1, 2), (2, 3)],
    "one-point-6": [(1, 1), (3, 1), (0, 2), (3, 2), (2, 3), (3, 3)],
    "one-point-8": [(2, 1), (3, 1), (0, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)],
    "k-10": [(0, 0), (1, 0), (3, 0), (0, 1), (1, 1), (3, 1), (1, 2), (2, 2), (0, 3), (3, 3)],
    "k-11": [(3, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2), (3, 2), (0, 3), (1, 3), (2, 3)],
    "cover-10": [(0, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)],
    "cover-8": [(0, 0), (1, 1), (1, 2), (1, 3), (2, 3), (3, 1), (3, 2), (3, 3)],
    "cover-9": [(0, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)],
    "special-8": [(0, 0), (2, 0), (3, 0), (3, 1), (1, 2), (2, 2), (2, 3), (3, 3)],
    "special-10": [(0, 0), (1, 0), (2, 0), (3, 1), (0, 2), (2, 2), (0, 3), (1, 3), (2, 3), (3, 3)],
    "special-11": [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1), (0, 2), (1, 3), (2, 3), (3, 3)],
    "npt-11": [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1), (3, 2), (1, 3), (2, 3), (3, 3)],
    "open-11": [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (3, 2), (0, 3), (3, 3)],
    "npt-10": [(0, 0), (1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (0, 2), (3, 2), (0, 3), (3, 3)],
}


def example_mask(name: str) -> int:
    return states.points_mask(WORKED_EXAMPLES[name])


def _verify_rows():
    """Yield (row name, ok, detail) for every worked-example claim."""
    # Werner family: detection exactly for alpha > 1/3
    alphas = np.arange(-1.0 / 3.0, 1.0 + 1e-9, 0.05)
    boundary_ok = all(
        criteria.ppt_check(states.werner_state(float(a))).detected == (a > 1.0 / 3.0)
        or abs(a - 1.0 / 3.0) < 0.05 + 1e-9  # one grid step of slack at the boundary
        for a in alphas
    )
    yield "werner-sweep", boundary_ok, f"{len(alphas)} alphas, boundary at 1/3"

    bell = states.bell_state("phi+")
    rho = states.DensityMatrix(np.outer(bell, bell.conj()), (2, 2))
    low = criteria.ppt_check(rho).evidence
    yield "bell-pt", abs(low + 0.5) < 1e-10, f"min PT eigenvalue {low:.12g}"

    tiles = states.upb_complement_state(states.tiles_upb(), (3, 3))
    norm = criteria.realignment_check(tiles).evidence
    ppt_ok = not criteria.ppt_check(tiles).detected
    yield "tiles-realignment", abs(norm - 1.32) < 0.005 and ppt_ok, f"trace norm {norm:.10g}, PPT {ppt_ok}"

    for name in ("npt-5", "npt-4"):
        cls = lattice.classify(example_mask(name))
        yield name, cls.tag == "NptEntangled", f"tag {cls.tag}"
    for name in ("one-point-6", "one-point-8"):
        cls = lattice.classify(example_mask(name))
        ok = cls.tag == "PptEntangled" and cls.one_point == (0, 0)
        yield name, ok, f"tag {cls.tag}, one-point {cls.one_point}"
    cls = lattice.classify(example_mask("k-10"))
    ok = cls.tag == "PptEntangled" and cls.one_point is None and cls.k_pair == (0, 0)
    yield "k-10", ok, f"tag {cls.tag}, one-point {cls.one_point}, k {cls.k_pair}"
    cls = lattice.classify(example_mask("k-11"))
    ok = cls.tag == "PptEntangled" and cls.k_pair is not None
    yield "k-11", ok, f"tag {cls.tag}, k {cls.k_pair}"

    mask = example_mask("cover-10")
    cov = lattice.uniform_covering(mask)
    cert = lattice.separability_certificate(mask, cov) if cov else None
    ok = (cov is not None and cov.total_weight == 5 and cov.multiplicity == 2
          and cert.reconstruction_error < 1e-12)
    yield "cover-10", ok, (f"N_Q {cov.total_weight}, M {cov.multiplicity}, "
                                f"error {cert.reconstruction_error:.3g}" if cov else "no covering")
    for name, size in (("cover-8", 4), ("cover-9", 9)):
        cov = lattice.uniform_covering(example_mask(name))
        ok = cov is not None and cov.total_weight == size
        yield name, ok, f"N_Q {cov.total_weight if cov else None}, expected {size}"

    for name, point in (("special-8", (0, 0)), ("special-10", (3, 3)), ("special-11", (0, 0))):
        sp = lattice.special_subset_point(example_mask(name))
        yield name, sp == point, f"special point {sp}, expected {point}"

    # the thesis leaves open-11 undecided, as a covering search capped at M <= 3 would
    for name, tag in (("npt-11", "NptEntangled"), ("open-11", "Unknown"), ("npt-10", "NptEntangled")):
        cls = lattice.classify(example_mask(name))
        cov = cls.covering
        yield name, cls.tag == tag, f"tag {cls.tag}" + (f", least multiplicity M = {cov.multiplicity}" if cov else "")


def cmd_verify_thesis(args) -> int:
    failures = 0
    for name, ok, detail in _verify_rows():
        print(f"[{'PASS' if ok else 'FAIL'}] {name:24s} {detail}")
        failures += not ok
    print(f"{failures} failure(s)")
    return 3 if failures else 0


def _build_named_state(args):
    kind = args.type
    if kind == "werner":
        return states.werner_state(args.alpha)
    if kind == "bell":
        v = states.bell_state(args.kind)
        return states.DensityMatrix(np.outer(v, v.conj()), (2, 2))
    if kind == "tiles":
        return states.upb_complement_state(states.tiles_upb(), (3, 3))
    if kind == "horodecki3x3":
        return states.horodecki_3x3(args.a)
    if kind == "horodecki2x4":
        return states.horodecki_2x4(args.b)
    if kind == "upb-even":
        d = args.d
        if d > 10:  # the state is d^2 x d^2, and linalg is sized for dimension ~100
            raise states.OutOfRange(f"upb-even needs d <= 10, got {d}")
        return states.upb_complement_state(states.even_d_upb(d), (d, d))
    raise ValueError(kind)


def cmd_state(args) -> int:
    try:
        rho = _build_named_state(args)
    except ValueError as exc:
        print(f"error: bad parameter: {exc}", file=sys.stderr)
        return 2
    print(f"state: {args.type}   dims: {rho.dims}")
    verdicts = [criteria.ppt_check(rho), criteria.reduction_check(rho)]
    if rho.dims[0] == rho.dims[1]:
        verdicts.insert(1, criteria.realignment_check(rho))
    for v in verdicts:
        print(f"{v.name:12s} detected={v.detected}   evidence={v.evidence:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one lattice subset")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--pattern", help="file with a 4x4 grid of x/. tokens")
    src.add_argument("--mask", help="16-bit hex mask, e.g. 0x7bde")
    p.add_argument("--json", action="store_true", help="emit one JSON record")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("survey", help="classify all 65535 subsets")
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--cross-validate", action="store_true",
                   help="check combinatorial PPT and the exact PT eigenvalue against numpy.linalg")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored: the survey runs in one process")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("verify-thesis", help="check every worked example")
    p.set_defaults(func=cmd_verify_thesis)

    p = sub.add_parser("state", help="run numeric detectors on a named state")
    p.add_argument("--type", required=True,
                   choices=("werner", "bell", "tiles", "horodecki3x3", "horodecki2x4", "upb-even"))
    p.add_argument("--alpha", type=float, default=0.5, help="werner parameter")
    p.add_argument("--kind", default="phi+", help="bell state kind")
    p.add_argument("--a", type=float, default=0.5, help="horodecki3x3 parameter")
    p.add_argument("--b", type=float, default=0.5, help="horodecki2x4 parameter")
    p.add_argument("--d", type=int, default=4, help="upb-even local dimension (even, 4..10)")
    p.set_defaults(func=cmd_state)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
