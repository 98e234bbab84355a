"""CLI behavior: pattern round trips, exit codes, report schema."""

import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticewitness
from latticewitness import cli, criteria, lattice, maps, states


def test_pattern_round_trip_all_masks():
    for mask in range(1 << 16):
        assert cli.parse_pattern(cli.render_pattern(mask)) == mask


def test_parse_pattern_accepts_token_variants():
    text = "x X . .\n× . . .\n. . . .\n. . . x"
    mask = cli.parse_pattern(text)
    assert mask.bit_count() == 4
    assert mask >> states.point_bit((0, 3)) & 1  # top-left is beta=3


def test_parse_pattern_errors():
    with pytest.raises(cli.ParseError, match="4 grid lines"):
        cli.parse_pattern("x x x x\n. . . .")
    with pytest.raises(cli.ParseError, match="4 tokens"):
        cli.parse_pattern("x x x\n. . . .\n. . . .\n. . . .")
    with pytest.raises(cli.ParseError, match="bad token"):
        cli.parse_pattern("x x x q\n. . . .\n. . . .\n. . . .")


def test_parse_mask_errors():
    with pytest.raises(cli.ParseError, match="not a hex mask"):
        cli._parse_mask("zz")
    with pytest.raises(cli.ParseError, match="out of range"):
        cli._parse_mask("0x10000")
    with pytest.raises(cli.ParseError, match="out of range"):
        cli._parse_mask("0x0")
    assert cli._parse_mask("7bde") == 0x7BDE
    assert cli._parse_mask("0X7BDE") == cli._parse_mask("0x07bde") == 0x7BDE


# not an optional 0x prefix and hex digits; all but the last four are
# read as a mask by int(text, 16): digit separators, an "0x" prefix with
# a separator, padding, signs and non-ASCII digits
@pytest.mark.parametrize("text", ["1_0", "0x_f_f", "f_f", " ff", "ff ", "ff\n", "\tff", "+ff", "+0xff", "-0x1",
                                  "\u0661\u0662", "\uff11\uff12", "0xx1", "x1", "0x", ""])
def test_classify_rejects_a_mask_that_is_not_plain_hex(text, capsys):
    assert cli.main(["classify", f"--mask={text}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not a hex mask: {text!r}\n"


def test_classify_json_schema(capsys):
    assert cli.main(["classify", "--mask", "0x000f", "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert sorted(rec) == sorted(cli.REPORT_FIELDS)
    assert rec["mask"] == "0x000f"
    assert rec["n_points"] == 4
    assert rec["tag"] == "NptEntangled"
    assert rec["min_pt_eig"] < -1e-9


def test_classify_json_certificate_verifies(capsys):
    # the report gives each quadruple as a list of points; their mask
    # must re-check as read
    mask = cli.example_mask("cover-10")
    assert cli.main(["classify", "--mask", f"{mask:#06x}", "--json"]) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    cov = lattice.Covering([(states.points_mask(q["points"]), q["weight"]) for q in cert["quadruples"]],
                           cert["multiplicity"])
    rec = lattice.separability_certificate(mask, cov)
    assert rec.reconstruction_error < 1e-12 and rec.all_quadruple_states_ppt
    assert rec.weights == [(q, w / 5) for q, w in lattice.classify(mask).covering.items]


def test_classify_json_witness_rechecks_at_its_special_point(capsys):
    # the report gives the special point as a list; the witness must re-check as read
    mask = 0xF587
    assert cli.main(["classify", "--mask", f"{mask:#06x}", "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    p, delta = rec["special_point"], rec["witness_delta"]
    assert p == [3, 3] and lattice.exact_delta(mask, p) == delta
    W = criteria.diagonal_lattice_witness(mask, p, delta)
    value = criteria.witness_value(W, states.lattice_state(mask))
    assert abs(value + delta / (4 * rec["n_points"])) < 1e-12


# `lw classify --mask` text output, byte for byte: one mask of each tag
# that occurs, the PptEntangled one with every criterion line; cover-10
# (0xeee1); and a translated covering (0xff30 is 0x03ff moved by (0, 3))
# with a weight-2 item
CLASSIFY_TEXT = {
    0x000F: """\
mask: 0x000f   n_points: 4
. . . .
. . . .
. . . .
x x x x
classification: NptEntangled
criteria fired: npt
min PT eigenvalue: -0.125
""",
    0xC9A0: """\
mask: 0xc9a0   n_points: 6
. . x x
x . . x
. x . x
. . . .
classification: PptEntangled
criteria fired: special_subset, one_point, k_criterion
special-subset point: (1, 1)
one-point criterion at: (0, 0)
k criterion at (mu, nu): (0, 1)
witness delta (exact): 1
witness value on the state: -0.0416666666667
""",
    0xEEE1: """\
mask: 0xeee1   n_points: 10
. x x x
. x x x
. x x x
x . . .
classification: Separable
uniform covering: 5 distinct quadruples, N_Q = 5, multiplicity M = 2
  weight 1: [(0, 0), (1, 3), (2, 2), (3, 1)]
  weight 1: [(0, 0), (1, 1), (2, 3), (3, 2)]
  weight 1: [(1, 2), (1, 3), (3, 2), (3, 3)]
  weight 1: [(1, 1), (1, 2), (2, 1), (2, 2)]
  weight 1: [(2, 1), (2, 3), (3, 1), (3, 3)]
""",
    0xFF30: """\
mask: 0xff30   n_points: 10
x x x x
x x x x
x x . .
. . . .
classification: Separable
uniform covering: 4 distinct quadruples, N_Q = 5, multiplicity M = 2
  weight 1: [(0, 2), (0, 3), (1, 2), (1, 3)]
  weight 1: [(0, 1), (0, 3), (1, 1), (1, 3)]
  weight 1: [(0, 1), (0, 2), (1, 1), (1, 2)]
  weight 2: [(2, 2), (2, 3), (3, 2), (3, 3)]
""",
}


@pytest.mark.parametrize("mask", sorted(CLASSIFY_TEXT))
def test_classify_text_output_is_pinned(mask, capsys):
    assert cli.main(["classify", "--mask", f"{mask:#06x}"]) == 0
    assert capsys.readouterr().out == CLASSIFY_TEXT[mask]


def test_classify_witness_flag(capsys, monkeypatch):
    # the exact delta needs no flag and no see-saw
    def no_seesaw(*args, **kwargs):
        raise AssertionError("classify ran a see-saw")

    monkeypatch.setattr(maps, "seesaw_extremum", no_seesaw)
    mask = cli.example_mask("special-10")
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--mask", f"{mask:#06x}", "--witness"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(["classify", "--mask", f"{mask:#06x}", "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["tag"] == "PptEntangled"
    assert rec["witness_delta"] == 1.0
    assert cli.main(["classify", "--mask", f"{mask:#06x}"]) == 0
    out = capsys.readouterr().out
    assert "witness delta (exact): 1\n" in out and "witness value on the state: -0.025\n" in out


def test_classify_pattern_file(tmp_path, capsys):
    mask = cli.example_mask("one-point-6")
    path = tmp_path / "grid.txt"
    path.write_text(cli.render_pattern(mask) + "\n")
    assert cli.main(["classify", "--pattern", str(path), "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["mask"] == f"{mask:#06x}"
    assert rec["one_point"] == [0, 0]


def test_exit_codes(tmp_path, capsys):
    assert cli.main(["classify", "--mask", "nope"]) == 2
    assert cli.main(["classify", "--mask", "0x0"]) == 2
    assert cli.main(["classify", "--pattern", str(tmp_path / "missing.txt")]) == 4
    empty = tmp_path / "empty.txt"
    empty.write_text(cli.render_pattern(0) + "\n")
    capsys.readouterr()
    assert cli.main(["classify", "--pattern", str(empty)]) == 2
    assert "error: " in capsys.readouterr().err
    assert cli.main(["state", "--type", "werner", "--alpha", "2.0"]) == 2
    capsys.readouterr()
    # the upb-even state is d^2 x d^2: d = 10 is the largest accepted
    assert cli.main(["state", "--type", "upb-even", "--d", "10"]) == 0
    capsys.readouterr()
    for d in ("12", "64"):
        assert cli.main(["state", "--type", "upb-even", "--d", d]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad parameter: upb-even needs d <= 10, got {d}\n"


def test_classify_rejects_non_utf8_pattern(tmp_path, capsys):
    path = tmp_path / "grid.txt"
    path.write_bytes(b"x x x x\n\xff . . .\n. . . .\n. . . .\n")
    assert cli.main(["classify", "--pattern", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err


def test_module_entry_point_runs_without_warnings():
    src = str(Path(latticewitness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "latticewitness.cli",
         "classify", "--mask", "0x000f"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "classification: NptEntangled" in proc.stdout


def test_state_subcommand(capsys):
    assert cli.main(["state", "--type", "tiles"]) == 0
    out = capsys.readouterr().out
    assert "ppt" in out and "realignment" in out and "reduction" in out
    assert "detected=True" in out  # tiles is PPT entangled, realignment fires


def test_no_subcommand_takes_a_seed(capsys):
    # no subcommand draws random numbers
    for argv in (["verify-thesis", "--seed", "1"], ["state", "--type", "tiles", "--seed", "1"],
                 ["classify", "--mask", "0x000f", "--seed", "0x5"], ["classify", "--mask", "0x000f", "--seed", "-1"],
                 ["survey", "--out", "unused.csv", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --seed" in captured.err


def test_verify_thesis_exit_and_rows(capsys):
    assert cli.main(["verify-thesis"]) == 3
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    fails = {ln.split()[1] for ln in lines if ln.startswith("[FAIL]")}
    # exactly the three worked examples whose stated outcomes disagree
    # with the faithfully computed values
    assert fails == {"tiles-realignment", "special-8", "open-11"}
    assert len(lines) == len(cli.WORKED_EXAMPLES) + 3  # plus the named-state rows
    # the thesis's undecided pattern needs M = 4, beyond a search capped at M <= 3
    assert "[FAIL] open-11                  tag Separable, least multiplicity M = 4" in lines
    assert "[PASS] npt-10                   tag NptEntangled" in lines


# sha256 of the full survey reports; any change to a row, a field's
# formatting or the row order shows here
SURVEY_CSV_SHA256 = "bbc1f0febf07b26b5684aa8d0c67d92f1f14dc696c69caed5787695447b808a2"
SURVEY_JSONL_SHA256 = "ecc1e8275fdd08c47fe1fec926f6ed7cd9eaba73e6262cce9f45bd08b349ca8b"


def test_survey_csv(tmp_path, capsys, monkeypatch):
    def no_seesaw(*args, **kwargs):
        raise AssertionError("the survey ran a see-saw")

    monkeypatch.setattr(maps, "seesaw_extremum", no_seesaw)
    out_path = tmp_path / "survey.csv"
    assert cli.main(["survey", "--out", str(out_path), "--workers", "4"]) == 0
    summary = capsys.readouterr().out
    assert "records: 65535" in summary
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 65535
    assert set(rows[0]) == set(cli.REPORT_FIELDS)
    tags = {}
    for row in rows:
        tags[row["tag"]] = tags.get(row["tag"], 0) + 1
    assert tags == {
        "NptEntangled": 54112,
        "PptEntangled": 2688,
        "Separable": 8735,
    }
    # the covering search over every Separable mask: minimal multiplicity
    mult = {}
    for row in rows:
        if row["tag"] == "Separable":
            m = json.loads(row["certificate"])["multiplicity"]
            mult[m] = mult.get(m, 0) + 1
    assert mult == {1: 511, 2: 6528, 4: 1696}
    # every PptEntangled mask is special, with the exact delta 1
    assert all(row["witness_delta"] == ("1.0" if row["tag"] == "PptEntangled" else "") for row in rows)
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SURVEY_CSV_SHA256


def test_text_tables_hold_the_json_of_their_values():
    assert len(cli._POINT_JSON) == 16
    for p, text in cli._POINT_JSON.items():
        assert text == json.dumps(list(p))
    # covering items: the JSON with every quote doubled, as csv.writer
    # writes it inside the quoted certificate cell, the quadruple's points
    # sorted; (quadruple mask, weight) for every weight up to the largest
    # multiplicity, 4
    assert set(cli._ITEM_CSV) == set(itertools.product(lattice.QUAD_MASKS,
                                                        range(1, lattice.MAX_MULTIPLICITY + 1)))
    assert len(cli._ITEM_CSV) == 240
    for (q, w), text in cli._ITEM_CSV.items():
        points = [list(p) for p in sorted(states.mask_points(q))]
        assert len(points) == 4 and states.points_mask(points) == q
        item = json.dumps({"points": points, "weight": w})
        assert text.replace('""', '"') == item
        buf = io.StringIO()
        csv.writer(buf).writerow([item])
        assert buf.getvalue() == f'"{text}"\r\n'


def test_csv_row_is_what_csv_writer_writes():
    # the first survey mask of each tag, criteria list and multiplicity,
    # with each cross-check value, which the survey report hashes do not
    # all reach
    for mask in (0x0001, 0x0033, 0x0077, 0x0777, 0x0359, 0x12CF):
        for check in (None, True, False):
            rec = lattice.SurveyRecord(mask, mask.bit_count(), lattice.classify(mask))
            rec.cross_check_ok = check
            row = cli.report_record(rec)
            cells = [json.dumps(row[key]) if key in ("special_point", "one_point", "k_pair", "certificate")
                     and row[key] is not None else row[key] for key in cli.REPORT_FIELDS]
            buf = io.StringIO()
            csv.writer(buf).writerow(cells)
            assert cli._csv_row(rec) == buf.getvalue()


def test_survey_jsonl(tmp_path, capsys):
    out_path = tmp_path / "survey.jsonl"
    assert cli.main(["survey", "--out", str(out_path), "--format", "jsonl"]) == 0
    assert "records: 65535" in capsys.readouterr().out
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SURVEY_JSONL_SHA256


def test_survey_cross_validation_mismatch_exits_3_after_the_report(tmp_path, capsys, monkeypatch):
    def survey(cross_validate):
        assert cross_validate
        for mask in (0x0001, 0x000F, 0x0033):
            rec = lattice.SurveyRecord(mask, mask.bit_count(), lattice.classify(mask))
            rec.cross_check_ok = mask != 0x000F
            yield rec

    monkeypatch.setattr(lattice, "survey", survey)
    out_path = tmp_path / "survey.jsonl"
    assert cli.main(["survey", "--out", str(out_path), "--format", "jsonl", "--cross-validate"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cross-validation mismatch on 1 masks, first 0x000f\n"
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [row["numeric_cross_check"] for row in rows] == [True, False, True]


def test_survey_unwritable_output_exits_4(tmp_path, capsys):
    for out in (tmp_path, tmp_path / "missing" / "x.csv"):
        assert cli.main(["survey", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in captured.err


def test_example_masks_resolve():
    for name in cli.WORKED_EXAMPLES:
        mask = cli.example_mask(name)
        assert 1 <= mask <= 0xFFFF
    with pytest.raises(KeyError):
        cli.example_mask("no-such-example")
