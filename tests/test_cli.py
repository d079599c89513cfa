"""End-to-end checks of the command-line interface via main(argv)."""

import json
import re
import reprlib
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from nwave.cli import InputError, _poly_from_terms, config_from_doc, config_to_doc, main
from nwave.exprat import (
    EvalPole, ExpPoly, ExpRational, InexactDivision, grid_values, wave_constants,
)
from nwave.verify import Check, Report
from nwave.wavesys import field_label, model, zero_config

SPEC_11 = {
    "schema": 1,
    "c": ["1", "1/2"],
    "d": ["1/3", "1"],
    "P": [{"pos": "2", "w": "1"}],
    "Q": [{"pos": "1", "w": "1"}],
}

SPEC_22 = {
    "schema": 1,
    "c": ["1", "1/2"],
    "d": ["1/3", "1"],
    "P": [{"pos": "2", "w": "1"}, {"pos": "-1", "w": "1/2"}],
    "Q": [{"pos": "1", "w": "1"}, {"pos": "1/2", "w": "2"}],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def construct(tmp_path, algebra, spec, n1, n2, name):
    spec_path = write_json(tmp_path / f"spec_{name}", spec)
    out = tmp_path / name
    rc = main([
        "construct", "--algebra", algebra, "--spectral", spec_path,
        "--n1", str(n1), "--n2", str(n2), "--out", str(out),
    ])
    assert rc == 0
    return out


def quotients_equal(doc_a, doc_b):
    a = config_from_doc(doc_a)
    b = config_from_doc(doc_b)
    assert a.algebra == b.algebra
    for key in model(a.algebra).field_keys:
        ra, rb = a.fields[key], b.fields[key]
        if not (ra.num * rb.den - rb.num * ra.den).is_zero():
            return False
    return True


def test_construct_seed_has_zero_plus_fields(tmp_path):
    out = construct(tmp_path, "A2", SPEC_11, 0, 0, "a2_00.json")
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["algebra"] == "A2"
    for label, body in doc["fields"].items():
        if label.startswith("f+"):
            assert body["num"] == []
            assert body["den"] == [[["0", "0"], "1"]]
        else:
            assert body["num"] != []


def test_construct_interrupted_orders_kill_minus_fields(tmp_path):
    # n1 = n2 = 1 exhausts the single P-spike: the minus sector dies.
    out = construct(tmp_path, "A2", SPEC_11, 1, 1, "a2_11.json")
    doc = json.loads(out.read_text())
    for label, body in doc["fields"].items():
        if label.startswith("f-"):
            assert body["num"] == []
        else:
            assert body["num"] != []


def test_construct_stdout_is_one_compact_line(tmp_path, capsys):
    spec_path = write_json(tmp_path / "spec.json", SPEC_11)
    rc = main(["construct", "--algebra", "A2", "--spectral", spec_path])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.endswith("\n") and text.count("\n") == 1
    doc = json.loads(text)
    assert set(doc) == {"schema", "algebra", "constants", "fields"}


def test_constructed_b2_solution_passes_verify(tmp_path, capsys):
    out = construct(tmp_path, "B2", SPEC_22, 1, 1, "b2_11.json")
    rc = main(["verify", "--in", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "B2 configuration: PASS (0/8 failed)"
    assert all(line.startswith("PASS  D(") for line in lines[:-1])


def test_empty_chain_round_trips_bytes(tmp_path):
    out = construct(tmp_path, "A2", SPEC_22, 1, 0, "a2_10.json")
    rt = tmp_path / "rt.json"
    rc = main(["transform", "--chain", "", "--in", str(out), "--out", str(rt)])
    assert rc == 0
    assert rt.read_bytes() == out.read_bytes()


def test_composition_chain_matches_direct_transform(tmp_path):
    # Each map cancels its known denominator factors, so the two routes
    # reach the same stored form, and so the same quotients.
    out = construct(tmp_path, "A2", SPEC_22, 0, 0, "a2_seed.json")
    via_pair = tmp_path / "t12.json"
    direct = tmp_path / "t3.json"
    assert main(["transform", "--chain", "T1,T2", "--in", str(out),
                 "--out", str(via_pair)]) == 0
    assert main(["transform", "--chain", "T3", "--in", str(out),
                 "--out", str(direct)]) == 0
    doc_a = json.loads(via_pair.read_text())
    doc_b = json.loads(direct.read_text())
    assert doc_a == doc_b
    assert quotients_equal(doc_a, doc_b)


def test_second_root_chain_round_trips_as_quotients(tmp_path):
    out = construct(tmp_path, "B2", SPEC_22, 1, 1, "b2_11.json")
    rt = tmp_path / "rt.json"
    rc = main(["transform", "--chain", "T10,T10_INV", "--in", str(out),
               "--out", str(rt)])
    assert rc == 0
    assert quotients_equal(json.loads(out.read_text()),
                           json.loads(rt.read_text()))


def test_rescaled_weights_still_verify(tmp_path):
    spec = json.loads(json.dumps(SPEC_22))
    for row in spec["Q"]:
        num, _, den = row["w"].partition("/")
        row["w"] = f"{3 * int(num)}" + (f"/{den}" if den else "")
    out = construct(tmp_path, "A2", spec, 1, 1, "a2_w3.json")
    assert main(["verify", "--in", str(out)]) == 0


def test_verify_flags_corrupted_field(tmp_path, capsys):
    out = construct(tmp_path, "A2", SPEC_22, 1, 1, "a2_11.json")
    doc = json.loads(out.read_text())
    doc["fields"]["f+1.0"]["num"] = [[["0", "0"], "1"]]
    bad = write_json(tmp_path / "bad.json", doc)
    rc = main(["verify", "--in", bad])
    assert rc == 1
    text = capsys.readouterr().out
    assert "FAIL  D(1,0) f+1.0" in text
    assert "A2 configuration: FAIL" in text


def test_verify_report_file_schema(tmp_path):
    report = tmp_path / "report.json"
    rc = main(["verify", "--suite", "toda", "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["schema"] == 1
    assert doc["pass"] is True
    assert doc["counts"] == {"total": 5, "failed": 0}
    assert all({"name", "pass"} <= set(c) for c in doc["checks"])


def test_g2_suite_gates_the_exit_code(capsys, monkeypatch):
    rc = main(["verify", "--suite", "g2-hypothesis"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "suite g2-hypothesis: PASS (0/4 failed)" in out
    # a failing order fails the run, as in every other suite
    failing = Report(title="suite g2-hypothesis", mode="exact",
                     checks=[Check("order (1,1)", False, "nonzero: D(1,0) f+1.0")])
    monkeypatch.setattr("nwave.cli.verify_suite", lambda name: failing)
    assert main(["verify", "--suite", "g2-hypothesis"]) == 1
    assert "suite g2-hypothesis: FAIL (1/1 failed)" in capsys.readouterr().out


def test_numeric_mode_accepts_solution(tmp_path):
    out = construct(tmp_path, "A2", SPEC_11, 1, 1, "a2_11.json")
    assert main(["verify", "--in", str(out), "--mode", "numeric"]) == 0


def test_suite_refuses_a_mode(capsys):
    # A suite is proved exactly: asking for a mode is an error, not a no-op.
    for mode in ("numeric", "exact"):
        assert main(["verify", "--suite", "toda", "--mode", mode]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_verify_without_mode_is_exact(tmp_path):
    out = construct(tmp_path, "A2", SPEC_11, 1, 1, "a2_11.json")
    report = tmp_path / "report.json"
    assert main(["verify", "--in", str(out), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["mode"] == "exact"


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text("{nope")
    rc = main(["construct", "--algebra", "A2", "--spectral", str(path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag", ["--n1", "--n2"])
def test_negative_order_exits_2(tmp_path, capsys, flag):
    spec_path = write_json(tmp_path / "spec.json", SPEC_11)
    rc = main(["construct", "--algebra", "A2", "--spectral", spec_path, flag, "-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: orders must be nonnegative")
    assert err.count("\n") == 1


def test_degenerate_speeds_bad_algebra_and_non_utf8_input_exit_2(tmp_path, capsys):
    flat = dict(SPEC_11, c=["1", "1"], d=["1", "1"])
    spec_path = write_json(tmp_path / "flat.json", flat)
    assert main(["construct", "--algebra", "A2", "--spectral", spec_path]) == 2
    doc = config_to_doc(zero_config("A2", wave_constants("1", "1/2", "1/3", "1")))
    doc["constants"] = {"c": ["1", "1"], "d": ["1", "1"]}
    assert main(["verify", "--in", write_json(tmp_path / "flat_cfg.json", doc)]) == 2
    assert capsys.readouterr().err.count("error: degenerate wave constants") == 2
    doc["algebra"] = ["A2"]
    assert main(["verify", "--in", write_json(tmp_path / "list_algebra.json", doc)]) == 2
    assert "'algebra' must be a string" in capsys.readouterr().err
    raw = tmp_path / "latin1.json"
    raw.write_bytes(b"\xff{")
    assert main(["construct", "--algebra", "A2", "--spectral", str(raw)]) == 2
    assert "not UTF-8 text" in capsys.readouterr().err


def test_internal_key_error_is_not_malformed_input(tmp_path, monkeypatch):
    def broken(m, s, n1, n2):
        raise KeyError("internal")

    monkeypatch.setattr("nwave.cli.solution_from_tau", broken)
    spec_path = write_json(tmp_path / "spec.json", SPEC_11)
    with pytest.raises(KeyError, match="internal"):
        main(["construct", "--algebra", "A2", "--spectral", spec_path])


def test_two_labels_for_one_field_exit_2(tmp_path, capsys):
    # "f+01.0" would name f+1.0 a second time and silently replace its value
    out = construct(tmp_path, "A2", SPEC_22, 1, 1, "a2_11.json")
    doc = json.loads(out.read_text())
    doc["fields"]["f+01.0"] = doc["fields"]["f-1.0"]
    capsys.readouterr()
    assert main(["verify", "--in", write_json(tmp_path / "twice.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad field label: 'f+01.0'")
    assert err.count("\n") == 1


def test_unsupported_schema_exits_2(tmp_path, capsys):
    spec = dict(SPEC_11, schema=2)
    path = write_json(tmp_path / "s2.json", spec)
    rc = main(["construct", "--algebra", "A2", "--spectral", path])
    assert rc == 2
    assert "unsupported schema 2" in capsys.readouterr().err


def test_coupled_spike_positions_exit_2(tmp_path, capsys):
    spec = json.loads(json.dumps(SPEC_11))
    spec["Q"][0]["pos"] = "2"
    path = write_json(tmp_path / "clash.json", spec)
    rc = main(["construct", "--algebra", "A2", "--spectral", path])
    assert rc == 2
    assert "share position" in capsys.readouterr().err


def test_unknown_transform_exits_2_and_lists_ids(tmp_path, capsys):
    out = construct(tmp_path, "A2", SPEC_11, 0, 0, "a2.json")
    rc = main(["transform", "--chain", "T9", "--in", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown transform 'T9'" in err
    assert "A2_T1" in err and "A2_T3" in err


def test_algebra_mismatched_chain_exits_2(tmp_path, capsys):
    out = construct(tmp_path, "A2", SPEC_11, 0, 0, "a2.json")
    rc = main(["transform", "--chain", "T10", "--in", str(out)])
    assert rc == 2
    assert "unknown transform 'T10' for A2" in capsys.readouterr().err


def test_interrupted_construction_exits_3(tmp_path, capsys):
    spec_path = write_json(tmp_path / "spec.json", SPEC_11)
    rc = main(["construct", "--algebra", "A2", "--spectral", spec_path,
               "--n1", "2", "--n2", "1"])
    assert rc == 3
    assert "vanishes identically" in capsys.readouterr().err


def test_dead_pivot_exits_3(tmp_path, capsys):
    w = wave_constants("1", "1/2", "1/3", "1")
    doc = config_to_doc(zero_config("B2", w))
    path = write_json(tmp_path / "b2_zero.json", doc)
    rc = main(["transform", "--chain", "T10", "--in", path])
    assert rc == 3
    err = capsys.readouterr().err
    assert "chain step 0" in err
    assert "pivot" in err


def test_inexact_division_exits_3(tmp_path, capsys, monkeypatch):
    def inexact(tids, cfg):
        raise InexactDivision("leading coefficient does not divide")

    monkeypatch.setattr("nwave.cli.apply_chain", inexact)
    w = wave_constants("1", "1/2", "1/3", "1")
    path = write_json(tmp_path / "b2_zero.json", config_to_doc(zero_config("B2", w)))
    rc = main(["transform", "--chain", "T10", "--in", path])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "error: leading coefficient does not divide\n"


def test_unknown_suite_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "definitely-not-a-suite"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_sample_csv_layout_and_pole_cells(tmp_path):
    w = wave_constants("1", "1/2", "1/3", "1")
    cfg = zero_config("A2", w)
    m = model("A2")
    # Give one field the value 1/(e^t - 1): a pole along t = 0.
    den = ExpPoly.term(1, 1, 0) - ExpPoly.const(1)
    fields = dict(cfg.fields)
    fields[m.field_keys[0]] = ExpRational(ExpPoly.const(1), den)
    doc = config_to_doc(type(cfg)(algebra=cfg.algebra,
                                  constants=cfg.constants, fields=fields))
    path = write_json(tmp_path / "pole.json", doc)
    csv_path = tmp_path / "grid.csv"
    rc = main(["sample", "--in", path, "--t0", "0", "--t1", "1",
               "--x0", "0", "--x1", "1", "--nt", "2", "--nx", "2",
               "--csv", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    labels = [field_label(k) for k in m.field_keys]
    assert lines[0] == "t,x," + ",".join(sorted(labels))
    assert len(lines) == 1 + 2 * 2
    pole_label = field_label(m.field_keys[0])
    col = lines[0].split(",").index(pole_label)
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if row[0] == "0.0":
            assert row[col] == ""
        else:
            assert abs(float(row[col]) - 0.5819767068693265) < 1e-12
    # Untouched fields sample to exactly 0.0 everywhere.
    other = lines[0].split(",").index(sorted(labels)[-1])
    assert {row[other] for row in rows} == {"0.0"}


def test_sample_prints_values_past_the_float_range(tmp_path):
    # At t = 1, e^{2000t} overflows a float and 1/(e^{2000t} + e^{2001t})
    # underflows one; both cells must still be finite and nonzero.
    w = wave_constants("1", "1/2", "1/3", "1")
    cfg = zero_config("A2", w)
    big, small = sorted(cfg.fields, key=field_label)[:2]
    huge = ExpPoly.term(1, 2000, 0)
    cfg = cfg.with_fields({
        big: ExpRational(huge),
        small: ExpRational(ExpPoly.const(1), huge + ExpPoly.term(1, 2001, 0)),
    })
    path = write_json(tmp_path / "wide.json", config_to_doc(cfg))
    csv_path = tmp_path / "wide.csv"
    rc = main(["sample", "--in", path, "--t0", "1", "--t1", "1", "--nt", "1",
               "--x0", "0", "--x1", "0", "--nx", "1", "--csv", str(csv_path)])
    assert rc == 0
    header, row = (line.split(",") for line in csv_path.read_text().splitlines())
    cells = dict(zip(header, row))
    for key in (big, small):
        v = mpmath.mpf(cells[field_label(key)])
        assert mpmath.isfinite(v) and v != 0
    assert mpmath.mpf(cells[field_label(big)]) > mpmath.mpf("1e868")
    assert mpmath.mpf(cells[field_label(small)]) < mpmath.mpf("1e-869")


# `nwave sample` of the A2 (1,1) solution on SPEC_22, t in {-1, 0, 1} and
# x in {0, 1}.  Each cell carries 17 digits of the 120-bit value; rounding the
# value to a float first would change most of them.
A2_11_SAMPLE = """\
t,x,f+0.1,f+1.0,f+1.1,f-0.1,f-1.0,f-1.1
-1.0,0.0,-13.671382234376666,-17.844475799444328,11.287251391196418,-0.72392536310619696,26.316073053134253,-0.90230144318107752
-1.0,1.0,-1.4597512388071131,-0.86699626927272864,0.74237823449707481,-0.026548909503097407,0.46799148776892017,-0.010312722729005799
0.0,0.0,1.0588235294117647,2.1176470588235294,-0.70588235294117647,0.29411764705882353,-4.4117647058823529,0.35294117647058824
0.0,1.0,-0.93352463721710385,-1.3518253114080294,0.62465005384487392,-0.080149726121001203,1.0294620468821767,-0.054273951566578312
1.0,0.0,0.27777516510828032,0.72463965747030071,-0.12045758962976705,0.38273214805259787,-2.1368762419637014,0.3767131002626298
1.0,1.0,-0.78111615444258976,-2.6617246140753825,0.63122325522471607,-0.33431127886235986,2.8667297035018629,-0.34303955612785805
"""


def test_sample_cells_of_an_a2_tau_solution_are_pinned(tmp_path):
    sol = construct(tmp_path, "A2", SPEC_22, 1, 1, "a2_11.json")
    csv_path = tmp_path / "a2_11.csv"
    rc = main(["sample", "--in", str(sol), "--t0", "-1", "--t1", "1", "--nt", "3",
               "--x0", "0", "--x1", "1", "--nx", "2", "--csv", str(csv_path)])
    assert rc == 0
    assert csv_path.read_text() == A2_11_SAMPLE


def test_sample_blanks_exactly_the_evaluator_poles(tmp_path):
    # 1/(e^t - 1) on a grid through t = 0: the evaluator's None points, the
    # EvalPole points of ExpRational.eval and the blank CSV cells coincide.
    cfg = zero_config("A2", wave_constants("1", "1/2", "1/3", "1"))
    key = sorted(cfg.fields, key=field_label)[0]
    pole = ExpRational(ExpPoly.const(1), ExpPoly.term(1, 1, 0) - ExpPoly.const(1))
    path = write_json(tmp_path / "pole.json", config_to_doc(cfg.with_fields({key: pole})))
    ts = [Fraction(k, 2) for k in range(-2, 3)]
    xs = [Fraction(0), Fraction(1, 2), Fraction(1)]
    none_points = {(t, x) for t, x, vals in grid_values({key: pole}, ts, xs)
                   if vals[key] is None}
    raised = set()
    for t in ts:
        for x in xs:
            try:
                pole.eval(t, x)
            except EvalPole:
                raised.add((t, x))
    csv_path = tmp_path / "pole.csv"
    rc = main(["sample", "--in", path, "--t0", "-1", "--t1", "1", "--nt", "5",
               "--x0", "0", "--x1", "1", "--nx", "3", "--csv", str(csv_path)])
    assert rc == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()]
    col = rows[0].index(field_label(key))
    blank = {(Fraction(row[0]), Fraction(row[1])) for row in rows[1:] if row[col] == ""}
    assert none_points == raised == blank == {(Fraction(0), x) for x in xs}


@pytest.mark.parametrize("bound", ["--t0", "--t1", "--x0", "--x1"])
def test_sample_bound_past_the_float_range_exits_2(tmp_path, capsys, bound):
    # The CSV prints grid coordinates as floats, so a bound past the float
    # range is malformed input, refused before any cell is evaluated.
    sol = construct(tmp_path, "A2", SPEC_11, 0, 0, "a2.json")
    capsys.readouterr()
    opts = {"--t0": "0", "--t1": "0", "--x0": "0", "--x1": "0"}
    opts[bound] = "-1e400" if bound.endswith("0") else "1e400"
    csv_path = tmp_path / "never.csv"
    rc = main(["sample", "--in", str(sol), "--nt", "1", "--nx", "1", "--csv", str(csv_path)]
              + [f"{k}={v}" for k, v in opts.items()])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    which = "lower" if bound.endswith("0") else "upper"
    assert f"{bound[2]} {which} bound '{opts[bound]}' is past the float range" in err
    assert not csv_path.exists()


@pytest.mark.parametrize("bound", ["--t0", "--t1", "--x0", "--x1"])
def test_sample_bound_below_the_float_range_exits_2(tmp_path, capsys, bound):
    # A nonzero bound that rounds to 0.0 as a float would print as 0.0, the
    # same as a zero coordinate: refused like a bound past the float range.
    sol = construct(tmp_path, "A2", SPEC_11, 0, 0, "a2.json")
    capsys.readouterr()
    opts = {"--t0": "0", "--t1": "1", "--x0": "0", "--x1": "1"}
    opts[bound] = "-1e-400" if bound.endswith("0") else "1e-400"
    csv_path = tmp_path / "never.csv"
    rc = main(["sample", "--in", str(sol), "--nt", "2", "--nx", "2", "--csv", str(csv_path)]
              + [f"{k}={v}" for k, v in opts.items()])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    which = "lower" if bound.endswith("0") else "upper"
    assert f"{bound[2]} {which} bound '{opts[bound]}' is below the float range" in err
    assert not csv_path.exists()


@pytest.mark.parametrize("x0, x1, nx, message", [
    ("0", "1e-320", 5000, "x grid point 2 of 5000 is below the float range"),
    ("1", "100000000000000001/100000000000000000", 3,
     "x grid points 1 and 2 of 3 both print as 1.0"),
])
def test_sample_interior_points_that_print_alike_exit_2(tmp_path, capsys, x0, x1, nx, message):
    # Every printed coordinate must name its own grid point: a nonzero x
    # that prints as 0.0, or two x that print as one float, are refused.
    sol = construct(tmp_path, "A2", SPEC_11, 0, 0, "a2.json")
    capsys.readouterr()
    csv_path = tmp_path / "never.csv"
    rc = main(["sample", "--in", str(sol), "--t0", "0", "--t1", "0", "--nt", "1",
               "--x0", x0, "--x1", x1, "--nx", str(nx), "--csv", str(csv_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message in err
    assert not csv_path.exists()


numbers = st.one_of(
    st.text(alphabet="0123456789-+/_. eE\t\n٣３²", max_size=12),
    st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
)

#: The most digits int() converts to or from a string.
LIMIT = sys.get_int_max_str_digits()


def fraction_or_too_large(v):
    """Fraction(v), or None when its lowest terms have more than LIMIT
    digits, or when Fraction reads v only once int()'s digit limit is
    lifted.  A nonzero number with an exponent past 3*LIMIT is too large
    whatever its short mantissa, so that exponent is never applied."""
    try:
        return _fraction_within_limit(v)
    except ValueError:
        sys.set_int_max_str_digits(0)
        try:
            _fraction_within_limit(v)  # raises if v is no rational at all
        finally:
            sys.set_int_max_str_digits(LIMIT)
        return None


def _fraction_within_limit(v):
    m = re.fullmatch(r"(.*)[eE]([-+]?\d+(?:_\d+)*)(\s*)", v, re.DOTALL)
    if m and abs(int(m[2])) > 3 * LIMIT:
        f = Fraction(m[1] + "e0" + m[3])
        return f if f == 0 else None
    f = Fraction(v)
    return f if max(abs(f.numerator), f.denominator) < 10 ** LIMIT else None


@settings(max_examples=300, deadline=None)
@given(numbers, st.integers(0, 2))
@example("3/0", 2)
@example("3/4/5", 0)
@example("00/07", 1)
@example("-0", 2)
@example("1" * 5000, 2)
@example("٣/4", 0)
@example("1e5000", 2)
@example("1e999999999", 0)
@example("-1e-999999999", 1)
@example("0e999999999", 2)
@example("5e-4300", 2)
@example("1e-4300", 2)
def test_document_numbers_read_as_fraction_reads_them(v, pos):
    # Documents are read on the integer lattice; every string must still
    # give Fraction's value, or the error Fraction's refusal gives, or be
    # refused when it could not be written back.
    parts = ["0", "1", "1"]
    parts[pos] = v
    what = f"f+1.0.num[0].{('a', 'b', 'coef')[pos]}"
    try:
        want = [fraction_or_too_large(p) for p in parts]
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InputError) as exc:
            _poly_from_terms([[parts[:2], parts[2]]], "f+1.0.num")
        assert str(exc.value) == f"{what}: not a rational: {reprlib.repr(v)}"
        return
    if want[pos] is None:
        with pytest.raises(InputError) as exc:
            _poly_from_terms([[parts[:2], parts[2]]], "f+1.0.num")
        assert str(exc.value).startswith(f"{what}: too many digits to write back "
                                         f"(limit {LIMIT}): ")
        return
    got = _poly_from_terms([[parts[:2], parts[2]]], "f+1.0.num")
    assert got == ExpPoly([((want[0], want[1]), want[2])])


@pytest.mark.parametrize("value,message", [
    ("1" * 5000 + "x", "not a rational: '111"),
    ([1] * 5000, "expected an exact rational string, got [1, 1,"),
], ids=["malformed-string", "long-list"])
def test_malformed_long_number_gives_one_short_error_line(tmp_path, capsys, value, message):
    # The offending value is abbreviated, as in the "too many digits" error.
    out = construct(tmp_path, "A2", SPEC_22, 0, 0, "a2_seed.json")
    doc = json.loads(out.read_text())
    doc["fields"]["f-1.0"]["num"][0][1] = value
    bad = write_json(tmp_path / "bad.json", doc)
    capsys.readouterr()
    assert main(["verify", "--in", bad]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 100
    assert err.startswith(f"error: f-1.0.num[0].coef: {message}")


@pytest.mark.parametrize("number", ["1e5000", "-1e-999999999", "1" * 4000 + "." + "1" * 4000])
def test_document_numbers_too_large_to_write_back_exit_2(tmp_path, capsys, number):
    # A number whose digits int() would refuse to print is refused on
    # reading, with one error line, before any map or check runs.
    out = construct(tmp_path, "A2", SPEC_22, 0, 0, "a2_seed.json")
    doc = json.loads(out.read_text())
    doc["fields"]["f-1.0"]["num"][0][1] = number
    big = write_json(tmp_path / "big.json", doc)
    capsys.readouterr()
    for argv in (["transform", "--chain", "T1", "--in", big], ["verify", "--in", big]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: f-1.0.num[0].coef: too many digits to write back")
