"""End-to-end checks of the command-line interface via main(argv)."""

import functools
import json
import os
import re
import reprlib
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import nwave
from nwave import cli, exprat
from nwave.cli import (
    SAMPLE_POINTS, InputError, _dump, _terms, config_from_doc, config_to_doc, main,
)
from nwave.exprat import (
    EvalPole, ExpPoly, ExpRational, InexactDivision, grid_values, quotient_reader,
    wave_constants,
)
from nwave.tau import TauZero, solution_from_tau
from nwave.transforms import TRANSFORMS, PivotZero, apply
from nwave.verify import Check, Report
from nwave.wavesys import MINUS, FieldConfig, field_label, model, parse_field_label, zero_config

import _docread
import _refusals
import test_outputs
from test_exprat import W, exprationals
from test_tau import MAP_SPIKES, lattice_constants, spike_data

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


SPIKES = json.loads((Path(__file__).resolve().parent.parent / "bench" / "data"
                     / "spikes.json").read_text())


@pytest.mark.parametrize("qset", ["Q2", "Q4"])
def test_one_value_is_written_as_one_document(tmp_path, qset):
    # T2A2 takes the B2 seed to the order-(0,1) solution, and a value has
    # one stored form: the image and the construction write the same bytes.
    spec = {"schema": 1, "c": SPIKES["c"], "d": SPIKES["d"],
            "P": SPIKES["sets"]["P2"], "Q": SPIKES["sets"][qset]}
    seed = construct(tmp_path, "B2", spec, 0, 0, "seed.json")
    image = tmp_path / "image.json"
    assert main(["transform", "--chain", "T2A2", "--in", str(seed), "--out", str(image)]) == 0
    assert image.read_bytes() == construct(tmp_path, "B2", spec, 0, 1, "b2_01.json").read_bytes()


@settings(max_examples=40)
@given(st.lists(exprationals(), min_size=6, max_size=6), st.integers(0, 3))
def test_a_written_configuration_round_trips_bytes(values, op):
    # Documents of values, their quotients, derivatives or log derivatives
    # read back equal, in the same stored form, and are written again byte
    # for byte.
    a, b, *_ = values
    if op == 1 and not b.is_zero():
        values[0] = a / b
    elif op == 2:
        values[0] = a.deriv(1, 2, W)
    elif op == 3 and not a.is_zero():
        values[0] = a.deriv(0, 1, W) / a
    keys = model("A2").field_keys
    cfg = FieldConfig("A2", W, dict(zip(keys, values)))
    text = _dump(config_to_doc(cfg))
    back = config_from_doc(json.loads(text))
    assert back == cfg
    assert [(back[k].num, back[k].den) for k in keys] == [(v.num, v.den) for v in values]
    assert _dump(config_to_doc(back)) == text


@st.composite
def solution_documents(draw):
    """The document text of a random A2, B2 or G2 tau solution on up to
    2P+3Q under random or fixed constants, or of a random map's image of
    one on up to MAP_SPIKES spikes (fields over several denominators)."""
    name = draw(st.sampled_from(["A2", "B2", "G2"]))
    mapped = draw(st.booleans())
    max_p, max_q = MAP_SPIKES[name] if mapped else (2, 3)
    s = draw(spike_data(p=(int(mapped), max_p), q=(int(mapped), max_q),
                        constants=st.one_of(st.just(W), lattice_constants())))
    try:
        cfg = solution_from_tau(model(name), s, *draw(st.sampled_from([(0, 0), (1, 0), (0, 1),
                                                                      (1, 1)])))
        if mapped:
            cfg = apply(draw(st.sampled_from(
                [t for t, tr in TRANSFORMS.items() if tr.algebra == name])), cfg)
    except (TauZero, PivotZero):
        assume(False)
    return _dump(config_to_doc(cfg))


def _read_as_the_reference(doc):
    """config_from_doc(doc) and the two-step reference reading give every
    field the same numerator and atoms, as held."""
    got, want = config_from_doc(doc), _docread.config(doc)
    assert got.constants == want.constants
    assert list(got.fields) == list(want.fields)
    for key, v in got.fields.items():
        assert _docread.value_shape(v) == _docread.value_shape(want[key]), field_label(key)


@settings(max_examples=40)
@given(solution_documents())
def test_a_document_reads_as_the_two_step_reference(text):
    # Each term list is read once, straight to spectral coordinates over
    # its denominator's unit part: the values are those of ExpPoly.from_lattice
    # per list and ExpRational.all_over, scale, integers, content and atoms.
    _read_as_the_reference(json.loads(text))


def _respelled(f: Fraction, how: int) -> str:
    """f as written (how 0), or in a spelling Fraction reads and nwave
    never writes: "2/4" for 1/2 (how 1), "0.5" (how 2), "1e1" for 10,
    "5e-1" for 1/2 or "-0" for 0 (how 3); as written where the spelling
    does not apply."""
    n, d = f.numerator, f.denominator
    millionths = n * (10 ** 6 // d) if 10 ** 6 % d == 0 else None  # f * 10^6
    if how == 1:
        return f"{2 * n}/{2 * d}"
    if how == 2 and millionths is not None:
        whole, part = divmod(abs(millionths), 10 ** 6)
        return f"{'-' * (millionths < 0)}{whole}.{part:06d}"
    if how == 3 and not n:
        return "-0"
    if how == 3 and d == 1:
        return f"{n // 10}e1" if n % 10 == 0 else f"{n}e0"
    if how == 3 and millionths is not None:
        return f"{millionths}e-6"
    return str(f)


@settings(max_examples=40)
@given(solution_documents(), st.data())
def test_a_respelled_document_reads_as_the_reference(text, data):
    # Numbers spelled as Fraction reads them but nwave never writes them,
    # each "den" with a constant and a monomial factor taken into its
    # fields' numerators, and one "den" written two ways: each reading
    # equals the reference's, as held.
    doc = json.loads(text)
    spell = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=8), "spellings")
    k = iter(range(10 ** 9))

    def terms(items, c, a, b):
        return [[[_respelled(Fraction(x) + a, spell[next(k) % len(spell)]),
                  _respelled(Fraction(y) + b, spell[next(k) % len(spell)])],
                 _respelled(Fraction(z) * c, spell[next(k) % len(spell)])]
                for (x, y), z in items]

    factors = {}  # "den" text -> (c, a, b): the factor c * exp(a*t + b*x) taken in
    labels = list(doc["fields"])
    twice = data.draw(st.sampled_from(labels), "a field whose den is spelled anew")
    for label in labels:
        body = doc["fields"][label]
        den = json.dumps(body["den"])
        if den not in factors:
            factors[den] = (data.draw(st.sampled_from([Fraction(1), Fraction(-2, 3), Fraction(5)])),
                            data.draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-3)])),
                            data.draw(st.sampled_from([Fraction(0), Fraction(2, 3)])))
        c, a, b = factors[den]
        body["num"] = terms(body["num"], c, a, b)
        body["den"] = terms(body["den"], c, a, b)
        if label == twice:  # the same den, its terms in reverse order and spelled anew
            spell.append(1)
            body["den"] = body["den"][::-1]
    _read_as_the_reference(doc)


def _golden_documents(tmp):
    """(name, text) of every document the golden outputs hold: the frozen
    configurations, their f-1.0 doubled copies, and what construct and
    transform write."""
    for name, path in test_outputs._inputs(tmp):
        yield name, path.read_text()
    for name, out in (*test_outputs._construct(tmp), *test_outputs._transform(tmp)):
        code, text, _ = out.decode().split("\n", 2)
        if code == "exit 0":
            yield name, text + "\n"


def test_a_document_is_read_as_each_field_alone_with_one_atom_per_den(tmp_path):
    # A "den" list repeated in a document is read once: every value has the
    # numerator and atoms of its own field read alone, fields with equal
    # "den" text hold one atom object, and the values are written as the
    # fields read alone are.
    shared = 0
    for name, text in _golden_documents(tmp_path):
        doc = json.loads(text)
        cfg = config_from_doc(doc)
        w, alone = cfg.constants, {}
        assert [field_label(k) for k in cfg.fields] == list(doc["fields"]), name
        atoms = {}  # "den" text -> the atom objects of its first nonzero value
        for label, body in doc["fields"].items():
            key = parse_field_label(label)
            v = cfg.fields[key]
            alone[key] = ExpRational(_docread.poly(body["num"], w), _docread.poly(body["den"], w))
            assert (v.num, v.atoms) == (alone[key].num, alone[key].atoms), (name, label)
            if not v.is_zero():
                ids = sorted(map(id, v._atoms))
                shared += json.dumps(body["den"]) in atoms
                assert atoms.setdefault(json.dumps(body["den"]), ids) == ids, (name, label)
        alone = FieldConfig(cfg.algebra, w, alone)
        assert _dump(config_to_doc(cfg)) == _dump(config_to_doc(alone)), name
    assert shared > 100


def test_a_map_splits_each_divisor_once(tmp_path, monkeypatch):
    # B2_TM divides by its pivot f-1.2 six times and by twice it once: the
    # unit part of each divisor is split off once, at its first division.
    out = construct(tmp_path, "B2", SPEC_22, 1, 1, "b2_11.json")
    doc = json.loads(out.read_text())
    want, cfg = apply("B2_TM", config_from_doc(doc)), config_from_doc(doc)
    split, calls = exprat._split, []
    monkeypatch.setattr(exprat, "_split", lambda p: calls.append(p) or split(p))
    assert apply("B2_TM", cfg) == want
    pivot = cfg[(MINUS, (1, 2))].num
    assert len(calls) == 2 and pivot in calls and pivot * 2 in calls


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
    assert doc["counts"] == {"total": 12, "failed": 0}
    assert all({"name", "pass"} <= set(c) for c in doc["checks"])


def test_g2_suite_gates_the_exit_code(capsys, monkeypatch):
    rc = main(["verify", "--suite", "g2-full"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "suite g2-full: PASS (0/11 failed)" in out
    # a failing order fails the run, as in every other suite
    failing = Report(title="suite g2-full", mode="exact",
                     checks=[Check("order (1,1)", False, "nonzero: D(1,0) f+1.0")])
    monkeypatch.setattr("nwave.cli.verify_suite", lambda name: failing)
    assert main(["verify", "--suite", "g2-full"]) == 1
    assert "suite g2-full: FAIL (1/1 failed)" in capsys.readouterr().out


def test_numeric_mode_accepts_solution(tmp_path):
    out = construct(tmp_path, "A2", SPEC_11, 1, 1, "a2_11.json")
    assert main(["verify", "--in", str(out), "--mode", "numeric"]) == 0


def test_verify_without_mode_is_exact(tmp_path):
    out = construct(tmp_path, "A2", SPEC_11, 1, 1, "a2_11.json")
    report = tmp_path / "report.json"
    assert main(["verify", "--in", str(out), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["mode"] == "exact"


def test_internal_key_error_is_not_malformed_input(tmp_path, monkeypatch):
    def broken(m, s, n1, n2):
        raise KeyError("internal")

    monkeypatch.setattr("nwave.cli.solution_from_tau", broken)
    spec_path = write_json(tmp_path / "spec.json", SPEC_11)
    with pytest.raises(KeyError, match="internal"):
        main(["construct", "--algebra", "A2", "--spectral", spec_path])


@pytest.mark.parametrize("case", _refusals.cases(), ids=lambda case: case[0])
def test_each_refusal_in_the_table_exits_with_its_code_and_one_error_line(tmp_path, capsys, case):
    # tests/data/refusals.json, run here through cli.main; CI runs the same
    # table through the console script (python tests/_refusals.py).
    argv, error = _refusals.prepared(case, tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    files = [p.name for p in tmp_path.iterdir()]
    assert _refusals.failures(case, code, out, err, error, files) == []


def test_the_refusal_checker_reports_each_fault():
    case = ("made up", "{}", ["verify", "--in", "{doc}"], 2, None)
    good = dict(code=2, out="", err="error: bad input\n", error="error: bad input",
                files=["doc.json"])
    assert _refusals.failures(case, **good) == []
    for fault, run in [
        ("exit 0, expected 2", dict(code=0)),
        ("stderr is not one error line", dict(err="error: bad input\nerror: again\n")),
        ("a traceback", dict(err="Traceback (most recent call last):\nKeyError: 'x'\n")),
        ("error line 'error: bad input', expected 'error: other'", dict(error="error: other")),
        ("stdout is not empty", dict(out="PASS\n")),
        ("files left beside the document: ['doc.json.csv']",
         dict(files=["doc.json", "doc.json.csv"])),
    ]:
        bad = _refusals.failures(case, **{**good, **run})
        assert any(b.startswith(fault) for b in bad), (fault, bad)


def test_a_document_that_is_not_utf8_exits_2(tmp_path, capsys):
    # the table's documents are text: these bytes are checked here as a row is
    case = ("not UTF-8", None, None, 2, None)
    (tmp_path / "doc.json").write_bytes(b"\xff{")
    code = main(["construct", "--algebra", "A2", "--spectral", str(tmp_path / "doc.json")])
    out, err = capsys.readouterr()
    error = f"error: {tmp_path / 'doc.json'}: not UTF-8 text (invalid start byte at byte 0)"
    files = [p.name for p in tmp_path.iterdir()]
    assert _refusals.failures(case, code, out, err, error, files) == []


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


# Run in a fresh interpreter: after each step mpmath must not be loaded.
_NO_MPMATH = """
import sys
import nwave.cli
assert "mpmath" not in sys.modules, "import nwave.cli"
from nwave.exprat import ExpPoly, ExpRational, wave_constants
from nwave.verify import verify_config
from nwave.wavesys import field_label, model, zero_config
cfg = zero_config("A2", wave_constants("1", "1/2", "1/3", "1"))
key = sorted(cfg.fields, key=field_label)[0]
cfg = cfg.with_fields({key: ExpRational(ExpPoly.term(1, 1, 0))})
rep = verify_config(model("A2"), cfg, "numeric")
assert not rep.passed and any("|residual| = " in c.detail for c in rep.checks), rep.checks
assert "mpmath" not in sys.modules, "a failing numeric verify"
with open(sys.argv[1], "w") as f:
    f.write(nwave.cli._dump(nwave.cli.config_to_doc(cfg)))
assert nwave.cli.main(["sample", "--in", sys.argv[1], "--t0", "-1", "--t1", "1", "--nt", "3",
                       "--x0", "0", "--x1", "1", "--nx", "2", "--csv", sys.argv[2]]) == 0
assert "mpmath" not in sys.modules, "nwave sample"
"""


def test_no_step_of_the_package_imports_mpmath(tmp_path):
    # import nwave.cli, a failing numeric verify (whose detail prints
    # ratio_text(..., sci=True) text) and `nwave sample` (whose cells are
    # ratio_text text) run without mpmath, which only the tests use.
    env = {**os.environ, "PYTHONPATH": str(Path(nwave.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _NO_MPMATH, str(tmp_path / "cfg.json"),
                           str(tmp_path / "s.csv")], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 1 + 3 * 2


# Run in a fresh interpreter: hashlib, and with it OpenSSL, is loaded only
# when a report renders a witness's sha256.
_NO_HASHLIB = """
import json, sys
from fractions import Fraction
from pathlib import Path
from nwave.cli import main
tmp = Path(sys.argv[1])
(tmp / "spec.json").write_text(json.dumps(
    {"schema": 1, "c": ["1", "1/2"], "d": ["1/3", "1"],
     "P": [{"pos": "2", "w": "1"}, {"pos": "-1", "w": "1/2"}],
     "Q": [{"pos": "1", "w": "1"}, {"pos": "1/2", "w": "2"}]}))
sol, image = str(tmp / "sol.json"), str(tmp / "image.json")
codes = [
    main(["construct", "--algebra", "A2", "--spectral", str(tmp / "spec.json"), "--out", sol]),
    main(["transform", "--chain", "T1", "--in", sol, "--out", image]),
    main(["sample", "--in", sol, "--t0", "0", "--t1", "1", "--nt", "2", "--x0", "0", "--x1", "1",
          "--nx", "2", "--csv", str(tmp / "s.csv")]),
    main(["verify", "--in", image]),
]
before = sorted({"hashlib", "_hashlib"} & set(sys.modules))
doc = json.loads(Path(sol).read_text())
field = doc["fields"]["f-1.0"]
field["num"] = [[key, str(2 * Fraction(coef))] for key, coef in field["num"]]
(tmp / "doubled.json").write_text(json.dumps(doc))
codes.append(main(["verify", "--in", str(tmp / "doubled.json"), "--report", str(tmp / "r.json")]))
print(json.dumps({"codes": codes, "before": before, "after": "_hashlib" in sys.modules}))
"""


def test_only_a_reports_witness_loads_hashlib(tmp_path):
    # construct, transform, sample and verify without --report hash nothing;
    # a report's counterexample.sha256 is the package's one hash.
    env = {**os.environ, "PYTHONPATH": str(Path(nwave.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _NO_HASHLIB, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout.splitlines()[-1])
    assert run["codes"] == [0, 0, 0, 0, 1]
    assert run["before"] == []
    report = json.loads((tmp_path / "r.json").read_text())
    assert len(report["counterexample"]["sha256"]) == 64
    assert run["after"]


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


def test_values_of_a_huge_exponent_are_written_at_once(tmp_path, capsys):
    # e^(10^15 t) at t = 1 has a 15-digit decimal exponent, and e^(10^400 t)
    # a 400-digit one: the sample cell and the failing numeric check's
    # detail are each written in a step or two, never digit by digit.
    doc = config_to_doc(zero_config("A2", wave_constants("1", "1/2", "1/3", "1")))
    doc["fields"]["f+1.0"]["num"] = [[["1000000000000000", "0"], "1"]]
    path = write_json(tmp_path / "big.json", doc)
    start = time.perf_counter()
    assert main(["sample", "--in", path, "--t0", "0", "--t1", "1", "--nt", "2",
                 "--x0", "0", "--x1", "0", "--nx", "1"]) == 0
    assert time.perf_counter() - start < 1
    header, _, row = (line.split(",") for line in capsys.readouterr().out.splitlines())
    with mpmath.workprec(200):
        assert dict(zip(header, row))["f+1.0"] == mpmath.nstr(mpmath.exp(10 ** 15), 17)
    doc["fields"]["f+1.0"]["num"] = [[["1e400", "0"], "1"]]
    path = write_json(tmp_path / "bigger.json", doc)
    assert main(["verify", "--in", path, "--mode", "numeric"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("FAIL  D(1,0) f+1.0  [|residual| = ") and err == ""


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


def test_sample_past_the_point_limit_exits_2_at_once(tmp_path, capsys):
    # Each grid point costs time and memory: a grid of more than
    # SAMPLE_POINTS is refused before any point is built.
    sol = construct(tmp_path, "A2", SPEC_11, 0, 0, "a2.json")
    capsys.readouterr()
    csv_path = tmp_path / "never.csv"
    start = time.perf_counter()
    rc = main(["sample", "--in", str(sol), "--t0", "0", "--t1", "1", "--nt", "100000",
               "--x0", "0", "--x1", "1", "--nx", "100000", "--csv", str(csv_path)])
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert capsys.readouterr().err == (f"error: --nt 100000 by --nx 100000 is more than "
                                       f"{SAMPLE_POINTS} grid points\n")
    assert not csv_path.exists()



def test_sample_writes_each_row_as_it_is_evaluated(tmp_path, monkeypatch):
    # The A2 (1,1) solution on a 400 x 50 grid writes a 3.0 MiB CSV; held
    # whole before writing, its lines peaked at 10.2 MiB under tracemalloc.
    # Written row by row, the peak is about one row.  Tracing the evaluation
    # of 20,000 points takes about 15 s, so every point replays the first
    # point's values and each cell's text is formed once: what is measured
    # is what `sample` holds between the evaluator and the file.
    sol = construct(tmp_path, "A2", SPEC_22, 1, 1, "a2_11.json")
    real = cli.grid_values

    def replayed(values, ts, xs):
        _, _, first = next(real(values, ts[:1], xs[:1]))
        return ((t, x, first) for t in ts for x in xs)

    monkeypatch.setattr(cli, "grid_values", replayed)
    monkeypatch.setattr(cli, "ratio_text", functools.cache(cli.ratio_text))
    csv_path = tmp_path / "a2_11.csv"
    tracemalloc.start()
    try:
        rc = main(["sample", "--in", str(sol), "--t0", "-1", "--t1", "1", "--nt", "400",
                   "--x0", "0", "--x1", "1", "--nx", "50", "--csv", str(csv_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert csv_path.stat().st_size > 3 * 2 ** 20
    assert len(csv_path.read_text().splitlines()) == 1 + 400 * 50
    assert peak < 2 ** 20

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


_ONE = [[["0", "0"], "1"]]


def _read_terms(items, what, w) -> ExpPoly:
    """A numerator's term list read as config_from_doc reads it, over 1."""
    return quotient_reader(_terms(_ONE, "den"), w)(_terms(items, what)).num


@settings(max_examples=300)
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
    # Documents are read on the integer lattice, into the spectral
    # coordinates of their constants; every string must still give
    # Fraction's value, or the error Fraction's refusal gives, or be refused
    # when it could not be written back.
    w = wave_constants("1", "1/2", "1/3", "1")
    parts = ["0", "1", "1"]
    parts[pos] = v
    what = f"f+1.0.num[0].{('a', 'b', 'coef')[pos]}"
    try:
        want = [fraction_or_too_large(p) for p in parts]
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InputError) as exc:
            _read_terms([[parts[:2], parts[2]]], "f+1.0.num", w)
        assert str(exc.value) == f"{what}: not a rational: {reprlib.repr(v)}"
        return
    if want[pos] is None:
        with pytest.raises(InputError) as exc:
            _read_terms([[parts[:2], parts[2]]], "f+1.0.num", w)
        assert str(exc.value).startswith(f"{what}: too many digits to write back "
                                         f"(limit {LIMIT}): ")
        return
    got = _read_terms([[parts[:2], parts[2]]], "f+1.0.num", w)
    assert got == ExpPoly([((want[0], want[1]), want[2])])


#: Speeds within the digit limit (3001 digits) whose derived numbers pass it.
BIG_C = ["1" + "0" * 3000, "1/" + "7" * 3000]


def _big_documents(tmp_path, capsys):
    """The A2 (1,1) solution on SPEC_22 with speeds BIG_C, as a configuration
    (big.json) and as spectral data (spec_big.json)."""
    out = construct(tmp_path, "A2", SPEC_22, 1, 1, "a2_11.json")
    doc = json.loads(out.read_text())
    doc["constants"]["c"] = BIG_C
    write_json(tmp_path / "big.json", doc)
    write_json(tmp_path / "spec_big.json", dict(SPEC_22, c=BIG_C))
    capsys.readouterr()


def _in(tmp_path, argv):
    return [str(tmp_path / a) if a.endswith(".json") else a for a in argv]


#: What verify prints on the A2 (1,1) solution under BIG_C: every check fails.
BIG_VERDICT = "A2 configuration: FAIL (6/6 failed)"


@pytest.mark.parametrize("argv", [
    ["verify", "--in", "big.json", "--report", "report.json"],
    ["verify", "--in", "big.json", "--mode", "numeric", "--report", "report.json"],
    ["transform", "--chain", "T1", "--in", "big.json"],
    ["construct", "--algebra", "A2", "--spectral", "spec_big.json", "--n1", "1", "--n2", "1"],
], ids=["verify-exact", "verify-numeric", "transform-T1", "construct"])
def test_numbers_past_the_digit_limit_to_write_exit_3(tmp_path, capsys, argv):
    # Every number read is within the digit limit, but the report's
    # witness, the written image or the constructed solution under these
    # speeds has numbers past it: one error line from the one writer, no
    # traceback (T1's trial divisions are refused without formatting a
    # number).  verify prints its checks and verdict first, and writes no
    # report.
    _big_documents(tmp_path, capsys)
    assert main(_in(tmp_path, argv)) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    if argv[0] == "verify":
        assert len(lines) == 7 and lines[-1] == BIG_VERDICT
    else:
        assert lines == []
    assert captured.err == (f"error: a number to write has more than {sys.get_int_max_str_digits()}"
                            " digits (PYTHONINTMAXSTRDIGITS sets the limit)\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_a_witness_past_the_digit_limit_keeps_the_verdict(tmp_path, capsys, mode):
    # A report renders its witness only when it is written, so without
    # --report the verdict stands: every check fails, and nothing is wrong
    # with the run.
    _big_documents(tmp_path, capsys)
    assert main(_in(tmp_path, ["verify", "--in", "big.json", "--mode", mode])) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 7 and lines[-1] == BIG_VERDICT
    assert all(line.startswith("FAIL  D(") for line in lines[:6])
    assert captured.err == ""

