"""Command-line front end: construct solutions, chain transformations,
run verification suites, and sample fields to CSV.

Formats (all versioned with "schema": 1, every number an exact rational
string, never a float):

  spectral JSON   {"schema": 1, "c": ["1","1/2"], "d": ["1/3","1"],
                   "P": [{"pos": "2", "w": "1"}], "Q": [...]}
  config JSON     {"schema": 1, "algebra": "A2", "constants": {...},
                   "fields": {"f+1.0": {"num": [[["a","b"],"coef"], ...],
                                        "den": [...]}, ...}}

Serialization is canonical (sorted exponents, sorted field labels, and
each value's normal form: "den" has least exponent 0 and coefficient 1
there), so a document nwave wrote is written back byte-identical; a "den"
that carries a monomial or a constant is read as the same value and
written back with that factor divided into "num".

Reading walks each term list once.  Every number, speeds and spikes
included, is read as an integer pair: a plain "-12/5" by one match, any
other spelling (or refusal) by Fraction, through _frac.  A list's terms
go to exprat.quotient_reader as flat integers, which puts them on one
lattice in the spectral coordinates of the document's speeds, over their
"den"'s unit part, in one pass; a "den" list repeated in a document is
read once.

Exit codes: 0 OK / verification passed; 1 verification failed;
2 malformed input; 3 pivot or pole abort, an inexact division, or a
number to write past the digit limit (exprat.TooManyDigits).
"""

import argparse
import contextlib
import functools
import json
import re
import reprlib
import sys
from fractions import Fraction

from .exprat import (
    DivisionByZeroField, InexactDivision, TooManyDigits, grid_values, quotient_reader,
    ratio_text, term_texts, wave_constants,
)
from .spectral import InvalidSpectralData, spectral_data
from .tau import TauZero, solution_from_tau
from .transforms import TRANSFORMS, PivotZero, apply_chain
from .verify import SUITES, verify_config, verify_suite
from .wavesys import ALGEBRAS, FieldConfig, field_label, model, parse_field_label

SCHEMA = 1


class InputError(ValueError):
    """Malformed document or option; maps to exit code 2."""


def _dump(doc: dict) -> str:
    """Canonical one-line form; term lists would balloon under indentation."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _dump_report(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _emit(text: str, path) -> None:
    """Write text to an open text file, or to stdout (path None) or a new file at path."""
    if path is None or hasattr(path, "write"):
        (path or sys.stdout).write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _read_json(path) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as e:
            raise InputError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
        except json.JSONDecodeError:
            raise
        except RecursionError:
            raise InputError(f"{path}: JSON nested too deeply to read") from None
        except ValueError:  # int() refused an integer literal past its digit limit
            raise InputError(f"{path}: a JSON integer has more than "
                             f"{sys.get_int_max_str_digits()} digits (PYTHONINTMAXSTRDIGITS "
                             "sets the limit)") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    if doc.get("schema") != SCHEMA:
        raise InputError(f"{path}: unsupported schema {reprlib.repr(doc.get('schema'))}")
    return doc


#: A number with an exponent, as Fraction reads one: (mantissa, exponent, tail).
_EXPONENT = re.compile(r"(.*)[eE]([-+]?\d+(?:_\d+)*)(\s*)", re.DOTALL)


def _read_rational(v: str):
    """Fraction(v), or None when its numerator or denominator in lowest
    terms has more digits than int() converts to a string
    (sys.get_int_max_str_digits()), or when v has a run of more digits
    than that.  Fraction refuses such a run with the ValueError of a
    malformed literal, so v is read again with each run cut to one digit:
    if that reads, v is a rational with too many digits.  The digit
    strings Fraction reads are within the limit, so a nonzero number whose
    exponent is past three times it is refused without being built:
    1e999999999 costs nothing."""
    try:
        return _read_within_limit(v)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        short = re.sub(r"\d(?:_?\d){%d,}" % limit, "1", v) if limit else v
        if short == v:
            raise
        _read_within_limit(short)  # raises as for a malformed literal
        return None


def _read_within_limit(v: str):
    """_read_rational, except that a run of digits past the limit raises."""
    limit = sys.get_int_max_str_digits()
    m = _EXPONENT.fullmatch(v)
    if limit and m and abs(int(m[2])) > 3 * limit:
        f = Fraction(m[1] + "e0" + m[3])  # raises as Fraction(v) would
        return f if f == 0 else None
    f = Fraction(v)
    big = max(abs(f.numerator), f.denominator)
    return f if not limit or big.bit_length() <= 3 * limit or big < 10 ** limit else None


def _frac(v, what: str) -> Fraction:
    if not isinstance(v, str):
        raise InputError(f"{what}: expected an exact rational string, got {reprlib.repr(v)}")
    try:
        f = _read_rational(v)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{what}: not a rational: {reprlib.repr(v)}") from None
    if f is None:
        raise InputError(f"{what}: too many digits to write back "
                         f"(limit {sys.get_int_max_str_digits()}): {reprlib.repr(v)}")
    return f


def _pair(doc: dict, name: str):
    v = doc.get(name)
    if not isinstance(v, list) or len(v) != 2:
        raise InputError(f"'{name}' must be a pair of rational strings")
    return v


#: The form documents are written in: an optional minus sign, ASCII digits,
#: and an optional ASCII denominator that is not zero.
_NUMBER = r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?"
_PLAIN = re.compile(_NUMBER)
#: A term's three numbers joined by spaces, each in that form.
_PLAIN_TERM = re.compile(" ".join([_NUMBER] * 3))


def _ratio(v, what: str):
    """(numerator, denominator > 0), not reduced, of the rational string v.

    The plain form is read with int(); any other string is read, or
    refused, by _frac, so both accept the same strings and fail alike.
    """
    m = _PLAIN.fullmatch(v) if isinstance(v, str) else None
    if m is not None:
        try:
            return int(m[1]), int(m[2] or 1)
        except ValueError:  # past int's digit limit: _frac refuses it too
            pass
    f = _frac(v, what)
    return f.numerator, f.denominator


def _constants(doc: dict):
    c, d = _pair(doc, "c"), _pair(doc, "d")
    speeds = (_ratio(c[0], "c[0]"), _ratio(c[1], "c[1]"),
              _ratio(d[0], "d[0]"), _ratio(d[1], "d[1]"))
    try:
        return wave_constants(*speeds)
    except ValueError as e:  # degenerate speeds
        raise InputError(str(e)) from None


def spectral_from_doc(doc: dict):
    w = _constants(doc)
    spikes = {}
    for group in ("P", "Q"):
        rows = doc.get(group)
        if not isinstance(rows, list):
            raise InputError(f"'{group}' must be a list of spikes")
        out = []
        for k, row in enumerate(rows):
            if not isinstance(row, dict) or set(row) != {"pos", "w"}:
                raise InputError(f"{group}[{k}]: expected {{'pos': ..., 'w': ...}}")
            out.append((_ratio(row["pos"], f"{group}[{k}].pos"),
                        _ratio(row["w"], f"{group}[{k}].w")))
        spikes[group] = out
    return spectral_data(w, spikes["P"], spikes["Q"])


def _terms(items, what: str) -> list:
    """The terms [[a, b], c] of a list as exprat._lattice takes them: six
    integers a term, a's numerator and denominator (> 0), b's and c's, as
    _ratio reads them.  A term of three plain numbers is read by one match;
    any other is read by _ratio number by number, so that the first number
    refused names the error."""
    if not isinstance(items, list):
        raise InputError(f"{what}: expected a list of terms")
    out = []
    plain, join = _PLAIN_TERM.fullmatch, " ".join
    for k, item in enumerate(items):
        ok = (isinstance(item, list) and len(item) == 2
              and isinstance(item[0], list) and len(item[0]) == 2)
        if not ok:
            raise InputError(f"{what}[{k}]: expected [[a, b], coef]")
        (a, b), coef = item
        try:
            out += tuple(map(int, plain(join((a, b, coef))).groups("1")))
        except (TypeError, AttributeError, ValueError):
            # a number that is not a string, a term not all plain (no match),
            # or digits past int's limit
            for v, part in ((a, "a"), (b, "b"), (coef, "coef")):
                out += _ratio(v, f"{what}[{k}].{part}")
    return out


def _den_key(items):
    """A hashable copy of a "den" list: a tuple of its [[a, b], coef] terms,
    each [a, b] list made a tuple.  Only a list becomes a tuple, so a key
    equal to a well-formed list's is that list's.  None for a value that
    cannot be keyed."""
    try:
        key = tuple([(tuple(ab) if type(ab) is list else ab, c) for ab, c in items])
        hash(key)
    except (TypeError, ValueError):
        return None
    return key


def config_to_doc(cfg: FieldConfig) -> dict:
    """The config document; fields over one denominator share its term list."""
    w = cfg.constants
    fields, dens = {}, {}  # a denominator's atoms -> its terms, written once
    for key in sorted(cfg.fields, key=field_label):
        v = cfg.fields[key]
        atoms = v.atoms
        if atoms not in dens:
            dens[atoms] = term_texts(v.den)
        fields[field_label(key)] = {"num": term_texts(v.num), "den": dens[atoms]}
    return {
        "schema": SCHEMA,
        "algebra": cfg.algebra,
        "constants": {"c": [str(w.c1), str(w.c2)], "d": [str(w.d1), str(w.d2)]},
        "fields": fields,
    }


def config_from_doc(doc: dict) -> FieldConfig:
    algebra = doc.get("algebra")
    if not isinstance(algebra, str):
        raise InputError(f"'algebra' must be a string (A2, B2 or G2), got "
                         f"{reprlib.repr(algebra)}")
    consts = doc.get("constants")
    if not isinstance(consts, dict):
        raise InputError("'constants' must be an object with 'c' and 'd'")
    w = _constants(consts)
    raw = doc.get("fields")
    if not isinstance(raw, dict):
        raise InputError("'fields' must be an object keyed by field label")
    fields = {}
    readers = {}  # key of a "den" list, or the label for one with none -> its quotient_reader
    for label, body in raw.items():
        try:
            key = parse_field_label(label)
        except ValueError as e:
            raise InputError(str(e)) from None
        if not isinstance(body, dict) or set(body) != {"num", "den"}:
            raise InputError(f"{label}: expected {{'num': ..., 'den': ...}}")
        num = _terms(body["num"], f"{label}.num")
        k = _den_key(body["den"]) or label
        read = readers.get(k)
        if read is None:  # the first field over a list reads it
            read = quotient_reader(_terms(body["den"], f"{label}.den"), w)
            if read is None:
                raise InputError(f"{label}: zero denominator")
            readers[k] = read
        fields[key] = read(num)
    try:
        return FieldConfig(algebra, w, fields)
    except ValueError as e:
        raise InputError(str(e)) from None


def _resolve_chain(spec: str, algebra: str) -> list:
    tids = []
    for raw in spec.split(","):
        name = raw.strip()
        if not name:
            continue
        full = name if name in TRANSFORMS else f"{algebra}_{name}"
        if full not in TRANSFORMS or TRANSFORMS[full].algebra != algebra:
            valid = sorted(t for t, tr in TRANSFORMS.items() if tr.algebra == algebra)
            raise InputError(f"unknown transform {reprlib.repr(name)} for {algebra} "
                             f"(valid: {', '.join(valid)})")
        tids.append(full)
    return tids


def cmd_construct(args) -> int:
    if args.n1 < 0 or args.n2 < 0:
        raise InputError(f"orders must be nonnegative, got --n1 {args.n1} --n2 {args.n2}")
    s = spectral_from_doc(_read_json(args.spectral))
    cfg = solution_from_tau(model(args.algebra), s, args.n1, args.n2)
    _emit(_dump(config_to_doc(cfg)), args.out)
    return 0


def cmd_transform(args) -> int:
    cfg = config_from_doc(_read_json(args.infile))
    cfg = apply_chain(_resolve_chain(args.chain, cfg.algebra), cfg)
    _emit(_dump(config_to_doc(cfg)), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.suite is not None:
        if args.mode is not None:
            raise InputError("--mode applies to --in only; a suite is proved exactly")
        rep = verify_suite(args.suite)
    else:
        cfg = config_from_doc(_read_json(args.infile))
        rep = verify_config(model(cfg.algebra), cfg, args.mode or "exact")
    for c in rep.checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}" + (c.detail and f"  [{c.detail}]"))
    failed = sum(not c.passed for c in rep.checks)
    print(f"{rep.title}: {'FAIL' if failed else 'PASS'} ({failed}/{len(rep.checks)} failed)")
    if args.report is not None:  # the witness is rendered here, after the verdict is printed
        _emit(_dump_report(rep.as_dict()), args.report)
    return 1 if failed else 0


def _grid(lo: str, hi: str, n: int, what: str) -> list:
    """n evenly spaced rational points from lo to hi, refused unless each
    prints as its own float (the CSV prints coordinates as floats)."""
    if n < 1:
        raise InputError(f"{what}: need at least one point, got {n}")
    a, b = _frac(lo, f"{what} lower bound"), _frac(hi, f"{what} upper bound")
    for bound, text, v in (("lower", reprlib.repr(lo), a), ("upper", reprlib.repr(hi), b)):
        try:
            f = float(v)
        except OverflowError:
            raise InputError(f"{what} {bound} bound {text} is past the float range") from None
        if v and not f:
            raise InputError(f"{what} {bound} bound {text} is below the float range "
                             "(it would print as 0.0)")
    if n == 1:
        return [a]
    points = [a + (b - a) * k / (n - 1) for k in range(n)]
    printed = {}  # float -> index of the first point printed as it
    for k, v in enumerate(points):
        f = float(v)
        if v and not f:
            raise InputError(f"{what} grid point {k + 1} of {n} is below the float range "
                             "(it would print as 0.0)")
        first = printed.setdefault(f, k)
        if points[first] != v:
            raise InputError(f"{what} grid points {first + 1} and {k + 1} of {n} both print "
                             f"as {f!r}")
    return points


#: The most grid points (--nt times --nx) `nwave sample` evaluates: each costs
#: about 65 us, so the limit is about a minute; each row is written as evaluated.
SAMPLE_POINTS = 10 ** 6


def cmd_sample(args) -> int:
    if min(args.nt, args.nx) >= 1 and args.nt * args.nx > SAMPLE_POINTS:
        raise InputError(f"--nt {reprlib.repr(args.nt)} by --nx {reprlib.repr(args.nx)} is "
                         f"more than {SAMPLE_POINTS} grid points")
    cfg = config_from_doc(_read_json(args.infile))
    keys = sorted(cfg.fields, key=field_label)
    ts = _grid(args.t0, args.t1, args.nt, "t")
    xs = _grid(args.x0, args.x1, args.nx, "x")
    # each row is written as it is evaluated: one row is held, not the file
    with (contextlib.nullcontext(sys.stdout) if args.csv is None
          else open(args.csv, "w", newline="\n")) as out:
        _emit("t,x," + ",".join(field_label(k) for k in keys) + "\n", out)
        for t, x, vals in grid_values(cfg.fields, ts, xs):
            cells = [str(float(t)), str(float(x))]
            for k in keys:
                v = vals.get(k)  # an identically zero field has no entry
                cells.append("0.0" if k not in vals else "" if v is None
                             else ratio_text(v[0], v[2], v[6]))
            _emit(",".join(cells) + "\n", out)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nwave",
        description="Exact multisoliton solutions of rank-2 n-wave systems: "
                    "construct, transform, verify, sample.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build the order-(n1,n2) solution")
    c.add_argument("--algebra", required=True, choices=ALGEBRAS)
    c.add_argument("--spectral", required=True, help="spectral JSON file")
    c.add_argument("--n1", type=int, default=0)
    c.add_argument("--n2", type=int, default=0)
    c.add_argument("--out", default=None, help="config JSON file (default stdout)")
    c.set_defaults(func=cmd_construct)

    t = sub.add_parser("transform", help="apply a comma-separated transform chain")
    t.add_argument("--chain", required=True,
                   help='e.g. "T1,T2" (short names resolve against the algebra)')
    t.add_argument("--in", dest="infile", required=True, help="config JSON file")
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_transform)

    v = sub.add_parser("verify", help="check a config or run a named suite")
    which = v.add_mutually_exclusive_group(required=True)
    which.add_argument("--suite", choices=SUITES, default=None)
    which.add_argument("--in", dest="infile", default=None)
    v.add_argument("--mode", choices=("exact", "numeric"), help="check of --in (default exact)")
    v.add_argument("--report", default=None, help="write the JSON report here")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("sample", help="evaluate all fields on a rational grid")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--t0", required=True)
    s.add_argument("--t1", required=True)
    s.add_argument("--x0", required=True)
    s.add_argument("--x1", required=True)
    s.add_argument("--nt", type=int, default=5)
    s.add_argument("--nx", type=int, default=5)
    s.add_argument("--csv", default=None, help="CSV file (default stdout)")
    s.set_defaults(func=cmd_sample)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, InvalidSpectralData, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TauZero, PivotZero, DivisionByZeroField, InexactDivision, TooManyDigits) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
