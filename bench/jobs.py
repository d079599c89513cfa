"""The four workloads: their jobs, known answers and term counts.

A job's ``run`` is the timed call into nwave.  Its ``check`` compares the
result with a known answer that does not come from the code path being
timed (a verdict fixed by theory, a closed form, the job's own input, an
exit code, an independent float evaluation); it runs outside the timed
region.  ``terms`` counts the terms (num + den) of every configuration or
polynomial the job returns, or of the configuration it judges when it
returns only a verdict.

Jobs call nwave through module attributes (``tau.solution_from_tau``), so
the wrappers ``spans.install`` puts in place are the ones called.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, List

from nwave import cli, exprat, tau, toda, verify, wavesys

import inputs
from spans import config_terms

MINUS = wavesys.MINUS


@dataclass
class Job:
    name: str
    kind: str                      # quick mode keeps the first job of each kind
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    terms: Callable[[Any], int]
    #: Non-empty when the program gives a known wrong answer at this commit.
    #: Such a job still counts as failed; it does not make the run incorrect.
    known_defect: str = ""
    #: Runs per measurement; the job's time is their mean.  Set so that a job
    #: of a few milliseconds is timed over a window of about 0.25 s or more.
    repeat: int = 1


def _doubled(cfg, key):
    return cfg.with_fields({key: cfg[key] * 2})


# -- tau-verify ----------------------------------------------------------------------

TAU_VERIFY = (
    ("A2", "P3", "Q4", ((1, 1), (2, 1), (2, 2))),
    ("B2", "P2", "Q4", ((0, 1), (1, 0), (1, 1))),
    ("G2", "P3", "Q3", ((1, 1), (2, 1), (1, 2), (2, 2))),
)


def _construct_verify(algebra, s, n1, n2, doubled=None):
    m = wavesys.model(algebra)
    cfg = tau.solution_from_tau(m, s, n1, n2)
    if doubled is not None:
        cfg = _doubled(cfg, doubled)
    return cfg, verify.verify_config(m, cfg)


def tau_verify(seed: int, work: Path) -> List[Job]:
    jobs = []
    for algebra, pset, qset, orders in TAU_VERIFY:
        s = inputs.spectral_data(pset, qset, seed)
        for n1, n2 in orders:
            jobs.append(Job(
                f"{algebra}({n1},{n2}) {pset}+{qset} exact", algebra,
                lambda s=s, a=algebra, n1=n1, n2=n2: _construct_verify(a, s, n1, n2),
                lambda r: r[1].passed, lambda r: config_terms(r[0])))
    s = inputs.spectral_data("P2", "Q4", seed)
    jobs.append(Job(
        "B2(1,1) P2+Q4 with f-1.0 doubled, must FAIL", "negative",
        lambda: _construct_verify("B2", s, 1, 1, doubled=(MINUS, (1, 0))),
        lambda r: not r[1].passed, lambda r: config_terms(r[0])))
    return jobs


# -- cli-transform --------------------------------------------------------------------


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _doc_terms(path: Path) -> int:
    doc = json.loads(path.read_text())
    return sum(len(f["num"]) + len(f["den"]) for f in doc["fields"].values())


def _load(path: Path):
    return cli.config_from_doc(json.loads(path.read_text()))


class _Files:
    """Paths of one job's documents inside the work directory."""

    def __init__(self, work: Path, job: str):
        self.work, self.job = work, job
        self.csv = work / f"{job}.csv"

    def __getitem__(self, name: str) -> Path:
        return self.work / f"{self.job}-{name}.json"


def _construct(files, name, algebra, spectral, n1, n2):
    return _cli("construct", "--algebra", algebra, "--spectral", spectral,
                "--n1", n1, "--n2", n2, "--out", files[name])


def _transform(files, src, chain, dst):
    return _cli("transform", "--chain", chain, "--in", src, "--out", files[dst])


def _sample_matches(cfg_path: Path, csv_path: Path, ts, xs) -> bool:
    """Every CSV cell equals a plain-float evaluation of the stored terms."""
    doc = json.loads(cfg_path.read_text())

    def value(terms, t, x):
        vals = [float(Fraction(c)) * math.exp(float(Fraction(a)) * t + float(Fraction(b)) * x)
                for (a, b), c in terms]
        return math.fsum(vals), math.fsum(abs(v) for v in vals)

    with csv_path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if header[:2] != ["t", "x"] or len(body) != len(ts) * len(xs):
        return False
    grid = [(t, x) for t in ts for x in xs]
    for (t, x), row in zip(grid, body):
        if float(row[0]) != float(t) or float(row[1]) != float(x):
            return False
        for label, cell in zip(header[2:], row[2:]):
            field = doc["fields"][label]
            num, num_mass = value(field["num"], float(t), float(x))
            den, _ = value(field["den"], float(t), float(x))
            if cell == "" or den == 0:
                return False  # the frozen sample input has no pole on this grid
            tol = 1e-9 * max(num_mass / abs(den), 1e-300)
            if abs(float(cell) - num / den) > tol:
                return False
    return True


def cli_transform(seed: int, work: Path) -> List[Job]:
    """Jobs return (exit codes, verdict of the equality the job asks about).

    The equality is part of the timed job: answering "is this chain the
    identity?" is what the user waits for.  Its known answer comes from the
    theory (the maps compose, invert and factor), not from nwave.
    """
    spec = {name: inputs.write_json(work / f"spectral-{name}.json",
                                    inputs.spectral_doc(name[:2], name[2:], seed))
            for name in ("P2Q2", "P1Q2", "P2Q3")}
    a2_11 = inputs.load_config("tau_A2_P2Q2_11", seed)
    sample_in = inputs.write_json(work / "sample-in.json", cli.config_to_doc(a2_11))
    corrupt = inputs.write_json(work / "corrupt.json",
                                cli.config_to_doc(_doubled(a2_11, (MINUS, (1, 1)))))
    generic = inputs.CONFIGS / "generic_B2.json"
    jobs = []

    def job(name, kind, run, expect, terms, also=lambda f: True, repeat=1):
        files = _Files(work, f"j{len(jobs)}")
        jobs.append(Job(name, kind, lambda: run(files),
                        lambda result: result == expect and also(files),
                        lambda result: terms(files), repeat=repeat))

    def terms_of(*names):
        return lambda f: sum(_doc_terms(f[n]) for n in names)

    job("A2(1,1) P2+Q2: T1,T2 equals T3", "composition",
        lambda f: ([_construct(f, "in", "A2", spec["P2Q2"], 1, 1),
                    _transform(f, f["in"], "T1,T2", "t12"),
                    _transform(f, f["in"], "T3", "t3")],
                   _load(f["t12"]) == _load(f["t3"])),
        ([0, 0, 0], True), terms_of("in", "t12", "t3"))
    for tid in ("T10", "TM"):
        job(f"B2(1,1) P2+Q2: {tid} image verifies", "transform-verify",
            lambda f, tid=tid: ([_construct(f, "in", "B2", spec["P2Q2"], 1, 1),
                                 _transform(f, f["in"], tid, "out"),
                                 _cli("verify", "--in", f["out"])], None),
            ([0, 0, 0], None), terms_of("in", "out"))
    job("B2 seed P2+Q2: T2A2 equals construct (0,1)", "t2a2",
        lambda f: ([_construct(f, "in", "B2", spec["P2Q2"], 0, 0),
                    _transform(f, f["in"], "T2A2", "out"),
                    _construct(f, "ref", "B2", spec["P2Q2"], 0, 1)],
                   _load(f["out"]) == _load(f["ref"])),
        ([0, 0, 0], True), terms_of("in", "out", "ref"))
    job("B2(0,1) P1+Q2: T10,T10_INV round trip", "roundtrip",
        lambda f: ([_construct(f, "in", "B2", spec["P1Q2"], 0, 1),
                    _transform(f, f["in"], "T10,T10_INV", "out")],
                   _load(f["out"]) == _load(f["in"])),
        ([0, 0], True), terms_of("in", "out"), repeat=2)
    job("generic B2: T10,T10_INV round trip", "roundtrip",
        lambda f: ([_transform(f, generic, "T10,T10_INV", "out")],
                   _load(f["out"]) == _load(generic)),
        ([0], True), lambda f: _doc_terms(generic) + _doc_terms(f["out"]), repeat=5)
    job("G2 seed P2+Q3: T1 image verifies", "transform-verify",
        lambda f: ([_construct(f, "in", "G2", spec["P2Q3"], 0, 0),
                    _transform(f, f["in"], "T1", "out"),
                    _cli("verify", "--in", f["out"])], None),
        ([0, 0, 0], None), terms_of("in", "out"), repeat=6)
    job("corrupted A2(1,1): verify exits 1", "negative",
        lambda f: ([_cli("verify", "--in", corrupt)], None),
        ([1], None), lambda f: _doc_terms(corrupt), repeat=30)
    ts = [Fraction(-1) + Fraction(2 * k, 4) for k in range(5)]
    xs = [Fraction(k, 4) for k in range(5)]
    job("A2(1,1) P2+Q2: sample 5x5", "sample",
        lambda f: ([_cli("sample", "--in", sample_in, "--t0", -1, "--t1", 1, "--x0", 0,
                         "--x1", 1, "--nt", 5, "--nx", 5, "--csv", f.csv)], None),
        ([0], None), lambda f: _doc_terms(sample_in),
        also=lambda f: _sample_matches(sample_in, f.csv, ts, xs), repeat=10)
    return jobs


# -- numeric-check ----------------------------------------------------------------------

#: The inputs of acceptance criterion 10, all exact solutions.
NUMERIC_SOLUTIONS = (
    ["seed_A2_P2Q3", "seed_B2_P2Q3", "seed_G2_P2Q3"]
    + [f"tau_A2_P2Q2_{n1}{n2}" for n1 in range(3) for n2 in range(3)]
    + ["img_B2_TM_P2Q2", "img_B2_T10_P2Q2", "img_B2_T2A2_P2Q2"]
    + [f"tau_B2_P2Q4_{o}" for o in ("00", "01", "10", "11")]
    + [f"tau_G2_P2Q4_{o}" for o in ("00", "10", "01", "11")]
)

POLE_DEFECT = ("numeric mode passes (e^{2000t}-1)/e^{2000t}: the pole test is "
               "absolute and the tolerance overflows to NaN (ROADMAP direction 4)")


def _numeric(cfg):
    return verify.verify_config(wavesys.model(cfg.algebra), cfg, mode="numeric")


def numeric_check(seed: int, work: Path) -> List[Job]:
    jobs = []

    def job(name, kind, cfg, expect, known_defect=""):
        jobs.append(Job(name, kind, lambda: _numeric(cfg),
                        lambda rep: rep.passed is expect,
                        lambda rep: config_terms(cfg), known_defect))

    for name in NUMERIC_SOLUTIONS:
        job(f"{name} numeric PASS", name.split("_")[0], inputs.load_config(name, seed), True)
    b2 = inputs.load_config("tau_B2_P2Q4_11", seed)
    job("tau_B2_P2Q4_11 with f-1.0 doubled, must FAIL", "negative-doubled",
        _doubled(b2, (MINUS, (1, 0))), False)
    job("pole_A2 (e^{2000t}-1)/e^{2000t}, must FAIL", "negative-pole",
        inputs.load_config("pole_A2", seed), False, POLE_DEFECT)
    return jobs


# -- toda-chain ---------------------------------------------------------------------------


def _det_job(s):
    chain = toda.hankel_chain(s)
    return [toda.det_n(chain, n) for n in range(5)]


def _toda_job(s):
    chain = toda.hankel_chain(s)
    return [toda.toda_residual(chain, n) for n in range(1, 5)]


def _ab_job(s):
    chain = toda.hankel_chain(s)
    levels = [toda.ab_init(s)]
    for _ in range(2):
        levels.append(toda.ab_step(levels[-1], chain))
    return levels[1:]


def _frc_job(cfg, steps):
    out = toda.first_root_chain(cfg, steps)
    return out, verify.verify_config(wavesys.model("B2"), out)


def _refusal_job():
    one = exprat.ExpPoly.const(1)
    return exprat.ExpRational(one, one + exprat.ExpPoly.term(1, 1, 0)).as_constant()


def toda_chain(seed: int, work: Path) -> List[Job]:
    s15 = inputs.spectral_data("P1", "Q5", seed)
    s16 = inputs.spectral_data("P1", "Q6", seed)
    s24 = inputs.spectral_data("P2", "Q4", seed)
    b2_seed = inputs.seed_config("B2", "P2", "Q4", seed)
    jobs = [
        Job("det_n(0..4) equals tau_U on P1+Q5", "det", lambda: _det_job(s15),
            lambda dets: all(d == tau.tau_U(s15, 0, n) for n, d in enumerate(dets)),
            lambda dets: sum(len(d.terms) for d in dets), repeat=5),
        Job("toda_residual(1..4) is zero on P1+Q5", "toda", lambda: _toda_job(s15),
            lambda res: all(r.is_zero() for r in res),
            lambda res: sum(len(r.num.terms) + len(r.den.terms) for r in res)),
        Job("ab_step levels 1-2 equal ab_closed on P1+Q6", "ab", lambda: _ab_job(s16),
            lambda levels: all((c.A, c.B) == toda.ab_closed(s16, c.level) for c in levels),
            lambda levels: sum(len(c.A.terms) + len(c.B.terms) for c in levels)),
    ]
    for steps in (1, 2):
        jobs.append(Job(f"first_root_chain({steps}) on the B2 seed P2+Q4 verifies", "frc",
                        lambda steps=steps: _frc_job(b2_seed, steps),
                        lambda r: r[1].passed, lambda r: config_terms(r[0]), repeat=20))
    for n, repeat in ((0, 100), (1, 40)):
        jobs.append(Job(f"check_gra(n={n}) on P2+Q4", "gra",
                        lambda n=n: tau.check_gra(s24, n), lambda ok: ok is True,
                        lambda ok: 0, repeat=repeat))
    jobs.append(Job("ExpRational(1, 1+e^t).as_constant() refuses", "refusal",
                    _refusal_job, lambda r: r is None, lambda r: 0))
    return jobs


WORKLOADS = {
    "tau-verify": tau_verify,
    "cli-transform": cli_transform,
    "numeric-check": numeric_check,
    "toda-chain": toda_chain,
}
