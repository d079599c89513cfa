"""Golden outputs: sha256 digests of what the CLI writes, case by case.

Covers ``construct`` documents on the benchmark's spike sets, ``transform``
documents of every map on the frozen configurations (or the exit-3 line),
exact and suite ``--report`` JSON, ``sample`` CSVs on two grids, and numeric
verdicts with their details and counterexamples.  A passing numeric check's
``max |residual|`` is rounding noise, not output: it is masked before
hashing and only held below ``NOISE_CEILING``.

The digests live in ``data/outputs.json``.  When an output is meant to
change, regenerate them with ``PYTHONPATH=src python tests/test_outputs.py``,
which prints the name of every case whose digest moved, was added or was
removed, and say in the change which cases moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from nwave import cli
from nwave.transforms import TRANSFORMS
from nwave.verify import SUITES
from nwave.wavesys import MINUS

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "bench" / "data" / "configs").glob("*.json"))
SPIKES = json.loads((ROOT / "bench" / "data" / "spikes.json").read_text())
DIGESTS = Path(__file__).resolve().parent / "data" / "outputs.json"

#: (algebra, P set, Q set, orders) of the construct cases.
CONSTRUCT = (
    ("A2", "P2", "Q2", ((0, 0), (1, 1), (2, 2))),
    ("A2", "P3", "Q4", ((1, 1), (2, 1), (2, 2))),
    ("B2", "P1", "Q2", ((0, 1),)),
    ("B2", "P2", "Q4", ((0, 0), (0, 1), (1, 0), (1, 1))),
    ("G2", "P2", "Q3", ((0, 0), (0, 1))),
    ("G2", "P3", "Q3", ((1, 1), (2, 1), (1, 2), (2, 2))),
)
#: (t0, t1, nt, x0, x1, nx) of the sample grids: the benchmark's, and a wide one.
GRIDS = (("-1", "1", 5, "0", "1", 5), ("-3", "7/2", 4, "-5/3", "9", 3))
NOISE_CEILING = 1e-20
_RESIDUAL = re.compile(r"max \|residual\| (\S+)")


def _cli(*argv) -> bytes:
    """Exit code, stdout and stderr of one in-process CLI run, as bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return f"exit {code}\n{out.getvalue()}--\n{err.getvalue()}".encode()


def _doubled(path: Path, tmp: Path) -> Path:
    """The configuration at path with f-1.0 doubled, written under tmp."""
    cfg = cli.config_from_doc(json.loads(path.read_text()))
    key = (MINUS, (1, 0))
    out = tmp / f"{path.stem}-doubled.json"
    out.write_text(cli._dump(cli.config_to_doc(cfg.with_fields({key: cfg[key] * 2}))))
    return out


def _inputs(tmp: Path):
    for path in CONFIGS:
        yield path.stem, path
        yield path.stem + " f-1.0 doubled", _doubled(path, tmp)


def _construct(tmp: Path):
    for algebra, pset, qset, orders in CONSTRUCT:
        spectral = tmp / f"spectral-{pset}{qset}.json"
        spectral.write_text(json.dumps({"schema": 1, "c": SPIKES["c"], "d": SPIKES["d"],
                                        "P": SPIKES["sets"][pset], "Q": SPIKES["sets"][qset]}))
        for n1, n2 in orders:
            yield (f"{algebra} {pset}+{qset} ({n1},{n2})",
                   _cli("construct", "--algebra", algebra, "--spectral", spectral,
                        "--n1", n1, "--n2", n2))


def _transform(tmp: Path):
    for path in CONFIGS:
        algebra = json.loads(path.read_text())["algebra"]
        for tid in sorted(t for t, tr in TRANSFORMS.items() if tr.algebra == algebra):
            yield f"{path.stem} {tid}", _cli("transform", "--chain", tid, "--in", path)


def _report(tmp: Path, *argv) -> bytes:
    report = tmp / "report.json"
    report.unlink(missing_ok=True)
    lines = _cli("verify", *argv, "--report", report)
    return lines + b"--\n" + report.read_bytes()


def _exact(tmp: Path):
    for name, path in _inputs(tmp):
        yield name, _report(tmp, "--in", path)
    for suite in SUITES:
        yield f"suite {suite}", _report(tmp, "--suite", suite)


def _sample(tmp: Path):
    for path in CONFIGS:
        for t0, t1, nt, x0, x1, nx in GRIDS:
            yield (f"{path.stem} t[{t0},{t1}]x{nt} x[{x0},{x1}]x{nx}",
                   _cli("sample", "--in", path, f"--t0={t0}", f"--t1={t1}", "--nt", nt,
                        f"--x0={x0}", f"--x1={x1}", "--nx", nx))


def _numeric(tmp: Path):
    """Numeric runs with each passing check's max |residual| masked; the
    masked values must stay below NOISE_CEILING."""
    for name, path in _inputs(tmp):
        text = _report(tmp, "--in", path, "--mode", "numeric").decode()
        for v in _RESIDUAL.findall(text):
            assert float(v) < NOISE_CEILING, (name, v)
        yield name, _RESIDUAL.sub("max |residual| ~", text).encode()


GROUPS = {"construct": _construct, "transform": _transform, "exact": _exact,
          "sample": _sample, "numeric": _numeric}


def _digests(group: str, tmp: Path) -> dict:
    return {f"{group}/{name}": hashlib.sha256(out).hexdigest()
            for name, out in GROUPS[group](tmp)}


@pytest.mark.parametrize("group", GROUPS)
def test_outputs_match_golden_digests(group, tmp_path):
    want = {k: v for k, v in json.loads(DIGESTS.read_text()).items()
            if k.startswith(group + "/")}
    got = _digests(group, tmp_path)
    assert sorted(got) == sorted(want)
    assert [k for k in got if got[k] != want[k]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for group in GROUPS:
            digests.update(_digests(group, Path(tmp)))
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"{len(digests)} digests written to {DIGESTS}\n")
    for what, names in (("moved", [k for k in digests if k in old and old[k] != digests[k]]),
                        ("added", [k for k in digests if k not in old]),
                        ("removed", [k for k in old if k not in digests])):
        for name in sorted(names):
            sys.stdout.write(f"{what}: {name}\n")
