"""The table of refused inputs, ``data/refusals.json``, and its runner.

Each case is a document, a command line and the exit code it must give,
with one ``error:`` line on stderr (the exact line where the table gives
one), no traceback, nothing on stdout, and no file left beside the
document.  A document is JSON text, or a JSON value written as JSON; in
either, and in the command line, ``{text*N}`` stands for text N times,
so that numbers past the digit limit, long inputs and deep nesting stay
short in the table.  ``{doc}`` in the command line and the error line is
the document's path; a case that writes a file writes it at
``{doc}.csv`` or ``{doc}.out``, which a refusal must not create.

Run as a script, it runs every case through the installed ``nwave``
console script, with no pytest and no extras:

    python tests/_refusals.py

``tests/test_cli.py`` runs the same cases in process through ``cli.main``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "data" / "refusals.json"

_RUN = re.compile(r"\{([^{}*]+)\*(\d+)\}")


def _expand(text: str) -> str:
    return _RUN.sub(lambda m: m[1] * int(m[2]), text)


def cases() -> list:
    """(name, document text, command line, exit code, error line or None) of
    every case, ``{doc}`` not yet replaced."""
    out = []
    for row in json.loads(TABLE.read_text()):
        doc = row["doc"] if isinstance(row["doc"], str) else json.dumps(row["doc"])
        out.append((row["name"], _expand(doc), [_expand(a) for a in row["argv"]], row["exit"],
                    row.get("error")))
    return out


def prepared(case, tmp: Path):
    """The command line and error line of a case with its document written
    under tmp as doc.json."""
    _, text, argv, _, error = case
    path = tmp / "doc.json"
    path.write_text(text)
    return ([a.replace("{doc}", str(path)) for a in argv],
            None if error is None else error.replace("{doc}", str(path)))


def failures(case, code: int, out: str, err: str, error, files) -> list:
    """What is wrong with a run that exited with code, wrote out and err, and
    left the files named in its document's directory."""
    _, _, _, want, _ = case
    bad = []
    if code != want:
        bad.append(f"exit {code}, expected {want}")
    lines = err.splitlines()
    if len(lines) != 1 or not lines[0].startswith("error: "):
        bad.append(f"stderr is not one error line: {err[:300]!r}")
    elif error is not None and lines[0] != error:
        bad.append(f"error line {lines[0][:300]!r}, expected {error[:300]!r}")
    if "Traceback" in err:
        bad.append("a traceback")
    if out:
        bad.append(f"stdout is not empty: {out[:300]!r}")
    extra = sorted(set(files) - {"doc.json"})
    if extra:
        bad.append(f"files left beside the document: {extra}")
    return bad


def main() -> int:
    import tempfile

    nwave = shutil.which("nwave")
    if nwave is None:
        print("the nwave console script is not installed", file=sys.stderr)
        return 2
    failed = 0
    for case in cases():
        with tempfile.TemporaryDirectory() as tmp:
            argv, error = prepared(case, Path(tmp))
            run = subprocess.run([nwave, *argv], capture_output=True, text=True, cwd=tmp)
            files = [p.name for p in Path(tmp).iterdir()]
        bad = failures(case, run.returncode, run.stdout, run.stderr, error, files)
        print(f"{'FAIL' if bad else 'ok  '}  {case[0]}" + "".join(f"\n      {b}" for b in bad))
        failed += bool(bad)
    print(f"{failed} of {len(cases())} refusal cases failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
