"""The README's Python quick start runs as written, and its exit-code list
gives the codes of the table of refused inputs."""

import re
from pathlib import Path

import _refusals

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_exit_codes_are_the_refusal_tables():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("Exit codes, one per kind of outcome:"):]
    section = section[:section.index("`tests/data/refusals.json` is the complete list")]
    codes = dict(re.findall(r"^- `(\d+)`: (.*?)(?=^- `|\Z)", section, re.M | re.S))
    assert sorted(codes) == ["0", "1", "2", "3"]
    refusals = {int(code) for code, says in codes.items()
                if "refused with one `error:` line" in " ".join(says.split())}
    assert refusals == {2, 3}
    assert {code for _, _, _, code, _ in _refusals.cases()} == refusals
