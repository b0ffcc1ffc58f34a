"""The examples in README.md and PAPER.md, run as written.

The quick tour runs through the library: every statement is executed, and a
statement followed directly by a `# ...` comment line must print as that
comment.  Each `$ divmart ...` command of the console block runs in-process
(`clirun.run_cli`) on the even-zeros spec saved as `even.json`, and its
output must equal the lines printed under it, verbatim.
"""

import json
import shlex
from pathlib import Path

import pytest

from clirun import run_cli

ROOT = Path(__file__).resolve().parents[1]
DOCS = ["README.md", "PAPER.md"]
EVEN = {"kind": "sigma3", "components": [{"kind": "even-zeros"}]}


def _block(doc: str, lang: str) -> list[str]:
    """The lines of the first fenced block of the given language."""
    lines = (ROOT / doc).read_text().splitlines()
    start = lines.index("```" + lang) + 1
    return lines[start : lines.index("```", start)]


def _quick_tour(doc: str) -> list[tuple[str, str]]:
    """(statement, expected) pairs; expected is None for a statement that
    is only executed."""
    steps = []
    previous = ""
    for line in _block(doc, "python"):
        if line.startswith("# ") and previous and not previous.startswith("#"):
            steps[-1] = (steps[-1][0], line[2:])
        elif line and not line.startswith("#"):
            steps.append((line, None))
        previous = line
    return steps


def _console(doc: str) -> list[tuple[list[str], str]]:
    """(argv, expected stdout) pairs of the `$ divmart ...` commands."""
    runs = []
    for line in _block(doc, "console"):
        if line.startswith("$ divmart "):
            runs.append((shlex.split(line)[2:], ""))
        elif line:
            argv, out = runs[-1]
            runs[-1] = (argv, out + line + "\n")
    return runs


@pytest.mark.parametrize("doc", DOCS)
def test_quick_tour_prints_what_the_docs_say(doc):
    steps = _quick_tour(doc)
    expected = [(code, want) for code, want in steps if want is not None]
    assert len(expected) == 2, steps
    namespace: dict = {}
    for code, want in steps:
        if want is None:
            exec(code, namespace)
        else:
            assert str(eval(code, namespace)) == want, code


@pytest.mark.parametrize("doc", DOCS)
def test_console_examples_print_what_the_docs_say(doc, tmp_path, monkeypatch):
    runs = _console(doc)
    assert [argv[0] for argv, _ in runs] == ["oscillate", "oscillate", "trace", "measure"]
    monkeypatch.chdir(tmp_path)
    Path("even.json").write_text(json.dumps(EVEN))
    for argv, want in runs:
        res = run_cli(argv)
        assert res.exit_code == 0, (argv, res.output)
        assert res.output == want, argv
