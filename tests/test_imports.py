"""Import footprint: a `divmart` process loads only what its command runs.

Each check starts a fresh interpreter, since this test process has long
since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divmart
from divmart.dyadic import Dyadic
from divmart.table import MartingaleTable, dumps_document

SRC = str(Path(divmart.__file__).resolve().parents[1])
EVEN = {"kind": "sigma3", "components": [{"kind": "even-zeros"}]}
TABLE = MartingaleTable.from_entries(2, lambda s, up: (Dyadic(1, 1), True, None))

# `dataclasses` loads `inspect`: several milliseconds of start-up.
SLOW = ("click", "dataclasses", "inspect")
LOADED = f'sorted(m for m in sys.modules if m.split(".")[0] in ("divmart", *{SLOW}))'
# `divmart argv...` run in-process; it must exit 0.
COMMAND = """
from divmart.cli import main
try:
    main(sys.argv[1:])
except SystemExit as e:
    assert not e.code, e.code
"""


def run_python(code: str, value: str, *argv: str, cwd=None):
    """Run code with argv in a fresh interpreter; then evaluate value there
    and return it (it goes back as the last line of stderr, in JSON)."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    report = f"\nprint(json.dumps({value}), file=sys.stderr)"
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code + report, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        cwd=cwd, check=True,
    )
    return json.loads(proc.stderr.splitlines()[-1])


def test_import_divmart_loads_no_submodule():
    assert run_python("import divmart", LOADED) == ["divmart"]


def test_import_cli_loads_no_parser_library_and_no_construction():
    assert run_python("import divmart.cli", LOADED) == ["divmart", "divmart.cli", "divmart.errors"]


@pytest.mark.parametrize(
    "argv, analysis, fine",
    [
        ("synthesize --spec even.json --depth 4", False, False),
        ("trace --spec even.json --point (0) --depth 4", False, False),
        ("trace --spec table.json --point (0) --depth 2", False, False),
        ("oscillate --spec even.json --point (0)", True, False),
        ("measure --spec even.json --depth 3", True, False),
        ("verify --spec even.json --suite identity", True, False),
        ("verify --spec even.json --suite moy", False, True),
    ],
)
def test_each_command_loads_what_it_runs(tmp_path, argv, analysis, fine):
    (tmp_path / "even.json").write_text(json.dumps(EVEN))
    (tmp_path / "table.json").write_text(dumps_document(TABLE.to_document()))
    loaded = run_python(COMMAND, LOADED, *argv.split(), cwd=tmp_path)
    assert ("divmart.analysis" in loaded) == analysis, loaded
    assert ("divmart.fine" in loaded) == fine, loaded
    assert not set(SLOW) & set(loaded), loaded
    if "table.json" in argv:  # a table is read back, not built
        assert not {"divmart.sets", "divmart.synthesis"} & set(loaded), loaded


def test_every_public_name_resolves_to_its_home_module():
    code = """
import importlib
import divmart
fine = divmart.fine  # a submodule, before any import has set it
wrong = [
    name for name in divmart.__all__
    if getattr(divmart, name)
    is not getattr(importlib.import_module("divmart." + divmart._HOMES[name]), name)
]
star = {}
exec("from divmart import *", star)
star = sorted(k for k in star if k != "__builtins__")
fine = fine is sys.modules["divmart.fine"]
"""
    wrong, star, listed, fine = run_python(code, "[wrong, star, dir(divmart), fine]")
    assert wrong == []
    assert star == divmart.__all__
    assert set(divmart.__all__) <= set(listed)
    assert fine
    assert len(set(divmart.__all__)) == 41 and set(divmart._HOMES) == set(divmart.__all__)


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        divmart.nonexistent
    with pytest.raises(ImportError):
        from divmart import nonexistent  # noqa: F401
