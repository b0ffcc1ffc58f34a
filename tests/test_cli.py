"""End-to-end CLI contract: commands, exit codes, determinism, and the
on-disk document formats."""

import json
import os
import subprocess
import sys
import time
from decimal import Decimal, Inexact, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import divmart
from clirun import run_cli
from divmart.cli import SUITES
from divmart.dyadic import Dyadic
from divmart.sets import EXPLICIT_BITS_LIMIT
from divmart.table import MartingaleTable
from divmart.analysis import first_identity_violation

EVEN = {"kind": "sigma3", "components": [{"kind": "even-zeros"}]}
UNION = {
    "kind": "sigma3",
    "components": [{"kind": "even-zeros"}, {"kind": "singleton", "point": "(1)"}],
}
NOT_NULL = {
    "kind": "sigma3",
    "components": [{"kind": "explicit", "stages": [[""], ["0"], ["00"]]}],
}


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# ---------------------------------------------------------------------------
# synthesize


def test_synthesize_document(tmp_path):
    spec = write_spec(tmp_path, EVEN)
    res = run_cli(["synthesize", "--spec", spec, "--depth", "6", "--truncation", "1"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["kind"] == "martingale-table" and doc["version"] == 1
    assert doc["depth"] == 6 and doc["truncation"] == 1
    assert doc["spec"] == EVEN
    assert len(doc["values"]) == (1 << 7) - 1
    stages = doc["stages"][0]
    assert stages["part"] == 0 and stages["kind"] == "even-zeros"
    assert [st["stage_index"] for st in stages["stages"]] == [0, 4, 9]
    table, spec_echo, k = MartingaleTable.from_document(doc)
    assert spec_echo == EVEN and k == 1
    assert first_identity_violation(table) is None


def test_synthesize_deterministic(tmp_path):
    spec = write_spec(tmp_path, UNION)
    args = ["synthesize", "--spec", spec, "--depth", "5"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
    assert first.output.endswith("}\n")
    out = tmp_path / "table.json"
    third = run_cli(args + ["--out", str(out)])
    assert third.exit_code == 0 and third.output == ""
    assert out.read_text() == first.output


@pytest.mark.parametrize(
    "args",
    [
        ["synthesize", "--depth=-1"],
        ["synthesize", "--truncation=-1"],
        ["trace", "--point", "(0)", "--depth=-1"],
        ["oscillate", "--point", "(0)", "--depth=-1"],
        ["measure", "--depth=-1"],
        ["verify", "--suite", "identity", "--depth=-1"],
        ["verify", "--suite", "doob", "--truncation=-1"],
    ],
    ids=["synthesize-depth", "synthesize-truncation", "trace-depth", "oscillate-depth",
         "measure-depth", "verify-identity-depth", "verify-doob-truncation"],
)
def test_negative_sizes_exit_two(tmp_path, args):
    spec = write_spec(tmp_path, EVEN)
    res = run_cli([args[0], "--spec", spec, *args[1:]])
    assert res.exit_code == 2, res.output
    assert "parse error" in res.stderr and "nonnegative" in res.stderr
    assert isinstance(res.exception, SystemExit) and "Traceback" not in res.stderr
    assert res.stdout == ""


# ---------------------------------------------------------------------------
# trace


def test_trace_from_spec(tmp_path):
    spec = write_spec(tmp_path, EVEN)
    res = run_cli(["trace", "--spec", spec, "--point", "(0)", "--depth", "8", "--precision", "2^-6"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().split("\n")
    assert lines[0] == "l,lo_dyadic,hi_dyadic,lo_decimal,hi_decimal"
    assert len(lines) == 10
    from fractions import Fraction

    for i, row in enumerate(lines[1:]):
        l, lo_d, hi_d, lo_dec, hi_dec = row.split(",")
        assert int(l) == i
        assert Fraction(lo_dec) <= Fraction(hi_dec)
        assert Fraction(hi_dec) - Fraction(lo_dec) <= Fraction(1, 64)


def test_trace_from_table_document_is_exact(tmp_path):
    spec = write_spec(tmp_path, EVEN)
    out = tmp_path / "table.json"
    assert (
        run_cli(["synthesize", "--spec", spec, "--depth", "6", "--truncation", "1",
                 "--out", str(out)]).exit_code
        == 0
    )
    res = run_cli(["trace", "--spec", str(out), "--point", "(0)", "--depth", "6"])
    assert res.exit_code == 0, res.output
    rows = res.output.strip().split("\n")[1:]
    assert len(rows) == 7
    for row in rows:
        _, lo_d, hi_d, lo_dec, hi_dec = row.split(",")
        assert lo_d == hi_d and lo_dec == hi_dec
    too_deep = run_cli(["trace", "--spec", str(out), "--point", "(0)", "--depth", "7"])
    assert too_deep.exit_code == 2
    assert "exceeds table depth" in too_deep.stderr


def test_trace_rejects_bad_point_and_precision(tmp_path):
    spec = write_spec(tmp_path, EVEN)
    bad_point = run_cli(["trace", "--spec", spec, "--point", "2(0)"])
    assert bad_point.exit_code == 2 and "parse error" in bad_point.stderr
    bad_prec = run_cli(["trace", "--spec", spec, "--point", "(0)", "--precision", "x"])
    assert bad_prec.exit_code == 2 and "bad precision" in bad_prec.stderr


@pytest.mark.parametrize(
    "component, args",
    [
        # a point, precision, rate or integer flag with a final newline, or
        # with digits that are not ASCII, is malformed; int() takes all of
        # the integer flags below
        ({"kind": "even-zeros"}, ["trace", "--point", "(0)\n"]),
        ({"kind": "even-zeros"}, ["trace", "--point", "(0)", "--precision", "٣"]),
        ({"kind": "even-zeros"}, ["trace", "--point", "(0)", "--precision", "2^-٣"]),
        ({"kind": "singleton", "point": "(1)\n"}, ["measure"]),
        ({"kind": "explicit", "stages": [["0000"], []], "rate": "2^-(n+٣)"}, ["measure"]),
        ({"kind": "explicit", "stages": [["0000"], []], "rate": "2^-(n+3)\n"}, ["measure"]),
        ({"kind": "even-zeros"}, ["measure", "--depth", "٣"]),
        ({"kind": "even-zeros"}, ["measure", "--depth", " 3\n"]),
        ({"kind": "even-zeros"}, ["measure", "--depth", "+3"]),
        ({"kind": "even-zeros"}, ["measure", "--depth", "1_0"]),
        ({"kind": "even-zeros"}, ["synthesize", "--depth", "2", "--truncation", "+1"]),
        ({"kind": "even-zeros"}, ["verify", "--suite", "identity", "--depth", "２"]),
    ],
    ids=["point-newline", "precision-digit", "precision-exponent-digit", "spec-point-newline",
         "rate-digit", "rate-newline", "depth-digit", "depth-blanks", "depth-plus",
         "depth-underscore", "truncation-plus", "verify-depth-fullwidth-digit"],
)
def test_near_miss_points_precisions_and_rates_exit_two(tmp_path, component, args):
    spec = write_spec(tmp_path, {"kind": "sigma3", "components": [component]})
    res = run_cli([args[0], "--spec", spec, *args[1:]])
    assert res.exit_code == 2, res.output
    assert res.stdout == "" and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "rate, code, message",
    [
        ("2^-(n-99999999999999)", 0, ""),
        ("2^-(n+99999999999999)", 2,
         "parse error: stage 1 has measure 1/2^1 exceeding declared rate 1/2^100000000000000\n"),
        ("2^-(n+" + "9" * 5000 + ")", 2,
         "parse error: rate constant of 5000 digits is longer than the "
         "interpreter's limit for integer strings\n"),
    ],
    ids=["loose", "tight", "too-many-digits"],
)
def test_a_rate_with_a_large_constant_is_exact_or_a_parse_error(tmp_path, rate, code, message):
    # The rate is compared with each stage's measure by exponents: 2^c for
    # a large c would not fit in memory.
    if "digits" in message and sys.get_int_max_str_digits() == 0:
        pytest.skip("the interpreter converts integer strings of any length")
    component = {"kind": "explicit", "stages": [["0"], []], "rate": rate}
    spec = write_spec(tmp_path, {"kind": "sigma3", "components": [component]})
    start = time.perf_counter()
    res = run_cli(["measure", "--spec", spec])
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == code, res.output
    assert res.stderr == message


@pytest.mark.parametrize("point", ["(0)", "(1)"])
def test_a_precision_with_a_large_exponent_exhausts_the_stage_budget(tmp_path, point):
    # Each bracket is compared with 2^-(10^14) by exponents, never by
    # shifting to a 10^14-bit numerator; the stage chain runs out first.
    spec = write_spec(tmp_path, EVEN)
    start = time.perf_counter()
    res = run_cli(["trace", "--spec", spec, "--point", point, "--depth", "3",
                   "--precision", "2^-99999999999999"])
    assert time.perf_counter() - start < 5.0
    assert res.exit_code == 3, res.output
    assert res.stderr.startswith("horizon exhausted: stage budget")
    assert res.stdout == "" and "Traceback" not in res.stderr


def test_a_precision_past_the_digit_limit_exits_two(tmp_path):
    if sys.get_int_max_str_digits() == 0:
        pytest.skip("the interpreter converts integer strings of any length")
    spec = write_spec(tmp_path, EVEN)
    res = run_cli(["trace", "--spec", spec, "--point", "(0)", "--precision", "2^-" + "9" * 5000])
    assert res.exit_code == 2, res.output
    assert res.stderr == (
        "parse error: precision exponent of 5000 digits is longer than "
        "the interpreter's limit for integer strings\n"
    )


def test_a_closed_stdout_exits_one_without_a_traceback(tmp_path):
    # 172 kB of CSV, more than a pipe holds: the command is still writing
    # when the reader closes the pipe after the first line.
    spec = write_spec(tmp_path, EVEN)
    src = str(Path(divmart.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "divmart.cli", "trace", "--spec", spec,
         "--point", "(0)", "--depth", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    with proc:
        assert proc.stdout.readline() == b"l,lo_dyadic,hi_dyadic,lo_decimal,hi_decimal\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


# ---------------------------------------------------------------------------
# oscillate


def test_oscillate_divergent_point(tmp_path):
    spec = write_spec(tmp_path, EVEN)
    res = run_cli(["oscillate", "--spec", spec, "--point", "(0)"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().split("\n")
    assert lines[0] == "point (0)"
    assert "window 0..7" in lines
    assert any(line.startswith("variation 714597/2^20") for line in lines)
    assert lines[-1] == "verdict CertifiedDivergent(osc ≥ 1/2^3)"


def test_oscillate_convergent_point(tmp_path):
    spec = write_spec(tmp_path, EVEN)
    res = run_cli(["oscillate", "--spec", spec, "--point", "(1)", "--precision", "2^-3"])
    assert res.exit_code == 0, res.output
    assert "limit 3/2^2 (0.75)" in res.output
    assert "verdict CertifiedConvergent(depth 1, tail ≤ 1/2^3)" in res.output


def test_oscillate_inconclusive_exits_one(tmp_path):
    # Deep pseudo-target point: agrees with the target beyond every region
    # the stage budget examines, but is never certified inside it.
    spec = write_spec(tmp_path, EVEN)
    point = "0" * 300 + "1(0)"
    res = run_cli(["oscillate", "--spec", spec, "--point", point])
    assert res.exit_code == 1
    assert "verdict Inconclusive" in res.output


# ---------------------------------------------------------------------------
# measure


def test_measure_per_component(tmp_path):
    spec = write_spec(tmp_path, UNION)
    res = run_cli(["measure", "--spec", spec, "--depth", "2"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().split("\n")
    assert lines == [
        "component 0 even-zeros lambda(G*_2) = 1/2^9 (0.001953125)",
        "component 1 singleton lambda(G*_2) = 1/2^9 (0.001953125)",
    ]


def test_measure_far_past_the_digit_limit(tmp_path):
    # λ(G*_200) = 2^-20700: its decimal has 20,700 fractional digits, far
    # beyond the interpreter's 4,300-digit int/str conversion limit.
    spec = write_spec(tmp_path, UNION)
    res = run_cli(["measure", "--spec", spec, "--depth", "200"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        head, decimal = line[:-1].rsplit(" (", 1)
        assert head.endswith("lambda(G*_200) = 1/2^20700")
        with localcontext() as ctx:
            ctx.prec = 20710
            ctx.traps[Inexact] = True
            assert Decimal(decimal) == 1 / Decimal(2) ** 20700
        assert len(decimal) == 20702


@pytest.mark.parametrize("doc", [EVEN, UNION])
def test_measure_refuses_an_unreachable_depth_at_once(tmp_path, doc):
    # Stage 4,094 is past the stage search span on both built-in families;
    # building the 4,093 stages before it took about 8 s.
    spec = write_spec(tmp_path, doc)
    start = time.perf_counter()
    res = run_cli(["measure", "--spec", spec, "--depth", "4094"])
    elapsed = time.perf_counter() - start
    assert res.exit_code == 3, res.output
    assert res.stdout == "" and "Traceback" not in res.stderr
    assert res.stderr.startswith("horizon exhausted: stage budget") and len(res.stderr) < 4096
    assert "(16781299 bits)) < 1/2^4096·2^-16781299" in res.stderr
    assert "no reachable stage index from 8390651 meets it" in res.stderr
    assert elapsed < 3.0


# ---------------------------------------------------------------------------
# verify


@pytest.mark.parametrize("suite", ["identity", "divergence", "convergence", "doob", "moy"])
def test_verify_suites_pass(tmp_path, suite):
    spec = write_spec(tmp_path, EVEN)
    res = run_cli(["verify", "--spec", spec, "--suite", suite])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().split("\n")
    assert lines and all(line.startswith("PASS") for line in lines)
    if suite == "divergence":
        assert len(lines) == 2  # (0) and 000(10) are the in-target defaults
    if suite == "convergence":
        assert len(lines) == 10
    if suite == "moy":
        assert lines == MOY_EVEN_ZEROS


# Pinned so that any change to a separator bracket or to a stabilization
# depth fails here, not only a change of verdict.
MOY_EVEN_ZEROS = [
    "PASS moy 0(01) h=1/2^1..9/2^4 stays-within-2^-4-from-depth=3",
    "PASS moy (1) h=0..0 stays-within-2^-4-from-depth=1",
    "PASS moy (10) h=0..0 stays-within-2^-4-from-depth=1",
    "PASS moy 1(0) h=0..0 stays-within-2^-4-from-depth=1",
    "PASS moy 0(1) h=1/2^1..9/2^4 stays-within-2^-4-from-depth=1",
]
MOY_SINGLETON = [
    "PASS moy (0) h=1/2^1..9/2^4 stays-within-2^-4-from-depth=2",
    "PASS moy 0(01) h=1/2^1..9/2^4 stays-within-2^-4-from-depth=2",
    "PASS moy (1) h=0..0 stays-within-2^-4-from-depth=1",
    "PASS moy (10) h=0..0 stays-within-2^-4-from-depth=1",
    "PASS moy 1(0) h=0..0 stays-within-2^-4-from-depth=1",
]


def test_verify_moy_on_a_singleton(tmp_path):
    spec = write_spec(tmp_path, {"kind": "sigma3", "components": [
        {"kind": "singleton", "point": "01(011)"}]})
    res = run_cli(["verify", "--spec", spec, "--suite", "moy"])
    assert res.exit_code == 0, res.output
    assert res.stdout.splitlines() == MOY_SINGLETON


def test_verify_moy_on_a_multi_stage_explicit_component(tmp_path):
    # The separator is built for the first component: its backbones widen
    # their fills across the listed stages, then read the empty last one.
    spec = write_spec(tmp_path, {"kind": "sigma3", "components": [
        {"kind": "explicit", "stages": [["00"], ["000"], []]}, {"kind": "even-zeros"}]})
    res = run_cli(["verify", "--spec", spec, "--suite", "moy"])
    assert res.exit_code == 0, res.output
    assert res.stderr == ""
    assert res.stdout.splitlines() == [
        "PASS moy (0) h=3/2^2..13/2^4 stays-within-2^-4-from-depth=2",
        "PASS moy 0(01) h=1/2^1..9/2^4 stays-within-2^-4-from-depth=2",
        "PASS moy (1) h=0..0 stays-within-2^-4-from-depth=1",
        "PASS moy (10) h=0..0 stays-within-2^-4-from-depth=1",
        "PASS moy 1(0) h=0..0 stays-within-2^-4-from-depth=1",
    ]


def test_verify_union_divergence_includes_the_singleton(tmp_path):
    spec = write_spec(tmp_path, UNION)
    res = run_cli(["verify", "--spec", spec, "--suite", "divergence"])
    assert res.exit_code == 0, res.output
    assert "PASS divergence (1) CertifiedDivergent(osc ≥ 1/2^5)" in res.output


def test_verify_custom_samples_and_failure(tmp_path):
    spec = write_spec(tmp_path, EVEN)
    samples = tmp_path / "pts.json"
    samples.write_text(json.dumps({"points": ["(0)"]}))
    res = run_cli(["verify", "--spec", spec, "--suite", "convergence", "--samples", str(samples)])
    assert res.exit_code == 1
    assert "FAIL convergence no off-set sample points" in res.output
    samples.write_text(json.dumps(["(0)"]))
    res = run_cli(["verify", "--spec", spec, "--suite", "moy", "--samples", str(samples)])
    assert res.exit_code == 1
    assert res.output == "FAIL moy no off-target sample points\n"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": [3]}))
    res = run_cli(["verify", "--spec", spec, "--suite", "identity", "--samples", str(bad)])
    assert res.exit_code == 2


@pytest.mark.parametrize("suite", ["divergence", "convergence"])
def test_verify_samples_list_form_matches_the_points_form(tmp_path, suite):
    spec = write_spec(tmp_path, EVEN)
    points = ["(0)", "0(01)", "(1)"]
    results = []
    for name, doc in (("list.json", points), ("object.json", {"points": points})):
        samples = write_spec(tmp_path, doc, name)
        res = run_cli(["verify", "--spec", spec, "--suite", suite, "--samples", samples])
        results.append((res.exit_code, res.stdout, res.stderr))
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][1].startswith("PASS")


@pytest.mark.parametrize("doc", [3, [3], {"points": 3}])
def test_verify_rejects_samples_that_are_not_point_lists(tmp_path, doc):
    spec = write_spec(tmp_path, EVEN)
    samples = write_spec(tmp_path, doc, "samples.json")
    res = run_cli(["verify", "--spec", spec, "--suite", "divergence", "--samples", samples])
    assert res.exit_code == 2
    assert "samples file must be a JSON list of point strings" in res.stderr


def test_verify_rejects_unknown_suite(tmp_path):
    spec = write_spec(tmp_path, EVEN)
    res = run_cli(["verify", "--spec", spec, "--suite", "nope"])
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# usage errors: exit 2 with a message and no output, as for any bad input


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nope"],
        ["measure"],
        ["measure", "--spec", "SPEC", "--bogus"],
        ["measure", "--spec", "SPEC", "--dep", "3"],  # no abbreviated flags
        ["measure", "--spec", "SPEC", "--depth", "x"],
        ["verify", "--spec", "SPEC", "--suite", "nope"],
    ],
    ids=["no-command", "unknown-command", "missing-spec", "unknown-option",
         "abbreviated-option", "non-integer", "unknown-suite"],
)
def test_usage_errors_exit_two(tmp_path, argv):
    spec = write_spec(tmp_path, EVEN)
    res = run_cli([spec if a == "SPEC" else a for a in argv])
    assert res.exit_code == 2
    assert res.stdout == "" and res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("argv", [["--help"], ["measure", "--help"]])
def test_help_exits_zero(argv):
    res = run_cli(argv)
    assert res.exit_code == 0 and res.stderr == ""
    assert "usage: divmart" in res.stdout


# ---------------------------------------------------------------------------
# failure modes


def test_nonempty_last_stage_exits_two(tmp_path):
    # A last stage that is not empty repeats forever, so the component is
    # not null: refused at parse time, before any stage budget is spent.
    spec = write_spec(tmp_path, NOT_NULL)
    res = run_cli(["synthesize", "--spec", spec])
    assert res.exit_code == 2, res.output
    assert "parse error" in res.stderr and "last stage is not empty" in res.stderr
    assert "repeats forever" in res.stderr and "not null" in res.stderr
    assert isinstance(res.exception, SystemExit) and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["synthesize"],
        ["verify", "--suite", "identity"],
        ["verify", "--suite", "doob"],
    ],
)
def test_table_size_budget_exits_three(tmp_path, args):
    # 2^41 - 1 nodes: refused before anything is allocated or computed.
    spec = write_spec(tmp_path, UNION)
    start = time.perf_counter()
    res = run_cli(args + ["--spec", spec, "--depth", "40"])
    elapsed = time.perf_counter() - start
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.stderr
    assert "table-size budget of 2097151 nodes" in res.stderr
    assert f"needs {(1 << 41) - 1} nodes" in res.stderr
    assert elapsed < 1.0


def test_malformed_json_exits_two(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    res = run_cli(["synthesize", "--spec", str(p)])
    assert res.exit_code == 2 and "parse error" in res.stderr
    res = run_cli(["synthesize", "--spec", str(tmp_path / "missing.json")])
    assert res.exit_code == 2 and "parse error: cannot read" in res.stderr


@pytest.mark.parametrize(
    "component",
    [
        {"kind": "singleton", "point": 5},
        {"kind": "singleton", "point": ["(0)"]},
        {"kind": "explicit", "stages": [[5]]},
        {"kind": "explicit", "stages": [["0"], [None]]},
    ],
)
@pytest.mark.parametrize("command", ["synthesize", "oscillate", "measure"])
def test_wrong_json_types_in_specs_exit_two(tmp_path, component, command):
    spec = write_spec(tmp_path, {"kind": "sigma3", "components": [component]})
    args = [command, "--spec", spec]
    if command == "oscillate":
        args += ["--point", "(0)"]
    res = run_cli(args)
    assert res.exit_code == 2, res.output
    assert "parse error" in res.stderr and "Traceback" not in res.stderr


def test_oversized_json_integer_exits_two(tmp_path):
    p = tmp_path / "huge.json"
    p.write_text('{"kind": "sigma3", "components": [{"kind": "singleton", "point": '
                 + "1" * 5000 + "}]}")
    res = run_cli(["measure", "--spec", str(p)])
    assert res.exit_code == 2 and "parse error" in res.stderr


def test_a_rate_that_is_not_a_string_exits_two(tmp_path):
    component = {"kind": "explicit", "stages": [["0"], []], "rate": 5}
    spec = write_spec(tmp_path, {"kind": "sigma3", "components": [component]})
    res = run_cli(["measure", "--spec", spec])
    assert res.exit_code == 2
    assert res.stderr == "parse error: rate must be a string, got int\n"


def test_unknown_component_exits_two(tmp_path):
    spec = write_spec(
        tmp_path, {"kind": "sigma3", "components": [{"kind": "mystery"}]}
    )
    res = run_cli(["oscillate", "--spec", spec, "--point", "(0)"])
    assert res.exit_code == 2 and "unknown component kind" in res.stderr


def test_overlong_explicit_cylinder_exits_two(tmp_path):
    # EXPLICIT_BITS_LIMIT bounds the input size: a 1,200-bit cylinder is
    # refused at parse time, and a cylinder at the limit parses.
    def spec(bits):
        return write_spec(tmp_path, {"kind": "sigma3", "components": [
            {"kind": "explicit", "stages": [["0" * bits], []]}]})

    res = run_cli(["measure", "--spec", spec(1200)])
    assert res.exit_code == 2, res.output
    assert "parse error" in res.stderr and f"limit of {EXPLICIT_BITS_LIMIT} bits" in res.stderr
    assert "Traceback" not in res.stderr
    res = run_cli(["measure", "--spec", spec(EXPLICIT_BITS_LIMIT), "--depth", "3"])
    assert res.exit_code == 0, res.output


def test_moy_on_a_cylinder_at_the_bits_limit(tmp_path):
    # The separator's clopen pieces here have 512-bit members, so the time
    # bound fails for any kernel op whose cost grows as members × depth.
    spec = write_spec(tmp_path, {"kind": "sigma3", "components": [
        {"kind": "explicit", "stages": [["0" * EXPLICIT_BITS_LIMIT], []]}]})
    start = time.perf_counter()
    res = run_cli(["verify", "--suite", "moy", "--spec", spec])
    elapsed = time.perf_counter() - start
    assert res.exit_code == 1, res.output
    assert res.stdout.splitlines() == [
        "FAIL moy (0) h=1/2^1..9/2^4 never-stabilizes",
        "PASS moy 0(01) h=0..0 stays-within-2^-4-from-depth=0",
        "PASS moy (1) h=0..0 stays-within-2^-4-from-depth=0",
        "PASS moy (10) h=0..0 stays-within-2^-4-from-depth=0",
        "PASS moy 1(0) h=0..0 stays-within-2^-4-from-depth=0",
    ]
    assert elapsed < 15


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"kind": "martingale-table", "version": 1, "depth": 2, "values": []},
         "needs 2^3 - 1 values, got 0"),
        ({"kind": "martingale-table", "version": 1, "depth": 0, "values": [{"exp": 0}]},
         "a dyadic needs 'num' and 'exp'"),
        ({"kind": "martingale-table", "version": 1, "depth": 0,
          "values": [{"num": 1.5, "exp": 0}]},
         "bad dyadic numerator: 1.5"),
        ({"kind": "martingale-table", "version": 1, "depth": True,
          "values": [{"num": "1", "exp": 0}] * 3},
         "integer depth"),
        ({"kind": "martingale-table", "version": True, "depth": 0,
          "values": [{"num": "1", "exp": 0}]},
         "unsupported table version True"),
    ],
    ids=["wrong-length", "dyadic-without-num", "float-numerator", "bool-depth", "bool-version"],
)
def test_malformed_table_documents_exit_two(tmp_path, doc, message):
    spec = write_spec(tmp_path, doc)
    res = run_cli(["trace", "--spec", spec, "--point", "(0)", "--depth", "0"])
    assert res.exit_code == 2, res.output
    assert "parse error" in res.stderr and message in res.stderr
    assert isinstance(res.exception, SystemExit) and "Traceback" not in res.stderr


# ---------------------------------------------------------------------------
# fuzz: every input gets an exit code from the contract, never a traceback

json_scalars = (
    st.none() | st.booleans() | st.integers(min_value=-3, max_value=40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
)
json_values = st.recursive(
    json_scalars,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8,
)
bit_text = st.text(alphabet="01", max_size=5)
valid_points = st.builds(
    "{}({})".format, bit_text, st.text(alphabet="01", min_size=1, max_size=3)
)
point_text = st.one_of(valid_points, valid_points, st.text(alphabet="01()x", max_size=8))
# Rate constants: small ones, and ones of up to ten digits past the
# interpreter's limit for integer strings (an exact check below it, a
# parse error past it).
DIGIT_LIMIT = sys.get_int_max_str_digits() or 4300
rate_constants = st.integers(0, 40).map(str) | st.builds(
    lambda digit, k: digit * k, st.sampled_from("19"), st.integers(1, DIGIT_LIMIT + 10)
)
rate_text = (
    st.sampled_from(["2^-n", "2^ - n", "3^-n", ""])
    | st.builds("2^-(n{}{})".format, st.sampled_from("+-"), rate_constants)
    | st.text(alphabet="2^-(n+)1 ", max_size=9)
)
# Nested paths of cylinders (decreasing stages, the last one empty or not).
nested_stages = st.builds(
    lambda w, end: [[w[:i]] for i in range(1, len(w) + 1)] + end,
    st.text(alphabet="01", min_size=1, max_size=5),
    st.sampled_from([[[]], []]),
)
well_typed_components = st.one_of(
    st.just({"kind": "even-zeros"}),
    st.fixed_dictionaries({"kind": st.just("singleton"), "point": valid_points}),
    st.fixed_dictionaries(
        {"kind": st.just("explicit"), "stages": nested_stages}, optional={"rate": rate_text}
    ),
)
any_components = st.one_of(
    st.fixed_dictionaries({"kind": st.just("singleton"), "point": point_text | json_values}),
    st.fixed_dictionaries(
        {
            "kind": st.just("explicit"),
            "stages": st.lists(st.lists(bit_text | json_scalars, max_size=3), max_size=4)
            | json_values,
        },
        optional={"rate": rate_text | json_values},
    ),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["even-zeros", "singleton", "explicit", "sigma3"]) | json_values}
    ),
    json_values,
)
# Well-typed strategies are listed twice so that most examples get past
# parsing and reach the construction.
components = st.one_of(well_typed_components, well_typed_components, any_components)
sigma3_docs = st.fixed_dictionaries(
    {"kind": st.just("sigma3"), "components": st.lists(components, max_size=3)}
)
spec_docs = st.one_of(
    sigma3_docs,
    sigma3_docs,
    st.fixed_dictionaries(
        {"kind": st.just("sigma3") | json_values, "components": st.lists(components, max_size=3) | json_values}
    ),
    json_values,
)
# Table documents for `trace --spec`: well formed, truncated (values cut
# short, or the JSON text cut off) and mistyped (a field or one value
# replaced by arbitrary JSON, or a dyadic with keys missing).
dyadic_docs = st.builds(
    lambda num, exp: Dyadic(num, exp).to_json(), st.integers(-9, 9), st.integers(0, 5)
)
well_formed_tables = st.integers(min_value=0, max_value=4).flatmap(
    lambda d: st.fixed_dictionaries(
        {
            "kind": st.just("martingale-table"),
            "version": st.just(1),
            "depth": st.just(d),
            "values": st.lists(dyadic_docs, min_size=(2 << d) - 1, max_size=(2 << d) - 1),
        },
        optional={"spec": json_values, "truncation": json_values},
    )
)
bad_dyadics = json_values | st.fixed_dictionaries(
    {}, optional={"num": json_scalars, "exp": json_scalars}
)
truncated_tables = well_formed_tables.flatmap(
    lambda doc: st.integers(0, len(doc["values"]) - 1).map(
        lambda k: {**doc, "values": doc["values"][:k]}
    )
)
mistyped_fields = well_formed_tables.flatmap(
    lambda doc: st.tuples(st.sampled_from(sorted(doc)), json_values).map(
        lambda kv: {**doc, kv[0]: kv[1]}
    )
)
mistyped_values = well_formed_tables.flatmap(
    lambda doc: st.tuples(st.integers(0, len(doc["values"]) - 1), bad_dyadics).map(
        lambda iv: {**doc, "values": [*doc["values"][: iv[0]], iv[1], *doc["values"][iv[0] + 1 :]]}
    )
)
table_texts = st.one_of(
    well_formed_tables.map(json.dumps),
    st.one_of(truncated_tables, mistyped_fields, mistyped_values).map(json.dumps),
    st.tuples(well_formed_tables.map(json.dumps), st.integers(min_value=0)).map(
        lambda tk: tk[0][: tk[1] % len(tk[0])]
    ),
)
# Spec documents are listed twice so that most examples reach a construction.
spec_texts = st.one_of(spec_docs.map(json.dumps), spec_docs.map(json.dumps), table_texts)
precisions = st.one_of(
    st.builds("2^-{}".format, st.integers(0, 40)),
    st.sampled_from(["2^-6", "3", "0"]),
    st.sampled_from(["x", "2^6", "", "-2"]),
)
SIZED = {  # the size flags each command takes
    "synthesize": ("--depth", "--truncation"),
    "trace": ("--depth",),
    "oscillate": ("--depth",),
    "measure": ("--depth",),
    "verify": ("--depth", "--truncation"),
}


@settings(max_examples=200, deadline=None)
@given(
    text=spec_texts,
    depth=st.integers(min_value=-1, max_value=6),
    truncation=st.integers(min_value=-1, max_value=4),
    point=point_text,
    precision=precisions,
    suite=st.sampled_from(SUITES),
)
def test_cli_fuzz_keeps_the_exit_code_contract(
    tmp_path_factory, text, depth, truncation, point, precision, suite
):
    spec = tmp_path_factory.mktemp("fuzz") / "spec.json"
    spec.write_text(text)
    sizes = {"--depth": depth, "--truncation": truncation}
    for command, flags in SIZED.items():
        args = [command, "--spec", str(spec)] + [f"{f}={sizes[f]}" for f in flags]
        if command in ("trace", "oscillate"):
            args += ["--point", point, "--precision", precision]
        if command == "verify":
            args += ["--suite", suite, "--precision", precision]
        start = time.perf_counter()
        res = run_cli(args)
        elapsed = time.perf_counter() - start
        assert res.exit_code in (0, 1, 2, 3), (args, text, res.output)
        # An exception other than SystemExit is what a traceback would show.
        assert res.exception is None or isinstance(res.exception, SystemExit), (args, text)
        assert "Traceback" not in res.stderr
        assert elapsed < 10.0, (args, text, elapsed)
