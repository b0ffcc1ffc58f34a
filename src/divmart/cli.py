"""Command-line front end.

Exit codes: 0 ok / all checks passed, 1 verification failure, 2 malformed
input (documents, points, flags), 3 a finite search budget ran out (the
failing budget is printed).  All output is deterministic: identical inputs
and flags give byte-identical bytes.

Start-up is most of a command's time, so the parser is the standard
library's `argparse` and this module imports only `divmart.errors` at the
top.  Each command imports the divmart modules it runs inside its own body:
`synthesize` and `trace` never load `analysis`, and only `verify --suite
moy` loads `fine`.  A top-level import of `fine`, `analysis` or
`synthesis` here is a start-up regression (tests/test_imports.py fails on
it).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import TYPE_CHECKING, Callable, Optional

from .errors import DEFAULT_STAGE_BUDGET, HorizonExhausted, ParseError

if TYPE_CHECKING:
    from .bits import Point
    from .dyadic import Dyadic
    from .sets import GDeltaSet, SigmaThreeSet

SUITES = ("identity", "divergence", "convergence", "doob", "moy")

# Deterministic default sample points for the verification suites; each
# suite filters them by their exact exit stage, so only applicable ones run.
_DEFAULT_POINTS = (
    "(0)",
    "0(01)",
    "(1)",
    "(10)",
    "1(0)",
    "0(1)",
    "00(1)",
    "001(10)",
    "011(1)",
    "0011(01)",
    "01(1)",
    "000(10)",
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}")


def _load_json(path: str) -> dict:
    from .table import loads_document

    return loads_document(_read(path))


def _load_set_spec(path: str) -> SigmaThreeSet:
    from .sets import SigmaThreeSet

    return SigmaThreeSet.from_spec(_load_json(path))


def _parse_precision(text: str) -> Dyadic:
    """Accepted: '2^-6' or the bare exponent '6' (both meaning 2^(-6))."""
    from .dyadic import Dyadic

    s = text.replace(" ", "")
    m = re.fullmatch(r"2\^-([0-9]+)", s)
    if m is None:
        m = re.fullmatch(r"([0-9]+)", s)
    if m is None:
        raise ParseError(f"bad precision {text!r}; write e.g. '2^-6'")
    digits = m.group(1)
    try:
        return Dyadic.pow2(-int(digits))
    except ValueError:  # past the interpreter's integer-string digit limit
        raise ParseError(
            f"precision exponent of {len(digits)} digits is longer than "
            f"the interpreter's limit for integer strings"
        ) from None


def _integer(text: str) -> int:
    """The argparse type of --depth and --truncation: an optional '-' and
    ASCII digits.  int() alone also takes '+3', ' 3\\n', '1_0' and '٣'.
    A negative value passes here, so that _check_sizes reports it."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    return int(text)


def _check_sizes(**sizes: int) -> None:
    """Negative --depth/--truncation values are malformed input (exit 2)."""
    bad = [name for name, n in sizes.items() if n < 0]
    if bad:
        raise ParseError(f"{' and '.join(bad)} must be nonnegative")


def _parse_point(text: str) -> Point:
    from .bits import Point

    return Point.parse(text)


def _load_samples(path: Optional[str], default: list[str]) -> list[Point]:
    from .table import loads_json

    if path is None:
        return [_parse_point(t) for t in default]
    doc = loads_json(_read(path))
    if isinstance(doc, dict):
        doc = doc.get("points")
    if not isinstance(doc, list) or not all(isinstance(t, str) for t in doc):
        raise ParseError(
            "samples file must be a JSON list of point strings "
            'or {"points": [...]}'
        )
    return [_parse_point(t) for t in doc]


def _stage_metadata(pipeline) -> list[dict]:
    """The stage chain of each part of a `sigma3_pipeline`, all of them
    synthesized parts."""
    meta = []
    for i, part in enumerate(pipeline.parts):
        stages = []
        for cert in part._stages:
            m = cert.gstar.measure
            stages.append(
                {
                    "index": cert.index,
                    "stage_index": cert.stage_index,
                    "region_measure": m.to_json(),
                }
            )
        meta.append({"part": i, "kind": part.target.kind, "stages": stages})
    return meta


# ---------------------------------------------------------------------------
# commands


def synthesize(spec: str, out: Optional[str], depth: int, truncation: int):
    """Write the exact truncated martingale table M_k to depth D."""
    from .sets import SigmaThreeSet
    from .synthesis import sigma3_pipeline
    from .table import dumps_document

    _check_sizes(depth=depth, truncation=truncation)
    spec_doc = _load_json(spec)
    b = SigmaThreeSet.from_spec(spec_doc)
    pipeline = sigma3_pipeline(b)
    table = pipeline.truncated_table(truncation, depth)
    doc = table.to_document(spec_echo=spec_doc, truncation=truncation)
    doc["stages"] = _stage_metadata(pipeline)
    text = dumps_document(doc)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _trace_rows(path: str, beta: Point, depth: int, precision: Dyadic):
    from .table import DOCUMENT_KIND, MartingaleTable

    doc = _load_json(path)
    if isinstance(doc, dict) and doc.get("kind") == DOCUMENT_KIND:
        table, _, _ = MartingaleTable.from_document(doc)
        if depth > table.depth:
            raise ParseError(
                f"trace depth {depth} exceeds table depth {table.depth}"
            )
        for l in range(depth + 1):
            v = table.value(beta.prefix(l))
            yield l, v, v
        return
    from .sets import SigmaThreeSet
    from .synthesis import sigma3_pipeline

    pipeline = sigma3_pipeline(SigmaThreeSet.from_spec(doc))
    for l in range(depth + 1):
        lo, hi = pipeline.eval(beta.prefix(l), precision)
        yield l, lo, hi


def trace(spec: str, point: str, depth: int, precision: str):
    """CSV of certified value intervals along a branch."""
    _check_sizes(depth=depth)
    beta = _parse_point(point)
    prec = _parse_precision(precision)
    out = ["l,lo_dyadic,hi_dyadic,lo_decimal,hi_decimal"]
    for l, lo, hi in _trace_rows(spec, beta, depth, prec):
        out.append(f"{l},{lo},{hi},{lo.decimal()},{hi.decimal()}")
    print("\n".join(out))


def oscillate(spec: str, point: str, depth: int, precision: str):
    """Certify divergence or convergence of the synthesized martingale at a
    point; exit 1 when neither certificate is found within the budget."""
    from . import analysis
    from .synthesis import sigma3_pipeline

    _check_sizes(depth=depth)
    beta = _parse_point(point)
    eps = _parse_precision(precision)
    pipeline = sigma3_pipeline(_load_set_spec(spec))
    rep = analysis.certify_divergence(pipeline, beta, stage_budget=depth)
    if not rep.divergent:
        rep = analysis.certify_convergence(pipeline, beta, eps, stage_budget=depth)
    print(f"point {beta}")
    if rep.window is not None:
        print(f"window {rep.window[0]}..{rep.window[1]}")
        print(f"variation {rep.variation} ({rep.variation.decimal()})")
    if rep.limit is not None:
        print(f"limit {rep.limit} ({rep.limit.decimal()})")
    print(f"verdict {rep.verdict}")
    if isinstance(rep.verdict, analysis.Inconclusive):
        raise SystemExit(1)


def measure(spec: str, depth: int):
    """Exact per-component λ(G*_n): an upper bound on the divergence-set
    measure of each part."""
    from .analysis import divergence_measure_bound
    from .synthesis import gdelta_martingale

    _check_sizes(depth=depth)
    b = _load_set_spec(spec)
    for i, comp in enumerate(b.components):
        f = gdelta_martingale(comp)
        m = divergence_measure_bound(f, depth)
        print(f"component {i} {comp.kind} lambda(G*_{depth}) = {m} ({m.decimal()})")


# ---------------------------------------------------------------------------
# verification suites


def _report(lines: list[str], ok: bool, check: str, detail: str) -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'} {check} {detail}")
    return ok


def _suite_identity(b, points, depth, truncation, eps, lines) -> bool:
    from .analysis import first_identity_violation
    from .synthesis import sigma3_pipeline

    table = sigma3_pipeline(b).truncated_table(truncation, depth)
    bad = first_identity_violation(table)
    return _report(
        lines,
        bad is None,
        "identity",
        f"depth={depth} k={truncation}"
        + ("" if bad is None else f" first-violation={bad}"),
    )


def _suite_divergence(b, points, depth, truncation, eps, lines) -> bool:
    from .analysis import certify_divergence
    from .synthesis import sigma3_pipeline

    pipeline = sigma3_pipeline(b)
    ok = True
    tested = 0
    for beta in points:
        if b.exit_stage(beta) is not None:
            continue
        tested += 1
        rep = certify_divergence(pipeline, beta)
        ok &= _report(lines, rep.divergent, "divergence", f"{beta} {rep.verdict}")
    if tested == 0:
        ok = _report(lines, False, "divergence", "no in-set sample points")
    return ok


def _suite_convergence(b, points, depth, truncation, eps, lines) -> bool:
    from .analysis import certify_convergence
    from .synthesis import sigma3_pipeline

    pipeline = sigma3_pipeline(b)
    ok = True
    tested = 0
    for beta in points:
        e = b.exit_stage(beta)
        if e is None or e > DEFAULT_STAGE_BUDGET:
            continue
        tested += 1
        rep = certify_convergence(pipeline, beta, eps)
        ok &= _report(lines, rep.convergent, "convergence", f"{beta} {rep.verdict}")
    if tested == 0:
        ok = _report(lines, False, "convergence", "no off-set sample points")
    return ok


def _suite_doob(b, points, depth, truncation, eps, lines) -> bool:
    from .analysis import doob_diagnostic
    from .dyadic import Dyadic
    from .synthesis import sigma3_pipeline

    table = sigma3_pipeline(b).truncated_table(truncation, depth)
    a, bb = Dyadic(1, 2), Dyadic(3, 2)  # (1/4, 3/4)
    stats = doob_diagnostic(table, a, bb)
    return _report(
        lines,
        stats.doob_product <= Dyadic.one(),
        "doob",
        f"(a,b)=(1/4,3/4) depth={depth} mean={stats.mean_upcrossings}",
    )


_MOY_DEPTH = 24


def _interval_gap(p: tuple[Dyadic, Dyadic], q: tuple[Dyadic, Dyadic]) -> Dyadic:
    from .dyadic import Dyadic

    if p[0] > q[1]:
        return p[0] - q[1]
    if q[0] > p[1]:
        return q[0] - p[1]
    return Dyadic.zero()


def _suite_moy(b, points, depth, truncation, eps, lines) -> bool:
    """Mean-convergence of the stage-1 graded separator of the first
    component: along off-target branches the cylinder means must enter and
    stay within 2^(-4) of the evaluated separator value by depth 24."""
    from .dyadic import Dyadic
    from .fine import mean_trace, urysohn

    tolerance = Dyadic(1, 4)  # 2^(-4): grading granularity of the separator
    comp: GDeltaSet = b.components[0] if b.components else None
    if comp is None:
        return _report(lines, False, "moy", "spec has no components")
    h = urysohn(comp.stage(1).complement(), comp)
    ok = True
    tested = 0
    for beta in points:
        e = comp.exit_stage(beta)
        if e is None or e > DEFAULT_STAGE_BUDGET:
            continue
        tested += 1
        target = h.evaluate(beta, tolerance)
        rows = mean_trace(h, beta, _MOY_DEPTH, tolerance)
        entered: Optional[int] = None
        for l, lo, hi in rows:
            if _interval_gap((lo, hi), target) <= tolerance:
                if entered is None:
                    entered = l
            else:
                entered = None  # left the tolerance band again
        ok &= _report(
            lines,
            entered is not None,
            "moy",
            f"{beta} h={target[0]}..{target[1]} "
            + (f"stays-within-2^-4-from-depth={entered}"
               if entered is not None else "never-stabilizes"),
        )
        if tested >= 5:
            break
    if tested == 0:
        ok = _report(lines, False, "moy", "no off-target sample points")
    return ok


_SUITE_RUNNERS = {
    "identity": _suite_identity,
    "divergence": _suite_divergence,
    "convergence": _suite_convergence,
    "doob": _suite_doob,
    "moy": _suite_moy,
}


def verify(spec: str, suite: str, samples: Optional[str], depth: int,
           truncation: int, precision: str):
    """Run a verification suite; exit 0 iff every check passes."""
    _check_sizes(depth=depth, truncation=truncation)
    b = _load_set_spec(spec)
    points = _load_samples(samples, list(_DEFAULT_POINTS))
    eps = _parse_precision(precision)
    lines: list[str] = []
    ok = _SUITE_RUNNERS[suite](b, points, depth, truncation, eps, lines)
    print("\n".join(lines))
    if not ok:
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# the command line


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divmart", description=main.__doc__, allow_abbrev=False
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(fn: Callable) -> Callable[..., None]:
        """Add the command that runs fn; returns the function that adds
        one of its options.  An option with a default shows it in --help."""
        summary = re.split(r"[.;] ", " ".join(fn.__doc__.split()))[0].rstrip(".")
        sub = commands.add_parser(
            fn.__name__, help=summary, description=fn.__doc__, allow_abbrev=False
        )
        sub.set_defaults(run=fn)

        def option(flag: str, help: str = "", **kw) -> None:
            if kw.get("default") is not None:
                help = f"{help} [default: %(default)s]".lstrip()
            sub.add_argument(flag, help=help or None, **kw)

        return option

    option = command(synthesize)
    option("--spec", "set description (JSON)", required=True)
    option("--out", "output file (default stdout)")
    option("--depth", "table depth D", type=_integer, default=8)
    option("--truncation", "truncation index k", type=_integer, default=3)

    option = command(trace)
    option("--spec", "set description or table document (JSON)", required=True)
    option("--point", "e.g. '01(10)'", required=True)
    option("--depth", type=_integer, default=16)
    option("--precision", default="2^-6")

    option = command(oscillate)
    option("--spec", "set description (JSON)", required=True)
    option("--point", required=True)
    option("--depth", "stage budget for certificates", type=_integer,
           default=DEFAULT_STAGE_BUDGET)
    option("--precision", "ε for the convergence certificate", default="2^-6")

    option = command(measure)
    option("--spec", "set description (JSON)", required=True)
    option("--depth", "stage index n", type=_integer, default=10)

    option = command(verify)
    option("--spec", "set description (JSON)", required=True)
    option("--suite", required=True, choices=SUITES)
    option("--samples", 'JSON list of points or {"points": [...]}')
    option("--depth", type=_integer, default=8)
    option("--truncation", type=_integer, default=3)
    option("--precision", "ε for convergence certificates", default="2^-6")
    return parser


def main(argv: Optional[list[str]] = None) -> None:
    """Exact martingales on the binary tree with prescribed divergence sets."""
    # The one place where a divmart error becomes an exit code.
    try:
        options = vars(_parser().parse_args(argv))
        options.pop("run")(**options)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        raise SystemExit(2)
    except HorizonExhausted as e:
        print(e, file=sys.stderr)
        raise SystemExit(3)
    except BrokenPipeError:
        # The reader of stdout has gone (`divmart trace ... | head`).  Point
        # stdout at os.devnull, so the flush at interpreter exit writes
        # nowhere, and exit 1 as the interpreter does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)


if __name__ == "__main__":
    main()
