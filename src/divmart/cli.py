"""Command-line front end.

Exit codes: 0 ok / all checks passed, 1 verification failure, 2 malformed
input (documents, points, flags), 3 a finite search budget ran out (the
failing budget is printed).  All output is deterministic: identical inputs
and flags give byte-identical bytes.
"""

from __future__ import annotations

import functools
import re
import sys
from typing import Callable, Optional

import click

from . import analysis
from .bits import Point
from .dyadic import Dyadic
from .errors import HorizonExhausted, ParseError
from .fine import mean_trace, urysohn
from .sets import GDeltaSet, Membership, SigmaThreeSet
from .synthesis import SynthesizedMartingale, gdelta_martingale, sigma3_pipeline
from .table import (
    DOCUMENT_KIND,
    MartingaleTable,
    dumps_document,
    loads_document,
    loads_json,
)

SUITES = ("identity", "divergence", "convergence", "doob", "moy")

# Deterministic default sample points for the verification suites; each
# suite filters them through exact membership, so only applicable ones run.
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


def _guarded(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ParseError as e:
            click.echo(f"parse error: {e}", err=True)
            raise SystemExit(2)
        except HorizonExhausted as e:
            click.echo(str(e), err=True)
            raise SystemExit(3)

    return inner


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}")


def _load_json(path: str) -> dict:
    return loads_document(_read(path))


def _load_set_spec(path: str) -> SigmaThreeSet:
    return SigmaThreeSet.from_spec(_load_json(path))


def _parse_precision(text: str) -> Dyadic:
    """Accepted: '2^-6' or the bare exponent '6' (both meaning 2^(-6))."""
    s = text.replace(" ", "")
    m = re.fullmatch(r"2\^-(\d+)", s)
    if m is None:
        m = re.fullmatch(r"(\d+)", s)
    if m is None:
        raise ParseError(f"bad precision {text!r}; write e.g. '2^-6'")
    return Dyadic.pow2(-int(m.group(1)))


def _check_sizes(**sizes: int) -> None:
    """Negative --depth/--truncation values are malformed input (exit 2)."""
    bad = [name for name, n in sizes.items() if n < 0]
    if bad:
        raise ParseError(f"{' and '.join(bad)} must be nonnegative")


def _parse_point(text: str) -> Point:
    return Point.parse(text)


def _load_samples(path: Optional[str], default: list[str]) -> list[Point]:
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
    meta = []
    for i, part in enumerate(pipeline.parts):
        if not isinstance(part, SynthesizedMartingale):
            meta.append({"part": i, "kind": "constant"})
            continue
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


@click.group()
def main() -> None:
    """Exact martingales on the binary tree with prescribed divergence sets."""


@main.command()
@click.option("--spec", "spec_path", required=True, help="set description (JSON)")
@click.option("--out", "out_path", default=None, help="output file (default stdout)")
@click.option("--depth", default=8, show_default=True, help="table depth D")
@click.option("--truncation", default=3, show_default=True, help="truncation index k")
@_guarded
def synthesize(spec_path: str, out_path: Optional[str], depth: int, truncation: int):
    """Write the exact truncated martingale table M_k to depth D."""
    _check_sizes(depth=depth, truncation=truncation)
    spec_doc = _load_json(spec_path)
    b = SigmaThreeSet.from_spec(spec_doc)
    pipeline = sigma3_pipeline(b)
    table = pipeline.truncated_table(truncation, depth)
    doc = table.to_document(spec_echo=spec_doc, truncation=truncation)
    doc["stages"] = _stage_metadata(pipeline)
    text = dumps_document(doc)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _trace_rows(path: str, beta: Point, depth: int, precision: Dyadic):
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
    pipeline = sigma3_pipeline(SigmaThreeSet.from_spec(doc))
    for l in range(depth + 1):
        lo, hi = pipeline.eval(beta.prefix(l), precision)
        yield l, lo, hi


@main.command()
@click.option("--spec", "spec_path", required=True,
              help="set description or table document (JSON)")
@click.option("--point", "point_text", required=True, help="e.g. '01(10)'")
@click.option("--depth", default=16, show_default=True)
@click.option("--precision", default="2^-6", show_default=True)
@_guarded
def trace(spec_path: str, point_text: str, depth: int, precision: str):
    """CSV of certified value intervals along a branch."""
    _check_sizes(depth=depth)
    beta = _parse_point(point_text)
    prec = _parse_precision(precision)
    out = ["l,lo_dyadic,hi_dyadic,lo_decimal,hi_decimal"]
    for l, lo, hi in _trace_rows(spec_path, beta, depth, prec):
        out.append(f"{l},{lo},{hi},{lo.decimal()},{hi.decimal()}")
    click.echo("\n".join(out))


@main.command()
@click.option("--spec", "spec_path", required=True, help="set description (JSON)")
@click.option("--point", "point_text", required=True)
@click.option("--depth", default=analysis.DEFAULT_STAGE_BUDGET, show_default=True,
              help="stage budget for certificates")
@click.option("--precision", default="2^-6", show_default=True,
              help="ε for the convergence certificate")
@_guarded
def oscillate(spec_path: str, point_text: str, depth: int, precision: str):
    """Certify divergence or convergence of the synthesized martingale at a
    point; exit 1 when neither certificate is found within the budget."""
    _check_sizes(depth=depth)
    beta = _parse_point(point_text)
    eps = _parse_precision(precision)
    pipeline = sigma3_pipeline(_load_set_spec(spec_path))
    rep = analysis.certify_divergence(pipeline, beta, stage_budget=depth)
    if not rep.divergent:
        rep = analysis.certify_convergence(pipeline, beta, eps, stage_budget=depth)
    click.echo(f"point {beta}")
    if rep.window is not None:
        click.echo(f"window {rep.window[0]}..{rep.window[1]}")
        click.echo(f"variation {rep.variation} ({rep.variation.decimal()})")
    if rep.limit is not None:
        click.echo(f"limit {rep.limit} ({rep.limit.decimal()})")
    click.echo(f"verdict {rep.verdict}")
    if isinstance(rep.verdict, analysis.Inconclusive):
        raise SystemExit(1)


@main.command()
@click.option("--spec", "spec_path", required=True, help="set description (JSON)")
@click.option("--depth", default=10, show_default=True, help="stage index n")
@_guarded
def measure(spec_path: str, depth: int):
    """Exact per-component λ(G*_n): an upper bound on the divergence-set
    measure of each part."""
    _check_sizes(depth=depth)
    b = _load_set_spec(spec_path)
    for i, comp in enumerate(b.components):
        f = gdelta_martingale(comp)
        m = analysis.divergence_measure_bound(f, depth)
        click.echo(f"component {i} {comp.kind} lambda(G*_{depth}) = {m} ({m.decimal()})")


# ---------------------------------------------------------------------------
# verification suites


def _report(lines: list[str], ok: bool, check: str, detail: str) -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'} {check} {detail}")
    return ok


def _suite_identity(b, points, depth, truncation, eps, lines) -> bool:
    table = sigma3_pipeline(b).truncated_table(truncation, depth)
    bad = analysis.first_identity_violation(table)
    return _report(
        lines,
        bad is None,
        "identity",
        f"depth={depth} k={truncation}"
        + ("" if bad is None else f" first-violation={bad}"),
    )


def _suite_divergence(b, points, depth, truncation, eps, lines) -> bool:
    pipeline = sigma3_pipeline(b)
    ok = True
    tested = 0
    for beta in points:
        if b.membership(beta, analysis.DEFAULT_STAGE_BUDGET) is not Membership.IN:
            continue
        tested += 1
        rep = analysis.certify_divergence(pipeline, beta)
        ok &= _report(lines, rep.divergent, "divergence", f"{beta} {rep.verdict}")
    if tested == 0:
        ok = _report(lines, False, "divergence", "no in-set sample points")
    return ok


def _suite_convergence(b, points, depth, truncation, eps, lines) -> bool:
    pipeline = sigma3_pipeline(b)
    ok = True
    tested = 0
    for beta in points:
        if b.membership(beta, analysis.DEFAULT_STAGE_BUDGET) is not Membership.OUT:
            continue
        tested += 1
        rep = analysis.certify_convergence(pipeline, beta, eps)
        ok &= _report(lines, rep.convergent, "convergence", f"{beta} {rep.verdict}")
    if tested == 0:
        ok = _report(lines, False, "convergence", "no off-set sample points")
    return ok


def _suite_doob(b, points, depth, truncation, eps, lines) -> bool:
    table = sigma3_pipeline(b).truncated_table(truncation, depth)
    a, bb = Dyadic(1, 2), Dyadic(3, 2)  # (1/4, 3/4)
    stats = analysis.doob_diagnostic(table, a, bb)
    return _report(
        lines,
        stats.doob_product <= Dyadic.one(),
        "doob",
        f"(a,b)=(1/4,3/4) depth={depth} mean={stats.mean_upcrossings}",
    )


_MOY_TOLERANCE = Dyadic(1, 4)  # 2^(-4): grading granularity of the separator
_MOY_DEPTH = 24


def _interval_gap(p: tuple[Dyadic, Dyadic], q: tuple[Dyadic, Dyadic]) -> Dyadic:
    if p[0] > q[1]:
        return p[0] - q[1]
    if q[0] > p[1]:
        return q[0] - p[1]
    return Dyadic.zero()


def _suite_moy(b, points, depth, truncation, eps, lines) -> bool:
    """Mean-convergence of the stage-1 graded separator of the first
    component: along off-target branches the cylinder means must enter and
    stay within 2^(-4) of the evaluated separator value by depth 24."""
    comp: GDeltaSet = b.components[0] if b.components else None
    if comp is None:
        return _report(lines, False, "moy", "spec has no components")
    h = urysohn(comp.stage(1).complement(), comp)
    ok = True
    tested = 0
    for beta in points:
        if comp.membership(beta, analysis.DEFAULT_STAGE_BUDGET) is not Membership.OUT:
            continue
        tested += 1
        target = h.evaluate(beta, _MOY_TOLERANCE)
        rows = mean_trace(h, beta, _MOY_DEPTH, _MOY_TOLERANCE)
        entered: Optional[int] = None
        for l, lo, hi in rows:
            if _interval_gap((lo, hi), target) <= _MOY_TOLERANCE:
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


@main.command()
@click.option("--spec", "spec_path", required=True, help="set description (JSON)")
@click.option("--suite", required=True, type=click.Choice(SUITES))
@click.option("--samples", "samples_path", default=None,
              help='JSON list of points or {"points": [...]}')
@click.option("--depth", default=8, show_default=True)
@click.option("--truncation", default=3, show_default=True)
@click.option("--precision", default="2^-6", show_default=True,
              help="ε for convergence certificates")
@_guarded
def verify(spec_path: str, suite: str, samples_path: Optional[str], depth: int,
           truncation: int, precision: str):
    """Run a verification suite; exit 0 iff every check passes."""
    _check_sizes(depth=depth, truncation=truncation)
    b = _load_set_spec(spec_path)
    points = _load_samples(samples_path, list(_DEFAULT_POINTS))
    eps = _parse_precision(precision)
    lines: list[str] = []
    ok = _SUITE_RUNNERS[suite](b, points, depth, truncation, eps, lines)
    click.echo("\n".join(lines))
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
