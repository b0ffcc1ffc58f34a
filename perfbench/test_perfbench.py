"""Tests for the benchmark itself: python3 -m pytest perfbench -q"""

import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    import divmart

    return divmart


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    w = WORKLOADS[name]
    first = w.reference_ops(7)
    assert first == w.reference_ops(7)
    assert first == list(itertools.islice(w.ops(7), len(first)))
    assert first != w.reference_ops(8)
    later = list(itertools.islice(w.ops(7), 300))
    assert later == list(itertools.islice(w.ops(7), 300))


def test_sizes_cycle_without_replacement():
    rng = workloads.Draws("x")
    drawn = [rng.cycle("k", range(5)) for _ in range(10)]
    assert sorted(drawn[:5]) == sorted(drawn[5:]) == list(range(5))


def test_point_helpers_agree_with_the_definitions():
    rng = workloads.Draws("points")
    for _ in range(200):
        p = workloads.random_point(rng)
        assert workloads.first_difference(p, workloads.respell(rng, p)) is None
        n = rng.randint(0, 40)
        q = workloads.leave_after(rng, p, n)
        assert workloads.first_difference(p, q) == n
        assert workloads.in_even_zeros(workloads.even_zeros_point(rng))
        assert not workloads.in_even_zeros(workloads.off_even_zeros_point(rng, rng.randint(0, 4)))


# ---------------------------------------------------------------------------
# the closed loop and its statistics


class FastWorkload(workloads.Workload):
    """Trivial operations, so only the loop's own rules decide the count."""

    name = "fast"

    def rounds(self, rng, r):
        return [{"kind": "echo", "value": rng.randint(0, 9)} for _ in range(3)]

    def runner(self, lib, workdir):
        return EchoRunner()

    def check(self, op, out):
        return None if out == op["value"] else f"echoed {out}"


class EchoRunner(workloads.Runner):
    def run(self, op):
        return op["value"]


def test_p90_has_ten_samples_beyond_it(tmp_path):
    p = run.drive(FastWorkload(), None, str(tmp_path), FastWorkload().ops(1), 0.0, run.MIN_SAMPLES, 0)
    assert len(p.latencies) == run.MIN_SAMPLES
    _, beyond = run.percentile(p.latencies, 0.9)
    assert beyond >= 10
    assert run.percentile(list(range(1, 101)), 0.9) == (90, 10)
    assert run.percentile(list(range(1, 101)), 0.5) == (50, 50)


def test_reference_prefix_always_runs(tmp_path):
    w = FastWorkload()
    p = run.drive(w, None, str(tmp_path), w.ops(1), 0.0, 0, 150)
    assert len(p.latencies) == 150
    assert len(p.scales()) == 150 and all(s > 0 for s in p.scales())


def test_scale_uses_the_samples_near_the_timing():
    log = run.SpeedLog("fraction")
    log.times = [0.0, 1.0, 2.0, 10.0]
    log.samples = [log.ref, log.ref, log.ref, 2 * log.ref]
    assert log.scale(1.0, 1.1) == 1.0
    assert log.scale(10.0, 10.1) == 0.5  # a slow stretch: raw times shrink


# ---------------------------------------------------------------------------
# checks detect corrupted outputs


class CorruptingRunner(workloads.Runner):
    """Runs the real operation, then damages its output."""

    def __init__(self, inner, damage):
        self.inner, self.damage = inner, damage

    def prepare(self, op):
        self.inner.prepare(op)

    def run(self, op):
        return self.inner.run(op)

    def finish(self, op, out):
        return self.damage(op, self.inner.finish(op, out))


def flip_table_value(op, out):
    text, loaded, branch = out
    doc = json.loads(text)
    doc["values"][-1]["num"] = str(int(doc["values"][-1]["num"]) + 2)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", loaded, branch


def test_corrupted_table_document_fails(tmp_path, lib, monkeypatch):
    w = WORKLOADS["table"]
    ops = [op for op in w.reference_ops(1) if op["depth"] <= 8][:3]
    clean = run.drive(w, lib, str(tmp_path), ops, 0.0, len(ops), len(ops))
    assert clean.failures == []
    real_runner = type(w).runner
    monkeypatch.setattr(type(w), "runner",
                        lambda self, lib, wd: CorruptingRunner(real_runner(self, lib, wd), flip_table_value))
    bad = run.drive(w, lib, str(tmp_path), ops, 0.0, len(ops), len(ops))
    assert len(bad.failures) == len(ops)
    assert "identity" in bad.failures[0] or "[0, 1]" in bad.failures[0]
    assert bad.digest.digest() != clean.digest.digest()


def test_checks_reject_wrong_answers():
    deep = WORKLOADS["deep"].checker()
    spec = workloads.sigma3([workloads.singleton("(01)")])
    op = {"kind": "certify", "spec": spec, "point": "0(10)"}
    assert deep(op, ("CertifiedDivergent", (1, 3), (0, 1))) is None
    assert deep(op, ("CertifiedConvergent", 4, (1, 1))) is not None
    assert deep({"kind": "measure", "spec": spec, "n": 3}, [(1, 15)]) is None
    assert deep({"kind": "measure", "spec": spec, "n": 3}, [(1, 16)]) is not None

    sep = WORKLOADS["separator"].checker()
    target = workloads.singleton("(01)")
    query = {"kind": "query", "query": "eval", "target": target, "j": 2, "n": 3, "group": (0, 0)}
    assert sep(dict(query, points=["011(0)"]), [((5, 3), (3, 2))]) is None
    assert sep(dict(query, points=["0111(0)"]), [((0, 0), (1, 0))]) is not None  # wider than 2^-3
    assert sep(dict(query, points=["(01)"]), [((1, 1), (1, 0))]) is not None  # not 1 on the target
    assert sep(dict(query, points=["1(0)"]), [((0, 0), (0, 0))]) is None  # 0 on C
    assert sep(dict(query, n=4, points=["011(0)"]), [((0, 0), (1, 4))]) is not None  # not nested
    capped = {"kind": "capped"}
    assert sep(capped, ("horizon", workloads.CAP_BUDGET)) is None
    assert sep(capped, ("finished",)) is not None

    cli = WORKLOADS["cli"].checker()
    bad = {"cmd": "bad", "bad": ["oscillate", "point", "x(1)"]}
    assert cli(bad, (2, "", "parse error: bad point", None)) is None
    assert cli(bad, (1, "", "Traceback (most recent call last)", None)) is not None
    osc = {"cmd": "oscillate", "spec": workloads.sigma3([workloads.EVEN_ZEROS]), "point": "(0)"}
    assert cli(osc, (0, "point (0)\nverdict CertifiedDivergent(osc ≥ 1/2^3)\n", "", None)) is None
    assert cli(osc, (0, "point (0)\nverdict CertifiedConvergent(depth 1)\n", "", None)) is not None


class WrongFastWorkload(FastWorkload):
    def check(self, op, out):
        return "deliberately wrong" if op["value"] == 3 else None


def test_a_failed_check_fails_the_command(monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKLOADS", {"fast": WrongFastWorkload()})
    assert run.main(["--workload", "fast", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert result["attempted"] >= run.MIN_SAMPLES


def test_digest_mismatch_is_a_failure(tmp_path):
    w = FastWorkload()
    p = run.drive(w, None, str(tmp_path), w.reference_ops(1), 0.0, 0, 3)
    assert run.check_digest("table", run.DEFAULT_SEED, 3, [p])  # not the table digest
    assert run.check_digest("table", run.DEFAULT_SEED + 1, 3, [p]) == []


def test_missing_sources_exit_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "table", "--seconds", "1"]) == 2
    assert "correct" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_children():
    def rec(i, parent, name, busy):
        return {"id": i, "op": 0, "parent": parent, "name": name, "start": 0.0, "end": busy,
                "calls": 1, "busy": busy}

    records = [
        rec(0, None, "bench.op.table", 10.0),
        rec(1, 0, "synthesis.build_stage", 6.0),
        rec(2, 1, "sets.Singleton.measure_stage_in", 2.5),
        rec(3, 2, "bits.Point.prefix", 1.0),
        rec(4, 0, "table.dumps_document", 3.0),
        rec(5, 1, "dyadic.Dyadic.__add__", 0.5),
    ]
    assert tracing.self_times(records) == {
        "bench": 1.0, "synthesis": 3.0, "sets": 1.5, "bits": 1.0, "table": 3.0, "dyadic": 0.5,
    }


def traced_counts(w, lib, ops, tmp_path):
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        p = run.drive(w, lib, str(tmp_path), ops, 0.0, len(ops), len(ops), tracer)
    finally:
        tracing.uninstall(undo)
    assert p.failures == []
    return tracer


def test_traced_counts_repeat_and_wrappers_come_off(tmp_path, lib):
    from divmart import dyadic

    before = dyadic.Dyadic.__add__
    w = WORKLOADS["table"]
    ops = [op for op in w.reference_ops(2) if op["depth"] <= 8][:4]
    a = traced_counts(w, lib, ops, tmp_path)
    b = traced_counts(w, lib, ops, tmp_path)
    assert dyadic.Dyadic.__add__ is before
    assert a.calls == b.calls and a.derived == b.derived
    ma, mb = tracing.layer_metrics(a), tracing.layer_metrics(b)
    counts = [k for k, unit in run.PER_LAYER.items() if unit == "count" and k in ma]
    assert {k: ma[k] for k in counts} == {k: mb[k] for k in counts}
    assert ma["kernel.calls"] == 0 and ma["synthesis.table_nodes"] > 0
    assert ma["table.doc_bytes"] > 0 and ma["dyadic.new"] > 0
    total = sum(r["busy"] for r in a.records if r["parent"] is None)
    assert sum(tracing.self_times(a.records).values()) == pytest.approx(total)


def test_separator_queries_reach_the_kernel(tmp_path, lib):
    w = WORKLOADS["separator"]
    ops = [op for op in w.reference_ops(1) if op["kind"] == "query"][:6]
    m = tracing.layer_metrics(traced_counts(w, lib, ops, tmp_path))
    assert m["kernel.calls"] > 0 and m["fine.levels_built"] > 0


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    layers = set(tracing.layer_metrics(tracing.Tracer()))
    assert layers <= set(run.PER_LAYER)


def test_layer_map_covers_every_per_layer_metric_once():
    layers = json.loads((HERE / "layers.json").read_text())
    assert set(layers["workloads"]) == set(WORKLOADS)
    named = [m for group in layers["moves"] for m in group["metrics"]]
    assert sorted(named) == sorted(run.PER_LAYER)
    for group in layers["moves"]:
        for metric, workload in group["end_to_end"]:
            assert metric in run.END_TO_END and workload in WORKLOADS
        assert set(group["still"]) <= set(WORKLOADS)
