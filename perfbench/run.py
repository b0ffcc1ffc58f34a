"""divmart benchmark: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload {table,deep,separator,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/` (nothing needs installing).  Each run drives one workload as a closed
loop with one client: an operation is issued only after the previous one
returned and its output was checked (see workloads.py).

--trace 0  runs the workload's reference prefix, then more operations until
           S seconds of operation time (and MIN_SAMPLES operations) are
           reached, and prints the end-to-end metrics.
--trace 1  runs the reference prefix twice, untraced and then with the layer
           wrappers of tracing.py installed, and prints the per-layer
           metrics, including the tracing overhead.  Spans are written to
           .perfbench-out/.

Times are reported in reference seconds.  The machines this runs on share
their cores, and the same operation can take 1.5x longer from one second to
the next.  So a fixed probe that does not involve divmart is timed between
operations, every so much operation time (see PROBES), and each
operation's time is scaled by the probe's reference time over the median of
the probe samples taken within CAL_WINDOW_S (or the operation's own
duration, if longer) of it.  In-process work is scaled by a standard-library
task (`fraction_task`, reference FRACTION_REF_S); subprocess work (the cli
workload and set-up time) by a bare interpreter start (`interpreter_start`,
reference START_REF_S), which tracks process start-up costs much better.
On a machine where a probe takes its reference time, reference seconds are
seconds.  The raw figures are printed beside them.

Every output is checked; for DEFAULT_SEED the reference prefix must also
reproduce the digest in expected.json.  A failed check makes the command
exit 1 after printing its result line; a checkout without the divmart
sources makes it exit 2 without one.  The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import Tracer, command_ms, install, layer_metrics, uninstall
from workloads import WORKLOADS, python_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
MIN_SAMPLES = 100  # so that at least ten latencies lie beyond the 90th percentile
SETUP_PROBES = 11
STARTUP_PROBES = 5
MICRO_REPEAT = 5
MICRO_BATCH = 2000
CAL_STEPS = 150
FRACTION_REF_S = 0.0015
START_REF_S = 0.06
CAL_WINDOW_S = 0.5

END_TO_END = {
    "ops_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
CLI_COMMANDS = ("synthesize", "trace", "oscillate", "measure", "verify")
MICRO_OPS = ("normalize", "union", "intersect", "complement", "measure", "covers", "meets", "max_len")
PER_LAYER = {
    "kernel.calls": "count", "kernel.cyls_in": "count", "kernel.self_s": "s",
    **{f"kernel.micro_{op}_us": "us" for op in MICRO_OPS},
    "clopen.calls": "count", "clopen.self_s": "s",
    "fine.levels_built": "count", "fine.decomp_examined": "count",
    "fine.piece_measure_calls": "count", "fine.cache_hit_ratio": "ratio", "fine.self_s": "s",
    "bits.prefix_calls": "count", "bits.prefix_bits": "count", "bits.self_s": "s",
    "sets.stage_queries": "count", "sets.stage_materialized": "count", "sets.self_s": "s",
    "synthesis.stages_built": "count", "synthesis.stage_probes": "count",
    "synthesis.probes_per_stage": "ratio", "synthesis.build_s": "s",
    "synthesis.table_nodes": "count", "synthesis.region_queries_per_node": "ratio",
    "synthesis.table_s": "s", "synthesis.eval_calls": "count", "synthesis.self_s": "s",
    "dyadic.new": "count", "dyadic.self_s": "s",
    "table.doc_bytes": "bytes", "table.dump_s": "s", "table.load_s": "s", "table.self_s": "s",
    "analysis.certs": "count", "analysis.certified_ratio": "ratio", "analysis.cert_s": "s",
    "analysis.self_s": "s",
    "cli.startup_s": "s", "cli.import_s": "s",
    **{f"cli.cmd_ms.{c}": "ms" for c in CLI_COMMANDS},
    "bench.trace_overhead": "ratio",
}


# ---------------------------------------------------------------------------
# measuring


def fraction_task() -> float:
    """Seconds taken by a fixed standard-library task (fractions, big
    integers, small objects, dict and list traffic: the mix divmart runs on).
    Nothing in it depends on divmart, so it measures only machine speed."""
    t0 = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, CAL_STEPS):
        acc += Fraction(i, 1 << (i % 60))
        table[(i, i >> 3)] = [i] * 3
        acc -= Fraction(int(format(i, "b").zfill(12), 2), 1 << 70)
    return perf_counter() - t0


def run_python(code: str) -> float:
    """Wall seconds of a child interpreter that imports from src and runs code."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=python_env(str(SRC)), check=True,
                   stdout=subprocess.DEVNULL, cwd=ROOT)
    return perf_counter() - t0


def interpreter_start() -> float:
    return run_python("pass")


# probe: (function, reference seconds, least operation time between samples)
PROBES = {
    "fraction": (fraction_task, FRACTION_REF_S, 0.05),
    "interpreter": (interpreter_start, START_REF_S, 0.3),
}


class SpeedLog:
    """Speed probe samples and when they were taken."""

    def __init__(self, probe: str) -> None:
        self.probe, self.ref, self.every = PROBES[probe]
        self.times = []
        self.samples = []

    def sample(self) -> float:
        self.times.append(perf_counter())
        self.samples.append(self.probe())
        return self.samples[-1]

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per raw second over [start, end]."""
        reach = max(CAL_WINDOW_S, end - start)
        near = self.samples[bisect_left(self.times, start - reach):bisect_right(self.times, end + reach)]
        return self.ref / statistics.median(near)


def timed_children(code: str, probes: int, speed: str) -> list:
    """Reference-second wall times of child interpreters running code, after
    one untimed warm-up run."""
    run_python(code)
    log = SpeedLog(speed)
    spans = []
    for _ in range(probes):
        log.sample()
        t0 = perf_counter()
        spans.append((t0, t0 + run_python(code)))
    log.sample()
    return [(t1 - t0) * log.scale(t0, t1) for t0, t1 in spans]


def percentile(values: list, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # Linux reports KiB


# ---------------------------------------------------------------------------
# the closed loop


class Pass:
    """Outcome of driving a sequence of operations."""

    def __init__(self, speed: str) -> None:
        self.starts = []
        self.latencies = []  # raw seconds per operation
        self.speed = SpeedLog(speed)
        self.failures = []
        self.digest = hashlib.sha256()

    def scales(self) -> list:
        return [self.speed.scale(t0, t0 + dt) for t0, dt in zip(self.starts, self.latencies)]

    def reference_latencies(self) -> list:
        return [t * s for t, s in zip(self.latencies, self.scales())]


def drive(workload, lib, workdir, ops, seconds: float, min_ops: int, n_ref: int, tracer=None) -> Pass:
    """Issue operations one at a time.  The first n_ref (the reference
    prefix, which feeds the digest) always run; then operations continue
    until `seconds` (reference seconds) of further operation time and
    `min_ops` operations in all are reached, or `ops` ends.  Checking and
    calibration are not timed."""
    result = Pass(workload.speed_probe)
    runner = workload.runner(lib, workdir)
    check = workload.checker()
    since_cal = math.inf
    extra = 0.0
    for i, op in enumerate(ops):
        if i >= max(min_ops, n_ref) and extra >= seconds:
            break
        runner.prepare(op)
        if since_cal >= result.speed.every:
            scale = result.speed.ref / result.speed.sample()
            since_cal = 0.0
        raised = None
        t0 = perf_counter()
        try:
            if tracer is None:
                out = runner.run(op)
            else:
                with tracer.op(f"bench.op.{op['kind']}"):
                    if "cmd" in op:
                        with tracer.span(f"cli.{op['cmd']}"):
                            out = runner.run(op)
                    else:
                        out = runner.run(op)
        except Exception:  # an operation must never stop the loop
            raised = traceback.format_exc()
        dt = perf_counter() - t0
        since_cal += dt
        if i >= n_ref:
            extra += dt * scale  # counted in reference seconds: the same work on a busy machine
        result.starts.append(t0)
        result.latencies.append(dt)
        if raised is None:
            try:
                out = runner.finish(op, out)
                problem = check(op, out)
            except Exception:
                problem = "check raised:\n" + traceback.format_exc()
        else:
            out = ("raised", raised.strip().splitlines()[-1])
            problem = "operation raised:\n" + raised
        if problem:
            result.failures.append(f"op {i} {json.dumps(op)[:300]}: {problem}")
        if i < n_ref:
            result.digest.update(repr(workload.digest_item(out)).encode())
    result.speed.sample()
    return result


def expected_digest(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload)


def check_digest(name: str, seed: int, n_ref: int, passes) -> list:
    want = expected_digest(name, seed)
    out = []
    for p in passes:
        got = p.digest.hexdigest()
        print(f"reference digest ({n_ref} ops): {got}")
        if want is not None and got != want:
            out.append(f"default-seed output digest {got} != expected {want}")
    return out


# ---------------------------------------------------------------------------
# kernel micro cases (those of benchmarks/bench_kernel.py, live kernel only)


def kernel_micro(seed: int) -> dict:
    from divmart import kernel

    rng = random.Random(f"kernel:{seed}")

    def antichain(count, depth=26):
        return tuple(sorted((depth, v) for v in rng.sample(range(1 << depth), count)))

    deep_a, deep_b = antichain(MICRO_BATCH), antichain(MICRO_BATCH)
    raw = list(deep_a) + list(deep_b)
    rng.shuffle(raw)
    a, b = kernel.normalize(deep_a), kernel.normalize(deep_b)
    u = kernel.union(a, b)
    cases = {
        "normalize": (kernel.normalize, (raw,)), "union": (kernel.union, (a, b)),
        "intersect": (kernel.intersect, (a, b)), "complement": (kernel.complement, (u,)),
        "measure": (kernel.measure, (u,)), "covers": (kernel.covers, (u, 30, 0)),
        "meets": (kernel.meets, (u, 30, 1)), "max_len": (kernel.max_len, (u,)),
    }
    log = SpeedLog("fraction")
    best = {}
    for op, (fn, args) in cases.items():
        for _ in range(MICRO_REPEAT):
            log.sample()
            t0 = perf_counter()
            fn(*args)
            best[op] = min(best.get(op, (math.inf,)), (perf_counter() - t0, t0))
    log.sample()
    return {f"kernel.micro_{op}_us": 1e6 * dt * log.scale(t0, t0 + dt) for op, (dt, t0) in best.items()}


# ---------------------------------------------------------------------------
# the two modes


def end_to_end(workload, lib, args, workdir) -> tuple[dict, int, list]:
    module = "divmart.cli" if workload.name == "cli" else "divmart"
    setup = timed_children(f"import {module}", SETUP_PROBES, "interpreter")
    n_ref = len(workload.reference_ops(args.seed))
    p = drive(workload, lib, workdir, workload.ops(args.seed), args.seconds, MIN_SAMPLES, n_ref)
    failures = p.failures + check_digest(workload.name, args.seed, n_ref, [p])
    n = len(p.latencies)
    metrics, raw = {}, {}
    for out, lat in ((metrics, p.reference_latencies()), (raw, p.latencies)):
        p50, _ = percentile(lat, 0.5)
        p90, beyond = percentile(lat, 0.9)
        out.update(ops_per_s=n / sum(lat), lat_p50_ms=1000 * p50, lat_p90_ms=1000 * p90)
    metrics.update(ok_ratio=(n - len(p.failures)) / n, setup_s=statistics.median(setup),
                   peak_rss_mb=peak_rss_mb())
    samples = {"ops_per_s": n, "lat_p50_ms": n, "lat_p90_ms": f"{n}, {beyond} beyond p90",
               "ok_ratio": n, "setup_s": SETUP_PROBES, "peak_rss_mb": 1}
    print(f"operations: {n} ({n_ref} reference), {len(p.speed.samples)} calibration samples, "
          f"median {1000 * statistics.median(p.speed.samples):.3f} ms (reference {1000 * p.speed.ref} ms)")
    print(f"{'metric':<14}{'value':>14}  {'unit':<6}{'raw':>14}  samples")
    for name, value in metrics.items():
        shown = f"{raw[name]:>14.6g}" if name in raw else " " * 14
        print(f"{name:<14}{value:>14.6g}  {END_TO_END[name]:<6}{shown}  {samples[name]}")
    print(f"{'fail_ratio':<14}{len(p.failures) / n:>14.6g}  {'ratio':<6}{'':>14}  {n}")
    return metrics, n, failures


def traced(workload, lib, args, workdir) -> tuple[dict, int, list]:
    ops = workload.reference_ops(args.seed)
    n = len(ops)
    plain = drive(workload, lib, workdir, ops, 0, n, n)
    tracer = Tracer()
    undo = install(tracer)
    try:
        with_trace = drive(workload, lib, workdir, ops, 0, n, n, tracer)
    finally:
        uninstall(undo)
    failures = plain.failures + with_trace.failures
    failures += check_digest(workload.name, args.seed, n, [plain, with_trace])
    if plain.digest.digest() != with_trace.digest.digest():
        failures.append("traced outputs differ from untraced outputs")
    scales = with_trace.scales()
    for record in tracer.records:  # busy in reference seconds from here on
        record["raw_busy"] = record["busy"]
        record["busy"] *= scales[record["op"]]
    startup = statistics.median(timed_children("pass", STARTUP_PROBES, "fraction"))
    with_cli = statistics.median(timed_children("import divmart.cli", STARTUP_PROBES, "fraction"))
    metrics = layer_metrics(tracer)
    metrics.update(kernel_micro(args.seed))
    metrics.update(command_ms(tracer.records, CLI_COMMANDS))
    metrics.update({
        "cli.startup_s": startup,
        "cli.import_s": with_cli - startup,
        "bench.trace_overhead": sum(with_trace.reference_latencies()) / sum(plain.reference_latencies()),
    })
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        header = {"env": environment(args), "calls": tracer.calls, "derived": tracer.derived}
        fh.write(json.dumps(header) + "\n")
        for record in tracer.records:
            fh.write(json.dumps(record) + "\n")
    print(f"{len(tracer.records)} span records written to {path.relative_to(ROOT)}")
    for name in PER_LAYER:
        print(f"{name:<36}{metrics[name]:>16.6g}  {PER_LAYER[name]}")
    return metrics, 2 * n, failures


def environment(args) -> dict:
    from divmart import KERNEL_NAME

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "kernel": KERNEL_NAME, "python": platform.python_version(),
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "divmart" / "__init__.py").is_file():
        print(f"perfbench: no divmart sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import divmart

    workload = WORKLOADS[args.workload]
    print("perfbench " + " ".join(f"{k}={v}" for k, v in environment(args).items()))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        mode = traced if args.trace else end_to_end
        metrics, attempted, failures = mode(workload, divmart, args, workdir)
    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
