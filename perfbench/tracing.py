"""Per-layer tracing installed from outside the program.

`install` wraps the functions and methods of each divmart module (a layer)
so that every call is counted, and every call that crosses into a layer from
another one is timed as a span.  Nothing under `src/` changes; `uninstall`
puts the originals back.

A span records its name, start, end and parent.  A single operation makes
up to 10^5 layer crossings (one table node queries the stage geometry once
per stage), so spans with the same operation, parent and name are merged
into one record that also holds the number of calls and their summed time
("busy").  Records stay in memory and are written out when the run ends.
The self time of a record is its busy time minus the busy time of its child
records; a layer's self time is the sum over its records.

Public functions and methods are wrapped, operator dunders included (they
are the public interface of `Dyadic` and `BitString`).  Calls made from
inside the same layer are counted but get no span of their own (their time
is already that layer's), except for the functions in OWN_SPAN, whose
inclusive time or inner work a metric needs.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("dyadic", "bits", "kernel", "clopen", "sets", "synthesis", "table", "analysis", "fine")
KERNEL_OPS = ("normalize", "union", "intersect", "complement", "measure", "covers", "meets", "max_len")

# Private module functions that a metric needs to see.
PRIVATE = {"synthesis._find_stage_index", "fine._decompose"}

# Dunders left alone: object protocol, or accessors too trivial to time
# (len() alone runs millions of times per pass).
SKIP = {"__new__", "__getattribute__", "__getattr__", "__setattr__", "__delattr__",
        "__init_subclass__", "__class_getitem__", "__subclasshook__", "__len__", "__hash__"}

TRUNCATED_TABLE = ("synthesis.SynthesizedMartingale.truncated_table",
                   "synthesis.CombinedMartingale.truncated_table")
STAGE_QUERIES = tuple(
    f"sets.{cls}.{fn}"
    for cls in ("GDeltaSet", "EvenZeros", "Singleton", "ExplicitGDelta")
    for fn in ("measure_stage_in", "stage_cylinder_containing", "stage_refutation_depth",
               "meets_target", "exit_stage")
)
MEASURE_STAGE_IN = tuple(n for n in STAGE_QUERIES if n.endswith(".measure_stage_in"))
STAGE_MATERIALIZED = tuple(
    f"sets.{cls}.stage" for cls in ("GDeltaSet", "EvenZeros", "Singleton", "ExplicitGDelta")
)
REGION_QUERIES = ("synthesis.StageRegion.measure_in", "synthesis.ClopenRegion.measure_in")
PIECE_MEASURES = tuple(f"fine.{cls}.measure_within_clopen"
                       for cls in ("ClopenPiece", "StageComplementChunk", "DifferencePiece"))
CERTIFY = ("analysis.certify_divergence", "analysis.certify_convergence")
EVALS = tuple(f"synthesis.{cls}.eval" for cls in
              ("SynthesizedMartingale", "CombinedMartingale", "ConstantPart", "EmbeddedMartingale"))
DUMP = ("table.dumps_document", "table.MartingaleTable.to_document")
LOAD = ("table.loads_document", "table.MartingaleTable.from_document")

# Functions that always open a span, and the counters whose growth during
# the call is credited to a derived metric (watched names, metric).
OWN_SPAN = {
    "synthesis.build_stage": None,
    "synthesis._find_stage_index": (MEASURE_STAGE_IN, "synthesis.stage_probes"),
    TRUNCATED_TABLE[0]: (REGION_QUERIES, "synthesis.region_queries"),
    TRUNCATED_TABLE[1]: (REGION_QUERIES, "synthesis.region_queries"),
    "fine._decompose": (("fine.ClosedPieceSet.measure_in",), "fine.decomp_examined"),
}


def _kernel_sizes(derived, args, result, boundary):
    # antichains are tuples; normalize also takes a list of cylinders
    derived["kernel.cyls_in"] += sum(len(a) for a in args if isinstance(a, (tuple, list)))


def _prefix_bits(derived, args, result, boundary):
    derived["bits.prefix_bits"] += args[1]


def _table_nodes(derived, args, result, boundary):
    derived["synthesis.table_nodes"] += (1 << (args[2] + 1)) - 1


def _doc_bytes(derived, args, result, boundary):
    derived["table.doc_bytes"] += len(result.encode())


def _certificate(derived, args, result, boundary):
    if boundary:  # the caller's request, not a certifier's own sub-query
        derived["analysis.certs"] += 1
        derived["analysis.certified"] += result.verdict.kind.startswith("Certified")


def _cache_probe(derived, args):
    piece_set, k = args[0], args[1]
    derived["fine.cache_hits"] += k._ac in piece_set._measure_cache


# name -> hook(derived, args, result, boundary), run after the call
AFTER = {**{f"kernel.{op}": _kernel_sizes for op in KERNEL_OPS},
         "bits.Point.prefix": _prefix_bits,
         TRUNCATED_TABLE[0]: _table_nodes, TRUNCATED_TABLE[1]: _table_nodes,
         "table.dumps_document": _doc_bytes,
         CERTIFY[0]: _certificate, CERTIFY[1]: _certificate}
# name -> hook(derived, args), run before the call
BEFORE = {"fine.ClosedPieceSet.measure_within_clopen": _cache_probe}


class Node:
    """A merged span: every call of `name` made from the same parent span
    during one operation."""

    __slots__ = ("name", "layer", "parent", "children", "calls", "busy", "start", "end")

    def __init__(self, name: str, parent) -> None:
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.children = {}
        self.calls = 0
        self.busy = 0.0
        self.start = None
        self.end = None

    def close(self, t0: float, t1: float) -> None:
        self.calls += 1
        self.busy += t1 - t0
        if self.start is None:
            self.start = t0
        self.end = t1


class Tracer:
    """Counters and span records for one traced pass."""

    def __init__(self) -> None:
        self.calls = Counter()  # wrapped function name -> calls
        self.derived = Counter()  # metric name -> count derived from arguments/results
        self.records = []
        self.stack = []
        self.ops = 0

    def child(self, name: str) -> Node:
        parent = self.stack[-1]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node(name, parent)
        return node

    @contextmanager
    def op(self, name: str):
        """Root span of one operation; its records are flushed at the end."""
        root = Node(name, None)
        self.stack.append(root)
        t0 = perf_counter()
        try:
            yield
        finally:
            root.close(t0, perf_counter())
            self.stack.pop()
            self._flush(root)
            self.ops += 1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a CLI subprocess)."""
        node = self.child(name)
        self.stack.append(node)
        t0 = perf_counter()
        try:
            yield
        finally:
            node.close(t0, perf_counter())
            self.stack.pop()

    def _flush(self, root: Node) -> None:
        todo = [(root, None)]
        while todo:
            node, parent_id = todo.pop()
            rid = len(self.records)
            self.records.append({
                "id": rid, "op": self.ops, "parent": parent_id, "name": node.name,
                "start": node.start, "end": node.end, "calls": node.calls, "busy": node.busy,
            })
            todo.extend((c, rid) for c in node.children.values())


def self_times(records) -> dict:
    """Self time per layer: each record's busy time minus its children's."""
    covered = defaultdict(float)
    for r in records:
        if r["parent"] is not None:
            covered[r["parent"]] += r["busy"]
    out = defaultdict(float)
    for r in records:
        out[r["name"].split(".", 1)[0]] += r["busy"] - covered[r["id"]]
    return dict(out)


# ---------------------------------------------------------------------------
# wrappers


def _wrap(tracer: Tracer, name: str, fn):
    layer = name.split(".", 1)[0]
    calls, derived, stack, child = tracer.calls, tracer.derived, tracer.stack, tracer.child
    own = name in OWN_SPAN
    watch = OWN_SPAN.get(name)
    before, after = BEFORE.get(name), AFTER.get(name)

    if inspect.isgeneratorfunction(fn):
        def traced_generator(*args, **kwargs):
            if stack:
                calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                if not stack:
                    item = next(it, StopIteration)
                else:
                    node = child(name)
                    mark = sum(calls[w] for w in watch[0]) if watch else 0
                    stack.append(node)
                    t0 = perf_counter()
                    try:
                        item = next(it, StopIteration)
                    finally:
                        node.close(t0, perf_counter())
                        stack.pop()
                        if watch:
                            derived[watch[1]] += sum(calls[w] for w in watch[0]) - mark
                if item is StopIteration:
                    return
                yield item

        return traced_generator

    if not (own or before or after):
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            calls[name] += 1
            if stack[-1].layer == layer:
                return fn(*args, **kwargs)
            node = child(name)
            stack.append(node)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                node.close(t0, perf_counter())
                stack.pop()

        return traced

    def traced_hooked(*args, **kwargs):
        if not stack:
            return fn(*args, **kwargs)
        calls[name] += 1
        if before:
            before(derived, args)
        boundary = stack[-1].layer != layer
        if not (own or boundary):
            result = fn(*args, **kwargs)
        else:
            node = child(name)
            mark = sum(calls[w] for w in watch[0]) if watch else 0
            stack.append(node)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.close(t0, perf_counter())
                stack.pop()
                if watch:
                    derived[watch[1]] += sum(calls[w] for w in watch[0]) - mark
        if after:
            after(derived, args, result, boundary)
        return result

    return traced_hooked


def _wrap_attr(tracer, owner, attr, name, raw, undo):
    if isinstance(raw, staticmethod):
        new = staticmethod(_wrap(tracer, name, raw.__func__))
    elif isinstance(raw, classmethod):
        new = classmethod(_wrap(tracer, name, raw.__func__))
    elif isinstance(raw, property):
        getter = _wrap(tracer, name, raw.fget) if raw.fget else None
        new = property(getter, raw.fset, raw.fdel, raw.__doc__)
    elif inspect.isfunction(raw):
        new = _wrap(tracer, name, raw)
    else:
        return
    undo.append((owner, attr, raw))
    setattr(owner, attr, new)


def install(tracer: Tracer) -> list:
    """Wrap every layer's functions; returns what `uninstall` restores."""
    undo = []
    for layer in LAYERS:
        module = importlib.import_module(f"divmart.{layer}")
        if layer == "kernel":
            for op in KERNEL_OPS:
                _wrap_attr(tracer, module, op, f"kernel.{op}", getattr(module, op), undo)
            continue
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            if inspect.isfunction(obj) and (not attr.startswith("_") or f"{layer}.{attr}" in PRIVATE):
                _wrap_attr(tracer, module, attr, f"{layer}.{attr}", obj, undo)
            elif inspect.isclass(obj) and not issubclass(obj, (tuple, BaseException)) and type(obj) is type:
                for name, raw in list(vars(obj).items()):
                    if name not in SKIP and (name.startswith("__") or not name.startswith("_")):
                        _wrap_attr(tracer, obj, name, f"{layer}.{obj.__name__}.{name}", raw, undo)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass (units in run.PER_LAYER)."""
    calls, derived, records = tracer.calls, tracer.derived, tracer.records
    selfs = self_times(records)
    busy = defaultdict(float)
    for r in records:
        busy[r["name"]] += r["busy"]

    def total(names):
        return sum(calls[n] for n in names)

    def prefixed(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    stages = calls["synthesis.build_stage"]
    nodes = derived["synthesis.table_nodes"]
    cache_calls = calls["fine.ClosedPieceSet.measure_within_clopen"]
    out = {
        "kernel.calls": prefixed("kernel."),
        "kernel.cyls_in": derived["kernel.cyls_in"],
        "clopen.calls": prefixed("clopen."),
        "fine.levels_built": calls["fine.lusin_menchoff"],
        "fine.decomp_examined": derived["fine.decomp_examined"],
        "fine.piece_measure_calls": total(PIECE_MEASURES),
        "fine.cache_hit_ratio": _ratio(derived["fine.cache_hits"], cache_calls),
        "bits.prefix_calls": calls["bits.Point.prefix"],
        "bits.prefix_bits": derived["bits.prefix_bits"],
        "sets.stage_queries": total(STAGE_QUERIES),
        "sets.stage_materialized": total(STAGE_MATERIALIZED),
        "synthesis.stages_built": stages,
        "synthesis.stage_probes": derived["synthesis.stage_probes"],
        "synthesis.probes_per_stage": _ratio(derived["synthesis.stage_probes"], stages),
        "synthesis.build_s": busy["synthesis.build_stage"],
        "synthesis.table_nodes": nodes,
        "synthesis.region_queries_per_node": _ratio(derived["synthesis.region_queries"], nodes),
        "synthesis.table_s": sum(busy[n] for n in TRUNCATED_TABLE),
        "synthesis.eval_calls": total(EVALS),
        "dyadic.new": calls["dyadic.Dyadic.__init__"],
        "table.doc_bytes": derived["table.doc_bytes"],
        "table.dump_s": sum(busy[n] for n in DUMP),
        "table.load_s": sum(busy[n] for n in LOAD),
        "analysis.certs": derived["analysis.certs"],
        "analysis.certified_ratio": _ratio(derived["analysis.certified"], derived["analysis.certs"]),
        "analysis.cert_s": sum(busy[n] for n in CERTIFY),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return out


def command_ms(records, commands) -> dict:
    """Median wall time of each CLI subcommand span, in milliseconds."""
    per = defaultdict(list)
    for r in records:
        if r["name"].startswith("cli."):
            per[r["name"][4:]].append(1000 * r["busy"] / r["calls"])
    return {f"cli.cmd_ms.{c}": statistics.median(per[c]) if per[c] else 0.0 for c in commands}
