"""Exact finite martingale tables and their on-disk document format.

A table is one dyadic value per node of the binary tree up to a fixed
depth, in breadth-first order (index 2^l - 1 + v for the node of length l
and value v).  Everything here is exact: identity checks compare dyadics
with zero tolerance, and serialization round-trips losslessly.

A table keeps its values as identity runs: maximal stretches of
breadth-first indices holding one value object.  A settled subtree shares
its root's value object, one run per level below it, so a depth-20 table
of 2,097,151 nodes has a few thousand runs.  Building, `value(s)` (one
bisection) and document writing cost per run, not per node: only C-level
passes (`repeat`, `groupby`, `list`) touch every node.  `from_document`
still visits every node, but parses each distinct (num, exp) pair once.
Reading `values` expands the runs into a flat list.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from itertools import chain, groupby, islice, repeat
from operator import sub
from typing import Any, Callable, Iterator, Optional

from .bits import BitString
from .dyadic import Dyadic
from .errors import HorizonExhausted, ParseError

FORMAT_VERSION = 1
DOCUMENT_KIND = "martingale-table"

# Table-size budget: the most nodes a table may have, 2^21 - 1 (depth 20).
# A table's runs are few, but its document holds every node, so a deeper
# request fails up front instead of writing an unbounded document.
TABLE_NODE_CAP = (1 << 21) - 1


def _node_index(s: BitString) -> int:
    return (1 << len(s)) - 1 + s.v


class MartingaleTable:
    """Total dyadic-valued map on tree nodes of length ≤ depth.

    Run i holds the value object `_objs[i]` at the breadth-first indices
    from `_starts[i]` up to the next run's start (the last run ends at the
    table's size); neighbouring runs hold distinct objects."""

    def __init__(self, depth: int, values: list):
        if depth < 0:
            raise ValueError("depth must be ≥ 0")
        want = (1 << (depth + 1)) - 1
        if len(values) != want:
            raise ValueError(f"need {want} values for depth {depth}, got {len(values)}")
        self.depth = depth
        self._starts: list[int] = []
        self._objs: list = []
        i = 0
        for _, run in groupby(values, id):
            run = list(run)
            self._starts.append(i)
            self._objs.append(run[0])
            i += len(run)

    @staticmethod
    def from_entries(
        depth: int, entry: Callable[[BitString, Any], tuple[Dyadic, bool, Any]]
    ) -> "MartingaleTable":
        """Build the table by one top-down descent over the live nodes.

        entry(s, up) gives the value at s, whether s is *settled* (every
        node below s carries the same value), and a state handed down as
        `up` to both children of s; the root gets up = None.  The state
        lets an entry skip work that an ancestor already settled.  A
        settled node's value object is kept as one run per deeper level,
        the node's subtree on that level, and entry is never asked below
        it; a live node's two children are asked on the next level.
        The table is therefore exactly the one that entry gives at every
        node, whenever the settled claims are true.

        Raises HorizonExhausted, before computing anything, when the table
        would have more than TABLE_NODE_CAP nodes."""
        if depth < 0:
            raise ValueError("depth must be ≥ 0")
        size = (1 << (depth + 1)) - 1
        if size > TABLE_NODE_CAP:
            raise HorizonExhausted(
                f"table-size budget of {TABLE_NODE_CAP} nodes "
                f"(depth ≤ {TABLE_NODE_CAP.bit_length() - 1})",
                f"depth {depth} needs {size} nodes",
            )
        starts: list[int] = []
        objs: list = []
        # Level l, in order of position v: (v, True, value) for a settled
        # run, from v up to the next item's position, and (v, False, up) for
        # a live node, which asks entry.  A settled run starts at 2v one
        # level down, and a live node's children are at 2v and 2v + 1.
        row = [(0, False, None)]
        for l in range(depth + 1):
            base = (1 << l) - 1
            below = []
            for v, settled, x in row:
                if settled:
                    value = x
                else:
                    value, settled, down = entry(BitString.raw(l, v), x)
                if not objs or objs[-1] is not value:
                    starts.append(base + v)
                    objs.append(value)
                if settled:
                    below.append((2 * v, True, value))
                else:
                    below += ((2 * v, False, down), (2 * v + 1, False, down))
            row = below
        table = MartingaleTable.__new__(MartingaleTable)
        table.depth, table._starts, table._objs = depth, starts, objs
        return table

    def _lengths(self) -> Iterator[int]:
        starts = self._starts
        size = (2 << self.depth) - 1
        return map(sub, chain(islice(starts, 1, None), (size,)), starts)

    @property
    def values(self) -> list:
        """Every node's value object, flat in breadth-first order: the runs,
        expanded on each read."""
        return list(chain.from_iterable(map(repeat, self._objs, self._lengths())))

    def value(self, s: BitString) -> Dyadic:
        if len(s) > self.depth:
            raise KeyError(f"node {s!r} deeper than table depth {self.depth}")
        return self._objs[bisect_right(self._starts, _node_index(s)) - 1]

    def nodes(self) -> Iterator[tuple[BitString, Dyadic]]:
        """Every (node, value), breadth-first, from one read of `values`."""
        values = iter(self.values)
        for l in range(self.depth + 1):
            for v in range(1 << l):
                yield BitString.raw(l, v), next(values)

    def to_document(self, spec_echo: Optional[dict] = None, truncation: Optional[int] = None) -> dict:
        """The table as a document.  Nodes that share a value object share
        one `values` entry dict, converted once."""
        objs = self._objs
        as_json = {i: v.to_json() for i, v in _distinct(objs).items()}
        jsons = map(as_json.__getitem__, map(id, objs))
        return {
            "version": FORMAT_VERSION,
            "kind": DOCUMENT_KIND,
            "spec": spec_echo,
            "truncation": truncation,
            "depth": self.depth,
            "values": list(chain.from_iterable(map(repeat, jsons, self._lengths()))),
        }

    @staticmethod
    def from_document(doc: dict) -> tuple["MartingaleTable", Optional[dict], Optional[int]]:
        if not isinstance(doc, dict) or doc.get("kind") != DOCUMENT_KIND:
            raise ParseError("not a martingale-table document")
        version = doc.get("version")
        # bool is an int subclass: true == 1, so it must be refused by type
        if isinstance(version, bool) or version != FORMAT_VERSION:
            raise ParseError(f"unsupported table version {version!r}")
        depth = doc.get("depth")
        raw = doc.get("values")
        if not isinstance(depth, int) or isinstance(depth, bool) or not isinstance(raw, list):
            raise ParseError("table document needs integer depth and a values array")
        if depth < 0:
            raise ParseError(f"table depth must be ≥ 0, got {depth}")
        # A table of depth d has 2^(d+1) - 1 values, which has bit length
        # d + 1; testing that first never builds 2^(d+1) for an absurd d.
        if depth >= len(raw).bit_length() or len(raw) != (1 << (depth + 1)) - 1:
            raise ParseError(
                f"a table of depth {depth} needs 2^{depth + 1} - 1 values, got {len(raw)}"
            )
        try:
            values = _parse_values(raw)
        except (ValueError, TypeError, OverflowError) as e:  # int(inf) overflows
            raise ParseError(f"bad dyadic in table values: {e}") from None
        table = MartingaleTable(depth, values)
        return table, doc.get("spec"), doc.get("truncation")


def _distinct(items: list) -> dict:
    """id → object for each distinct object of items, in first-seen order."""
    return dict(zip(map(id, items), items))


def _parse_values(raw: list) -> list:
    """[Dyadic.from_json(x) for x in raw], parsing each distinct (num, exp)
    pair once.  Only a dict whose num is exactly a str and whose exp is
    exactly an int is looked up in the memo: the key then cannot equal a
    pair of other types (exponents 1, 1.0 and true are equal as keys).
    Every other entry, and the first entry of each pair, goes through
    Dyadic.from_json itself, so each error keeps its message and the first
    bad entry in document order is the one reported."""
    memo: dict = {}
    get = memo.get
    values = []
    append = values.append
    for x in raw:
        if type(x) is dict:
            num, exp = x.get("num"), x.get("exp")
            if type(num) is str and type(exp) is int:
                d = get((num, exp))
                if d is None:
                    d = memo[num, exp] = Dyadic.from_json(x)
                append(d)
                continue
        append(Dyadic.from_json(x))
    return values


_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dumps_document(doc: dict) -> str:
    """Canonical serialization: sorted keys, no whitespace drift, newline
    terminated.  Byte-identical for identical documents, and to
    json.dumps(doc, sort_keys=True, separators=(",", ":")) plus a newline.

    A top-level `values` list is written run by run: each stretch of one
    element object is that object's text repeated, and each distinct
    object is encoded once, so the shared entry dicts of to_document cost
    one encoding each; every other key is encoded whole."""
    values = doc.get("values") if type(doc) is dict else None
    if type(values) is not list or not all(type(key) is str for key in doc):
        return _canonical(doc) + "\n"
    texts: dict = {}
    runs, sep = ["["], ""
    for i, run in groupby(values, id):
        run = list(run)
        text = texts.get(i)
        if text is None:
            text = texts[i] = _canonical(run[0])
        runs += (sep, text, ("," + text) * (len(run) - 1))
        sep = ","
    runs.append("]")
    pieces = []
    for key in sorted(doc):
        pieces.append(("," if pieces else "{") + _canonical(key) + ":")
        if key == "values":
            pieces += runs
        else:
            pieces.append(_canonical(doc[key]))
    pieces.append("}\n")
    return "".join(pieces)


def loads_json(text: str) -> Any:
    """Any JSON value; malformed text is a ParseError."""
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer over the digit limit
        raise ParseError(f"invalid JSON: {e}") from None


def loads_document(text: str) -> dict:
    doc = loads_json(text)
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc
