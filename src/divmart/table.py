"""Exact finite martingale tables and their on-disk document format.

A table stores one dyadic value per node of the binary tree up to a fixed
depth, flat in breadth-first order (index 2^l - 1 + v for the node of
length l and value v).  Everything here is exact: identity checks compare
dyadics with zero tolerance, and serialization round-trips losslessly.

Document I/O costs scale with the number of distinct values, not with the
number of nodes.  A settled subtree shares its root's value object, so a
depth-20 table of 2,097,151 nodes holds a few thousand value objects.
`to_document` converts each value object once and `dumps_document`
encodes each distinct element of `values` once; only C-level passes
(`map`, `zip`, `str.join`) touch every node.  `from_document` still visits
every node, but parses each distinct (num, exp) pair once.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator, Optional

from .bits import BitString
from .dyadic import Dyadic
from .errors import HorizonExhausted, ParseError

FORMAT_VERSION = 1
DOCUMENT_KIND = "martingale-table"

# Table-size budget: the most nodes a table may be built with, 2^21 - 1
# (depth 20).  Building preallocates every slot, so a deeper request fails
# up front instead of exhausting memory.
TABLE_NODE_CAP = (1 << 21) - 1


def _node_index(s: BitString) -> int:
    return (1 << len(s)) - 1 + s.v


class MartingaleTable:
    """Total dyadic-valued map on tree nodes of length ≤ depth."""

    def __init__(self, depth: int, values: list):
        if depth < 0:
            raise ValueError("depth must be ≥ 0")
        want = (1 << (depth + 1)) - 1
        if len(values) != want:
            raise ValueError(f"need {want} values for depth {depth}, got {len(values)}")
        self.depth = depth
        self.values = list(values)

    @staticmethod
    def from_entries(
        depth: int, entry: Callable[[BitString, Any], tuple[Dyadic, bool, Any]]
    ) -> "MartingaleTable":
        """Build the table by one top-down descent over the live nodes.

        entry(s, up) gives the value at s, whether s is *settled* (every
        node below s carries the same value), and a state handed down as
        `up` to both children of s; the root gets up = None.  The state
        lets an entry skip work that an ancestor already settled.  A
        settled node's value is written over its whole subtree, one slice
        per deeper level, and entry is never asked below it; a live node's
        two children join the next level's frontier.  The table is
        therefore exactly the one that entry gives at every node, whenever
        the settled claims are true.

        Raises HorizonExhausted, before allocating anything, when the table
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
        values: list = [None] * size
        frontier = [(0, None)]
        for l in range(depth + 1):
            base = (1 << l) - 1
            live = []
            for v, up in frontier:
                value, settled, down = entry(BitString.raw(l, v), up)
                values[base + v] = value
                if not settled:
                    live += ((2 * v, down), (2 * v + 1, down))
                    continue
                for below in range(1, depth - l + 1):
                    start = (1 << (l + below)) - 1 + (v << below)
                    values[start : start + (1 << below)] = [value] * (1 << below)
            frontier = live
        return MartingaleTable(depth, values)

    def value(self, s: BitString) -> Dyadic:
        if len(s) > self.depth:
            raise KeyError(f"node {s!r} deeper than table depth {self.depth}")
        return self.values[_node_index(s)]

    def nodes(self) -> Iterator[tuple[BitString, Dyadic]]:
        for l in range(self.depth + 1):
            for v in range(1 << l):
                s = BitString.raw(l, v)
                yield s, self.values[_node_index(s)]

    def interior_nodes(self) -> Iterator[tuple[BitString, Dyadic]]:
        for l in range(self.depth):
            for v in range(1 << l):
                s = BitString.raw(l, v)
                yield s, self.values[_node_index(s)]

    def to_document(self, spec_echo: Optional[dict] = None, truncation: Optional[int] = None) -> dict:
        """The table as a document.  Nodes that share a value object share
        one `values` entry dict, converted once."""
        values = self.values
        as_json = {i: v.to_json() for i, v in _distinct(values).items()}
        return {
            "version": FORMAT_VERSION,
            "kind": DOCUMENT_KIND,
            "spec": spec_echo,
            "truncation": truncation,
            "depth": self.depth,
            "values": list(map(as_json.__getitem__, map(id, values))),
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

    A top-level `values` list is written by encoding each distinct element
    object once and joining the texts, so the shared entry dicts of
    to_document cost one encoding each; every other key is encoded whole."""
    values = doc.get("values") if type(doc) is dict else None
    if type(values) is not list or not all(type(key) is str for key in doc):
        return _canonical(doc) + "\n"
    texts = {i: _canonical(x) for i, x in _distinct(values).items()}
    pieces = []
    for key in sorted(doc):
        pieces.append(("," if pieces else "{") + _canonical(key) + ":")
        if key == "values":
            pieces += ("[", ",".join(map(texts.__getitem__, map(id, values))), "]")
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
