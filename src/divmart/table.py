"""Exact finite martingale tables and their on-disk document format.

A table stores one dyadic value per node of the binary tree up to a fixed
depth, flat in breadth-first order (index 2^l - 1 + v for the node of
length l and value v).  Everything here is exact: identity checks compare
dyadics with zero tolerance, and serialization round-trips losslessly.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator, Optional

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
        depth: int, entry: Callable[[BitString], tuple[Dyadic, bool]]
    ) -> "MartingaleTable":
        """Build the table by one top-down descent over the live nodes.

        entry(s) gives the value at s and whether s is *settled*: every node
        below s carries the same value.  A settled node's value is written
        over its whole subtree, one slice per deeper level, and entry is
        never asked below it; a live node's two children join the next
        level's frontier.  The table is therefore exactly the one that
        entry gives at every node, whenever the settled claims are true.

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
        frontier = [0]
        for l in range(depth + 1):
            base = (1 << l) - 1
            live = []
            for v in frontier:
                value, settled = entry(BitString.raw(l, v))
                values[base + v] = value
                if not settled:
                    live += (2 * v, 2 * v + 1)
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

    def leaf_values(self) -> list:
        return self.values[(1 << self.depth) - 1 :]

    def leaf_average_below(self, s: BitString) -> Dyadic:
        """Mean of the depth-level leaves under N_s — the value a martingale
        table must carry at s, recomputed the slow way."""
        l = len(s)
        total = Dyadic.zero()
        count = 1 << (self.depth - l)
        base = s.v << (self.depth - l)
        leaves = self.leaf_values()
        for i in range(count):
            total = total + leaves[base + i]
        return total.mul_pow2(-(self.depth - l))

    def to_document(self, spec_echo: Optional[dict] = None, truncation: Optional[int] = None) -> dict:
        return {
            "version": FORMAT_VERSION,
            "kind": DOCUMENT_KIND,
            "spec": spec_echo,
            "truncation": truncation,
            "depth": self.depth,
            "values": [v.to_json() for v in self.values],
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
            values = [Dyadic.from_json(x) for x in raw]
        except (ValueError, TypeError, OverflowError) as e:  # int(inf) overflows
            raise ParseError(f"bad dyadic in table values: {e}") from None
        table = MartingaleTable(depth, values)
        return table, doc.get("spec"), doc.get("truncation")


def dumps_document(doc: dict) -> str:
    """Canonical serialization: sorted keys, no whitespace drift, newline
    terminated.  Byte-identical for identical documents."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def loads_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer over the digit limit
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc
