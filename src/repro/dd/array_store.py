"""Tuple node storage for the DD package.

A node is not an object holding edge objects, which would cost an
allocation and a pointer chase per edge touched at kernel throughput.
:class:`NodeStore` keeps one tuple of integers per node, addressed by
dense integer *handles*::

    nodes[handle] = (level, c0, w0, c1, w1, ...)

with ``arity`` pairs of a child handle and an interned complex-weight id
(:meth:`repro.dd.complex_table.ComplexTable.lookup_id`).  Handle ``0``
is the shared terminal (level ``-1``, all fields zero).  A kernel reads
a node with one list index and one tuple unpack.

The same tuple is the node's key in the **unique table**, a ``dict``
from key to handle: hashing, probing and comparing the key all run in
C, and two keys are equal only if every field is, so two distinct nodes
can never alias.  Handles are assigned in creation order and **nodes
are never evicted**, so every lookup that misses creates exactly one
node.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class NodeStore:
    """Canonical node storage for one node kind (vector or matrix).

    Args:
        arity: Successors per node — 2 for vector nodes, 4 for matrix
            nodes.
    """

    __slots__ = ("arity", "nodes", "_unique", "lookups")

    def __init__(self, arity: int) -> None:
        if arity < 2:
            raise ValueError("node arity must be at least 2")
        self.arity = arity
        # Handle 0 is the terminal; no kernel looks its key up.
        self.nodes: List[Tuple[int, ...]] = [(-1,) + (0,) * (2 * arity)]
        self._unique: Dict[Tuple[int, ...], int] = {}
        self.lookups = 0

    def __len__(self) -> int:
        """Total nodes including the terminal."""
        return len(self.nodes)

    @property
    def num_nodes(self) -> int:
        """Unique non-terminal nodes stored."""
        return len(self.nodes) - 1

    @property
    def hits(self) -> int:
        """Lookups that found an existing node (every miss created one)."""
        return self.lookups - len(self.nodes) + 1

    def lookup_or_insert(self, key: Tuple[int, ...]) -> int:
        """The handle of the node ``key = (level, c0, w0, c1, w1, ...)``,
        appended as the next handle if it is new."""
        self.lookups += 1
        nodes = self.nodes
        handle = self._unique.setdefault(key, len(nodes))
        if handle == len(nodes):
            nodes.append(key)
        return handle

    def stats(self) -> Dict[str, int]:
        """Node count and unique-table counters for the perf layer."""
        return {
            "nodes": self.num_nodes,
            "lookups": self.lookups,
            "hits": self.hits,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeStore(arity={self.arity}, nodes={self.num_nodes})"
