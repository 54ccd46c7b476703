"""The DD package: integer handles, packed edges, id arithmetic.

It implements the QMDD algebra — normalized nodes, canonical unique
tables, memoized recursions — over a tuple node store
(:mod:`repro.dd.array_store`):

* **Nodes** are dense ``int`` handles into a :class:`NodeStore` (handle
  0 = terminal), each stored as one ``(level, c0, w0, c1, w1, ...)``
  tuple that is also its unique-table key.  A kernel reads a node with
  one index and one unpack, no edge objects are allocated on the hot
  path, and node identity is handle equality.
* **Edges** are single Python integers packing the target handle and the
  interned weight id of the :class:`~repro.dd.complex_table.ComplexTable`:
  ``edge = (handle << 32) | weight_id``.  The canonical zero edge is the
  literal ``0`` (terminal handle, weight id of ``0j``) and the terminal
  one-edge is the literal ``1`` — but zero *tests* always mask the weight
  id, because arithmetic can snap a weight to zero under a non-terminal
  handle.
* **Weight arithmetic** happens on integer ids through small memo dicts
  (``mul``/``mul3``/``div``/``add``/``conj-mul``): each distinct id pair
  is computed once via the complex table and then replayed as a dict hit,
  so the recursions never re-hash complex numbers.
* **Compute tables** are ten plain dicts, one per memoized operation,
  keyed on ``(handle, handle, ...)`` integer tuples — stable, dense, and
  cheap to hash.  Nothing is evicted during a gate application, so an
  alternating run that applies thousands of gates to a small diagram
  keeps its hits from gate to gate.  The bound is checked only where a
  gate application starts (``apply_gate_left``/``right``/``vector``, which
  no recursion calls): once any table holds more than
  :data:`COMPUTE_TABLE_CAP` entries, all ten are emptied.  A table is
  therefore never cleared mid-recursion.

``tests/dd/golden_dd.json`` pins node counts, structure digests and
checker statistics of this package on the Table-1 cells and the fuzz
families; dense-truth tests check the weights.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.dd.array_store import NodeStore
from repro.dd.complex_table import ComplexTable, DEFAULT_TOLERANCE

#: Entries one compute table may hold when a gate application starts;
#: past it every table is emptied first.  On the slow optimized Table-1
#: cells 2^14 recomputes enough to be slower, while 2^16 and no cap are
#: no faster beyond noise and raise peak memory (by about 20 MiB
#: without a cap).
COMPUTE_TABLE_CAP = 1 << 15

#: Bits reserved for the weight id in a packed edge.
EDGE_SHIFT = 32
#: Mask extracting the weight id from a packed edge.
WEIGHT_MASK = (1 << EDGE_SHIFT) - 1

#: Weight ids of the exact constants seeded by :class:`ComplexTable`.
ZERO_ID = 0
ONE_ID = 1

#: The canonical zero edge (terminal handle, weight ``0j``).
ZERO_EDGE = 0
#: The terminal edge of weight exactly ``1`` (identity scalar).
ONE_EDGE = ONE_ID


class ArrayDDPackage:
    """Canonical vector / matrix DDs over tuple node storage.

    Edges are packed integers (see module docstring) and node identity is
    handle equality.  The checker layer only touches edges through the
    accessors ``edge_node`` / ``edge_weight`` / ``matrix_dd_size`` /
    ``vector_dd_size``, never unpacking them itself.  Every package owns
    a fresh complex table at
    :data:`~repro.dd.complex_table.DEFAULT_TOLERANCE`.
    """

    def __init__(self) -> None:
        self.complex_table = ComplexTable(DEFAULT_TOLERANCE)
        # The id->value list is hot (every weight operation resolves ids);
        # bind the live list once — ComplexTable.clear() keeps its identity.
        self._values: List[complex] = self.complex_table._values
        self.vec = NodeStore(2)
        self.mat = NodeStore(4)
        # Id-pair memo dicts for weight arithmetic (module docstring).
        self._mul_w: Dict[Tuple[int, int], int] = {}
        self._mul3_w: Dict[Tuple[int, int, int], int] = {}
        self._div_w: Dict[Tuple[int, int], int] = {}
        self._add_w: Dict[Tuple[int, int], int] = {}
        self._conjmul_w: Dict[Tuple[int, int], int] = {}
        # |value| per weight id, extended lazily alongside the value list.
        self._abs_w: List[float] = []
        # Compute tables (module docstring).  A kernel counts its hits;
        # each miss inserts exactly one entry, so misses are the entries
        # held plus those dropped by earlier clears.
        self._add_cache: Dict[Tuple[int, int, int], int] = {}
        self._add_vec_cache: Dict[Tuple[int, int, int], int] = {}
        self._mul_cache: Dict[Tuple[int, int], int] = {}
        self._mul_vec_cache: Dict[Tuple[int, int], int] = {}
        self._conj_cache: Dict[int, int] = {}
        self._trace_cache: Dict[int, complex] = {}
        self._inner_cache: Dict[Tuple[int, int], complex] = {}
        self._apply_left_cache: Dict[Tuple[int, int], int] = {}
        self._apply_right_cache: Dict[Tuple[int, int], int] = {}
        self._apply_vec_cache: Dict[Tuple[int, int], int] = {}
        self._tables: Dict[str, dict] = {
            "add": self._add_cache,
            "add_vec": self._add_vec_cache,
            "apply_left": self._apply_left_cache,
            "apply_right": self._apply_right_cache,
            "apply_vec": self._apply_vec_cache,
            "conj": self._conj_cache,
            "inner": self._inner_cache,
            "mul": self._mul_cache,
            "mul_vec": self._mul_vec_cache,
            "trace": self._trace_cache,
        }
        self._hits = dict.fromkeys(self._tables, 0)
        self._dropped = dict.fromkeys(self._tables, 0)
        #: Times :meth:`clear_compute_tables` emptied the tables.
        self.compute_table_clears = 0
        self._identity_cache: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def tolerance(self) -> float:
        return self.complex_table.tolerance

    @property
    def matrix_nodes_created(self) -> int:
        return self.mat.num_nodes

    @property
    def vector_nodes_created(self) -> int:
        return self.vec.num_nodes

    def num_unique_matrix_nodes(self) -> int:
        """Total matrix nodes ever created by this package."""
        return self.mat.num_nodes

    def num_unique_vector_nodes(self) -> int:
        """Total vector nodes ever created by this package."""
        return self.vec.num_nodes

    def clear_compute_tables(self) -> None:
        """Drop all memoized operation results (node stores survive)."""
        for name, table in self._tables.items():
            self._dropped[name] += len(table)
            table.clear()
        self.compute_table_clears += 1

    def _bound_compute_tables(self) -> None:
        # Called only where a gate application starts, never mid-recursion.
        if max(map(len, self._tables.values())) > COMPUTE_TABLE_CAP:
            self.clear_compute_tables()

    def compute_table_stats(self) -> Dict[str, Dict[str, int]]:
        """``hits``, ``misses`` and ``entries`` of every compute table."""
        return {
            name: {
                "hits": self._hits[name],
                "misses": len(table) + self._dropped[name],
                "entries": len(table),
            }
            for name, table in self._tables.items()
        }

    def store_statistics(self) -> Dict[str, Dict[str, int]]:
        """Node counts and unique-table lookup counters per store."""
        return {
            "matrix_store": self.mat.stats(),
            "vector_store": self.vec.stats(),
        }

    # Edge accessors: checkers never unpack edges themselves.
    @staticmethod
    def edge_node(edge: int) -> int:
        """The node token of an edge — compare with ``==``."""
        return edge >> EDGE_SHIFT

    def edge_weight(self, edge: int) -> complex:
        """The canonical complex weight carried by an edge."""
        return self._values[edge & WEIGHT_MASK]

    def matrix_dd_size(self, edge: int) -> int:
        """Distinct non-terminal nodes reachable from a matrix edge."""
        return self._dd_size(edge, self.mat)

    def vector_dd_size(self, edge: int) -> int:
        """Distinct non-terminal nodes reachable from a vector edge."""
        return self._dd_size(edge, self.vec)

    def _dd_size(self, edge: int, store: NodeStore) -> int:
        if edge & WEIGHT_MASK == 0:
            return 0
        nodes = store.nodes
        seen = set()
        stack = [edge >> EDGE_SHIFT]
        while stack:
            handle = stack.pop()
            if handle == 0 or handle in seen:
                continue
            seen.add(handle)
            node = nodes[handle]
            for k in range(1, len(node), 2):
                if node[k + 1] != 0:
                    stack.append(node[k])
        return len(seen)

    # ------------------------------------------------------------------
    # weight-id arithmetic
    # ------------------------------------------------------------------
    def lookup(self, value: complex) -> complex:
        """Intern a complex number in the package's complex table."""
        return self.complex_table.lookup(value)

    def lookup_id(self, value: complex) -> int:
        """Intern a complex number and return its weight id."""
        return self.complex_table.lookup_id(value)

    def weight_value(self, weight_id: int) -> complex:
        """The canonical value behind a weight id."""
        return self._values[weight_id]

    def _wabs(self, wid: int) -> float:
        abs_w = self._abs_w
        if wid >= len(abs_w):
            values = self._values
            for k in range(len(abs_w), len(values)):
                abs_w.append(abs(values[k]))
        return abs_w[wid]

    def _wmul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if a == ONE_ID:
            return b
        if b == ONE_ID:
            return a
        key = (a, b)
        cached = self._mul_w.get(key)
        if cached is not None:
            return cached
        values = self._values
        result = self.complex_table.lookup_id(values[a] * values[b])
        self._mul_w[key] = result
        return result

    def _wmul3(self, a: int, b: int, c: int) -> int:
        # One lookup of the triple product ``va * vb * vc``
        # (left-to-right), not two rounded pairwise products.
        if a == 0 or b == 0 or c == 0:
            return 0
        if a == ONE_ID:
            return self._wmul(b, c)
        if b == ONE_ID:
            return self._wmul(a, c)
        if c == ONE_ID:
            return self._wmul(a, b)
        key = (a, b, c)
        cached = self._mul3_w.get(key)
        if cached is not None:
            return cached
        values = self._values
        result = self.complex_table.lookup_id(values[a] * values[b] * values[c])
        self._mul3_w[key] = result
        return result

    def _wdiv(self, a: int, b: int) -> int:
        if a == 0:
            return 0
        if b == ONE_ID:
            return a
        key = (a, b)
        cached = self._div_w.get(key)
        if cached is not None:
            return cached
        values = self._values
        result = self.complex_table.lookup_id(values[a] / values[b])
        self._div_w[key] = result
        return result

    def _wadd(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        key = (a, b)
        cached = self._add_w.get(key)
        if cached is not None:
            return cached
        values = self._values
        result = self.complex_table.lookup_id(values[a] + values[b])
        self._add_w[key] = result
        return result

    def _wconjmul(self, a: int, b: int) -> int:
        # ``lookup(va * conj(vb))`` — conjugation is exact, so only the
        # product needs interning.
        if a == 0 or b == 0:
            return 0
        if b == ONE_ID:
            return a
        key = (a, b)
        cached = self._conjmul_w.get(key)
        if cached is not None:
            return cached
        values = self._values
        result = self.complex_table.lookup_id(
            values[a] * values[b].conjugate()
        )
        self._conjmul_w[key] = result
        return result

    # ------------------------------------------------------------------
    # construction with normalization
    # ------------------------------------------------------------------
    def make_vector_node(self, level: int, edges: Sequence[int]) -> int:
        """Create (or reuse) a normalized vector node; returns its edge."""
        e0, e1 = edges
        w0 = e0 & WEIGHT_MASK
        w1 = e1 & WEIGHT_MASK
        # Max-magnitude weight, lowest index on exact ties (the
        # normalization rule — strictly-greater comparison).
        if self._wabs(w1) > self._wabs(w0):
            norm = w1
            w0 = 0 if w0 == 0 else self._wdiv(w0, norm)
            w1 = ONE_ID
        elif w0 == 0:
            return ZERO_EDGE
        else:
            norm = w0
            w0 = ONE_ID
            w1 = 0 if w1 == 0 else self._wdiv(w1, norm)
        handle = self.vec.lookup_or_insert((
            level,
            e0 >> EDGE_SHIFT if w0 != 0 else 0, w0,
            e1 >> EDGE_SHIFT if w1 != 0 else 0, w1,
        ))
        return (handle << EDGE_SHIFT) | norm

    def make_matrix_node(self, level: int, edges: Sequence[int]) -> int:
        """Create (or reuse) a normalized matrix node; returns its edge."""
        max_index = 0
        max_mag = -1.0
        wids = []
        for index, edge in enumerate(edges):
            wid = edge & WEIGHT_MASK
            wids.append(wid)
            mag = self._wabs(wid)
            if mag > max_mag:
                max_mag = mag
                max_index = index
        norm = wids[max_index]
        if norm == 0:
            return ZERO_EDGE
        key = [level]
        for index, edge in enumerate(edges):
            if index == max_index:
                key.append(edge >> EDGE_SHIFT)
                key.append(ONE_ID)
                continue
            wid = wids[index]
            nw = 0 if wid == 0 else self._wdiv(wid, norm)
            if nw == 0:
                key.append(0)
                key.append(0)
            else:
                key.append(edge >> EDGE_SHIFT)
                key.append(nw)
        handle = self.mat.lookup_or_insert(tuple(key))
        return (handle << EDGE_SHIFT) | norm

    # ------------------------------------------------------------------
    # elementary diagrams
    # ------------------------------------------------------------------
    @staticmethod
    def zero_vector_edge() -> int:
        """The zero vector (an edge of weight 0)."""
        return ZERO_EDGE

    @staticmethod
    def zero_matrix_edge() -> int:
        """The zero matrix (an edge of weight 0)."""
        return ZERO_EDGE

    def terminal_matrix_edge(self, weight: complex = 1 + 0j) -> int:
        return self.complex_table.lookup_id(weight)

    def basis_state(self, num_qubits: int, bits: int = 0) -> int:
        """The computational basis state ``|bits>`` on ``num_qubits``."""
        edge = ONE_EDGE
        for level in range(num_qubits):
            if (bits >> level) & 1:
                edge = self.make_vector_node(level, (ZERO_EDGE, edge))
            else:
                edge = self.make_vector_node(level, (edge, ZERO_EDGE))
        return edge

    def identity(self, num_qubits: int) -> int:
        """The identity matrix DD — linear in ``num_qubits``."""
        cached = self._identity_cache.get(num_qubits)
        if cached is not None:
            return cached
        edge = ONE_EDGE
        for level in range(num_qubits):
            edge = self.make_matrix_node(
                level, (edge, ZERO_EDGE, ZERO_EDGE, edge)
            )
        self._identity_cache[num_qubits] = edge
        return edge

    def layered_kron(self, num_qubits: int, factors) -> int:
        """Build ``F_{n-1} ⊗ ... ⊗ F_1 ⊗ F_0`` with identity defaults.

        ``factors`` maps qubit index to a 2x2 complex matrix; unspecified
        qubits contribute the identity.
        """
        lookup_id = self.complex_table.lookup_id
        values = self._values
        edge = ONE_EDGE
        for level in range(num_qubits):
            factor = factors.get(level)
            if factor is None:
                edge = self.make_matrix_node(
                    level, (edge, ZERO_EDGE, ZERO_EDGE, edge)
                )
                continue
            ew = edge & WEIGHT_MASK
            node_bits = (edge >> EDGE_SHIFT) << EDGE_SHIFT
            children = []
            for i in (0, 1):
                for j in (0, 1):
                    value = complex(factor[i][j])
                    if value == 0 or ew == 0:
                        children.append(ZERO_EDGE)
                    else:
                        children.append(
                            node_bits | lookup_id(value * values[ew])
                        )
            edge = self.make_matrix_node(level, children)
        return edge

    # ------------------------------------------------------------------
    # addition
    # ------------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        """Matrix addition ``A + B``."""
        wa = a & WEIGHT_MASK
        if wa == 0:
            return b
        wb = b & WEIGHT_MASK
        if wb == 0:
            return a
        na = a >> EDGE_SHIFT
        nb = b >> EDGE_SHIFT
        if na == 0 and nb == 0:
            return self._wadd(wa, wb)
        # Canonical operand order for the cache.
        if na > nb:
            na, nb = nb, na
            wa, wb = wb, wa
        ratio = self._wdiv(wb, wa)
        key = (na, nb, ratio)
        cached = self._add_cache.get(key)
        if cached is not None:
            self._hits["add"] += 1
            return ((cached >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(
                cached & WEIGHT_MASK, wa
            )
        nodes = self.mat.nodes
        level, an0, aw0, an1, aw1, an2, aw2, an3, aw3 = nodes[na]
        level_b, bn0, bw0, bn1, bw1, bn2, bw2, bn3, bw3 = nodes[nb]
        if level != level_b:
            raise ValueError("cannot add diagrams of different height")
        add = self.add
        wmul = self._wmul
        result = self.make_matrix_node(level, (
            add((an0 << EDGE_SHIFT) | aw0,
                (bn0 << EDGE_SHIFT) | wmul(bw0, ratio)),
            add((an1 << EDGE_SHIFT) | aw1,
                (bn1 << EDGE_SHIFT) | wmul(bw1, ratio)),
            add((an2 << EDGE_SHIFT) | aw2,
                (bn2 << EDGE_SHIFT) | wmul(bw2, ratio)),
            add((an3 << EDGE_SHIFT) | aw3,
                (bn3 << EDGE_SHIFT) | wmul(bw3, ratio)),
        ))
        self._add_cache[key] = result
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(
            result & WEIGHT_MASK, wa
        )

    def add_vectors(self, a: int, b: int) -> int:
        """Vector addition ``|a> + |b>``."""
        wa = a & WEIGHT_MASK
        if wa == 0:
            return b
        wb = b & WEIGHT_MASK
        if wb == 0:
            return a
        na = a >> EDGE_SHIFT
        nb = b >> EDGE_SHIFT
        if na == 0 and nb == 0:
            return self._wadd(wa, wb)
        if na > nb:
            na, nb = nb, na
            wa, wb = wb, wa
        ratio = self._wdiv(wb, wa)
        key = (na, nb, ratio)
        cached = self._add_vec_cache.get(key)
        if cached is not None:
            self._hits["add_vec"] += 1
            return ((cached >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(
                cached & WEIGHT_MASK, wa
            )
        nodes = self.vec.nodes
        level, an0, aw0, an1, aw1 = nodes[na]
        level_b, bn0, bw0, bn1, bw1 = nodes[nb]
        if level != level_b:
            raise ValueError("cannot add diagrams of different height")
        add = self.add_vectors
        wmul = self._wmul
        result = self.make_vector_node(level, (
            add((an0 << EDGE_SHIFT) | aw0,
                (bn0 << EDGE_SHIFT) | wmul(bw0, ratio)),
            add((an1 << EDGE_SHIFT) | aw1,
                (bn1 << EDGE_SHIFT) | wmul(bw1, ratio)),
        ))
        self._add_vec_cache[key] = result
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(
            result & WEIGHT_MASK, wa
        )

    # ------------------------------------------------------------------
    # multiplication
    # ------------------------------------------------------------------
    def multiply(self, a: int, b: int) -> int:
        """Matrix product ``A @ B``."""
        wa = a & WEIGHT_MASK
        wb = b & WEIGHT_MASK
        if wa == 0 or wb == 0:
            return ZERO_EDGE
        weight = self._wmul(wa, wb)
        result = self._multiply_nodes(a >> EDGE_SHIFT, b >> EDGE_SHIFT)
        rw = result & WEIGHT_MASK
        if rw == 0:
            return result
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(rw, weight)

    def _multiply_nodes(self, node_a: int, node_b: int) -> int:
        if node_a == 0 and node_b == 0:
            return ONE_EDGE
        key = (node_a, node_b)
        cached = self._mul_cache.get(key)
        if cached is not None:
            self._hits["mul"] += 1
            return cached
        nodes = self.mat.nodes
        level, an0, aw0, an1, aw1, an2, aw2, an3, aw3 = nodes[node_a]
        level_b, bn0, bw0, bn1, bw1, bn2, bw2, bn3, bw3 = nodes[node_b]
        if level != level_b:
            raise ValueError("cannot multiply diagrams of different height")
        add = self.add
        term = self._scaled_multiply
        # Row by row, term0 before term1: weight ids and handles are
        # assigned in this order.
        result = self.make_matrix_node(level, (
            add(term(an0, aw0, bn0, bw0), term(an1, aw1, bn2, bw2)),
            add(term(an0, aw0, bn1, bw1), term(an1, aw1, bn3, bw3)),
            add(term(an2, aw2, bn0, bw0), term(an3, aw3, bn2, bw2)),
            add(term(an2, aw2, bn1, bw1), term(an3, aw3, bn3, bw3)),
        ))
        self._mul_cache[key] = result
        return result

    def _scaled_multiply(self, an: int, aw: int, bn: int, bw: int) -> int:
        if aw == 0 or bw == 0:
            return ZERO_EDGE
        sub = self._multiply_nodes(an, bn)
        sw = sub & WEIGHT_MASK
        if sw == 0:
            return sub
        return ((sub >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul3(sw, aw, bw)

    def multiply_matrix_vector(self, a: int, v: int) -> int:
        """Matrix-vector product ``A |v>`` (DD-based simulation step)."""
        wa = a & WEIGHT_MASK
        wv = v & WEIGHT_MASK
        if wa == 0 or wv == 0:
            return ZERO_EDGE
        weight = self._wmul(wa, wv)
        result = self._multiply_mv_nodes(a >> EDGE_SHIFT, v >> EDGE_SHIFT)
        rw = result & WEIGHT_MASK
        if rw == 0:
            return result
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(rw, weight)

    def _multiply_mv_nodes(self, node_a: int, node_v: int) -> int:
        if node_a == 0 and node_v == 0:
            return ONE_EDGE
        key = (node_a, node_v)
        cached = self._mul_vec_cache.get(key)
        if cached is not None:
            self._hits["mul_vec"] += 1
            return cached
        level, an0, aw0, an1, aw1, an2, aw2, an3, aw3 = self.mat.nodes[node_a]
        level_v, vn0, vw0, vn1, vw1 = self.vec.nodes[node_v]
        if level != level_v:
            raise ValueError("cannot multiply diagrams of different height")
        add = self.add_vectors
        term = self._scaled_multiply_mv
        result = self.make_vector_node(level, (
            add(term(an0, aw0, vn0, vw0), term(an1, aw1, vn1, vw1)),
            add(term(an2, aw2, vn0, vw0), term(an3, aw3, vn1, vw1)),
        ))
        self._mul_vec_cache[key] = result
        return result

    def _scaled_multiply_mv(self, an: int, aw: int, vn: int, vw: int) -> int:
        if aw == 0 or vw == 0:
            return ZERO_EDGE
        sub = self._multiply_mv_nodes(an, vn)
        sw = sub & WEIGHT_MASK
        if sw == 0:
            return sub
        return ((sub >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul3(sw, aw, vw)

    # ------------------------------------------------------------------
    # direct gate application (fast-path kernels)
    # ------------------------------------------------------------------
    def apply_gate_left(self, gate: int, target: int) -> int:
        """``(I ⊗ gate) @ target`` for a compact gate diagram."""
        self._bound_compute_tables()
        wg = gate & WEIGHT_MASK
        wt = target & WEIGHT_MASK
        if wg == 0 or wt == 0:
            return ZERO_EDGE
        weight = self._wmul(wg, wt)
        result = self._apply_left_nodes(
            gate >> EDGE_SHIFT, target >> EDGE_SHIFT
        )
        rw = result & WEIGHT_MASK
        if rw == 0:
            return result
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(rw, weight)

    def _apply_left_nodes(self, gate_node: int, target_node: int) -> int:
        nodes = self.mat.nodes
        node = nodes[target_node]
        if node[0] <= nodes[gate_node][0]:
            return self._multiply_nodes(gate_node, target_node)
        key = (gate_node, target_node)
        cached = self._apply_left_cache.get(key)
        if cached is not None:
            self._hits["apply_left"] += 1
            return cached
        children = []
        # Fields 1, 3, 5, 7 are the child handles, each followed by its
        # weight id.
        for k in (1, 3, 5, 7):
            ew = node[k + 1]
            if ew == 0:
                children.append(ZERO_EDGE)
                continue
            sub = self._apply_left_nodes(gate_node, node[k])
            sw = sub & WEIGHT_MASK
            if sw == 0:
                children.append(ZERO_EDGE)
            else:
                children.append(
                    ((sub >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(sw, ew)
                )
        result = self.make_matrix_node(node[0], children)
        self._apply_left_cache[key] = result
        return result

    def apply_gate_right(self, target: int, gate: int) -> int:
        """``target @ (I ⊗ gate)`` for a compact gate diagram."""
        self._bound_compute_tables()
        wt = target & WEIGHT_MASK
        wg = gate & WEIGHT_MASK
        if wg == 0 or wt == 0:
            return ZERO_EDGE
        weight = self._wmul(wt, wg)
        result = self._apply_right_nodes(
            target >> EDGE_SHIFT, gate >> EDGE_SHIFT
        )
        rw = result & WEIGHT_MASK
        if rw == 0:
            return result
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(rw, weight)

    def _apply_right_nodes(self, target_node: int, gate_node: int) -> int:
        nodes = self.mat.nodes
        node = nodes[target_node]
        if node[0] <= nodes[gate_node][0]:
            return self._multiply_nodes(target_node, gate_node)
        key = (target_node, gate_node)
        cached = self._apply_right_cache.get(key)
        if cached is not None:
            self._hits["apply_right"] += 1
            return cached
        children = []
        for k in (1, 3, 5, 7):
            ew = node[k + 1]
            if ew == 0:
                children.append(ZERO_EDGE)
                continue
            sub = self._apply_right_nodes(node[k], gate_node)
            sw = sub & WEIGHT_MASK
            if sw == 0:
                children.append(ZERO_EDGE)
            else:
                children.append(
                    ((sub >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(sw, ew)
                )
        result = self.make_matrix_node(node[0], children)
        self._apply_right_cache[key] = result
        return result

    def apply_gate_vector(self, gate: int, state: int) -> int:
        """``(I ⊗ gate) |state>`` for a compact gate diagram."""
        self._bound_compute_tables()
        wg = gate & WEIGHT_MASK
        ws = state & WEIGHT_MASK
        if wg == 0 or ws == 0:
            return ZERO_EDGE
        weight = self._wmul(wg, ws)
        result = self._apply_vec_nodes(gate >> EDGE_SHIFT, state >> EDGE_SHIFT)
        rw = result & WEIGHT_MASK
        if rw == 0:
            return result
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(rw, weight)

    def _apply_vec_nodes(self, gate_node: int, state_node: int) -> int:
        node = self.vec.nodes[state_node]
        if node[0] <= self.mat.nodes[gate_node][0]:
            return self._multiply_mv_nodes(gate_node, state_node)
        key = (gate_node, state_node)
        cached = self._apply_vec_cache.get(key)
        if cached is not None:
            self._hits["apply_vec"] += 1
            return cached
        children = []
        for k in (1, 3):
            ew = node[k + 1]
            if ew == 0:
                children.append(ZERO_EDGE)
                continue
            sub = self._apply_vec_nodes(gate_node, node[k])
            sw = sub & WEIGHT_MASK
            if sw == 0:
                children.append(ZERO_EDGE)
            else:
                children.append(
                    ((sub >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(sw, ew)
                )
        result = self.make_vector_node(node[0], children)
        self._apply_vec_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # conjugation, traces, inner products
    # ------------------------------------------------------------------
    def conjugate_transpose(self, a: int) -> int:
        """The adjoint ``A†`` of a matrix diagram."""
        wa = a & WEIGHT_MASK
        if wa == 0:
            return a
        result = self._conjugate_node(a >> EDGE_SHIFT)
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wconjmul(
            result & WEIGHT_MASK, wa
        )

    def _conjugate_node(self, node: int) -> int:
        if node == 0:
            return ONE_EDGE
        cached = self._conj_cache.get(node)
        if cached is not None:
            self._hits["conj"] += 1
            return cached
        fields = self.mat.nodes[node]
        children = []
        # adjoint: transpose block positions (swap 01 and 10), conjugate
        # weights; fields 1, 5, 3, 7 are the children 00, 10, 01, 11.
        for k in (1, 5, 3, 7):
            ew = fields[k + 1]
            if ew == 0:
                children.append(ZERO_EDGE)
                continue
            sub = self._conjugate_node(fields[k])
            children.append(
                ((sub >> EDGE_SHIFT) << EDGE_SHIFT)
                | self._wconjmul(sub & WEIGHT_MASK, ew)
            )
        result = self.make_matrix_node(fields[0], children)
        self._conj_cache[node] = result
        return result

    def trace(self, a: int) -> complex:
        """The trace of a matrix diagram."""
        wa = a & WEIGHT_MASK
        if wa == 0:
            return 0j
        return self._values[wa] * self._trace_node(a >> EDGE_SHIFT)

    def _trace_node(self, node: int) -> complex:
        if node == 0:
            return 1 + 0j
        cached = self._trace_cache.get(node)
        if cached is not None:
            self._hits["trace"] += 1
            return cached
        _, n0, w0, _, _, _, _, n3, w3 = self.mat.nodes[node]
        values = self._values
        value = 0j
        if w0 != 0:
            value += values[w0] * self._trace_node(n0)
        if w3 != 0:
            value += values[w3] * self._trace_node(n3)
        self._trace_cache[node] = value
        return value

    def inner_product(self, a: int, b: int) -> complex:
        """The inner product ``<a|b>`` of two vector diagrams."""
        wa = a & WEIGHT_MASK
        wb = b & WEIGHT_MASK
        if wa == 0 or wb == 0:
            return 0j
        values = self._values
        return (
            values[wa].conjugate()
            * values[wb]
            * self._inner_nodes(a >> EDGE_SHIFT, b >> EDGE_SHIFT)
        )

    def _inner_nodes(self, node_a: int, node_b: int) -> complex:
        if node_a == 0 and node_b == 0:
            return 1 + 0j
        key = (node_a, node_b)
        cached = self._inner_cache.get(key)
        if cached is not None:
            self._hits["inner"] += 1
            return cached
        nodes = self.vec.nodes
        _, an0, aw0, an1, aw1 = nodes[node_a]
        _, bn0, bw0, bn1, bw1 = nodes[node_b]
        values = self._values
        value = 0j
        for an, aw, bn, bw in ((an0, aw0, bn0, bw0), (an1, aw1, bn1, bw1)):
            if aw != 0 and bw != 0:
                value += (
                    values[aw].conjugate()
                    * values[bw]
                    * self._inner_nodes(an, bn)
                )
        self._inner_cache[key] = value
        return value

    def fidelity(self, a: int, b: int) -> float:
        """``|<a|b>|^2`` between two (normalized) state diagrams."""
        overlap = self.inner_product(a, b)
        return abs(overlap) ** 2

    # ------------------------------------------------------------------
    # equivalence predicates
    # ------------------------------------------------------------------
    def is_identity(
        self, a: int, num_qubits: int, up_to_global_phase: bool = True
    ) -> bool:
        """Structural identity test against the canonical identity DD."""
        identity = self.identity(num_qubits)
        if a >> EDGE_SHIFT != identity >> EDGE_SHIFT:
            return False
        weight = self._values[a & WEIGHT_MASK]
        if up_to_global_phase:
            return abs(abs(weight) - 1.0) <= 16 * self.tolerance
        return abs(weight - 1.0) <= 16 * self.tolerance

    def hilbert_schmidt_fidelity(self, a: int, num_qubits: int) -> float:
        """``|tr(A)| / 2^n`` — 1.0 iff ``A`` is a global-phase identity."""
        return abs(self.trace(a)) / float(2**num_qubits)
