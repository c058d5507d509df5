"""Simple undirected graphs and the two subdivision-based corona products.

Vertices are integers ``0..n-1``.  Edges are unordered pairs kept in a
canonical sorted order so that every derived object (matrices, products,
serialized edge lists) is reproducible bit for bit.

Both products start from a first factor ``G1`` on ``n1`` vertices and one
copy of the subdivision ``S(G2)`` of the second factor per vertex of ``G1``.
The vertex variant joins each vertex of ``G1`` to the original ``G2``
vertices of its copy; the edge variant joins it to the inserted subdivision
vertices instead.  Product vertices are numbered in three consecutive
blocks, subdivision vertices first, then copy vertices, then base vertices,
with the owning ``G1`` vertex varying fastest, so vertex ``p*n1 + i`` is
position ``p`` of the gadget (copy of ``S(G2)`` plus base vertex) owned by
``i``.  Under that numbering the product Laplacian is a 3x3 block matrix of
Kronecker lifts ``X (x) I_{n1}`` of small factor matrices, which is what the
Kronecker-sum {1}-inverse relies on.  A ``CoronaLayout`` is that numbering
as index arithmetic on the factor sizes; the product ``Graph`` is built
only when ``.product`` is first read.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EdgeListError, PreconditionError

SUBDIVISION = "subdivision"
COPY = "copy"
BASE = "base"

VERTEX_KIND = "vertex"
EDGE_KIND = "edge"

# (class name, local index, copy owner); base vertices carry owner == local.
Coord = tuple[str, int, int]


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Immutable simple undirected graph.

    Parameters
    ----------
    vertex_count : int
        Number of vertices, labeled ``0..vertex_count-1``.
    edges : iterable of (int, int), or an (m, 2) integer array
        Unordered endpoint pairs, stored once as a read-only int64 ``(m, 2)``
        array of sorted rows ``u < v``; ``edges`` is a tuple built from it on
        each read.  Self-loops, duplicates, out-of-range endpoints and input
        that is not pairs raise ``ValueError``.
    """

    vertex_count: int
    _ends: np.ndarray

    def __init__(self, vertex_count: int, edges=()) -> None:
        n = vertex_count
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError("vertex_count must be an integer")
        n = int(n)
        if n < 0:
            raise ValueError("vertex_count must be non-negative")
        # the sort keys below reach n*n - n - 1, which must fit in int64
        if n * (n - 1) > 2**63:
            raise ValueError(f"vertex_count {n} is too large: edge keys overflow int64")
        ends = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        if ends.shape != (0,) and (ends.ndim != 2 or ends.shape[1] != 2):
            raise ValueError(f"edges must be (u, v) pairs, got shape {ends.shape}")
        ends = ends.reshape(-1, 2)
        lo, hi = np.minimum(*ends.T), np.maximum(*ends.T)
        # the first offender in input order, as a loop over the edges would find it
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            u, v = ends[bad.argmax()].tolist()
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        # u*n + v sorts the pairs as tuples would; a duplicate is reported at
        # its first occurrence in that order
        keys = np.sort(lo * n + hi)
        same = keys[1:] == keys[:-1]
        if same.any():
            raise ValueError(f"duplicate edge {divmod(int(keys[same.argmax()]), n)}")
        ends = np.column_stack(np.divmod(keys, n))
        ends.flags.writeable = False
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "_ends", ends)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and np.array_equal(self._ends, other._ends)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self._ends.tobytes()))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self._ends.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self._ends)

    def degrees(self) -> np.ndarray:
        return np.bincount(self._ends.ravel(), minlength=self.vertex_count)

    @cached_property
    def _connected(self) -> bool:
        # breadth-first reachability from vertex 0, run once per graph
        n = self.vertex_count
        if n <= 1:
            return True
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self._ends.tolist():
            adj[u].append(v)
            adj[v].append(u)
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        return bool(seen.all())


def complete_graph(n: int) -> Graph:
    return Graph(n, np.column_stack(np.triu_indices(n, 1)))


def path_graph(n: int) -> Graph:
    return Graph(n, np.column_stack([np.arange(n - 1), np.arange(1, n)]))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, np.column_stack([np.arange(n), np.arange(1, n + 1) % n]))


def star_graph(leaves: int) -> Graph:
    """Star with a center (vertex 0) and ``leaves`` pendant vertices."""
    if leaves < 0:
        raise ValueError("leaves must be non-negative")
    return Graph(leaves + 1, np.column_stack([np.zeros(leaves, int), np.arange(1, leaves + 1)]))


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.vertex_count, g.vertex_count))
    u, v = g._ends.T
    a[u, v] = 1.0
    a[v, u] = 1.0
    return a


def degree_matrix(g: Graph) -> np.ndarray:
    return np.diag(g.degrees().astype(np.float64))


def incidence_matrix(g: Graph) -> np.ndarray:
    """Vertex-edge incidence matrix, shape (n, m), columns in the canonical edge order."""
    r = np.zeros((g.vertex_count, g.edge_count))
    e = np.arange(g.edge_count)
    r[g._ends[:, 0], e] = 1.0
    r[g._ends[:, 1], e] = 1.0
    return r


def laplacian(g: Graph) -> np.ndarray:
    """``D - A``, written into one zero array; entries off the edges stay ``+0.0``."""
    lap = np.zeros((g.vertex_count, g.vertex_count))
    u, v = g._ends.T
    lap[u, v] = -1.0
    lap[v, u] = -1.0
    np.fill_diagonal(lap, g.degrees())
    return lap


def subdivision(g: Graph) -> Graph:
    """Subdivision S(g): one new vertex per edge, splitting it in two.

    Original vertices keep their labels; the vertex inserted into edge
    ``e`` (canonical order) gets label ``n + e``.
    """
    n, m = g.vertex_count, g.edge_count
    # every first end, then every second end, each joined to its edge's new vertex
    return Graph(n + m, np.column_stack([g._ends.T.ravel(), np.tile(n + np.arange(m), 2)]))


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability, computed once per graph.

    Graphs with at most one vertex count as connected.
    """
    return g._connected


def is_regular(g: Graph) -> int | None:
    """Common degree if every vertex has one, else None.  None for the empty graph."""
    if g.vertex_count == 0:
        return None
    d = g.degrees()
    first = int(d[0])
    if np.all(d == first):
        return first
    return None


@dataclass(frozen=True)
class CoronaLayout:
    """A corona product's vertex numbering, with the product graph built on first read.

    The layout holds only the kind and the two factors; its sizes are
    stored at construction and every index map is arithmetic on them, so
    nothing of product size exists until ``product`` is read.  Global
    indices come in three consecutive blocks:

    ======================  =========================  =====================
    block                   range                      index of member
    ======================  =========================  =====================
    subdivision vertices    ``[0, n1*m2)``             ``e*n1 + i``
    copy vertices           ``[n1*m2, n1*m2+n1*n2)``   ``n1*m2 + a*n1 + i``
    base vertices           ``[n1*m2+n1*n2, n)``       ``n1*m2 + n1*n2 + i``
    ======================  =========================  =====================

    where ``e`` is an edge of the second factor, ``a`` one of its vertices,
    ``i`` the owning first-factor vertex and ``n = n1 (1 + n2 + m2)``.
    """

    kind: str
    g1: Graph
    g2: Graph

    # sizes, stored rather than derived: pair queries read them on every call
    n1: int = field(init=False)
    m1: int = field(init=False)
    n2: int = field(init=False)
    m2: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in (VERTEX_KIND, EDGE_KIND):
            raise ValueError(f"unknown product kind {self.kind!r}")
        n1, n2, m2 = self.g1.vertex_count, self.g2.vertex_count, self.g2.edge_count
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "m1", self.g1.edge_count)
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "m2", m2)
        object.__setattr__(self, "n", n1 * (1 + n2 + m2))

    @cached_property
    def product(self) -> Graph:
        """The product graph, built on first read and then kept.

        The gadget is ``S(G2)`` plus a root at position ``m2 + n2``, with
        edge ``e = (a, b)`` joined to copy positions ``m2 + a`` and
        ``m2 + b`` and the root joined to every copy position (vertex kind)
        or every edge position (edge kind).  Its edges are lifted to each
        owner ``i`` as ``p*n1 + i``, and the ``G1`` edges join the roots.
        """
        n1, m2, root = self.n1, self.m2, self.m2 + self.n2
        ends = m2 + self.g2._ends
        sub = np.arange(m2)
        spokes = m2 + np.arange(self.n2) if self.kind == VERTEX_KIND else sub
        gadget = np.concatenate(
            [
                np.column_stack([sub, ends[:, 0]]),
                np.column_stack([sub, ends[:, 1]]),
                np.column_stack([spokes, np.full(spokes.size, root)]),
            ]
        )
        lifted = gadget[:, None, :] * n1 + np.arange(n1)[:, None]
        roots = root * n1 + self.g1._ends
        edges = np.concatenate([roots, lifted.reshape(-1, 2)])
        return Graph(self.n, edges)

    @property
    def subdivision_count(self) -> int:
        return self.n1 * self.m2

    @property
    def copy_count(self) -> int:
        return self.n1 * self.n2

    def subdivision_index(self, e: int, i: int) -> int:
        if not 0 <= e < self.m2:
            raise IndexError(f"second-factor edge {e} out of range")
        if not 0 <= i < self.n1:
            raise IndexError(f"first-factor vertex {i} out of range")
        return e * self.n1 + i

    def copy_index(self, a: int, i: int) -> int:
        if not 0 <= a < self.n2:
            raise IndexError(f"second-factor vertex {a} out of range")
        if not 0 <= i < self.n1:
            raise IndexError(f"first-factor vertex {i} out of range")
        return self.n1 * self.m2 + a * self.n1 + i

    def base_index(self, i: int) -> int:
        if not 0 <= i < self.n1:
            raise IndexError(f"first-factor vertex {i} out of range")
        return self.n1 * self.m2 + self.n1 * self.n2 + i

    def classify(self, v: int) -> Coord:
        """Inverse of the index maps: (class, local index, copy owner)."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range")
        if v < self.subdivision_count:
            return (SUBDIVISION, v // self.n1, v % self.n1)
        v -= self.subdivision_count
        if v < self.copy_count:
            return (COPY, v // self.n1, v % self.n1)
        v -= self.copy_count
        return (BASE, v, v)

    def global_index(self, coord: Coord) -> int:
        cls, local, owner = coord
        if cls == SUBDIVISION:
            return self.subdivision_index(local, owner)
        if cls == COPY:
            return self.copy_index(local, owner)
        if cls == BASE:
            if owner != local:
                raise ValueError("base coordinates carry owner == local")
            return self.base_index(local)
        raise ValueError(f"unknown vertex class {cls!r}")


def corona(g1: Graph, g2: Graph, kind: str) -> CoronaLayout:
    """The layout of the ``kind`` product ("vertex" or "edge") of ``g1`` and ``g2``.

    Both kinds have ``n1 (1 + n2 + m2)`` vertices; the vertex product has
    ``m1 + n1 n2 + 2 n1 m2`` edges and the edge product ``m1 + 3 n1 m2``.
    The product graph itself is built on the first read of ``.product``.
    Raises ``PreconditionError`` when ``g1`` is empty and ``ValueError``
    for an unknown kind.
    """
    if g1.vertex_count == 0:
        raise PreconditionError("corona product needs a nonempty first factor")
    return CoronaLayout(kind=kind, g1=g1, g2=g2)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format.

    The first data line is ``n m``; the following ``m`` data lines are
    ``u v`` with 0-based endpoints.  Blank lines and anything after ``#``
    are ignored.  Raises ``EdgeListError`` carrying the offending line
    number on any malformed or inconsistent input.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise EdgeListError(line_no, f"expected two fields, got {len(fields)}: {line!r}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError(line_no, f"non-integer field in {line!r}") from None
        if header is None:
            if a < 0 or b < 0:
                raise EdgeListError(line_no, "header counts must be non-negative")
            header = (a, b)
            continue
        n, m = header
        if len(edges) >= m:
            raise EdgeListError(line_no, f"more than the declared {m} edges")
        if a == b:
            raise EdgeListError(line_no, f"self-loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise EdgeListError(line_no, f"edge ({a}, {b}) out of range for {n} vertices")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise EdgeListError(line_no, f"duplicate edge {key}")
        seen.add(key)
        edges.append(key)
    if header is None:
        raise EdgeListError(None, "missing 'n m' header line")
    if len(edges) != header[1]:
        raise EdgeListError(None, f"declared {header[1]} edges but found {len(edges)}")
    return Graph(header[0], edges)


def format_edge_list(g: Graph) -> str:
    body = "%d %d\n" * g.edge_count % tuple(g._ends.ravel().tolist())
    return f"{g.vertex_count} {g.edge_count}\n" + body
