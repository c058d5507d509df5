"""Resistance distances and Kirchhoff indices, closed-form and brute-force.

Two independent routes to every quantity:

* oracle: invert nothing but the full product Laplacian's rank-one shift,
  i.e. the group inverse of the whole graph, and read resistances off it.
* closed form: one expression over the factor-sized pieces of the
  {1}-inverse ``X = W (x) I + J (x) S#`` (see the one_inverse module).
  For product vertices ``(p, i)`` and ``(q, j)``, gadget positions ``p, q``
  owned by first-factor vertices ``i, j``,

      r = W_pp + W_qq - 2 W_pq [i = j] + S#_ii + S#_jj - 2 S#_ij,

  which serves single pairs, as Python floats off views of ``W`` and ``S#``,
  and, broadcast, the whole matrix with the same bits; plus closed
  Kirchhoff-index expressions that never touch the product at all.  Every
  factor piece they read comes from one selected-inversion kernel,
  ``_selected_inverse``, which returns the diagonal of ``M = (diag(d) -
  A)^-1``, ``M`` on the edges and one quadratic form ``f'Mf``, block by
  block at a cost of about ``n s^2`` for ``s = max(bandwidth, 64)``:
  ``Kf(G1)`` from the Laplacian grounded at one vertex (renumbered by
  reverse Cuthill-McKee when the given numbering leaves one dense block),
  and the second-factor sums from ``Q = L2 + shift I`` in its given
  numbering.  Both are scalars memoized by value, ``Kf(G1)`` per first
  factor and the sums per second factor and shift, so a sweep over many
  pairs factors each distinct factor once.

The oracle route is deliberately kept free of any shared code with the
assembly, and shares no factorization with ``Kf(G1)``, so agreement between
the two is meaningful evidence.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CoronaKitError, PreconditionError
from .graphs import (
    EDGE_KIND,
    VERTEX_KIND,
    Coord,
    CoronaLayout,
    Graph,
    adjacency_matrix,
    corona,
    is_connected,
    laplacian,
)
from .linalg import (
    RESIDUAL_TOL,
    _symmetric_inverse,
    group_inverse_laplacian,
    group_inverse_trace_and_sum,
    inverse,
)
from .one_inverse import OneInverse, _require_factors, _shifted_inverse, one_inverse_corona


@dataclass(frozen=True)
class KirchhoffResult:
    """A Kirchhoff index value tagged with the formula that produced it.

    method is one of "oracle-trace", "theorem-4.1", "corollary-4.2" or
    "theorem-4.3".
    """

    value: float
    method: str


RESISTANCE_NEEDS_CONNECTED = "resistance distance needs a connected graph"
KIRCHHOFF_NEEDS_CONNECTED = "Kirchhoff index needs a connected graph"


def resistance_matrix_from_one_inverse(x: np.ndarray) -> np.ndarray:
    d = np.diag(x)
    return d[:, None] + d[None, :] - x - x.T


def resistance_oracle(g: Graph) -> np.ndarray:
    """Brute-force resistance matrix through the full-graph group inverse.

    The Cholesky factor behind the group inverse is the connectivity test.
    """
    try:
        x = group_inverse_laplacian(laplacian(g))
    except PreconditionError:
        raise PreconditionError(RESISTANCE_NEEDS_CONNECTED) from None
    return resistance_matrix_from_one_inverse(x)


def require_connected_product(layout: CoronaLayout, message: str) -> None:
    """Raise ``PreconditionError(message)`` unless the factors give a connected product.

    That is a connected ``G1`` (by ``is_connected``) and, for the edge kind,
    no isolated vertex in ``G2``: its copies would meet no subdivision vertex.
    """
    if not is_connected(layout.g1) or (layout.kind == EDGE_KIND and not layout.g2.degrees().all()):
        raise PreconditionError(message)


def _resistance(w, s, p, i, q, j):
    # gadget positions p, q owned by first-factor vertices i, j, as integers or
    # broadcastable index arrays, read off W and S# as arrays or scalar views
    return w[p, p] + w[q, q] - 2.0 * w[p, q] * (i == j) + (s[i, i] + s[j, j] - 2.0 * s[i, j])


def _own_inverse(g1: Graph, g2: Graph, kind: str, one_inv: OneInverse | None) -> OneInverse:
    # the given inverse if it is the kind product's of g1 and g2, a new one if
    # none is given; identity is tried before the value comparison, which
    # costs a pass over the edges, so a caller reusing its factors pays little
    if one_inv is None:
        return one_inverse_corona(g1, g2, kind)
    layout = one_inv.layout
    if (
        layout.kind != kind
        or not (layout.g1 is g1 or layout.g1 == g1)
        or not (layout.g2 is g2 or layout.g2 == g2)
    ):
        raise ValueError(f"one_inv does not belong to the {kind} product of these factors")
    return one_inv


def _pair_query(g1: Graph, g2: Graph, i: Coord, j: Coord, one_inv: OneInverse | None, kind: str) -> float:
    oi = _own_inverse(g1, g2, kind, one_inv)
    w, s = oi._views
    p, a = oi.layout.position(i)
    q, b = oi.layout.position(j)
    return float(_resistance(w, s, p, a, q, b))  # a float for numpy integer coordinates too


def resistance_vertex_corona(
    g1: Graph, g2: Graph, i: Coord, j: Coord, one_inv: OneInverse | None = None
) -> float:
    """Closed-form resistance between two vertex-product vertices.

    Coordinates are (class, local index, copy owner) triples as produced
    by ``CoronaLayout.classify``.  ``one_inv``, when given, must be the
    vertex product's ``OneInverse`` for these factors, or ``ValueError`` is
    raised.
    """
    return _pair_query(g1, g2, i, j, one_inv, VERTEX_KIND)


def resistance_edge_corona(
    g1: Graph, g2: Graph, i: Coord, j: Coord, one_inv: OneInverse | None = None
) -> float:
    """Closed-form resistance between two edge-product vertices.

    As ``resistance_vertex_corona``, for the edge product.
    """
    return _pair_query(g1, g2, i, j, one_inv, EDGE_KIND)


def closed_form_resistance_matrix(
    g1: Graph, g2: Graph, kind: str, one_inv: OneInverse | None = None
) -> np.ndarray:
    """Full resistance matrix from the closed-form expression, broadcast over all pairs.

    ``one_inv``, when given, is used instead of assembling a new one; it
    must be the ``kind`` product's ``OneInverse`` for these factors, or
    ``ValueError`` is raised.
    """
    oi = _own_inverse(g1, g2, kind, one_inv)
    p, i = np.divmod(np.arange(oi.layout.n), oi.layout.n1)
    return _resistance(oi.gadget, oi.s_sharp, p[:, None], i[:, None], p, i)


def _float_or_array(value):
    # a query on single indices gives a float, on index arrays the broadcast array
    return float(value) if np.ndim(value) == 0 else value


def vertex_copy_resistance_alt(g2: Graph, a, b):
    """Same-copy resistance variant with a halved cross coefficient.

    ``a`` and ``b`` are second-factor vertices: single indices give a float,
    broadcastable index arrays give the variant for every pair at once, read
    off one shifted inverse.  Kept only so verification can report how far
    this variant drifts from the oracle; the shipped dispatch never uses it.
    """
    _, shift, c = _require_factors(g2, VERTEX_KIND)
    q = _shifted_inverse(g2, shift)
    return _float_or_array(c * q[a, a] + c * q[b, b] - c * q[a, b])


def edge_copy_resistance_alt(g2: Graph, a, b):
    """Same-copy resistance variant reading a three-fold shifted inverse.

    Takes single indices or broadcastable index arrays, as
    ``vertex_copy_resistance_alt`` does.  Differs from the shipped value by
    a factor of nine; reported by verification as an informational
    discrepancy row.  ``g2`` must pass the edge product's gate.
    """
    _, shift, c = _require_factors(g2, EDGE_KIND)
    q = inverse(c * (laplacian(g2) + shift * np.eye(g2.vertex_count)))
    return _float_or_array(q[a, a] + q[b, b] - 2.0 * q[a, b])


def neighbor_identity_check(g: Graph, values) -> float:
    """Largest deviation of the degree-weighted neighbor expansion.

    For each vertex i with neighbor set T(i) and each j != i a resistance
    matrix must satisfy

        r_ij = (1 + sum_{k in T(i)} r_kj - (1/d_i) * P_i) / d_i

    where ``P_i`` sums r_kl over unordered neighbor pairs {k, l} of i,
    each pair counted once.  Every (i, j) is evaluated at once from the
    dense adjacency matrix A: the neighbor sums are ``A r`` and
    ``P = diag(A triu(r, 1) A)``.  Vertices of degree 0 and the diagonal
    count as deviation 0, and a graph without vertices gives 0.0.  Returns
    the maximum absolute deviation.
    """
    r = np.asarray(values, dtype=np.float64)
    n = g.vertex_count
    if r.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix, got shape {r.shape}")
    if n == 0:
        return 0.0
    a = adjacency_matrix(g)
    d = a.sum(axis=1)
    isolated = d == 0
    d[isolated] = 1.0  # their rows are zeroed at the end; this only avoids 0 / 0
    # P_i = sum_k A_ik (triu(r, 1) A)_ki; the one buffer then takes A r in place
    rhs = np.triu(r, 1) @ a
    rhs *= a
    pair_sum = rhs.sum(axis=0)
    np.matmul(a, r, out=rhs)
    rhs += 1.0
    rhs -= (pair_sum / d)[:, None]
    rhs /= d[:, None]
    rhs -= r
    np.abs(rhs, out=rhs)
    np.fill_diagonal(rhs, 0.0)
    rhs[isolated] = 0.0
    return float(rhs.max())


def metric_violation(values) -> float:
    """Largest violation of the metric axioms by a resistance matrix.

    Checks symmetry, zero diagonal, nonnegativity and the triangle
    inequality over all index triples; returns the worst offense.
    """
    r = np.asarray(values, dtype=np.float64)
    if r.size == 0:
        return 0.0
    worst = float(np.abs(r - r.T).max())
    worst = max(worst, float(np.abs(np.diag(r)).max()))
    worst = max(worst, max(0.0, -float(r.min())))
    # running minimum over the middle vertex: n x n memory, not n x n x n
    through = r[:, :1] + r[:1, :]
    for k in range(1, r.shape[0]):
        np.minimum(through, r[:, k : k + 1] + r[k : k + 1, :], out=through)
    worst = max(worst, max(0.0, float((r - through).max())))
    return worst


def kirchhoff_oracle(g: Graph) -> KirchhoffResult:
    """Kirchhoff index as n times the trace of the Laplacian group inverse.

    The dense reference: one Cholesky inverse of ``L + J/n``, ``n^3`` work
    and ``n^2`` memory.  The closed forms take ``Kf(G1)`` from a separate
    route, a selected inversion of the grounded Laplacian, so this oracle
    and the closed forms share no factorization.  Cross-checked internally
    against the unordered-pair resistance sum, ``n tr X - 1'X1``, which both
    come from ``group_inverse_trace_and_sum`` without forming ``X`` or a
    resistance matrix; disagreement beyond ``RESIDUAL_TOL`` relative to
    ``1 + Kf`` raises, since that would mean the oracle itself is broken.
    The Cholesky factor is also the connectivity test.
    """
    try:
        trace, total = group_inverse_trace_and_sum(laplacian(g))
    except PreconditionError:
        raise PreconditionError(KIRCHHOFF_NEEDS_CONNECTED) from None
    value = float(g.vertex_count * trace)
    pair_sum = value - total
    if abs(value - pair_sum) > RESIDUAL_TOL * (1.0 + abs(value)):
        raise CoronaKitError(
            f"oracle self-check failed: trace route {value} vs pair sum {pair_sum}"
        )
    return KirchhoffResult(value=value, method="oracle-trace")


# Smallest block of grounded vertices.  Smaller blocks take fewer flops and
# more Python steps: with one BLAS thread, 32 and 64 were within 15 % of each
# other on paths and grids of 500 to 4000 vertices, and 128 was 2.5 times
# slower.
_MIN_BLOCK = 64


def _block(diag: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # the lower triangle of diag(diag) - A for the edges u < v of one block:
    # _symmetric_inverse reads nothing above the diagonal
    s = np.zeros((len(diag), len(diag)))
    s[v, u] = -1.0
    np.fill_diagonal(s, diag)
    return s


def _selected_inverse(diag: np.ndarray, u: np.ndarray, v: np.ndarray, f: np.ndarray):
    """Diagonal, edge entries and ``f'Mf`` of ``M = (diag(diag) - A)^-1``, block by block.

    ``A`` is the 0/1 adjacency matrix of the edges ``(u, v)``, given with
    ``u < v`` and sorted by ``u``; ``diag(diag) - A`` must be positive
    definite: a grounded Laplacian, or a Laplacian plus a positive shift.
    Returns ``(M_ii for every i, M_uv for every edge, f'Mf)``, and
    ``(empty, empty, 0.0)`` for an empty ``diag``.

    The ``N`` vertices are split evenly into ``max(1, N // s)`` blocks, where
    ``s = max(k, 64)`` and ``k`` is the largest ``v - u``, so every block is
    at least ``k`` wide and the matrix is block tridiagonal with diagonal
    blocks ``D_b`` and sub-diagonal blocks ``B_b``.  A forward pass inverts
    the Schur complements ``S_b = D_b - P_{b-1} B_{b-1}'``,
    ``P_b = B_b S_b^-1``, one Cholesky factor at a time, and sums
    ``f'Mf = sum_b g_b' S_b^-1 g_b`` over the eliminated vector
    ``g_b = f_b - P_{b-1} g_{b-1}``.  A backward pass runs the Takahashi
    recurrence

        M_{b+1,b} = -M_{b+1} P_b,    M_b = S_b^-1 + P_b' M_{b+1} P_b,

    which yields the entries of ``M`` on the pattern of the matrix, diagonal
    included.  Cost is about ``N s^2`` flops and ``O(N s)`` memory; when
    ``k >= N / 2`` there is one block, a dense Cholesky inverse.  A failed
    Cholesky factor, or a pivot at most ``ENTRY_TOL`` times the block's
    largest, raises ``PreconditionError``.
    """
    size = len(diag)
    if size == 0:
        return np.zeros(0), np.zeros(0), 0.0
    width = max(int((v - u).max(initial=0)), _MIN_BLOCK)
    count = max(1, size // width)
    if count == 1:
        # one block, M = S_0^-1: the same arithmetic without the block indices
        m = _symmetric_inverse(_block(diag, u, v))
        return m.diagonal().copy(), m[v, u], float(f @ m @ f)
    bounds = size * np.arange(count + 1) // count
    # the edges are sorted by their smaller end, so those starting in block b
    # are the run first[b]:first[b + 1]; each lies inside block b or reaches
    # into block b + 1, where it is an entry of B_b
    first = np.searchsorted(u, bounds)

    # forward: S_b^-1 and P_b block by block, with the f'Mf sum
    inverses, couplings, local = [], [], []
    total = 0.0
    rhs = f[: bounds[1]]  # g_0
    for b in range(count):
        lo, hi = bounds[b], bounds[b + 1]
        eu, ev = u[first[b] : first[b + 1]] - lo, v[first[b] : first[b + 1]] - lo
        inside = ev < hi - lo
        iu, iv = eu[inside], ev[inside]
        cu, cv = eu[~inside], ev[~inside] - (hi - lo)  # row indices local to block b + 1
        local.append((inside, iu, iv, cu, cv))
        s = _block(diag[lo:hi], iu, iv)
        if b:
            s -= p @ coupling.T
        z = _symmetric_inverse(s)
        total += float(rhs @ z @ rhs)
        inverses.append(z)
        if b < count - 1:
            coupling = np.zeros((bounds[b + 2] - hi, hi - lo))  # B_b
            coupling[cv, cu] = -1.0
            p = coupling @ z
            couplings.append(p)
            rhs = f[hi : bounds[b + 2]] - p @ rhs  # g_{b+1}

    # backward: the Takahashi recurrence, reading M on the edges as it goes
    diagonal = np.empty(size)
    on_edges = np.empty(len(u))
    for b in reversed(range(count)):
        inside, iu, iv, cu, cv = local[b]
        run = on_edges[first[b] : first[b + 1]]
        m = inverses[b]
        if b < count - 1:
            p = couplings[b]
            y = m_next @ p  # -M_{b+1,b}
            run[~inside] = -y[cv, cu]
            m += p.T @ y
        run[inside] = m[iv, iu]
        diagonal[bounds[b] : bounds[b + 1]] = m.diagonal()
        m_next = m
    return diagonal, on_edges, total


def _hub_grounded_order(g: Graph, degrees: np.ndarray):
    # ground the highest-degree vertex and number the others by reverse
    # Cuthill-McKee; returns the edges away from the ground as u < v sorted by
    # u, and the other vertices' degrees, in that numbering
    import scipy.sparse
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    size = g.vertex_count - 1
    hub = int(degrees.argmax())
    ends = g._ends[(g._ends != hub).all(axis=1)]
    ends = ends - (ends > hub)
    # both directions of every edge: row a holds b and row b holds a
    rows, cols = ends.T.ravel(), ends[:, ::-1].T.ravel()
    pattern = scipy.sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=(size, size))
    order = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(size)
    ends = np.sort(rank[ends], axis=1)
    u, v = ends[np.argsort(ends[:, 0], kind="stable")].T
    return u, v, np.delete(degrees, hub)[order]


def _grounded_kirchhoff(g: Graph) -> float:
    """Kirchhoff index of a connected graph by selected inversion of its grounded Laplacian.

    Ground one vertex: ``A`` is the Laplacian without its row and column,
    positive definite exactly when ``g`` is connected, and with
    ``M = A^-1`` zero-padded, ``Kf = n tr M - 1'M1``, both read off
    ``_selected_inverse``.  The ground is the last vertex, in the given
    numbering, unless that numbering leaves one dense block: when there are
    at least ``2 * 64`` grounded vertices and some edge away from the last
    vertex spans at least half of them, the highest-degree vertex is
    grounded instead (a wheel's hub, leaving its rim a cycle) and the others
    are renumbered by reverse Cuthill-McKee, which narrows the band of a
    wheel's rim to 2 and of a circulant ``C_n(1, j)`` to about ``2j``.
    Banded numberings keep their route, and their bits.  Cost is about ``n s^2`` flops and ``O(n s)``
    memory for ``s = max(bandwidth, 64)``.

    Self-check (Foster's theorem): the edge resistances, ``M_uu + M_vv -
    2 M_uv`` and ``M_uu`` for an edge at the ground, sum to ``n - 1``; a miss
    by more than ``RESIDUAL_TOL * max(1, n - 1)`` raises ``CoronaKitError``.
    A failed Cholesky factor, or a pivot at most ``ENTRY_TOL`` times the
    block's largest, raises ``PreconditionError``.
    """
    n = g.vertex_count
    size = n - 1
    if size <= 0:
        return 0.0
    degrees = g.degrees().astype(np.float64)
    u, v = g._ends.T
    away = v < size  # canonical ends have u < v; v == size is the ground
    u, v = u[away], v[away]
    if size >= 2 * _MIN_BLOCK and int((v - u).max(initial=0)) >= size // 2:
        u, v, grounded = _hub_grounded_order(g, degrees)
    else:
        grounded = degrees[:size]
    diagonal, on_edges, total = _selected_inverse(grounded, u, v, np.ones(size))

    # Foster: the edge resistances M_uu + M_vv - 2 M_uv, and M_uu for an edge
    # at the ground, sum to n - 1; gathered by vertex, the diagonal terms are
    # each vertex's degree times M_uu
    foster = float(grounded @ diagonal - 2.0 * on_edges.sum())
    if abs(foster - size) > RESIDUAL_TOL * size:
        raise CoronaKitError(f"grounded inverse self-check failed: Foster sum {foster} vs {size}")
    return float(n * diagonal.sum() - total)


@lru_cache(maxsize=32)
def _first_factor_kirchhoff(g1: Graph) -> float:
    # Kf(G1) is the same for every second factor and both kinds, so it is
    # computed once per first-factor value; Graph hashes by value.  The
    # grounded factorization is G1's connectivity test, and a raise caches
    # nothing
    try:
        return _grounded_kirchhoff(g1)
    except PreconditionError:
        raise PreconditionError("first factor must be connected") from None


def _kirchhoff_bracket(g1: Graph, g2: Graph, c: float, first: float, t: float, s: float) -> float:
    # n1 (1 + n2 + m2) times the bracket of Thm 4.1, Cor 4.2 and Thm 4.3, with
    # c = 2 (vertex) or 3 (edge), first = Kf(G1) and each theorem's trace term
    # t and shifted sum s
    n1 = g1.vertex_count
    n2, m2 = g2.vertex_count, g2.edge_count
    bracket = (
        n1 * m2 / c
        + (n1 / c) * t
        + c * n1 * s
        + ((m2 + n2 + 1) / n1) * first
    )
    return n1 * (1 + n2 + m2) * bracket


@lru_cache(maxsize=32)
def _shifted_pieces(g2: Graph, shift: float) -> tuple[float, float, float, float]:
    # (S, tr(Q^-1 A2), tr(Q^-1 D2), d'Q^-1 d) for Q = L2 + shift I and the
    # degree vector d, from one selected inversion in G2's own numbering:
    # A2 is symmetric and D2 diagonal, so the traces need only M's diagonal
    # and its entries on the edges; S = tr Q^-1 = sum 1/(mu_i + shift) over
    # the spectrum of L2.  Memoized like Kf(G1), per (G2 value, shift): Thm
    # 4.1, Cor 4.2 and Thm 4.3 on a 2-regular G2 share one entry
    degrees = g2.degrees().astype(np.float64)
    u, v = g2._ends.T
    diagonal, on_edges, quadratic = _selected_inverse(degrees + shift, u, v, degrees)
    return float(diagonal.sum()), 2.0 * float(on_edges.sum()), float(diagonal @ degrees), quadratic


def _kirchhoff_inputs(g1: Graph, g2: Graph, kind: str, regular: bool = False) -> tuple:
    # (r2, c, Kf(G1), *G2's pieces for Q = L2 + shift I), preconditions first: an empty
    # G1 (corona), the gate, then Kf(G1), whose factorization is G1's connectivity
    # test, before the pieces, so a call that raises leaves both memos empty
    corona(g1, g2, kind)
    r2, shift, c = _require_factors(g2, kind, regular)
    return (r2, c, _first_factor_kirchhoff(g1), *_shifted_pieces(g2, shift))


def kf_vertex_corona(g1: Graph, g2: Graph) -> KirchhoffResult:
    """Closed-form Kirchhoff index of the vertex product, any second factor."""
    _, c, first, shifted_sum, adjacency_trace, degree_trace, quadratic = _kirchhoff_inputs(g1, g2, VERTEX_KIND)
    n1, n2, m2 = g1.vertex_count, g2.vertex_count, g2.edge_count
    value = (
        _kirchhoff_bracket(g1, g2, c, first, adjacency_trace + degree_trace, shifted_sum)
        - (n1 / 2.0) * quadratic
        - (5.0 * n1 * m2 + 2.0 * n1 * n2) / 2.0
    )
    return KirchhoffResult(value=value, method="theorem-4.1")


def kf_vertex_corona_regular(g1: Graph, g2: Graph) -> KirchhoffResult:
    """Vertex-product Kirchhoff index specialized to a regular second factor.

    Degree zero is allowed; only regularity matters here.
    """
    r2, c, first, shifted_sum = _kirchhoff_inputs(g1, g2, VERTEX_KIND, regular=True)[:4]
    n1, n2, m2 = g1.vertex_count, g2.vertex_count, g2.edge_count
    # sum mu/(mu + 2) = sum (1 - 2/(mu + 2)) = n2 - 2S
    trace_terms = 2.0 * r2 * shifted_sum - (n2 - 2.0 * shifted_sum)
    value = (
        _kirchhoff_bracket(g1, g2, c, first, trace_terms, shifted_sum)
        - n1 * n2 * r2 * r2 / 4.0
        - (5.0 * n1 * m2 + 2.0 * n1 * n2) / 2.0
    )
    return KirchhoffResult(value=value, method="corollary-4.2")


def kf_edge_corona_regular(g1: Graph, g2: Graph) -> KirchhoffResult:
    """Closed-form Kirchhoff index of the edge product.

    Needs a regular second factor of degree at least 1; otherwise the
    product is disconnected and the index is undefined.
    """
    r2, c, first, shifted_sum, adjacency_trace = _kirchhoff_inputs(g1, g2, EDGE_KIND)[:5]
    n1, n2, m2 = g1.vertex_count, g2.vertex_count, g2.edge_count
    trace_terms = adjacency_trace + r2 * shifted_sum
    value = _kirchhoff_bracket(g1, g2, c, first, trace_terms, shifted_sum) - (
        n1 * m2 * r2 + n1 * n2 * (r2 + 3.0) ** 2
    ) / (3.0 * r2)
    return KirchhoffResult(value=value, method="theorem-4.3")
