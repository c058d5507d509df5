"""Resistance distances and Kirchhoff indices, closed-form and brute-force.

Two independent routes to every quantity:

* oracle: invert nothing but the full product Laplacian's rank-one shift,
  i.e. the group inverse of the whole graph, and read resistances off it.
* closed form: one expression over the factor-sized pieces of the
  {1}-inverse ``X = W (x) I + J (x) S#`` (see the one_inverse module).
  For product vertices ``(p, i)`` and ``(q, j)``, gadget positions ``p, q``
  owned by first-factor vertices ``i, j``,

      r = W_pp + W_qq - 2 W_pq [i = j] + S#_ii + S#_jj - 2 S#_ij,

  which serves single pairs and, broadcast, the whole matrix; plus closed
  Kirchhoff-index expressions that never touch the product at all.

The oracle route is deliberately kept free of any shared code with the
assembly so agreement between the two is meaningful evidence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoronaKitError, PreconditionError
from .graphs import (
    EDGE_KIND,
    VERTEX_KIND,
    Coord,
    Graph,
    adjacency_matrix,
    is_connected,
    is_regular,
    laplacian,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    group_inverse_laplacian,
    inverse,
    symmetric_eigenvalues,
)
from .one_inverse import OneInverse, _require_factors, one_inverse_corona


@dataclass(frozen=True, eq=False)
class ResistanceMatrix:
    """Pairwise effective resistances with the route that produced them.

    provenance is one of "oracle", "one-inverse-vertex",
    "one-inverse-edge" or "closed-form".
    """

    values: np.ndarray
    provenance: str


@dataclass(frozen=True)
class KirchhoffResult:
    """A Kirchhoff index value tagged with the formula that produced it.

    method is one of "oracle-trace", "oracle-sum", "theorem-4.1",
    "corollary-4.2" or "theorem-4.3".
    """

    value: float
    method: str


def resistance_matrix_from_one_inverse(x: np.ndarray) -> np.ndarray:
    d = np.diag(x)
    return d[:, None] + d[None, :] - x - x.T


def resistance_oracle(g: Graph, tol: Tolerances = DEFAULT_TOLERANCES) -> ResistanceMatrix:
    """Brute-force resistance matrix through the full-graph group inverse."""
    if not is_connected(g):
        raise PreconditionError("resistance distance needs a connected graph")
    x = group_inverse_laplacian(laplacian(g), tol)
    return ResistanceMatrix(values=resistance_matrix_from_one_inverse(x), provenance="oracle")


def one_inverse_resistance_matrix(
    g1: Graph,
    g2: Graph,
    kind: str,
    tol: Tolerances = DEFAULT_TOLERANCES,
    one_inv: OneInverse | None = None,
) -> ResistanceMatrix:
    """Resistance matrix read directly off the materialized product-size {1}-inverse.

    ``one_inv``, when given, is the product's ``OneInverse`` and is used
    instead of assembling a new one.
    """
    oi = one_inv if one_inv is not None else one_inverse_corona(g1, g2, kind, tol)
    return ResistanceMatrix(
        values=resistance_matrix_from_one_inverse(oi.matrix),
        provenance=f"one-inverse-{kind}",
    )


def _resistance(oi: OneInverse, u, v):
    # global index p*n1 + i is gadget position p owned by first-factor vertex i;
    # u and v may be single indices or broadcastable index arrays
    p, i = divmod(u, oi.layout.n1)
    q, j = divmod(v, oi.layout.n1)
    w, s = oi.gadget, oi.s_sharp
    return w[p, p] + w[q, q] - 2.0 * w[p, q] * (i == j) + (s[i, i] + s[j, j] - 2.0 * s[i, j])


def _pair_query(
    g1: Graph, g2: Graph, i: Coord, j: Coord, one_inv: OneInverse | None, tol: Tolerances, kind: str
) -> float:
    oi = one_inv if one_inv is not None else one_inverse_corona(g1, g2, kind, tol)
    return float(_resistance(oi, oi.layout.global_index(i), oi.layout.global_index(j)))


def resistance_vertex_corona(
    g1: Graph,
    g2: Graph,
    i: Coord,
    j: Coord,
    one_inv: OneInverse | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Closed-form resistance between two vertex-product vertices.

    Coordinates are (class, local index, copy owner) triples as produced
    by ``CoronaLayout.classify``.
    """
    return _pair_query(g1, g2, i, j, one_inv, tol, VERTEX_KIND)


def resistance_edge_corona(
    g1: Graph,
    g2: Graph,
    i: Coord,
    j: Coord,
    one_inv: OneInverse | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Closed-form resistance between two edge-product vertices."""
    return _pair_query(g1, g2, i, j, one_inv, tol, EDGE_KIND)


def closed_form_resistance_matrix(
    g1: Graph,
    g2: Graph,
    kind: str,
    tol: Tolerances = DEFAULT_TOLERANCES,
    one_inv: OneInverse | None = None,
) -> ResistanceMatrix:
    """Full resistance matrix from the closed-form expression, broadcast over all pairs.

    ``one_inv``, when given, is the product's ``OneInverse`` and is used
    instead of assembling a new one.
    """
    oi = one_inv if one_inv is not None else one_inverse_corona(g1, g2, kind, tol)
    v = np.arange(oi.layout.n)
    return ResistanceMatrix(values=_resistance(oi, v[:, None], v), provenance="closed-form")


def _float_or_array(value):
    # a query on single indices gives a float, on index arrays the broadcast array
    return float(value) if np.ndim(value) == 0 else value


def vertex_copy_resistance_alt(g2: Graph, a, b, tol: Tolerances = DEFAULT_TOLERANCES):
    """Same-copy resistance variant with a halved cross coefficient.

    ``a`` and ``b`` are second-factor vertices: single indices give a float,
    broadcastable index arrays give the variant for every pair at once, read
    off one shifted inverse.  Kept only so verification can report how far
    this variant drifts from the oracle; the shipped dispatch never uses it.
    """
    q = inverse(laplacian(g2) + 2.0 * np.eye(g2.vertex_count), tol)
    return _float_or_array(2.0 * q[a, a] + 2.0 * q[b, b] - 2.0 * q[a, b])


def edge_copy_resistance_alt(g2: Graph, a, b, tol: Tolerances = DEFAULT_TOLERANCES):
    """Same-copy resistance variant reading a three-fold shifted inverse.

    Takes single indices or broadcastable index arrays, as
    ``vertex_copy_resistance_alt`` does.  Differs from the shipped value by
    a factor of nine; reported by verification as an informational
    discrepancy row.
    """
    r2 = is_regular(g2)
    if r2 is None or r2 < 1:
        raise PreconditionError("variant needs a regular second factor of degree at least 1")
    q = inverse(3.0 * (laplacian(g2) + float(r2) * np.eye(g2.vertex_count)), tol)
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
    r = values.values if isinstance(values, ResistanceMatrix) else np.asarray(values, dtype=np.float64)
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
    r = values.values if isinstance(values, ResistanceMatrix) else np.asarray(values, dtype=np.float64)
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


def kirchhoff_oracle(g: Graph, tol: Tolerances = DEFAULT_TOLERANCES) -> KirchhoffResult:
    """Kirchhoff index as n times the trace of the Laplacian group inverse.

    Cross-checked internally against the unordered-pair resistance sum;
    disagreement beyond the residual tolerance relative to ``1 + Kf``
    raises, since that would mean the oracle itself is broken.
    """
    if not is_connected(g):
        raise PreconditionError("Kirchhoff index needs a connected graph")
    x = group_inverse_laplacian(laplacian(g), tol)
    n = g.vertex_count
    value = float(n * np.trace(x))
    pair_sum = float(resistance_matrix_from_one_inverse(x).sum() / 2.0)
    if abs(value - pair_sum) > tol.residual * (1.0 + abs(value)):
        raise CoronaKitError(
            f"oracle self-check failed: trace route {value} vs pair sum {pair_sum}"
        )
    return KirchhoffResult(value=value, method="oracle-trace")


def kirchhoff_pair_sum(g: Graph, tol: Tolerances = DEFAULT_TOLERANCES) -> KirchhoffResult:
    """Kirchhoff index as the sum of resistances over unordered pairs."""
    rm = resistance_oracle(g, tol)
    return KirchhoffResult(value=float(rm.values.sum() / 2.0), method="oracle-sum")


def _kf_common(g1: Graph, g2: Graph, kind: str, tol: Tolerances) -> tuple[float, int]:
    # preconditions before the first factor's oracle; returns (Kf(G1), r2)
    r2 = _require_factors(g1, g2, kind)
    return kirchhoff_oracle(g1, tol).value, r2


def kf_vertex_corona(g1: Graph, g2: Graph, tol: Tolerances = DEFAULT_TOLERANCES) -> KirchhoffResult:
    """Closed-form Kirchhoff index of the vertex product, any second factor."""
    kf1, _ = _kf_common(g1, g2, VERTEX_KIND, tol)
    n1 = g1.vertex_count
    n2, m2 = g2.vertex_count, g2.edge_count
    total = n1 * (1 + n2 + m2)
    a2 = adjacency_matrix(g2)
    degrees = g2.degrees().astype(np.float64)
    q_inv = inverse(laplacian(g2) + 2.0 * np.eye(n2), tol)
    shifted_sum = float(np.trace(q_inv))  # sum 1/(mu_i + 2) over the spectrum of L2
    # tr(Q^-1 A2) + tr(Q^-1 D2) without the n2^3 products: A2 is symmetric, D2 diagonal
    trace_terms = float(np.sum(q_inv * a2) + q_inv.diagonal() @ degrees)
    bracket = (
        n1 * m2 / 2.0
        + (n1 / 2.0) * trace_terms
        + 2.0 * n1 * shifted_sum
        + ((m2 + n2 + 1) / n1) * kf1
    )
    value = (
        total * bracket
        - (n1 / 2.0) * float(degrees @ q_inv @ degrees)
        - (5.0 * n1 * m2 + 2.0 * n1 * n2) / 2.0
    )
    return KirchhoffResult(value=value, method="theorem-4.1")


def kf_vertex_corona_regular(
    g1: Graph, g2: Graph, tol: Tolerances = DEFAULT_TOLERANCES
) -> KirchhoffResult:
    """Vertex-product Kirchhoff index specialized to a regular second factor.

    Degree zero is allowed; only regularity matters here.
    """
    kf1, _ = _kf_common(g1, g2, VERTEX_KIND, tol)
    r2 = is_regular(g2)
    if r2 is None:
        raise PreconditionError("this formula needs a regular second factor")
    n1 = g1.vertex_count
    n2, m2 = g2.vertex_count, g2.edge_count
    total = n1 * (1 + n2 + m2)
    mu = symmetric_eigenvalues(laplacian(g2), tol)
    shifted_sum = float(np.sum(1.0 / (mu + 2.0)))
    mu_ratio = float(np.sum(mu / (mu + 2.0)))
    bracket = (
        n1 * m2 / 2.0
        + (n1 / 2.0) * (2.0 * r2 * shifted_sum - mu_ratio)
        + 2.0 * n1 * shifted_sum
        + ((m2 + n2 + 1) / n1) * kf1
    )
    value = (
        total * bracket
        - n1 * n2 * r2 * r2 / 4.0
        - (5.0 * n1 * m2 + 2.0 * n1 * n2) / 2.0
    )
    return KirchhoffResult(value=value, method="corollary-4.2")


def kf_edge_corona_regular(
    g1: Graph, g2: Graph, tol: Tolerances = DEFAULT_TOLERANCES
) -> KirchhoffResult:
    """Closed-form Kirchhoff index of the edge product.

    Needs a regular second factor of degree at least 1; otherwise the
    product is disconnected and the index is undefined.
    """
    kf1, r2 = _kf_common(g1, g2, EDGE_KIND, tol)
    n1 = g1.vertex_count
    n2, m2 = g2.vertex_count, g2.edge_count
    total = n1 * (1 + n2 + m2)
    a2 = adjacency_matrix(g2)
    c_inv = inverse(laplacian(g2) + float(r2) * np.eye(n2), tol)
    shifted_sum = float(np.trace(c_inv))  # sum 1/(mu_i + r2) over the spectrum of L2
    bracket = (
        n1 * m2 / 3.0
        + (n1 / 3.0) * (float(np.sum(c_inv * a2)) + r2 * shifted_sum)
        + 3.0 * n1 * shifted_sum
        + ((m2 + n2 + 1) / n1) * kf1
    )
    value = total * bracket - (n1 * m2 * r2 + n1 * n2 * (r2 + 3.0) ** 2) / (3.0 * r2)
    return KirchhoffResult(value=value, method="theorem-4.3")
