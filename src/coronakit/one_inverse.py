"""Closed-form {1}-inverses of corona-product Laplacians.

Every product vertex has global index ``p*n1 + i``: ``i`` is the owning
first-factor vertex and ``p`` its position in the gadget, i.e. the copy of
``S(G2)`` plus base vertex hung on ``i`` (subdivision vertex of edge ``e``
at ``p = e``, copy of vertex ``a`` at ``p = m2 + a``, the base at
``p = m2 + n2``).  A symmetric {1}-inverse of the product Laplacian is then
the Kronecker sum

    X = W (x) I_{n1} + J_b (x) S#,        b = m2 + n2 + 1,

with ``S#`` the group inverse of ``L(G1)``, ``J_b`` the all-ones matrix and
``W`` the b x b gadget matrix

    [[ T,          R2^T Q^-1,  0 ],
     [ Q^-1 R2,    c Q^-1,     0 ],
     [ 0,          0,          0 ]].

Here ``R2`` is the incidence matrix of the second factor and ``Q`` its
shifted Laplacian: ``L2 + 2I`` with ``c = 2`` for the vertex product, or
``L2 + r2 I`` with ``c = 3`` for the edge product of an ``r2``-regular
second factor; ``T = (I + R2^T Q^-1 R2) / c``.  Only ``W``, ``Q^-1`` and
``S#`` are stored; the product-size matrix is built only when
``OneInverse.matrix`` is read.  The product Laplacian is never inverted
here; that brute-force route lives in the metrics module and serves as
the independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .graphs import (
    EDGE_KIND,
    VERTEX_KIND,
    CoronaLayout,
    Graph,
    corona,
    degree_matrix,
    incidence_matrix,
    is_connected,
    is_regular,
    laplacian,
)
from .linalg import group_inverse_laplacian, inverse, kron


@dataclass(frozen=True, eq=False)
class OneInverse:
    """Symmetric {1}-inverse of a product Laplacian, kept in factor-sized pieces.

    Attributes
    ----------
    layout : CoronaLayout
        The product this inverse belongs to; ``layout.kind`` is its kind.
    small_inverse : ndarray
        Inverse of the shifted second-factor Laplacian, n2 x n2.
    s_sharp : ndarray
        Group inverse of the first factor's Laplacian, n1 x n1.
    gadget : ndarray
        The b x b gadget matrix ``W``, b = m2 + n2 + 1.
    """

    layout: CoronaLayout
    small_inverse: np.ndarray
    s_sharp: np.ndarray
    gadget: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The full product-size matrix ``W (x) I + J (x) S#``, built on every read."""
        b = self.gadget.shape[0]
        return kron(self.gadget, np.eye(self.layout.n1)) + kron(np.ones((b, b)), self.s_sharp)


def _require_factors(g1: Graph, g2: Graph, kind: str) -> int:
    """Validate preconditions; return the second factor's degree for the edge kind."""
    if g1.vertex_count == 0:
        raise PreconditionError("corona product needs a nonempty first factor")
    if not is_connected(g1):
        raise PreconditionError("first factor must be connected")
    if kind == EDGE_KIND:
        r2 = is_regular(g2)
        if r2 is None:
            raise PreconditionError("edge product needs a regular second factor")
        if r2 < 1:
            raise PreconditionError("edge product needs second-factor degree at least 1")
        return r2
    return 0


def _shifted_inverse(g2: Graph, shift: float) -> np.ndarray:
    """``inverse(L2 + shift I)``, the second-factor piece every closed form reads."""
    return inverse(laplacian(g2) + shift * np.eye(g2.vertex_count))


def one_inverse_corona(g1: Graph, g2: Graph, kind: str) -> OneInverse:
    """Symmetric {1}-inverse of the ``kind`` product's Laplacian."""
    layout = corona(g1, g2, kind)
    r2 = _require_factors(g1, g2, kind)
    n2, m2 = layout.n2, layout.m2
    r2mat = incidence_matrix(g2)
    shift, coeff = (2.0, 2.0) if kind == VERTEX_KIND else (float(r2), 3.0)
    small_inverse = _shifted_inverse(g2, shift)
    small_inverse = 0.5 * (small_inverse + small_inverse.T)
    t_small = (np.eye(m2) + r2mat.T @ small_inverse @ r2mat) / coeff
    coupling = r2mat.T @ small_inverse

    # every block is exactly symmetric, so X == X.T holds bit for bit
    w = np.zeros((m2 + n2 + 1,) * 2)
    sub, cop = slice(0, m2), slice(m2, m2 + n2)
    w[sub, sub] = 0.5 * (t_small + t_small.T)
    w[sub, cop] = coupling
    w[cop, sub] = coupling.T
    w[cop, cop] = coeff * small_inverse
    return OneInverse(
        layout=layout,
        small_inverse=small_inverse,
        s_sharp=group_inverse_laplacian(laplacian(g1)),
        gadget=w,
    )


def one_inverse_vertex_corona(g1: Graph, g2: Graph) -> OneInverse:
    """Symmetric {1}-inverse of the vertex-product Laplacian.

    Requires ``g1`` nonempty and connected; ``g2`` may be any simple graph.
    """
    return one_inverse_corona(g1, g2, VERTEX_KIND)


def one_inverse_edge_corona(g1: Graph, g2: Graph) -> OneInverse:
    """Symmetric {1}-inverse of the edge-product Laplacian.

    Requires ``g1`` nonempty and connected and ``g2`` regular of degree at
    least 1 (otherwise the product is disconnected and the assembly does
    not apply).
    """
    return one_inverse_corona(g1, g2, EDGE_KIND)


def laplacian_of_product(layout: CoronaLayout) -> np.ndarray:
    """Product Laplacian assembled block-wise from the factor matrices.

    Equals ``laplacian(layout.product)`` entrywise; the equality is the
    check that the three-block numbering matches the Kronecker structure.
    """
    g1, g2 = layout.g1, layout.g2
    n1, n2, m2 = layout.n1, layout.n2, layout.m2
    eye1 = np.eye(n1)
    d2 = degree_matrix(g2)
    r2mat = incidence_matrix(g2)
    l1 = laplacian(g1)

    sub, cop, bas = layout.block_slices()
    lap = np.zeros((layout.n, layout.n))
    lap[sub, cop] = kron(-r2mat.T, eye1)
    lap[cop, sub] = kron(-r2mat, eye1)
    if layout.kind == VERTEX_KIND:
        lap[sub, sub] = kron(2.0 * np.eye(m2), eye1)
        lap[cop, cop] = kron(d2 + np.eye(n2), eye1)
        lap[cop, bas] = kron(-np.ones((n2, 1)), eye1)
        lap[bas, cop] = kron(-np.ones((1, n2)), eye1)
        lap[bas, bas] = l1 + n2 * eye1
    else:
        lap[sub, sub] = kron(3.0 * np.eye(m2), eye1)
        lap[sub, bas] = kron(-np.ones((m2, 1)), eye1)
        lap[bas, sub] = kron(-np.ones((1, m2)), eye1)
        lap[cop, cop] = kron(d2, eye1)
        lap[bas, bas] = l1 + m2 * eye1
    return lap
