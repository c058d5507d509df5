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
second factor; ``T = (I + R2^T Q^-1 R2) / c``.  Only ``W``, which holds
``c Q^-1`` in its copy block, and ``S#`` are stored; the product-size matrix
is built only when ``OneInverse.matrix`` is read.

Both product-size matrices built here, ``OneInverse.matrix`` and
``laplacian_of_product``, are written by a strided lift: on the
``(b, n1, b, n1)`` view of a product-size buffer, ``A (x) I_{n1}`` is ``A``
at every ``[:, k, :, k]``, so one fancy-index add writes it in place,
without ``np.kron``'s temporaries.  The product Laplacian is never
inverted here; that brute-force route lives in the metrics module and
serves as the independent oracle.
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
    is_regular,
    laplacian,
)
from .linalg import _lift, group_inverse_laplacian, inverse


@dataclass(frozen=True, eq=False)
class OneInverse:
    """Symmetric {1}-inverse of a product Laplacian, kept in factor-sized pieces.

    Attributes
    ----------
    layout : CoronaLayout
        The product this inverse belongs to; ``layout.kind`` is its kind.
    s_sharp : ndarray
        Group inverse of the first factor's Laplacian, n1 x n1.
    gadget : ndarray
        The b x b gadget matrix ``W``, b = m2 + n2 + 1.
    """

    layout: CoronaLayout
    s_sharp: np.ndarray
    gadget: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The full product-size matrix ``W (x) I + J (x) S#``, built on every read.

        ``S#`` is broadcast into every block of one buffer and ``W`` is
        lifted onto it in place, with the bits of ``np.kron``'s sum.
        """
        b, n1 = self.gadget.shape[0], self.layout.n1
        x = np.empty((b * n1, b * n1))
        x.reshape(b, n1, b, n1)[...] = self.s_sharp[:, None, :]
        _lift(x, self.gadget)
        return x

    def __post_init__(self) -> None:
        # read-only views of W and S# for pair queries, a plain attribute for a
        # fast read: their items are Python floats, and they copy nothing
        views = self.gadget.data.toreadonly(), self.s_sharp.data.toreadonly()
        object.__setattr__(self, "_views", views)

    def __reduce__(self):
        # memoryviews do not pickle or deep-copy; the views are rebuilt from the arrays
        return OneInverse, (self.layout, self.s_sharp, self.gadget)


def _require_factors(g2: Graph, kind: str, _regular: bool = False) -> tuple[int | None, float, float]:
    """The closed forms' one gate on the second factor; returns ``(r2, shift, c)``.

    ``r2`` is the degree of ``g2``, None if it is not regular; the ``kind`` gadget
    reads ``Q = L2 + shift I`` and ``c Q^-1``, with ``(2.0, 2.0)`` for the vertex
    kind and ``(float(r2), 3.0)`` for the edge kind, which needs ``r2 >= 1``.
    ``_regular`` adds Cor 4.2's rule, a regular ``g2``, to the vertex kind.
    ``corona`` has rejected an empty first factor, and each caller's
    factorization of the first factor, the grounded Laplacian for ``Kf(G1)``
    or ``L1 + J/n1`` for ``S#``, is its connectivity test.
    """
    r2 = is_regular(g2)
    if kind == EDGE_KIND:
        if r2 is None:
            raise PreconditionError("edge product needs a regular second factor")
        if r2 < 1:
            raise PreconditionError("edge product needs second-factor degree at least 1")
        return r2, float(r2), 3.0
    if _regular and r2 is None:
        raise PreconditionError("this formula needs a regular second factor")
    return r2, 2.0, 2.0


def _shifted_inverse(g2: Graph, shift: float) -> np.ndarray:
    """``inverse(L2 + shift I)``, the second-factor piece every closed form reads.

    LU, as ``dpotri`` slows on the subnormal tail of ``Q^-1``: 2.46 s against LU's 0.54 s on C2000.
    """
    return inverse(laplacian(g2) + shift * np.eye(g2.vertex_count))


def one_inverse_corona(g1: Graph, g2: Graph, kind: str) -> OneInverse:
    """Symmetric {1}-inverse of the ``kind`` product's Laplacian."""
    layout = corona(g1, g2, kind)
    # S# first: its Cholesky factor is the first factor's connectivity test,
    # which comes before the second factor's checks
    try:
        s_sharp = group_inverse_laplacian(laplacian(g1))
    except PreconditionError:
        raise PreconditionError("first factor must be connected") from None
    _, shift, coeff = _require_factors(g2, kind)
    n2, m2 = layout.n2, layout.m2
    r2mat = incidence_matrix(g2)
    q_inv = _shifted_inverse(g2, shift)
    q_inv = 0.5 * (q_inv + q_inv.T)
    t_small = (np.eye(m2) + r2mat.T @ q_inv @ r2mat) / coeff
    coupling = r2mat.T @ q_inv

    # every block is exactly symmetric, so X == X.T holds bit for bit
    w = np.zeros((m2 + n2 + 1,) * 2)
    sub, cop = slice(0, m2), slice(m2, m2 + n2)
    w[sub, sub] = 0.5 * (t_small + t_small.T)
    w[sub, cop] = coupling
    w[cop, sub] = coupling.T
    w[cop, cop] = coeff * q_inv
    return OneInverse(layout=layout, s_sharp=s_sharp, gadget=w)


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

    The b x b gadget Laplacian is written in the three-block form, with
    ``R2`` the incidence and ``D2`` the degree matrix of the second factor:

        vertex kind  [[ 2I,    -R2^T,   0  ],    edge kind  [[ 3I,    -R2^T,  -1 ],
                      [ -R2,   D2 + I,  -1 ],                [ -R2,   D2,      0 ],
                      [ 0,     -1',     n2 ]]                [ -1',   0,      m2 ]]

    It is lifted once to ``L_B (x) I_n1`` and ``L(G1)`` is added on the
    base block.  Equals ``laplacian(layout.product)`` entrywise; the
    equality is the check that the three-block numbering matches the
    Kronecker structure.  Entries off the pattern are ``+0.0``, as in
    ``laplacian``.
    """
    n1, n2, m2 = layout.n1, layout.n2, layout.m2
    b = m2 + n2 + 1
    r2mat = incidence_matrix(layout.g2)
    sub, cop, bas = slice(0, m2), slice(m2, m2 + n2), m2 + n2
    gadget = np.zeros((b, b))
    gadget[sub, cop] = -r2mat.T
    gadget[cop, sub] = -r2mat
    if layout.kind == VERTEX_KIND:
        gadget[sub, sub] = 2.0 * np.eye(m2)
        gadget[cop, cop] = degree_matrix(layout.g2) + np.eye(n2)
        gadget[cop, bas] = -1.0
        gadget[bas, cop] = -1.0
        gadget[bas, bas] = n2
    else:
        gadget[sub, sub] = 3.0 * np.eye(m2)
        gadget[sub, bas] = -1.0
        gadget[bas, sub] = -1.0
        gadget[cop, cop] = degree_matrix(layout.g2)
        gadget[bas, bas] = m2
    lap = np.zeros((layout.n, layout.n))
    _lift(lap, gadget)
    lap[bas * n1 :, bas * n1 :] += laplacian(layout.g1)
    return lap
