from __future__ import annotations

import numpy as np
import pytest

from coronakit import (
    Graph,
    PreconditionError,
    corona,
    complete_graph,
    cycle_graph,
    incidence_matrix,
    is_regular,
    laplacian,
    laplacian_of_product,
    named_graph,
    one_inverse_edge_corona,
    one_inverse_vertex_corona,
    path_graph,
)
from coronakit import metrics
from coronakit.one_inverse import _require_factors, one_inverse_corona
from coronakit.verify import CORPUS_G1, CORPUS_G2


def corpus_pairs():
    for a in CORPUS_G1:
        for b in CORPUS_G2:
            yield a, b, named_graph(a), named_graph(b)


def edge_admissible(g2):
    r2 = is_regular(g2)
    return r2 is not None and r2 >= 1


@pytest.mark.parametrize("a,b", [(a, b) for a in CORPUS_G1 for b in CORPUS_G2])
def test_defining_identity_on_corpus(a, b):
    g1, g2 = named_graph(a), named_graph(b)
    assemblies = [one_inverse_vertex_corona(g1, g2)]
    if edge_admissible(g2):
        assemblies.append(one_inverse_edge_corona(g1, g2))
    for oi in assemblies:
        lap = laplacian(oi.layout.product)
        assert np.abs(lap @ oi.matrix @ lap - lap).max() < 1e-8


def test_matrix_is_exactly_symmetric():
    for _, _, g1, g2 in corpus_pairs():
        oi = one_inverse_vertex_corona(g1, g2)
        assert np.array_equal(oi.matrix, oi.matrix.T)
        if edge_admissible(g2):
            oi = one_inverse_edge_corona(g1, g2)
            assert np.array_equal(oi.matrix, oi.matrix.T)


# beyond the corpus: larger first factors and both edge cases, G1 = K1
# (n1 = 1) and G2 = K1 (m2 = 0)
LIFT_PAIRS = [(cycle_graph(5), path_graph(4)), (path_graph(7), cycle_graph(3)),
              (complete_graph(1), cycle_graph(4)), (path_graph(4), complete_graph(1))]


def test_block_laplacian_matches_graph_laplacian_exactly():
    # holds for every layout, including edge products of irregular factors;
    # the strided lift writes +0.0 off the pattern, as laplacian does, where
    # np.kron wrote -0.0 for a negative entry times a zero of the identity
    pairs = [(g1, g2) for _, _, g1, g2 in corpus_pairs()] + LIFT_PAIRS
    for g1, g2 in pairs:
        for layout in (corona(g1, g2, "vertex"), corona(g1, g2, "edge")):
            lap = laplacian_of_product(layout)
            assert np.array_equal(lap, laplacian(layout.product))
            assert not np.signbit(lap[lap == 0.0]).any()


def test_matrix_has_the_bits_of_the_kron_sum():
    pairs = [(g1, g2) for _, _, g1, g2 in corpus_pairs()] + LIFT_PAIRS
    seen = set()
    for g1, g2 in pairs:
        assemblies = [one_inverse_vertex_corona(g1, g2)]
        if edge_admissible(g2):
            assemblies.append(one_inverse_edge_corona(g1, g2))
        for oi in assemblies:
            b, n1 = oi.gadget.shape[0], oi.layout.n1
            want = np.kron(oi.gadget, np.eye(n1)) + np.kron(np.ones((b, b)), oi.s_sharp)
            assert np.array_equal(oi.matrix.view(np.int64), want.view(np.int64))
            seen.add((oi.layout.kind, n1 == 1, oi.layout.m2 == 0))
    # both kinds, with n1 = 1 and m2 = 0 for the vertex kind; an edge product
    # with m2 = 0 has no {1}-inverse, its second factor has degree 0
    assert {("vertex", True, False), ("vertex", False, True), ("edge", True, False),
            ("edge", False, False)} <= seen


def test_block_shapes():
    g1, g2 = named_graph("P3"), named_graph("C4")
    oi = one_inverse_vertex_corona(g1, g2)
    n1, n2, m2 = 3, 4, 4
    b = m2 + n2 + 1
    assert (oi.gadget[m2 : m2 + n2, m2 : m2 + n2] / 2.0).shape == (n2, n2)
    assert oi.s_sharp.shape == (n1, n1)
    assert oi.gadget.shape == (b, b)
    # the base row and column of the gadget are zero
    assert not oi.gadget[-1].any() and not oi.gadget[:, -1].any()
    x = oi.matrix
    assert x.shape == (n1 * b,) * 2
    # the all-ones lifts: every block against the base block is S# stacked
    s, c = n1 * m2, n1 * n2
    sub, cop, bas = slice(0, s), slice(s, s + c), slice(s + c, oi.layout.n)
    assert np.array_equal(x[bas, bas], oi.s_sharp)
    assert np.array_equal(x[sub, bas], np.tile(oi.s_sharp, (m2, 1)))
    assert np.array_equal(x[cop, bas], np.tile(oi.s_sharp, (n2, 1)))


def test_stores_no_product_size_array(monkeypatch):
    # 5550 product vertices; only factor- and gadget-sized pieces are kept,
    # and the product graph is never built
    g1, g2 = cycle_graph(150), complete_graph(8)
    oi = one_inverse_vertex_corona(g1, g2)
    b = g2.edge_count + g2.vertex_count + 1
    assert oi.layout.n == 5550
    assert "product" not in oi.layout.__dict__
    arrays = [v for v in vars(oi).values() if isinstance(v, np.ndarray)]
    assert arrays
    assert max(a.size for a in arrays) <= max(b, g1.vertex_count) ** 2

    # the full matrix is product-size by design, so it is taken on a smaller
    # product; the layout it was broadcast over still holds no graph
    built = []

    def recording(*args, **kwargs):
        built.append(one_inverse_corona(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(metrics, "one_inverse_corona", recording)
    values = metrics.closed_form_resistance_matrix(cycle_graph(15), g2, "vertex")
    assert [x.layout.n for x in built] == [len(values)] == [555]
    assert "product" not in built[0].layout.__dict__


def test_shifted_inverse_ones_vector_identities():
    # (L2 + 2I)^-1 1 = 1/2 and R2^T (L2 + 2I)^-1 1 = 1, used implicitly by
    # the closed Kirchhoff expressions
    for b in CORPUS_G2:
        g2 = named_graph(b)
        oi = one_inverse_vertex_corona(complete_graph(2), g2)
        m2, n2 = g2.edge_count, g2.vertex_count
        q_inv = oi.gadget[m2 : m2 + n2, m2 : m2 + n2] / 2.0  # W's copy block is 2 Q^-1
        ones = np.ones(n2)
        assert np.allclose(2.0 * q_inv @ ones, ones, atol=1e-12)
        r2 = incidence_matrix(g2)
        lifted = r2.T @ q_inv @ ones
        assert np.allclose(lifted, np.ones(g2.edge_count), atol=1e-12)


def test_edge_top_block_fixes_all_ones_lift():
    # T 1 = 1 on the gadget's subdivision block for the edge assembly of a
    # regular second factor, i.e. (T (x) I) H = H for the all-ones lift H
    for b in CORPUS_G2:
        g2 = named_graph(b)
        if not edge_admissible(g2):
            continue
        oi = one_inverse_edge_corona(named_graph("P3"), g2)
        m2 = g2.edge_count
        t = oi.gadget[:m2, :m2]
        assert np.allclose(t @ np.ones(m2), np.ones(m2), atol=1e-12)


def test_schur_complement_of_base_block_is_first_factor_laplacian():
    # eliminating subdivision and copy rows of the product Laplacian leaves
    # exactly L(G1); this is why the corner block of the inverse is its
    # group inverse
    for a, b in (("K2", "C3"), ("P3", "K2"), ("S3", "C4"), ("K3", "K3")):
        g1, g2 = named_graph(a), named_graph(b)
        for layout in (
            corona(g1, g2, "vertex"),
            corona(g1, g2, "edge") if edge_admissible(g2) else None,
        ):
            if layout is None:
                continue
            lap = laplacian(layout.product)
            p = layout.n1 * (layout.m2 + layout.n2)  # the subdivision and copy blocks
            l1 = lap[:p, :p]
            l2 = lap[:p, p:]
            l3 = lap[p:, p:]
            schur = l3 - l2.T @ np.linalg.solve(l1, l2)
            assert np.allclose(schur, laplacian(g1), atol=1e-10)


class TestPreconditions:
    def test_empty_first_factor(self):
        with pytest.raises(PreconditionError):
            one_inverse_vertex_corona(Graph(0), complete_graph(2))

    def test_disconnected_first_factor(self):
        with pytest.raises(PreconditionError):
            one_inverse_vertex_corona(Graph(2), complete_graph(2))

    def test_edge_needs_regular_second_factor(self):
        with pytest.raises(PreconditionError):
            one_inverse_edge_corona(complete_graph(2), path_graph(3))

    def test_edge_rejects_degree_zero(self):
        with pytest.raises(PreconditionError):
            one_inverse_edge_corona(complete_graph(2), complete_graph(1))

    def test_vertex_allows_any_second_factor(self):
        oi = one_inverse_vertex_corona(complete_graph(2), Graph(3))
        lap = laplacian(oi.layout.product)
        assert np.abs(lap @ oi.matrix @ lap - lap).max() < 1e-10


class TestGate:
    """``_require_factors`` raises every second-factor rule and returns ``(r2, shift, c)``."""

    @pytest.mark.parametrize("name", CORPUS_G2)
    def test_returns_the_gadget_constants(self, name):
        g2 = named_graph(name)
        r2 = is_regular(g2)
        assert _require_factors(g2, "vertex") == (r2, 2.0, 2.0)
        if edge_admissible(g2):
            got = _require_factors(g2, "edge")
            assert got == (r2, float(r2), 3.0)
            assert type(got[1]) is float
        else:
            with pytest.raises(PreconditionError, match="^edge product needs "):
                _require_factors(g2, "edge")

    @pytest.mark.parametrize("name", CORPUS_G2)
    def test_cor42_rule_is_a_regular_second_factor(self, name):
        g2 = named_graph(name)
        r2 = is_regular(g2)
        if r2 is None:
            with pytest.raises(PreconditionError, match="^this formula needs a regular second factor$"):
                _require_factors(g2, "vertex", _regular=True)
        else:
            assert _require_factors(g2, "vertex", _regular=True) == (r2, 2.0, 2.0)
