from __future__ import annotations

import itertools
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import banded_connected_graphs, connected_graphs
from coronakit import (
    BASE,
    COPY,
    SUBDIVISION,
    CoronaKitError,
    Graph,
    PreconditionError,
    adjacency_matrix,
    closed_form_resistance_matrix,
    complete_graph,
    corona,
    cycle_graph,
    degree_matrix,
    edge_copy_resistance_alt,
    group_inverse_laplacian,
    group_inverse_trace_and_sum,
    is_regular,
    kf_edge_corona_regular,
    kf_vertex_corona,
    kf_vertex_corona_regular,
    kirchhoff_oracle,
    laplacian,
    metric_violation,
    named_graph,
    neighbor_identity_check,
    one_inverse_corona,
    one_inverse_edge_corona,
    one_inverse_vertex_corona,
    path_graph,
    resistance_edge_corona,
    resistance_matrix_from_one_inverse,
    resistance_oracle,
    resistance_vertex_corona,
    star_graph,
    vertex_copy_resistance_alt,
)
from coronakit import metrics


class TestOracle:
    def test_single_edge(self):
        x = group_inverse_laplacian(laplacian(complete_graph(2)))
        assert resistance_matrix_from_one_inverse(x)[0, 1] == pytest.approx(1.0, abs=1e-14)

    def test_four_cycle_pattern(self):
        r = resistance_oracle(cycle_graph(4))
        assert r[0, 1] == pytest.approx(0.75, abs=1e-12)
        assert r[0, 2] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.diag(r), 0.0, atol=1e-14)

    def test_triangle(self):
        r = resistance_oracle(complete_graph(3))
        off = r[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 2.0 / 3.0, atol=1e-12)

    def test_tree_resistance_is_path_length(self):
        r = resistance_oracle(path_graph(4))
        for i in range(4):
            for j in range(4):
                assert r[i, j] == pytest.approx(abs(i - j), abs=1e-12)

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            resistance_oracle(Graph(2))


SPOT_PAIRS = (("K2", "C3"), ("P3", "K2"), ("S3", "C4"), ("K3", "K3"), ("K1", "P3"))


class TestClosedFormDispatch:
    @pytest.mark.parametrize("a,b", SPOT_PAIRS)
    def test_vertex_matrix_matches_oracle(self, a, b):
        g1, g2 = named_graph(a), named_graph(b)
        layout = corona(g1, g2, "vertex")
        closed = closed_form_resistance_matrix(g1, g2, "vertex")
        oracle = resistance_oracle(layout.product)
        assert np.abs(closed - oracle).max() < 1e-9

    @pytest.mark.parametrize("a,b", [(a, b) for a, b in SPOT_PAIRS if is_regular(named_graph(b))])
    def test_edge_matrix_matches_oracle(self, a, b):
        g1, g2 = named_graph(a), named_graph(b)
        layout = corona(g1, g2, "edge")
        closed = closed_form_resistance_matrix(g1, g2, "edge")
        oracle = resistance_oracle(layout.product)
        assert np.abs(closed - oracle).max() < 1e-9

    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    def test_matches_oracle_at_820_vertices(self, kind):
        g = cycle_graph(20)
        closed = closed_form_resistance_matrix(g, g, kind)
        oracle = resistance_oracle(corona(g, g, kind).product)
        assert closed.shape == (820, 820)
        assert np.abs(closed - oracle).max() < 1e-9
        assert np.array_equal(closed, closed.T)
        assert not np.diag(closed).any()

    def test_one_inverse_read_matches_oracle(self):
        g1, g2 = named_graph("K2"), named_graph("C3")
        for kind in ("vertex", "edge"):
            layout = corona(g1, g2, kind)
            direct = resistance_matrix_from_one_inverse(one_inverse_corona(g1, g2, kind).matrix)
            oracle = resistance_oracle(layout.product)
            assert np.abs(direct - oracle).max() < 1e-9

    def test_scalar_api_vertex(self):
        g1, g2 = complete_graph(1), complete_graph(2)
        assert resistance_vertex_corona(g1, g2, (COPY, 0, 0), (COPY, 1, 0)) == pytest.approx(1.0, abs=1e-12)
        assert resistance_vertex_corona(g1, g2, (BASE, 0, 0), (COPY, 0, 0)) == pytest.approx(0.75, abs=1e-12)
        assert resistance_vertex_corona(g1, g2, (SUBDIVISION, 0, 0), (BASE, 0, 0)) == pytest.approx(1.0, abs=1e-12)
        assert resistance_vertex_corona(g1, g2, (SUBDIVISION, 0, 0), (SUBDIVISION, 0, 0)) == 0.0

    def test_scalar_api_edge(self):
        g1, g2 = complete_graph(1), complete_graph(2)
        assert resistance_edge_corona(g1, g2, (COPY, 0, 0), (COPY, 1, 0)) == pytest.approx(2.0, abs=1e-12)
        assert resistance_edge_corona(g1, g2, (SUBDIVISION, 0, 0), (COPY, 0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_api_validates_coordinates(self):
        g1, g2 = complete_graph(2), complete_graph(2)
        with pytest.raises(IndexError):
            resistance_vertex_corona(g1, g2, (COPY, 5, 0), (BASE, 0, 0))

    def test_same_copy_uses_shifted_inverse_only(self):
        g1, g2 = complete_graph(1), complete_graph(3)
        oi = one_inverse_vertex_corona(g1, g2)
        q = oi.gadget[3:6, 3:6] / 2.0  # W's copy block is 2 Q^-1
        want = 2.0 * (q[0, 0] + q[1, 1] - 2.0 * q[0, 1])
        got = resistance_vertex_corona(g1, g2, (COPY, 0, 0), (COPY, 1, 0), one_inv=oi)
        assert got == pytest.approx(want, abs=1e-14)
        oracle = resistance_oracle(corona(g1, g2, "vertex").product)
        assert got == pytest.approx(oracle[oi.layout.copy_index(0, 0), oi.layout.copy_index(1, 0)], abs=1e-12)

    def test_subdivision_expansion_follows_neighbor_values(self):
        # manual two-step expansion against the dispatch result, across copies
        g1, g2 = complete_graph(2), cycle_graph(3)
        oi = one_inverse_vertex_corona(g1, g2)
        layout = oi.layout
        a, b = g2.edges[0]
        si = (SUBDIVISION, 0, 0)
        sj = (SUBDIVISION, 2, 1)
        r = lambda x, y: resistance_vertex_corona(g1, g2, x, y, one_inv=oi)
        u, v = (COPY, a, 0), (COPY, b, 0)
        want = 0.5 + 0.5 * r(u, sj) + 0.5 * r(v, sj) - 0.25 * r(u, v)
        assert r(si, sj) == pytest.approx(want, abs=1e-12)
        oracle = resistance_oracle(layout.product)
        assert r(si, sj) == pytest.approx(
            oracle[layout.subdivision_index(0, 0), layout.subdivision_index(2, 1)], abs=1e-9
        )


class TestAltVariants:
    def test_vertex_alt_value(self):
        assert vertex_copy_resistance_alt(complete_graph(2), 0, 1) == pytest.approx(1.25, abs=1e-12)

    def test_vertex_alt_differs_from_true(self):
        true = resistance_vertex_corona(complete_graph(1), complete_graph(2), (COPY, 0, 0), (COPY, 1, 0))
        assert true == pytest.approx(1.0, abs=1e-12)
        assert abs(vertex_copy_resistance_alt(complete_graph(2), 0, 1) - true) == pytest.approx(0.25, abs=1e-12)

    def test_edge_alt_is_true_over_nine(self):
        g2 = complete_graph(3)
        true = resistance_edge_corona(complete_graph(1), g2, (COPY, 0, 0), (COPY, 1, 0))
        alt = edge_copy_resistance_alt(g2, 0, 1)
        assert alt * 9.0 == pytest.approx(true, abs=1e-12)

    def test_edge_alt_needs_regular(self):
        with pytest.raises(PreconditionError):
            edge_copy_resistance_alt(path_graph(3), 0, 1)


class TestNeighborIdentity:
    def test_exact_on_oracle_matrices(self):
        for name in ("K2", "P3", "C4", "S3", "K3"):
            g = named_graph(name)
            assert neighbor_identity_check(g, resistance_oracle(g)) < 1e-12

    def test_exact_on_products(self):
        g1, g2 = named_graph("K2"), named_graph("C3")
        for layout in (corona(g1, g2, "vertex"), corona(g1, g2, "edge")):
            r = resistance_oracle(layout.product)
            assert neighbor_identity_check(layout.product, r) < 1e-9

    def test_detects_perturbation(self):
        g = cycle_graph(4)
        r = resistance_oracle(g).copy()
        r[0, 2] += 0.01
        r[2, 0] += 0.01
        assert neighbor_identity_check(g, r) > 1e-3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            neighbor_identity_check(cycle_graph(4), np.zeros((3, 3)))

    def test_row_form_matches_pairwise_loop(self):
        # reference: the identity evaluated one (i, j) pair at a time, skipping
        # vertices of degree 0
        graphs = (
            corona(named_graph("S3"), named_graph("C4"), "vertex").product,
            Graph(6, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4))),  # vertex 5 is isolated
            Graph(0),
        )
        rng = np.random.default_rng(3)
        for g in graphs:
            r = rng.random((g.vertex_count,) * 2)
            edges = g.edges
            want = 0.0
            for i in range(g.vertex_count):
                nbrs = sorted([b for a, b in edges if a == i] + [a for a, b in edges if b == i])
                d = len(nbrs)
                if d == 0:
                    continue
                pair_sum = sum(r[k, l] for k, l in itertools.combinations(nbrs, 2))
                for j in range(g.vertex_count):
                    if j != i:
                        rhs = (1.0 + sum(r[k, j] for k in nbrs) - pair_sum / d) / d
                        want = max(want, abs(r[i, j] - rhs))
            assert want > 0.1 or g.vertex_count == 0
            assert neighbor_identity_check(g, r) == pytest.approx(want, rel=1e-12)


class TestMetricAxioms:
    def test_zero_on_oracle(self):
        assert metric_violation(resistance_oracle(cycle_graph(5))) < 1e-12

    def test_flags_negative_entry(self):
        # negativity alone scores 1.0; diagonal triangle pairs push it to 2.0
        bad = np.array([[0.0, -1.0], [-1.0, 0.0]])
        assert metric_violation(bad) >= 1.0

    def test_flags_asymmetry(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert metric_violation(bad) >= 1.0

    def test_running_minimum_matches_full_triple_scan(self):
        rng = np.random.default_rng(7)
        a = rng.random((9, 9))
        r = a + a.T
        np.fill_diagonal(r, 0.0)
        r[2, 5] = r[5, 2] = 3.0
        through = (r[:, :, None] + r[None, :, :]).min(axis=1)
        want = max(0.0, float((r - through).max()))
        assert want > 0.0
        assert metric_violation(r) == want

    def test_flags_triangle_violation(self):
        bad = np.array(
            [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        )
        assert metric_violation(bad) == pytest.approx(3.0)


class TestKirchhoffOracle:
    def test_known_values(self):
        assert kirchhoff_oracle(complete_graph(2)).value == pytest.approx(1.0, abs=1e-12)
        assert kirchhoff_oracle(complete_graph(3)).value == pytest.approx(2.0, abs=1e-12)
        assert kirchhoff_oracle(cycle_graph(4)).value == pytest.approx(5.0, abs=1e-12)
        assert kirchhoff_oracle(path_graph(4)).value == pytest.approx(10.0, abs=1e-12)

    def test_methods(self):
        assert kirchhoff_oracle(complete_graph(3)).method == "oracle-trace"

    def test_trace_and_sum_agree(self):
        for name in ("K2", "P3", "C4", "S3", "K3"):
            g = named_graph(name)
            assert kirchhoff_oracle(g).value == pytest.approx(
                resistance_oracle(g).sum() / 2.0, abs=1e-8
            )

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            kirchhoff_oracle(Graph(3, ((0, 1),)))

    def test_self_check_scales_with_the_index(self):
        # Kf(P1500) is about 5.6e8; its two routes differ by ulps, far
        # above an absolute 1e-8
        n = 1500
        want = (n**3 - n) / 6
        assert kirchhoff_oracle(path_graph(n)).value == pytest.approx(want, rel=1e-9)

    def test_value_is_n_times_the_group_inverse_trace(self):
        # read off the dpotri triangle, bit for bit what the full X gives
        for g in (path_graph(1500), _grid(22, 23), complete_graph(1), complete_graph(2)):
            n = g.vertex_count
            assert kirchhoff_oracle(g).value == n * np.trace(group_inverse_laplacian(laplacian(g)))

    def test_self_check_catches_a_corrupted_pair_sum(self, monkeypatch):
        def corrupted(lap):
            trace, total = group_inverse_trace_and_sum(lap)
            return trace, total + 1e-6 * (1.0 + lap.shape[0] * trace)

        monkeypatch.setattr(metrics, "group_inverse_trace_and_sum", corrupted)
        with pytest.raises(CoronaKitError, match="self-check"):
            kirchhoff_oracle(path_graph(5))


def _banded(n: int, k: int) -> Graph:
    # a path plus every chord (i, i + k): bandwidth exactly k when k < n
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(i, i + k) for i in range(n - k)])


def _grid(a: int, b: int) -> Graph:
    edges = [(r * b + c, r * b + c + 1) for r in range(a) for c in range(b - 1)]
    edges += [(r * b + c, (r + 1) * b + c) for r in range(a - 1) for c in range(b)]
    return Graph(a * b, edges)


def _circulant(n: int, jumps) -> Graph:
    return Graph(n, {(min(i, (i + k) % n), max(i, (i + k) % n)) for i in range(n) for k in jumps})


def _wheel(n: int) -> Graph:
    # hub 0 and the rim 1..n-1 as a cycle
    return Graph(n, [(0, i) for i in range(1, n)] + [(i, i % (n - 1) + 1) for i in range(1, n)])


def _sparse_at_reach(n: int, k: int, seed: int) -> Graph:
    # a random spanning tree plus n random chords, none reaching more than k
    # apart, and the chord (0, k); the last vertex gets a few extra edges
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(max(0, v - k), v)), v) for v in range(1, n)} | {(0, k)}
    for a in rng.integers(0, n - 1, n).tolist():
        b = min(n - 2, a + int(rng.integers(1, k + 1)))
        if a != b:
            edges.add((a, b))
    edges.update((int(a), n - 1) for a in rng.integers(0, n - 1, 5))
    return Graph(n, sorted(edges))


def _hub_at_reach(n: int, k: int) -> Graph:
    # a path through every vertex plus a hub at k joined to all of 0..2k that
    # lie away from the last vertex: the largest degree, and reach exactly k
    spokes = [(min(k, j), max(k, j)) for j in range(min(2 * k + 1, n - 1)) if j != k]
    return Graph(n, {(i, i + 1) for i in range(n - 1)} | set(spokes))


@st.composite
def _shifted_factors(draw, max_vertices=300):
    """A graph of up to 300 vertices whose edges reach at most k apart, and a positive shift."""
    n = draw(st.integers(0, max_vertices))
    k = draw(st.integers(1, max(1, n - 1)))
    steps = st.tuples(st.integers(0, max(0, n - 1)), st.integers(1, k))
    edges = {(i, i + d) for i, d in draw(st.lists(steps, max_size=3 * n)) if i + d < n}
    return Graph(n, sorted(edges)), draw(st.sampled_from([0.25, 1.0, 2.0, 3.0]))


class TestGroundedKirchhoff:
    """Kf(G1) by selected inversion of the Laplacian grounded at the last vertex."""

    def test_long_path_is_exact_in_small_memory(self):
        # Kf(P_n) = (n^3 - n) / 6; the dense n x n inverse would take 128 MB
        n = 4000
        g = path_graph(n)
        tracemalloc.start()
        try:
            value = metrics._grounded_kirchhoff(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(value - (n**3 - n) / 6) <= 1e-13 * (n**3 - n) / 6
        assert peak < 16 * 2**20

    def test_cycle_is_exact(self):
        # Kf(C_n) = (n^3 - n) / 12; the wrap edge meets the ground vertex
        n = 1500
        assert metrics._grounded_kirchhoff(cycle_graph(n)) == pytest.approx((n**3 - n) / 12, rel=1e-11)

    def test_grid_matches_the_laplacian_spectrum(self):
        # Gutman-Mohar: Kf = n sum 1/(lambda_j + mu_k) over the nonzero sums of
        # the path eigenvalues 2 - 2 cos(pi j / a) and 2 - 2 cos(pi k / b)
        a, b = 40, 50
        lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(a) / a)
        mu = 2.0 - 2.0 * np.cos(np.pi * np.arange(b) / b)
        want = a * b * float(np.sum(1.0 / (lam[:, None] + mu[None, :]).ravel()[1:]))
        assert metrics._grounded_kirchhoff(_grid(a, b)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(1),
            complete_graph(2),
            path_graph(3),
            complete_graph(3),
            # bandwidth 63, 64 and 65: 256 and 260 grounded vertices split into
            # four blocks exactly 64 or 65 wide, 257 and 300 into four uneven
            # ones; 99 grounded vertices of bandwidth 20 stay one block
            _banded(257, 63),
            _banded(257, 64),
            _banded(258, 64),
            _banded(261, 65),
            _banded(301, 65),
            _banded(301, 63),
            _banded(100, 20),
            # every edge at the ground vertex: a diagonal grounded matrix
            Graph(200, [(i, 199) for i in range(199)]),
            # the hub at the ground plus a long rim: the rim alone sets the blocks
            Graph(300, [(i, 299) for i in range(299)] + [(i, i + 1) for i in range(298)]),
        ],
        ids=lambda g: f"n{g.vertex_count}-m{g.edge_count}",
    )
    def test_matches_the_oracle_at_block_edges(self, g):
        want = kirchhoff_oracle(g).value
        assert abs(metrics._grounded_kirchhoff(g) - want) <= 1e-12 * max(1.0, want)

    @settings(max_examples=60)
    @given(banded_connected_graphs(max_vertices=150))
    def test_matches_the_oracle(self, g):
        want = kirchhoff_oracle(g).value
        assert abs(metrics._grounded_kirchhoff(g) - want) <= 1e-12 * max(1.0, want)

    def test_banded_numbering_keeps_its_bits(self):
        # the parent's value of Kf(P1500): banded graphs keep the last-vertex ground
        assert metrics._grounded_kirchhoff(path_graph(1500)) == 562499750.0

    @pytest.mark.parametrize(
        "g,want",
        [
            # C_n(1, j): Laplacian eigenvalues 4 - 2 cos(2 pi t / n) - 2 cos(2 pi j t / n)
            (
                _circulant(3000, (1, 55)),
                lambda n: n * np.sum(1.0 / (4.0 - 2.0 * np.cos(2 * np.pi * np.arange(1, n) / n)
                                            - 2.0 * np.cos(2 * np.pi * 55 * np.arange(1, n) / n))),
            ),
            # W_n: eigenvalue n once and 3 - 2 cos(2 pi t / N) on the rim C_N, N = n - 1
            (
                _wheel(3000),
                lambda n: 1.0 + n * np.sum(1.0 / (3.0 - 2.0 * np.cos(2 * np.pi * np.arange(1, n - 1) / (n - 1)))),
            ),
        ],
        ids=["circulant-1-55", "wheel"],
    )
    def test_reordered_factor_is_exact_in_small_memory(self, g, want):
        # the given numbering spans the whole graph; a dense inverse would take 72 MB
        tracemalloc.start()
        try:
            value = metrics._grounded_kirchhoff(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(want(g.vertex_count), rel=1e-11)
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("size", [127, 128, 129])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    @pytest.mark.parametrize("family", ["sparse", "hub"])
    def test_matches_the_oracle_at_the_reordering_switch(self, monkeypatch, family, size, delta):
        # reordered exactly when there are at least 128 grounded vertices and
        # an edge away from the last vertex reaches size // 2 or further
        k = size // 2 + delta
        g = _sparse_at_reach(size + 1, k, seed=size + delta) if family == "sparse" else _hub_at_reach(size + 1, k)
        calls = []
        reorder = metrics._hub_grounded_order
        monkeypatch.setattr(metrics, "_hub_grounded_order", lambda *a: calls.append(a) or reorder(*a))
        want = kirchhoff_oracle(g).value
        assert abs(metrics._grounded_kirchhoff(g) - want) <= 1e-12 * want
        assert len(calls) == (size >= 128 and delta >= 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_sparse_graphs_match_the_oracle(self, seed):
        g = _sparse_at_reach(400, 399, seed)
        want = kirchhoff_oracle(g).value
        assert abs(metrics._grounded_kirchhoff(g) - want) <= 1e-12 * want

    @pytest.mark.parametrize(
        "g",
        [
            Graph(3, ((0, 1),)),  # the ground vertex is isolated
            Graph(3, ((1, 2),)),
            # two paths, the one away from the ground in the first blocks
            Graph(400, [(i, i + 1) for i in range(399) if i != 150]),
            # reordered: a cycle whose wrap edge spans half the graph, and a
            # wheel whose hub is the ground, each beside a separate path
            Graph(300, [(i, i + 1) for i in range(299) if i != 149] + [(0, 149)]),
            Graph(300, list(_wheel(200).edges) + [(i, i + 1) for i in range(200, 299)]),
        ],
        ids=["ground-isolated", "vertex-isolated", "two-paths", "reordered-cycle-and-path", "reordered-wheel-and-path"],
    )
    def test_disconnected_graph_is_a_precondition_error(self, g):
        with pytest.raises(PreconditionError, match=r"graph is disconnected \(algebraic connectivity is zero\)"):
            metrics._grounded_kirchhoff(g)

    def test_foster_self_check_catches_a_wrong_inverse(self, monkeypatch):
        inverse = metrics._symmetric_inverse
        monkeypatch.setattr(metrics, "_symmetric_inverse", lambda a: (1.0 + 1e-6) * inverse(a))
        for g in (path_graph(5), path_graph(400), _wheel(300)):
            with pytest.raises(CoronaKitError, match="Foster"):
                metrics._grounded_kirchhoff(g)


class TestSelectedInverse:
    """The second-factor pieces of ``Q^-1``, ``Q = L2 + shift I``, against a dense inverse."""

    @staticmethod
    def _check(g: Graph, shift: float):
        n = g.vertex_count
        degrees = g.degrees().astype(np.float64)
        u, v = g._ends.T
        diagonal, on_edges, quadratic = metrics._selected_inverse(degrees + shift, u, v, degrees)
        q_inv = np.linalg.inv(laplacian(g) + shift * np.eye(n)) if n else np.zeros((0, 0))
        scale = float(np.abs(q_inv).max(initial=1.0))
        assert diagonal.shape == (n,) and on_edges.shape == (g.edge_count,)
        assert np.abs(diagonal - np.diag(q_inv)).max(initial=0.0) <= 1e-12 * scale
        assert np.abs(on_edges - q_inv[u, v]).max(initial=0.0) <= 1e-12 * scale
        assert quadratic == pytest.approx(float(degrees @ q_inv @ degrees), rel=1e-12, abs=1e-300)

    @settings(max_examples=40)
    @given(_shifted_factors())
    def test_matches_the_dense_inverse(self, case):
        self._check(*case)

    @pytest.mark.parametrize(
        "g",
        [star_graph(40), _wheel(60), _wheel(300), Graph(5), complete_graph(1), Graph(0), cycle_graph(200)],
        ids=["star", "wheel", "wheel-300", "edgeless", "K1", "K0", "C200"],
    )
    @pytest.mark.parametrize("shift", [2.0, 3.0])
    def test_named_graphs_match_the_dense_inverse(self, g, shift):
        self._check(g, shift)


class TestKernelBits:
    """Pinned bits of one-block kernel calls, so a faster path keeps the arithmetic."""

    @pytest.mark.parametrize(
        "name,bits",
        [
            ("K2", "0x1.0000000000000p+0"),
            ("P3", "0x1.0000000000000p+2"),
            ("P30", "0x1.18f0000000000p+12"),
            ("K60", "0x1.d7ffffffffffap+5"),
        ],
    )
    def test_grounded_kirchhoff(self, name, bits):
        assert metrics._grounded_kirchhoff(named_graph(name)).hex() == bits

    @pytest.mark.parametrize(
        "name,shift,bits",
        [
            ("C10", 2.0, ("0x1.71816dd4b88c8p+1", "0x1.8c0b6ea5c4638p+0",
                          "0x1.71816dd4b88c8p+2", "0x1.4000000000000p+4")),
            ("K8", 7.0, ("0x1.3813813813814p-1", "0x1.1111111111112p-1",
                         "0x1.1111111111111p+2", "0x1.c000000000000p+5")),
        ],
    )
    def test_shifted_pieces(self, name, shift, bits):
        assert tuple(x.hex() for x in metrics._shifted_pieces(named_graph(name), shift)) == bits


class TestKirchhoffClosedForms:
    def test_hand_instances(self):
        k1, k2 = complete_graph(1), complete_graph(2)
        assert kf_vertex_corona(k1, k2).value == pytest.approx(5.0, abs=1e-9)
        assert kf_vertex_corona(k2, k1).value == pytest.approx(10.0, abs=1e-9)
        assert kf_edge_corona_regular(k1, k2).value == pytest.approx(9.0, abs=1e-9)
        assert kf_vertex_corona_regular(k1, k1).value == pytest.approx(1.0, abs=1e-9)

    def test_method_tokens(self):
        k1, k2 = complete_graph(1), complete_graph(2)
        assert kf_vertex_corona(k1, k2).method == "theorem-4.1"
        assert kf_vertex_corona_regular(k1, k1).method == "corollary-4.2"
        assert kf_edge_corona_regular(k1, k2).method == "theorem-4.3"

    @pytest.mark.parametrize("a,b", SPOT_PAIRS)
    def test_vertex_matches_oracle(self, a, b):
        g1, g2 = named_graph(a), named_graph(b)
        want = kirchhoff_oracle(corona(g1, g2, "vertex").product).value
        got = kf_vertex_corona(g1, g2).value
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))

    def test_regular_special_case_agrees_with_general(self):
        for b in ("K1", "K2", "C3", "C4", "K3"):
            g1, g2 = named_graph("P3"), named_graph(b)
            general = kf_vertex_corona(g1, g2).value
            special = kf_vertex_corona_regular(g1, g2).value
            assert special == pytest.approx(general, abs=1e-8 * (1 + abs(general)))

    def test_edge_matches_oracle(self):
        for a, b in (("K2", "K2"), ("P3", "C3"), ("S3", "K3"), ("K3", "C4")):
            g1, g2 = named_graph(a), named_graph(b)
            want = kirchhoff_oracle(corona(g1, g2, "edge").product).value
            got = kf_edge_corona_regular(g1, g2).value
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want))

    def test_long_first_factor(self):
        # the first factor's oracle runs inside every closed form
        g1, g2 = path_graph(1500), cycle_graph(4)
        general = kf_vertex_corona(g1, g2).value
        special = kf_vertex_corona_regular(g1, g2).value
        assert special == pytest.approx(general, rel=1e-8)

    def test_edgeless_second_factor(self):
        # three pendant-free isolated copies per base vertex still connect
        # through the join, so the general vertex formula must cover it
        g1, g2 = complete_graph(3), Graph(3)
        want = kirchhoff_oracle(corona(g1, g2, "vertex").product).value
        assert kf_vertex_corona(g1, g2).value == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize(
        "g1,g2",
        [
            (named_graph("P7"), named_graph("C5")),
            (named_graph("S4"), named_graph("K4")),
            # second factors of 128 or more vertices, where Q^-1 was an LU inverse
            (named_graph("P7"), cycle_graph(200)),
            (named_graph("S4"), _circulant(200, (1, 2))),
        ],
        ids=["P7-C5", "S4-K4", "P7-C200", "S4-C200(1,2)"],
    )
    def test_trace_sums_match_matmul_form(self, g1, g2):
        # the theorems as first written, with tr(M A2) and tr(M D2) as n2^3
        # products and the shifted sums over the spectrum of L2
        n1, n2, m2 = g1.vertex_count, g2.vertex_count, g2.edge_count
        total, kf1 = n1 * (1 + n2 + m2), kirchhoff_oracle(g1).value
        a2, d2 = adjacency_matrix(g2), degree_matrix(g2)
        mu = np.linalg.eigvalsh(laplacian(g2))
        degrees = np.diag(d2)

        q_inv = np.linalg.inv(laplacian(g2) + 2.0 * np.eye(n2))
        bracket = (
            n1 * m2 / 2.0
            + (n1 / 2.0) * (np.trace(q_inv @ a2) + np.trace(q_inv @ d2))
            + 2.0 * n1 * np.sum(1.0 / (mu + 2.0))
            + ((m2 + n2 + 1) / n1) * kf1
        )
        vertex = (
            total * bracket
            - (n1 / 2.0) * (degrees @ q_inv @ degrees)
            - (5.0 * n1 * m2 + 2.0 * n1 * n2) / 2.0
        )
        assert kf_vertex_corona(g1, g2).value == pytest.approx(vertex, rel=1e-12)
        # the shifted sums are now the traces of the inverses already held
        assert np.trace(q_inv) == pytest.approx(np.sum(1.0 / (mu + 2.0)), rel=1e-13)

        # Cor 4.2 reads sum mu/(mu + 2) as n2 - 2S, with no eigenvalues
        r2 = is_regular(g2)
        shifted_sum = metrics._shifted_pieces(g2, 2.0)[0]
        assert n2 - 2.0 * shifted_sum == pytest.approx(np.sum(mu / (mu + 2.0)), rel=1e-13)
        bracket = (
            n1 * m2 / 2.0
            + (n1 / 2.0) * (2.0 * r2 * np.sum(1.0 / (mu + 2.0)) - np.sum(mu / (mu + 2.0)))
            + 2.0 * n1 * np.sum(1.0 / (mu + 2.0))
            + ((m2 + n2 + 1) / n1) * kf1
        )
        corollary = total * bracket - n1 * n2 * r2 * r2 / 4.0 - (5.0 * n1 * m2 + 2.0 * n1 * n2) / 2.0
        assert kf_vertex_corona_regular(g1, g2).value == pytest.approx(corollary, rel=1e-12)

        c_inv = np.linalg.inv(laplacian(g2) + r2 * np.eye(n2))
        shifted_sum = np.sum(1.0 / (mu + r2))
        bracket = (
            n1 * m2 / 3.0
            + (n1 / 3.0) * (np.trace(c_inv @ a2) + r2 * shifted_sum)
            + 3.0 * n1 * shifted_sum
            + ((m2 + n2 + 1) / n1) * kf1
        )
        edge = total * bracket - (n1 * m2 * r2 + n1 * n2 * (r2 + 3.0) ** 2) / (3.0 * r2)
        assert kf_edge_corona_regular(g1, g2).value == pytest.approx(edge, rel=1e-12)
        assert np.trace(c_inv) == pytest.approx(shifted_sum, rel=1e-13)

    def test_equal_first_factors_share_one_computation(self, monkeypatch):
        calls = []
        grounded = metrics._grounded_kirchhoff

        def counting(g):
            calls.append(g)
            return grounded(g)

        monkeypatch.setattr(metrics, "_grounded_kirchhoff", counting)
        a = cycle_graph(5)
        b = Graph(5, tuple(reversed(a.edges)))  # another object, equal by value
        assert a is not b and a == b
        first = kf_vertex_corona(a, complete_graph(2)).value
        assert kf_vertex_corona(b, complete_graph(2)).value == first
        kf_vertex_corona_regular(b, cycle_graph(4))
        kf_edge_corona_regular(a, cycle_graph(3))
        assert calls == [a]
        kf_vertex_corona(path_graph(5), complete_graph(2))  # another value: one more call
        assert calls == [a, path_graph(5)]

    def test_disconnected_first_factor_raises_on_every_call(self):
        g1 = Graph(4, ((0, 1), (2, 3)))
        for _ in range(2):
            for kf in (kf_vertex_corona, kf_vertex_corona_regular, kf_edge_corona_regular):
                with pytest.raises(PreconditionError, match="first factor must be connected"):
                    kf(g1, cycle_graph(3))

    @pytest.mark.parametrize("kf", [kf_vertex_corona_regular, kf_edge_corona_regular])
    def test_irregular_second_factor_leaves_the_memo_empty(self, kf):
        # a call that raises caches nothing: Kf(G1) is reached only after
        # every precondition has passed
        with pytest.raises(PreconditionError, match="regular second factor"):
            kf(path_graph(300), star_graph(3))
        assert metrics._first_factor_kirchhoff.cache_info().currsize == 0

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            kf_vertex_corona(Graph(2), complete_graph(2))
        with pytest.raises(PreconditionError):
            kf_vertex_corona_regular(complete_graph(2), path_graph(3))
        with pytest.raises(PreconditionError):
            kf_edge_corona_regular(complete_graph(2), path_graph(3))
        with pytest.raises(PreconditionError):
            kf_edge_corona_regular(complete_graph(2), complete_graph(1))


@st.composite
def _disconnected_graphs(draw):
    """Two or three connected pieces, single vertices among them, in a shuffled numbering.

    The shuffle puts the last vertex, which the grounded kernel grounds, in
    any piece: the largest one or an isolated vertex.
    """
    pieces = draw(st.lists(connected_graphs(min_vertices=1, max_vertices=6), min_size=2, max_size=3))
    edges, n = [], 0
    for piece in pieces:
        edges += [(u + n, v + n) for u, v in piece.edges]
        n += piece.vertex_count
    label = draw(st.permutations(range(n)))
    return Graph(n, [(label[u], label[v]) for u, v in edges])


def _twice(g: Graph) -> Graph:
    # two disjoint copies of g, the second numbered after the first
    n = g.vertex_count
    return Graph(2 * n, list(g.edges) + [(u + n, v + n) for u, v in g.edges])


# every route that factors a graph it must reject when disconnected, with the
# message it raises: the first factor's for the closed forms and the {1}-inverse,
# the whole graph's for the oracles
_FIRST = "first factor must be connected"
_CONNECTIVITY_ROUTES = (
    (lambda g: kf_vertex_corona(g, cycle_graph(4)), _FIRST),
    (lambda g: kf_vertex_corona_regular(g, cycle_graph(4)), _FIRST),
    (lambda g: kf_edge_corona_regular(g, cycle_graph(4)), _FIRST),
    (lambda g: one_inverse_corona(g, cycle_graph(4), "edge"), _FIRST),
    (resistance_oracle, "resistance distance needs a connected graph"),
    (kirchhoff_oracle, "Kirchhoff index needs a connected graph"),
)


def _assert_every_route_rejects(g: Graph) -> None:
    for call, message in _CONNECTIVITY_ROUTES:
        with pytest.raises(PreconditionError) as raised:
            call(g)
        assert str(raised.value) == message


class TestConnectivityByFactorization:
    """Each route's own Cholesky factor is its connectivity test; no search runs."""

    @given(_disconnected_graphs())
    def test_disconnected_graphs_are_rejected_with_each_routes_message(self, g):
        _assert_every_route_rejects(g)
        with pytest.raises(PreconditionError, match=f"^{_FIRST}$"):
            one_inverse_corona(g, cycle_graph(4), "vertex")
        assert metrics._first_factor_kirchhoff.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "g",
        [
            Graph(2),
            Graph(6, [(i, i + 1) for i in range(4)]),  # the ground is an isolated vertex
            Graph(6, [(i, i + 1) for i in range(1, 5)]),  # the ground in the big piece
        ],
        ids=["two-isolated", "ground-isolated", "ground-in-big-piece"],
    )
    def test_isolated_vertices(self, g):
        _assert_every_route_rejects(g)

    def test_multi_block_route(self, monkeypatch):
        # two P150: 299 grounded vertices in 4 blocks of the kernel, the
        # singular piece ending inside the third
        factored = []
        inverse = metrics._symmetric_inverse
        monkeypatch.setattr(metrics, "_symmetric_inverse", lambda s: factored.append(len(s)) or inverse(s))
        with pytest.raises(PreconditionError, match=f"^{_FIRST}$"):
            metrics._first_factor_kirchhoff(_twice(path_graph(150)))
        assert len(factored) == 3 and min(factored) >= 64
        _assert_every_route_rejects(_twice(path_graph(150)))

    def test_hub_route(self, monkeypatch):
        # two W150: the reach from vertex 0 sends the kernel to the hub and
        # reverse Cuthill-McKee, on a pattern with two pieces
        hubs = []
        order = metrics._hub_grounded_order
        monkeypatch.setattr(metrics, "_hub_grounded_order", lambda g, d: hubs.append(g) or order(g, d))
        g = _twice(_wheel(150))
        with pytest.raises(PreconditionError, match=f"^{_FIRST}$"):
            metrics._first_factor_kirchhoff(g)
        assert hubs == [g]
        _assert_every_route_rejects(g)

    def test_no_route_runs_a_search(self, monkeypatch):
        from collections import deque

        from coronakit import graphs as graphs_module

        searches = []

        def counting_deque(*args):
            searches.append(args)
            return deque(*args)

        monkeypatch.setattr(graphs_module, "deque", counting_deque)
        for call, _ in _CONNECTIVITY_ROUTES:
            call(cycle_graph(5))  # a fresh graph for every call
            with pytest.raises(PreconditionError):
                call(Graph(4, ((0, 1), (2, 3))))
        assert searches == []

    def test_second_factor_precondition_comes_first(self):
        # a disconnected first factor with an irregular second factor: the
        # regular formulas report the second factor, whose checks come before
        # Kf(G1); Thm 4.1 has none, and the {1}-inverse factors S# first
        g1, g2 = Graph(4, ((0, 1), (2, 3))), path_graph(3)
        with pytest.raises(PreconditionError, match="^this formula needs a regular second factor$"):
            kf_vertex_corona_regular(g1, g2)
        with pytest.raises(PreconditionError, match="^edge product needs a regular second factor$"):
            kf_edge_corona_regular(g1, g2)
        with pytest.raises(PreconditionError, match=f"^{_FIRST}$"):
            kf_vertex_corona(g1, g2)
        with pytest.raises(PreconditionError, match=f"^{_FIRST}$"):
            one_inverse_corona(g1, g2, "edge")


class TestOneInverseOwnership:
    """A given ``one_inv`` must be the queried product's."""

    def test_another_products_inverse_is_rejected(self):
        g1, g2 = path_graph(3), cycle_graph(4)
        edge = one_inverse_edge_corona(g1, g2)
        other = one_inverse_vertex_corona(g1, complete_graph(4))
        a, b = (COPY, 0, 0), (BASE, 2, 2)
        for wrong in (edge, other, one_inverse_vertex_corona(path_graph(4), g2)):
            with pytest.raises(ValueError, match="does not belong to the vertex product"):
                resistance_vertex_corona(g1, g2, a, b, one_inv=wrong)
            with pytest.raises(ValueError, match="does not belong to the vertex product"):
                closed_form_resistance_matrix(g1, g2, "vertex", one_inv=wrong)
        with pytest.raises(ValueError, match="does not belong to the edge product"):
            resistance_edge_corona(g1, g2, a, b, one_inv=one_inverse_vertex_corona(g1, g2))

    def test_factors_equal_by_value_are_accepted(self):
        g1, g2 = path_graph(3), cycle_graph(4)
        oi = one_inverse_vertex_corona(g1, g2)
        c1, c2 = Graph(3, [(1, 2), (0, 1)]), Graph(4, list(reversed(g2.edges)))
        assert c1 is not g1 and c2 is not g2
        a, b = (COPY, 0, 0), (BASE, 2, 2)
        want = resistance_oracle(oi.layout.product)[oi.layout.global_index(a), oi.layout.global_index(b)]
        got = resistance_vertex_corona(c1, c2, a, b, one_inv=oi)
        assert got == resistance_vertex_corona(g1, g2, a, b)
        assert got == pytest.approx(want, abs=1e-12)
        assert np.array_equal(
            closed_form_resistance_matrix(c1, c2, "vertex", one_inv=oi),
            closed_form_resistance_matrix(g1, g2, "vertex"),
        )


class TestProperties:
    @given(connected_graphs(min_vertices=2, max_vertices=6))
    def test_oracle_is_a_metric(self, g):
        r = resistance_oracle(g)
        assert metric_violation(r) <= 1e-10

    @given(connected_graphs(min_vertices=2, max_vertices=6))
    def test_oracle_satisfies_neighbor_identity(self, g):
        r = resistance_oracle(g)
        assert neighbor_identity_check(g, r) <= 1e-9

    @given(connected_graphs(min_vertices=2, max_vertices=6), st.data())
    def test_any_one_inverse_gives_same_resistances(self, g, data):
        # resistances must not depend on which {1}-inverse is used: since
        # L 1 = 0, S# + 1a' + b1' is a {1}-inverse too, and not symmetric
        lap = laplacian(g)
        n = g.vertex_count
        coeffs = st.lists(st.floats(-3, 3, allow_nan=False), min_size=n, max_size=n)
        a, b = np.array(data.draw(coeffs)), np.array(data.draw(coeffs))
        s_sharp = group_inverse_laplacian(lap)
        other = s_sharp + np.outer(np.ones(n), a) + np.outer(b, np.ones(n))
        assert np.abs(lap @ other @ lap - lap).max() <= 1e-8
        from_group = resistance_matrix_from_one_inverse(s_sharp)
        from_other = resistance_matrix_from_one_inverse(other)
        assert np.abs(from_group - from_other).max() <= 1e-9

    @given(st.sampled_from(["K2", "P3", "C3"]), st.sampled_from(["K1", "K2", "C3"]))
    def test_product_routes_agree(self, a, b):
        g1, g2 = named_graph(a), named_graph(b)
        oi = one_inverse_vertex_corona(g1, g2)
        from_assembly = resistance_matrix_from_one_inverse(oi.matrix)
        oracle = resistance_oracle(oi.layout.product)
        assert np.abs(from_assembly - oracle).max() <= 1e-9
        r2 = is_regular(g2)
        if r2 is not None and r2 >= 1:
            oe = one_inverse_edge_corona(g1, g2)
            from_assembly = resistance_matrix_from_one_inverse(oe.matrix)
            oracle = resistance_oracle(oe.layout.product)
            assert np.abs(from_assembly - oracle).max() <= 1e-9


def test_scipy_sparse_loads_only_to_reorder(tmp_path):
    # reordering is the one user of scipy.sparse; processes that never reorder
    # (verify, resistance, closed forms on small first factors) must not load
    # it beyond what scipy.linalg, coronakit's one other scipy import, does:
    # scipy releases without its lazy sparse import (gh-23420) load
    # scipy.sparse with scipy.linalg itself
    (tmp_path / "g1.txt").write_text("4 3\n0 1\n1 2\n2 3\n")
    (tmp_path / "g2.txt").write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    script = f"""
import sys
import scipy.linalg

preloaded = "scipy.sparse" in sys.modules
from coronakit import Graph, cli, cycle_graph, metrics, path_graph
from coronakit.verify import run_verification

run_verification(pairs=[("P4", "C5")])
assert cli.main(["resistance", "--kind", "vertex", "--g1", {str(tmp_path / "g1.txt")!r},
                 "--g2", {str(tmp_path / "g2.txt")!r}, "--method", "both",
                 "--out", {str(tmp_path / "r.json")!r}]) == 0
for kf in (metrics.kf_vertex_corona, metrics.kf_vertex_corona_regular, metrics.kf_edge_corona_regular):
    kf(path_graph(30), cycle_graph(4))
assert ("scipy.sparse" in sys.modules) == preloaded, "loaded without a reordering"
metrics._grounded_kirchhoff(Graph(300, [(0, i) for i in range(1, 300)]))
assert "scipy.sparse" in sys.modules, "a reordering did not load it"
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
