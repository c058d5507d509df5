from __future__ import annotations

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import connected_graphs, graphs
from coronakit import (
    CoronaLayout,
    EdgeListError,
    Graph,
    PreconditionError,
    adjacency_matrix,
    complete_graph,
    corona,
    cycle_graph,
    degree_matrix,
    format_edge_list,
    incidence_matrix,
    is_connected,
    is_regular,
    kf_vertex_corona,
    laplacian,
    parse_edge_list,
    path_graph,
    star_graph,
    subdivision,
)
from coronakit import graphs as graphs_module
from coronakit import metrics


def triple_loop_corona(g1: Graph, g2: Graph, kind: str) -> Graph:
    # the product as first built, one owner and one gadget edge at a time;
    # kept as the reference for the lifted gadget edge list
    n1 = g1.vertex_count
    n2, m2 = g2.vertex_count, g2.edge_count

    def sub(e, i):
        return e * n1 + i

    def cop(a, i):
        return n1 * m2 + a * n1 + i

    def base(i):
        return n1 * m2 + n1 * n2 + i

    edges = [(base(u), base(v)) for u, v in g1.edges]
    for i in range(n1):
        for e, (a, b) in enumerate(g2.edges):
            edges.append((sub(e, i), cop(a, i)))
            edges.append((sub(e, i), cop(b, i)))
        if kind == "vertex":
            edges.extend((base(i), cop(a, i)) for a in range(n2))
        else:
            edges.extend((base(i), sub(e, i)) for e in range(m2))
    return Graph(n1 * (1 + n2 + m2), tuple(edges))


def loop_canonical_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    # the per-edge validation Graph was first built with, kept as the reference
    canon = []
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        canon.append((u, v) if u < v else (v, u))
    canon.sort()
    for prev, cur in zip(canon, canon[1:]):
        if prev == cur:
            raise ValueError(f"duplicate edge {cur}")
    return tuple(canon)


@st.composite
def pair_lists(draw):
    # vertex count and endpoint pairs, self-loops, repeats and ends one out of range included
    n = draw(st.integers(0, 6))
    end = st.integers(-1, n)
    return n, draw(st.lists(st.tuples(end, end), max_size=12))


def two_colorable(g: Graph) -> bool:
    color = [-1] * g.vertex_count
    adj = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for start in range(g.vertex_count):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


class TestGraph:
    def test_canonical_edge_order(self):
        g = Graph(3, ((2, 0), (1, 0)))
        assert g.edges == ((0, 1), (0, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, ((1, 1),))

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_rejects_a_vertex_count_whose_sort_keys_overflow(self):
        # the keys u*n + v reach n*n - n - 1; int64 holds them up to n = 3_037_000_500
        for n in (3_037_000_501, 4_000_000_000, 10**21):
            with pytest.raises(ValueError, match="too large"):
                Graph(n, [(n - 2, n - 1)])

    def test_largest_vertex_counts_keep_their_edges(self):
        for n in (3_037_000_499, 3_037_000_500):
            assert Graph(n, [(n - 2, n - 1)]).edges == ((n - 2, n - 1),)

    def test_factories(self):
        assert complete_graph(4).edge_count == 6
        assert path_graph(5).edge_count == 4
        assert cycle_graph(4).edge_count == 4
        assert star_graph(3).edges == ((0, 1), (0, 2), (0, 3))
        assert list(path_graph(3).degrees()) == [1, 2, 1]
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_factories_match_the_pair_loops(self):
        # the factories build their edge arrays in numpy; the pair loops
        # they replaced are the reference
        for n in range(51):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            assert complete_graph(n) == Graph(n, pairs)
            assert path_graph(n) == Graph(n, [(i, i + 1) for i in range(n - 1)])
            assert star_graph(n) == Graph(n + 1, [(0, i) for i in range(1, n + 1)])
            if n >= 3:
                assert cycle_graph(n) == Graph(n, [(i, (i + 1) % n) for i in range(n)])
        for n in (-1, 0, 1, 2):
            with pytest.raises(ValueError, match="at least 3 vertices"):
                cycle_graph(n)
        with pytest.raises(ValueError, match="leaves must be non-negative"):
            star_graph(-1)


class TestConstruction:
    @given(graphs())
    def test_array_input_equals_tuple_input(self, g):
        # rows reversed and each pair flipped: the stored array is canonical either way
        flipped = np.array(g.edges, dtype=np.int64).reshape(-1, 2)[::-1, ::-1]
        h = Graph(g.vertex_count, flipped)
        assert h == g and hash(h) == hash(g)
        assert h.edges == g.edges
        assert np.array_equal(h._ends, g._ends) and h._ends.dtype == np.int64

    def test_array_and_tuple_input_share_one_memo_entry(self):
        a = cycle_graph(6)
        b = Graph(6, np.array([[5, 0], [4, 5], [3, 4], [2, 3], [1, 2], [0, 1]]))
        assert a is not b
        assert kf_vertex_corona(a, complete_graph(2)).value == kf_vertex_corona(b, complete_graph(2)).value
        assert metrics._first_factor_kirchhoff.cache_info().currsize == 1

    @pytest.mark.parametrize("as_array", [False, True])
    def test_messages_at_first_offender_in_input_order(self, as_array):
        def build(n, pairs):
            return Graph(n, np.array(pairs) if as_array else pairs)

        with pytest.raises(ValueError) as err:
            build(4, [(0, 1), (3, 3), (0, 9), (2, 2)])
        assert str(err.value) == "self-loop at vertex 3"
        with pytest.raises(ValueError) as err:
            build(4, [(0, 1), (9, 0), (2, 2), (-1, 3)])
        assert str(err.value) == "edge (9, 0) out of range for 4 vertices"

    def test_duplicate_reported_at_first_in_sorted_order(self):
        # in input order (2, 3) repeats first; in sorted order (0, 1) does
        with pytest.raises(ValueError) as err:
            Graph(4, [(2, 3), (3, 2), (1, 0), (0, 1)])
        assert str(err.value) == "duplicate edge (0, 1)"

    @given(pair_lists())
    def test_matches_the_per_edge_loop(self, case):
        n, pairs = case
        try:
            want = loop_canonical_edges(n, pairs)
        except ValueError as err:
            for given in (pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2)):
                with pytest.raises(ValueError) as got:
                    Graph(n, given)
                assert str(got.value) == str(err)
        else:
            assert Graph(n, pairs).edges == want
            assert Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2)).edges == want

    def test_rejects_input_that_is_not_pairs(self):
        for bad in ([(0, 1, 2, 3)], [(0, 1), (1, 2, 3)], [()], [0, 1], np.zeros((2, 3), dtype=np.int64)):
            with pytest.raises(ValueError):
                Graph(4, bad)

    def test_empty_input_is_edgeless(self):
        for empty in ((), [], np.empty((0, 2), dtype=np.int64)):
            g = Graph(3, empty)
            assert g == Graph(3) and g.edge_count == 0 and g.edges == ()
            assert g._ends.shape == (0, 2)

    def test_rejects_endpoints_that_are_not_integers(self):
        # never truncated to (0, 1) or parsed from text
        cases = (
            ([(0.5, 1.7)], "float64"),
            (np.array([[0.5, 1.7]]), "float64"),
            ([(0, 1), (1, 2.0)], "float64"),
            ([("0", "1")], "<U1"),
            ([(True, False)], "bool"),
            ([(0, 2**70)], "object"),
        )
        for edges, dtype in cases:
            with pytest.raises(ValueError) as err:
                Graph(3, edges)
            assert str(err.value) == f"edge endpoints must be integers, got {dtype}"

    def test_empty_input_of_any_dtype_and_other_integer_dtypes_are_accepted(self):
        for empty in (np.empty((0, 2)), np.array([]), np.empty(0, dtype=object)):
            assert Graph(3, empty) == Graph(3)
        for dtype in (np.int8, np.int32, np.uint16, np.uint64):
            g = Graph(3, np.array([[2, 1], [0, 1]], dtype=dtype))
            assert g == path_graph(3) and g._ends.dtype == np.int64

    def test_immutable(self):
        g = path_graph(3)
        assert not g._ends.flags.writeable
        with pytest.raises(ValueError):
            g._ends[0, 0] = 2
        for name, value in (("vertex_count", 4), ("_ends", np.zeros((0, 2))), ("edges", ())):
            with pytest.raises(AttributeError):
                setattr(g, name, value)
        with pytest.raises(AttributeError):
            del g.vertex_count
        assert g == path_graph(3)


class TestMatrices:
    def test_path_matrices(self):
        g = path_graph(3)
        assert np.array_equal(adjacency_matrix(g), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert np.array_equal(degree_matrix(g), np.diag([1.0, 2.0, 1.0]))
        assert np.array_equal(laplacian(g), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_incidence_columns(self):
        g = path_graph(3)
        assert np.array_equal(incidence_matrix(g), [[1, 0], [1, 1], [0, 1]])

    @given(graphs())
    def test_match_the_per_edge_loops(self, g):
        # the loops the matrices were first built with, kept as the reference
        n, m = g.vertex_count, g.edge_count
        d = np.zeros(n, dtype=np.int64)
        a, r = np.zeros((n, n)), np.zeros((n, m))
        for e, (u, v) in enumerate(g.edges):
            d[u] += 1
            d[v] += 1
            a[u, v] = a[v, u] = 1.0
            r[u, e] = r[v, e] = 1.0
        lap = np.diag(d.astype(np.float64)) - a
        assert g.degrees().dtype == np.int64 and np.array_equal(g.degrees(), d)
        assert np.array_equal(adjacency_matrix(g), a)
        assert np.array_equal(incidence_matrix(g), r)
        got = laplacian(g)
        assert np.array_equal(got, lap)
        assert np.array_equal(np.signbit(got), np.signbit(lap))  # zeros stay +0.0
        assert g == Graph(n, g.edges)
        assert hash(g) == hash(Graph(n, g.edges))

    @given(graphs())
    def test_laplacian_rows_sum_to_zero(self, g):
        assert np.abs(laplacian(g).sum(axis=1)).max(initial=0.0) == 0.0

    @given(graphs())
    def test_incidence_identity(self, g):
        # R R^T = D + A for the unsigned incidence matrix
        r = incidence_matrix(g)
        assert np.array_equal(r @ r.T, degree_matrix(g) + adjacency_matrix(g))

    @given(graphs())
    def test_line_graph_identity(self, g):
        # R^T R = A(line graph) + 2I: edges are adjacent in the line graph
        # exactly when they share an endpoint
        r = incidence_matrix(g)
        m = g.edge_count
        shared = np.zeros((m, m))
        for e, f in itertools.permutations(range(m), 2):
            if set(g.edges[e]) & set(g.edges[f]):
                shared[e, f] = 1.0
        assert np.array_equal(r.T @ r, shared + 2.0 * np.eye(m))


class TestDerivedGraphs:
    def test_subdivision_of_triangle_is_hexagon(self):
        s = subdivision(complete_graph(3))
        assert s.vertex_count == 6 and s.edge_count == 6
        assert list(s.degrees()) == [2] * 6
        assert is_connected(s) and two_colorable(s)

    @given(graphs())
    def test_subdivision_counts_and_bipartite(self, g):
        s = subdivision(g)
        assert s.vertex_count == g.vertex_count + g.edge_count
        assert s.edge_count == 2 * g.edge_count
        assert two_colorable(s)
        n = g.vertex_count
        loop = [(u, n + e) for e, (u, v) in enumerate(g.edges)] + [(v, n + e) for e, (u, v) in enumerate(g.edges)]
        assert s == Graph(n + g.edge_count, loop)


class TestPredicates:
    def test_is_connected(self):
        assert is_connected(Graph(0))
        assert is_connected(Graph(1))
        assert is_connected(path_graph(4))
        assert not is_connected(Graph(2))
        assert not is_connected(Graph(4, ((0, 1), (2, 3))))

    def test_is_connected_searches_once_per_graph(self, monkeypatch):
        searches = []

        def counting_deque(*args):
            searches.append(args)
            return deque(*args)

        monkeypatch.setattr(graphs_module, "deque", counting_deque)
        g, h = cycle_graph(5), Graph(4, ((0, 1), (2, 3)))
        assert (is_connected(g), is_connected(g)) == (True, True)
        assert (is_connected(h), is_connected(h)) == (False, False)
        assert len(searches) == 2

    def test_is_regular(self):
        assert is_regular(cycle_graph(4)) == 2
        assert is_regular(path_graph(3)) is None
        assert is_regular(Graph(1)) == 0
        assert is_regular(Graph(0)) is None


class TestCorona:
    @given(connected_graphs(max_vertices=4), graphs(max_vertices=4))
    def test_kind_dispatch_builds_the_layout(self, g1, g2):
        for kind in ("vertex", "edge"):
            assert corona(g1, g2, kind) == CoronaLayout(kind=kind, g1=g1, g2=g2)

    @given(connected_graphs(max_vertices=4), graphs(max_vertices=5))
    @example(Graph(1), complete_graph(3))  # n1 = 1
    @example(path_graph(3), Graph(4))  # m2 = 0
    @example(cycle_graph(3), Graph(5, ((0, 3), (1, 3))))  # G2 with isolated vertices
    @example(star_graph(2), Graph(0))  # empty G2: the product is G1
    def test_lifted_product_matches_triple_loop(self, g1, g2):
        for kind in ("vertex", "edge"):
            layout = corona(g1, g2, kind)
            assert "product" not in layout.__dict__
            assert layout.product.edges == triple_loop_corona(g1, g2, kind).edges
            assert layout.n == layout.product.vertex_count
            assert layout.product is layout.product

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            corona(complete_graph(2), complete_graph(2), "line")

    def test_vertex_product_of_k1_k2_is_four_cycle(self):
        layout = corona(complete_graph(1), complete_graph(2), "vertex")
        assert layout.product.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
        assert [layout.classify(v)[0] for v in range(4)] == [
            "subdivision",
            "copy",
            "copy",
            "base",
        ]

    def test_vertex_product_of_k2_k1_is_path(self):
        layout = corona(complete_graph(2), complete_graph(1), "vertex")
        # pendant copy vertex per base vertex: path cop0 - base0 - base1 - cop1
        assert layout.product.edges == ((0, 2), (1, 3), (2, 3))
        assert is_connected(layout.product)
        assert sorted(layout.product.degrees()) == [1, 1, 2, 2]

    def test_edge_product_of_k1_k2_is_star(self):
        layout = corona(complete_graph(1), complete_graph(2), "edge")
        assert layout.product.edges == ((0, 1), (0, 2), (0, 3))
        assert layout.classify(0) == ("subdivision", 0, 0)

    def test_empty_first_factor_rejected(self):
        with pytest.raises(PreconditionError):
            corona(Graph(0), complete_graph(2), "vertex")
        with pytest.raises(PreconditionError):
            corona(Graph(0), complete_graph(2), "edge")

    @given(connected_graphs(max_vertices=4), graphs(max_vertices=4))
    def test_product_counts(self, g1, g2):
        n1, m1 = g1.vertex_count, g1.edge_count
        n2, m2 = g2.vertex_count, g2.edge_count
        lv = corona(g1, g2, "vertex")
        le = corona(g1, g2, "edge")
        assert lv.product.vertex_count == n1 * (1 + n2 + m2)
        assert le.product.vertex_count == n1 * (1 + n2 + m2)
        assert lv.product.edge_count == m1 + n1 * n2 + 2 * n1 * m2
        assert le.product.edge_count == m1 + 3 * n1 * m2

    @given(connected_graphs(max_vertices=4), graphs(max_vertices=4))
    def test_classify_inverts_index_maps(self, g1, g2):
        for layout in (corona(g1, g2, "vertex"), corona(g1, g2, "edge")):
            for v in range(layout.product.vertex_count):
                coord = layout.classify(v)
                assert layout.global_index(coord) == v
            # three consecutive blocks: n1*m2 subdivision, n1*n2 copy, n1 base vertices
            classes = [layout.classify(v)[0] for v in range(layout.n)]
            n1, n2, m2 = layout.n1, layout.n2, layout.m2
            assert classes == ["subdivision"] * (n1 * m2) + ["copy"] * (n1 * n2) + ["base"] * n1

    @given(connected_graphs(max_vertices=4), graphs(max_vertices=4))
    def test_position_splits_the_global_index(self, g1, g2):
        for layout in (corona(g1, g2, "vertex"), corona(g1, g2, "edge")):
            for v in range(layout.n):
                assert layout.position(layout.classify(v)) == divmod(v, layout.n1)

    @pytest.mark.parametrize(
        "coord, error, message",
        [
            (("subdivision", 4, 0), IndexError, "second-factor edge 4 out of range"),
            (("subdivision", -1, 0), IndexError, "second-factor edge -1 out of range"),
            (("subdivision", 0, 3), IndexError, "first-factor vertex 3 out of range"),
            (("subdivision", 9, 9), IndexError, "second-factor edge 9 out of range"),
            (("copy", 4, 0), IndexError, "second-factor vertex 4 out of range"),
            (("copy", 0, -1), IndexError, "first-factor vertex -1 out of range"),
            (("copy", 7, 7), IndexError, "second-factor vertex 7 out of range"),
            (("base", 0, 1), ValueError, "base coordinates carry owner == local"),
            (("base", 5, 0), ValueError, "base coordinates carry owner == local"),
            (("base", 3, 3), IndexError, "first-factor vertex 3 out of range"),
            (("root", 9, 9), ValueError, "unknown vertex class 'root'"),
        ],
    )
    def test_malformed_coordinates(self, coord, error, message):
        # the local index is checked first, then a base owner, then the owner
        layout = corona(path_graph(3), cycle_graph(4), "vertex")
        calls = [layout.position, layout.global_index]
        cls, local, owner = coord
        if cls == "subdivision":
            calls.append(lambda c: layout.subdivision_index(local, owner))
        elif cls == "copy":
            calls.append(lambda c: layout.copy_index(local, owner))
        elif cls == "base" and local == owner:
            calls.append(lambda c: layout.base_index(local))
        for call in calls:
            with pytest.raises(error) as err:
                call(coord)
            assert type(err.value) is error and str(err.value) == message

    @pytest.mark.parametrize(
        "coord",
        [("copy", 1.5, 0), ("copy", 1.0, 0), ("subdivision", 0, 2.0), ("base", 1.0, 1.0), ("copy", np.float64(1), 0)],
    )
    def test_non_integer_coordinates(self, coord):
        layout = corona(path_graph(3), cycle_graph(4), "vertex")
        cls, local, owner = coord
        index_map = {
            "subdivision": lambda: layout.subdivision_index(local, owner),
            "copy": lambda: layout.copy_index(local, owner),
            "base": lambda: layout.base_index(local),
        }[cls]
        for call in (lambda: layout.global_index(coord), index_map):
            with pytest.raises(TypeError):
                call()

    def test_numpy_integer_coordinates(self):
        layout = corona(path_graph(3), cycle_graph(4), "vertex")
        for v in range(layout.n):
            cls, local, owner = layout.classify(v)
            index = layout.global_index((cls, np.int64(local), np.int32(owner)))
            assert index == v and type(index) is int
        assert layout.subdivision_index(np.int64(0), np.int64(2)) == 2
        assert layout.copy_index(np.int64(1), np.uint8(0)) == 15
        assert layout.base_index(np.int64(1)) == 25

    def test_base_coordinate_owner_must_match(self):
        layout = corona(complete_graph(2), complete_graph(2), "vertex")
        with pytest.raises(ValueError):
            layout.global_index(("base", 0, 1))

    @given(connected_graphs(max_vertices=3), graphs(max_vertices=3))
    def test_one_copy_restriction_matches_single_base_product(self, g1, g2):
        # the subgraph induced by one copy plus its owner is the product with
        # a one-vertex first factor, up to the explicit relabeling below
        single = corona(complete_graph(1), g2, "vertex")
        big = corona(g1, g2, "vertex")
        big_edges = set(big.product.edges)
        for owner in range(g1.vertex_count):
            def relabel(v):
                cls, local, _ = single.classify(v)
                if cls == "subdivision":
                    return big.subdivision_index(local, owner)
                if cls == "copy":
                    return big.copy_index(local, owner)
                return big.base_index(owner)

            image = {relabel(v) for v in range(single.product.vertex_count)}
            mapped = set()
            for u, v in single.product.edges:
                a, b = relabel(u), relabel(v)
                edge = (a, b) if a < b else (b, a)
                assert edge in big_edges
                mapped.add(edge)
            induced = {
                e for e in big_edges if e[0] in image and e[1] in image
            }
            assert induced == mapped


class TestEdgeListFormat:
    @given(graphs())
    def test_round_trip(self, g):
        assert parse_edge_list(format_edge_list(g)) == g
        lines = [f"{g.vertex_count} {g.edge_count}"] + [f"{u} {v}" for u, v in g.edges]
        assert format_edge_list(g) == "\n".join(lines) + "\n"

    def test_comments_and_blank_lines(self):
        text = "# a triangle\n\n3 3\n0 1  # first\n1 2\n\n0 2\n"
        assert parse_edge_list(text) == complete_graph(3)

    def test_missing_header(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("# nothing here\n")

    def test_non_integer_field_cites_line(self):
        with pytest.raises(EdgeListError, match="line 3"):
            parse_edge_list("3 2\n0 1\nx 2\n")

    def test_wrong_field_count_cites_line(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("2 1\n0 1 7\n")

    def test_too_many_edges_cites_line(self):
        with pytest.raises(EdgeListError, match="line 3"):
            parse_edge_list("3 1\n0 1\n1 2\n0 2\n")

    def test_too_few_edges(self):
        with pytest.raises(EdgeListError, match="declared 2"):
            parse_edge_list("3 2\n0 1\n")

    def test_out_of_range_cites_line(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("2 1\n0 5\n")

    def test_duplicate_cites_line(self):
        with pytest.raises(EdgeListError, match="line 3"):
            parse_edge_list("2 2\n0 1\n1 0\n")

    def test_self_loop_cites_line(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("2 1\n1 1\n")
