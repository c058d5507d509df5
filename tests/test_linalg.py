from __future__ import annotations

import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coronakit
from conftest import connected_graphs
from coronakit import (
    ENTRY_TOL,
    RESIDUAL_TOL,
    SYMMETRY_TOL,
    Graph,
    PreconditionError,
    SingularMatrixError,
    complete_graph,
    cycle_graph,
    group_inverse_laplacian,
    group_inverse_trace_and_sum,
    inverse,
    kron,
    laplacian,
    path_graph,
    symmetric_eigenvalues,
)
from coronakit import linalg


def disjoint_union(*gs):
    edges, offset = [], 0
    for g in gs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.vertex_count
    return Graph(offset, tuple(edges))


def barbell(clique, bridge):
    # two K_clique joined through a path of `bridge` vertices
    g = disjoint_union(complete_graph(clique), path_graph(bridge), complete_graph(clique))
    ends = ((clique - 1, clique), (clique + bridge - 1, clique + bridge))
    return Graph(g.vertex_count, g.edges + ends)


def small_matrices(n):
    return st.lists(
        st.lists(st.floats(-3, 3, allow_nan=False, width=32), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(np.array)


class TestTolerances:
    def test_defaults(self):
        assert (ENTRY_TOL, RESIDUAL_TOL, SYMMETRY_TOL) == (1e-9, 1e-8, 1e-12)

    def test_no_exported_callable_takes_tol(self):
        # the thresholds are module constants, not a per-call setting;
        # exception classes carry no inspectable signature
        exported = [
            (name, obj)
            for name, obj in vars(coronakit).items()
            if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, Exception))
        ]
        assert len(exported) > 40
        assert [name for name, obj in exported if "tol" in inspect.signature(obj).parameters] == []


class TestKron:
    def test_small_example(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        out = kron(a, np.eye(2))
        expect = np.array(
            [[1, 0, 2, 0], [0, 1, 0, 2], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float
        )
        assert np.array_equal(out, expect)

    @given(small_matrices(2), small_matrices(2))
    def test_mixed_product_with_identity(self, a, b):
        # (A (x) I)(B (x) I) = AB (x) I, the lift used by the block assembly
        lhs = kron(a, np.eye(3)) @ kron(b, np.eye(3))
        rhs = kron(a @ b, np.eye(3))
        assert np.allclose(lhs, rhs, atol=1e-6)


class TestLift:
    @given(small_matrices(3), st.integers(1, 4))
    def test_bits_of_kron_with_identity(self, a, n):
        # kron writes -0.0 where a negative entry meets a zero of I; the lift
        # adds onto +0.0, which is kron's bits plus +0.0
        out = np.zeros((3 * n, 3 * n))
        linalg._lift(out, a)
        want = np.kron(a, np.eye(n)) + 0.0
        assert np.array_equal(out.view(np.int64), want.view(np.int64))

    def test_adds_onto_what_is_there(self):
        a = np.array([[1.0, -2.0]])
        out = np.ones((2, 4))
        linalg._lift(out, a)
        assert np.array_equal(out, np.ones((2, 4)) + np.kron(a, np.eye(2)))


class TestNonFinite:
    """NaN compares False with every bound, so each input is rejected up front."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
    def test_laplacian_rejected(self, bad, entry):
        lap = laplacian(path_graph(3))
        lap[entry] = bad
        for fn in (group_inverse_laplacian, group_inverse_trace_and_sum):
            with pytest.raises(ValueError, match="infs or NaNs"):
                fn(lap)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_inverse_rejected(self, bad):
        with pytest.raises(ValueError, match="infs or NaNs"):
            inverse([[2.0, 1.0], [1.0, bad]])


class TestInverse:
    def test_shifted_laplacian_of_k2(self):
        out = inverse([[3.0, -1.0], [-1.0, 3.0]])
        assert np.allclose(out, np.array([[3, 1], [1, 3]]) / 8.0, atol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse(laplacian(path_graph(3)))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            inverse(np.zeros((2, 3)))

    def test_empty(self):
        assert inverse(np.zeros((0, 0))).shape == (0, 0)


class TestEigenvalues:
    def test_cycle_spectrum(self):
        ev = symmetric_eigenvalues(laplacian(cycle_graph(4)))
        assert np.allclose(ev, [0.0, 2.0, 2.0, 4.0], atol=1e-12)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues([[0.0, 1.0], [0.0, 0.0]])

    @given(connected_graphs(max_vertices=6))
    def test_ascending_and_trace(self, g):
        lap = laplacian(g)
        ev = symmetric_eigenvalues(lap)
        assert np.all(np.diff(ev) >= -1e-12)
        assert abs(ev.sum() - np.trace(lap)) <= 1e-8

    def test_spanning_tree_counts(self):
        # product of nonzero Laplacian eigenvalues = n * (# spanning trees)
        ev_path = symmetric_eigenvalues(laplacian(path_graph(3)))
        assert abs(np.prod(ev_path[1:]) - 3.0) < 1e-10
        ev_cycle = symmetric_eigenvalues(laplacian(cycle_graph(3)))
        assert abs(np.prod(ev_cycle[1:]) - 9.0) < 1e-10


class TestGroupInverse:
    def test_k2_value(self):
        x = group_inverse_laplacian(laplacian(complete_graph(2)))
        assert np.allclose(x, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-14)

    def test_single_vertex(self):
        assert np.array_equal(group_inverse_laplacian(np.zeros((1, 1))), np.zeros((1, 1)))

    @given(connected_graphs(max_vertices=7))
    def test_defining_identities(self, g):
        m = laplacian(g)
        x = group_inverse_laplacian(m)
        assert np.abs(m @ x @ m - m).max() <= 1e-8
        assert np.abs(x @ m @ x - x).max() <= 1e-8
        assert np.abs(m @ x - x @ m).max() <= 1e-8
        assert np.abs(x.sum(axis=1)).max() <= 1e-10

    @given(connected_graphs(max_vertices=12))
    def test_matches_pseudo_inverse(self, g):
        m = laplacian(g)
        x = group_inverse_laplacian(m)
        assert np.abs(x - np.linalg.pinv(m)).max() <= 1e-10
        assert np.array_equal(x, x.T)

    @pytest.mark.parametrize("g", [path_graph(2000), barbell(30, 200)], ids=["P2000", "barbell"])
    def test_tiny_algebraic_connectivity_accepted(self, g):
        # lambda2 is 2.5e-6 on P2000 and 1.5e-4 on the barbell, far below the
        # entry tolerance a spectral test would use, yet both are connected
        n = g.vertex_count
        x = group_inverse_laplacian(laplacian(g))
        assert np.abs(x.sum(axis=1)).max() <= 1e-12 * n**2
        assert np.array_equal(x, x.T)

    def test_disconnected_rejected(self):
        for lap in (
            laplacian(disjoint_union(path_graph(2), path_graph(2))),
            laplacian(disjoint_union(cycle_graph(100), cycle_graph(100))),
            laplacian(disjoint_union(path_graph(5), Graph(1))),
            np.array([[-1.0, 1.0], [1.0, -1.0]]),  # zero row sums, not PSD
        ):
            with pytest.raises(PreconditionError):
                group_inverse_laplacian(lap)

    def test_nonzero_row_sums_rejected(self):
        with pytest.raises(ValueError):
            group_inverse_laplacian(np.eye(3))

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            group_inverse_laplacian([[1.0, -1.0], [0.0, 0.0]])

    @given(connected_graphs(max_vertices=12))
    def test_trace_and_sum_match_the_full_inverse(self, g):
        m = laplacian(g)
        x = group_inverse_laplacian(m)
        trace, total = group_inverse_trace_and_sum(m)
        assert trace == np.trace(x)
        # 1'X1 is zero up to the rounding of a sum over n^2 entries
        assert abs(total - x.sum()) <= 1e-12 * g.vertex_count**2

    def test_trace_and_sum_reject_what_the_inverse_rejects(self):
        for lap, error in (
            (laplacian(disjoint_union(path_graph(2), path_graph(2))), PreconditionError),
            (np.eye(3), ValueError),
            ([[1.0, -1.0], [0.0, 0.0]], ValueError),
            (np.zeros((0, 0)), ValueError),
        ):
            with pytest.raises(error) as want:
                group_inverse_laplacian(lap)
            with pytest.raises(error, match=re.escape(str(want.value))):
                group_inverse_trace_and_sum(lap)
