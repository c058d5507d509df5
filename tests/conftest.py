from __future__ import annotations

import hypothesis
import pytest
from hypothesis import strategies as st

from coronakit import Graph, metrics

hypothesis.settings.register_profile("ci", max_examples=25, deadline=None)
hypothesis.settings.load_profile("ci")

# one line per acceptance criterion, echoed after the test summary so the
# verdicts are visible regardless of output capture
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def _empty_factor_memos():
    # the Kf(G1) and second-factor memos live as long as the process; no test
    # may lean on what an earlier one left in them
    metrics._first_factor_kirchhoff.cache_clear()
    metrics._shifted_pieces.cache_clear()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@st.composite
def graphs(draw, min_vertices=0, max_vertices=7):
    """Arbitrary simple graphs up to the given size."""
    n = draw(st.integers(min_vertices, max_vertices))
    if n < 2:
        return Graph(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph(n, tuple(chosen))


@st.composite
def connected_graphs(draw, min_vertices=1, max_vertices=7):
    """Connected graphs built as a random spanning tree plus extra edges."""
    n = draw(st.integers(min_vertices, max_vertices))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.add((u, v))
    if n >= 2:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        edges.update(extra)
    return Graph(n, tuple(sorted(edges)))


@st.composite
def banded_connected_graphs(draw, max_vertices=150):
    """Connected graphs whose edges away from the last vertex reach at most ``k`` apart.

    A spanning tree whose edges all reach back at most ``k`` vertices, extra
    edges of the same reach, and any edges to the last vertex.  ``k`` stays
    at most 80, so graphs of more than 129 vertices, about half of those
    drawn, split into several blocks of 64 or more.
    """
    n = draw(st.one_of(st.integers(1, max_vertices), st.integers(min(130, max_vertices), max_vertices)))
    k = draw(st.integers(1, max(1, min(n - 1, 80))))
    edges = {(draw(st.integers(max(0, v - k), v - 1)), v) for v in range(1, n)}
    if n >= 2:
        near = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + k + 1))]
        edges.update(draw(st.lists(st.sampled_from(near), max_size=2 * n)))
        edges.update((i, n - 1) for i in draw(st.lists(st.integers(0, n - 2), max_size=n)))
    return Graph(n, tuple(sorted(edges)))
