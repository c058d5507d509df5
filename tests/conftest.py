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
def _empty_first_factor_memo():
    # the Kf(G1) memo lives as long as the process; no test may lean on what
    # an earlier one left in it
    metrics._first_factor_kirchhoff.cache_clear()


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
