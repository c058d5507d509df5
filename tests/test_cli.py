from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coronakit import (
    ENTRY_TOL,
    CoronaLayout,
    Graph,
    closed_form_resistance_matrix,
    complete_graph,
    corona,
    cycle_graph,
    format_edge_list,
    kirchhoff_oracle,
    parse_edge_list,
    path_graph,
    resistance_oracle,
    star_graph,
)
from coronakit import cli
from coronakit.cli import format_float, main, render_csv, render_json


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(format_edge_list(g))
    return str(path)


@pytest.fixture
def k1(tmp_path):
    return write_graph(tmp_path, "k1.txt", complete_graph(1))


@pytest.fixture
def k2(tmp_path):
    return write_graph(tmp_path, "k2.txt", complete_graph(2))


@pytest.fixture
def p3(tmp_path):
    return write_graph(tmp_path, "p3.txt", path_graph(3))


class TestJsonEmitter:
    def test_seventeen_digit_floats(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(0.75) == "0.75"
        assert format_float(5.0) == "5"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(math.nan)

    def test_round_trip_and_key_order(self):
        payload = {"b": 1, "a": [1.5, None, True], "nested": {"x": "s"}}
        text = render_json(payload)
        assert json.loads(text) == payload
        assert text.index('"b"') < text.index('"a"') < text.index('"nested"')

    def test_matrix_rows_stay_inline(self):
        text = render_json({"m": np.array([[0.0, 1.0], [1.0, 0.0]])})
        assert "[0, 1]" in text


def _reference_render(value, parts, indent):
    # the per-element emitter the row kernel replaced: every array goes
    # through tolist() and every float through format_float
    pad = "  " * indent
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, float):
        parts.append(format_float(value))
    elif isinstance(value, int):
        parts.append(str(value))
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, list):
        if not value:
            parts.append("[]")
        elif all(isinstance(v, (int, float, str)) for v in value):
            parts.append("[")
            for i, v in enumerate(value):
                if i:
                    parts.append(", ")
                _reference_render(v, parts, indent)
            parts.append("]")
        else:
            parts.append("[\n")
            for i, v in enumerate(value):
                parts.append("  " * (indent + 1))
                _reference_render(v, parts, indent + 1)
                parts.append(",\n" if i < len(value) - 1 else "\n")
            parts.append(pad + "]")
    else:
        parts.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            parts.append("  " * (indent + 1) + json.dumps(k) + ": ")
            _reference_render(v, parts, indent + 1)
            parts.append(",\n" if i < len(value) - 1 else "\n")
        parts.append(pad + "}")


def reference_json(value) -> str:
    parts: list[str] = []
    _reference_render(value, parts, 0)
    return "".join(parts) + "\n"


def reference_csv(matrix) -> str:
    rows = np.asarray(matrix, dtype=np.float64)
    return "\n".join(",".join(format_float(v) for v in row) for row in rows) + "\n"


AWKWARD = [-0.0, 5e-324, 1e300, 0.1, 5.0, 2.0**53, 1.0 / 3.0, -1e-300, 123456789.125]
# a small pool, so that repeats and both signed zeros are common
POOL = [-0.0, 0.0, 5e-324, 0.1, 1.0 / 3.0, 1e300]


class TestRowKernel:
    """The row kernel writes the same bytes as the per-element emitter."""

    def assert_same(self, a):
        payload = {"n": 3, "matrix": a, "nested": {"m": a}, "tail": 0.5}
        assert render_json(payload) == reference_json(payload)
        assert render_json(a) == reference_json(a)
        if a.ndim == 2:
            assert render_csv(a) == reference_csv(a)

    def test_awkward_values(self):
        a = np.array(AWKWARD)
        self.assert_same(a)
        self.assert_same(np.vstack([a, -a[::-1]]))

    def test_float32_input(self):
        # float32 values widen to float64 exactly, as format_float widens them
        a = np.array([-0.0, 1e-45, 3e38, 0.1, 5.0, 2.0**24, 1.0 / 3.0], dtype=np.float32)
        self.assert_same(a)
        self.assert_same(np.vstack([a, -a[::-1]]))

    def test_float32_repeats(self):
        pool = np.array([-0.0, 0.0, 1e-45, 0.1, 1.0 / 3.0, 3e38], dtype=np.float32)
        a = np.resize(pool, (6, 7))
        self.assert_same(a)
        self.assert_same(a.T)

    def test_signed_zeros_keep_their_text(self):
        a = np.resize(np.array(POOL), (4, 9))
        self.assert_same(a)
        assert render_csv(np.array([[0.0, -0.0], [-0.0, 0.0]])) == "0,-0\n-0,0\n"

    def test_non_contiguous_inputs(self):
        a = np.resize(np.array(POOL + AWKWARD), (6, 10))
        views = [a.T, a[:, ::2], np.asfortranarray(a), a[::-1, 1::3]]
        for view in views:
            assert not view.flags.c_contiguous
            self.assert_same(view)

    @pytest.mark.parametrize("shape", [(1,), (5,), (1, 1), (3, 4), (0,), (0, 3), (3, 0), (0, 0), (2, 2, 3), ()])
    def test_shapes(self, shape):
        a = (np.arange(np.prod(shape), dtype=np.float64) / 7.0).reshape(shape)
        self.assert_same(a)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_blocks_join_up(self, monkeypatch, block):
        monkeypatch.setattr(cli, "_BLOCK_ENTRIES", block)
        a = np.resize(np.array(POOL + AWKWARD), (7, 9))
        self.assert_same(a)
        self.assert_same(a[:, :1])

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 3)])
    def test_csv_needs_a_matrix(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            render_csv(np.zeros(shape))

    def test_empty_csv_is_one_newline(self):
        assert render_csv(np.zeros((0, 0))) == "\n"

    def test_integer_and_bool_arrays_keep_generic_path(self):
        assert render_json(np.array([[1, 2], [3, 4]])) == reference_json([[1, 2], [3, 4]])
        assert render_json(np.array([True, False])) == "[true, false]\n"

    @given(arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(0, 12)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_finite_matrices(self, a):
        self.assert_same(a)

    @given(arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(0, 12)),
                  elements=st.sampled_from(POOL)))
    def test_matrices_with_repeats(self, a):
        self.assert_same(a)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape,at", [((4,), (3,)), ((3, 3), (0, 0)), ((3, 3), (2, 1)), ((2, 2, 2), (1, 1, 1)), ((), ())])
    def test_non_finite_anywhere_raises(self, bad, shape, at):
        a = np.ones(shape)
        a[at] = bad
        with pytest.raises(ValueError, match="non-finite"):
            render_json({"matrix": a})
        if a.ndim == 2:
            with pytest.raises(ValueError, match="non-finite"):
                render_csv(a)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_exits_2_without_output(self, tmp_path, monkeypatch, k1, k2, fmt, bad, capsys):
        matrix = np.zeros((4, 4))
        matrix[1, 2] = bad
        monkeypatch.setattr(cli, "closed_form_resistance_matrix", lambda g1, g2, kind: matrix)
        out = tmp_path / "r.out"
        argv = ["resistance", "--kind", "vertex", "--g1", k1, "--g2", k2,
                "--method", "closed-form", "--format", fmt, "--out", str(out)]
        assert main(argv) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


class TestBuild:
    def test_writes_edge_list_and_manifest(self, tmp_path, k1, k2):
        out = tmp_path / "prod.txt"
        assert main(["build", "--kind", "vertex", "--g1", k1, "--g2", k2, "--out", str(out)]) == 0
        product = parse_edge_list(out.read_text())
        assert product == corona(complete_graph(1), complete_graph(2), "vertex").product
        manifest = json.loads((tmp_path / "prod.txt.manifest.json").read_text())
        assert manifest["n"] == 4
        assert manifest["kind"] == "vertex"
        classes = [c["class"] for c in manifest["classes"]]
        assert classes == ["subdivision", "copy", "copy", "base"]
        assert [c["vertex"] for c in manifest["classes"]] == [0, 1, 2, 3]

    def test_stdout_mode(self, capsys, k1, k2):
        assert main(["build", "--kind", "edge", "--g1", k1, "--g2", k2]) == 0
        captured = capsys.readouterr()
        assert parse_edge_list(captured.out).edges == ((0, 1), (0, 2), (0, 3))

    def test_dash_out_is_stdout_and_writes_no_file(self, tmp_path, monkeypatch, capsys, k1, k2):
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert main(["build", "--kind", "edge", "--g1", k1, "--g2", k2, "--out", "-"]) == 0
        assert parse_edge_list(capsys.readouterr().out).edges == ((0, 1), (0, 2), (0, 3))
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("flags", [[], ["--out", "-"]], ids=["no-out", "dash-out"])
    def test_manifest_is_not_rendered_unless_written(
        self, tmp_path, monkeypatch, capsys, k1, k2, flags
    ):
        monkeypatch.chdir(tmp_path)
        calls = []
        manifest = cli.layout_manifest
        monkeypatch.setattr(
            cli, "layout_manifest", lambda layout: calls.append(layout) or manifest(layout)
        )
        argv = ["build", "--kind", "vertex", "--g1", k1, "--g2", k2, *flags]
        assert main(argv) == 0
        assert parse_edge_list(capsys.readouterr().out).vertex_count == 4
        assert calls == []
        assert main([*argv, "--manifest", "m.json"]) == 0
        assert len(calls) == 1
        assert json.loads((tmp_path / "m.json").read_text())["n"] == 4

    def test_manifest_override_path(self, tmp_path, k1, k2):
        out = tmp_path / "prod.txt"
        mani = tmp_path / "layout.json"
        code = main(
            ["build", "--kind", "vertex", "--g1", k1, "--g2", k2, "--out", str(out), "--manifest", str(mani)]
        )
        assert code == 0
        assert json.loads(mani.read_text())["n"] == 4

    def test_malformed_input_cites_line(self, tmp_path, k2, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2\n0 1\nx 2\n")
        assert main(["build", "--kind", "vertex", "--g1", str(bad), "--g2", k2]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_vertex_count_beyond_int64_exits_2_and_writes_nothing(self, tmp_path, k2, capsys):
        huge = tmp_path / "huge.txt"
        huge.write_text("1000000000000000000000 1\n0 1\n")
        out = tmp_path / "prod.txt"
        assert main(["build", "--kind", "vertex", "--g1", str(huge), "--g2", k2, "--out", str(out)]) == 2
        assert "too large" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.txt", "k2.txt"]

    def test_missing_file(self, tmp_path, k2, capsys):
        missing = str(tmp_path / "nope.txt")
        assert main(["build", "--kind", "vertex", "--g1", missing, "--g2", k2]) == 2


class TestResistance:
    def test_oracle_json(self, capsys, k1, k2):
        assert main(["resistance", "--kind", "vertex", "--g1", k1, "--g2", k2]) == 0
        payload = json.loads(capsys.readouterr().out)
        got = np.array(payload["matrix"])
        want = resistance_oracle(corona(complete_graph(1), complete_graph(2), "vertex").product)
        assert np.abs(got - want).max() < 1e-12
        assert payload["method"] == "oracle"

    def test_csv_format(self, capsys, k1, k2):
        assert main(
            ["resistance", "--kind", "vertex", "--g1", k1, "--g2", k2, "--format", "csv"]
        ) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()]
        got = np.array([[float(v) for v in row] for row in rows])
        assert got.shape == (4, 4)
        assert got[0, 1] == pytest.approx(0.75)

    def test_both_reports_deviation(self, capsys, k1, k2):
        assert main(
            ["resistance", "--kind", "edge", "--g1", k1, "--g2", k2, "--method", "both"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_deviation"] < 1e-9
        assert "closed_form" in payload and "oracle" in payload

    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    def test_both_file_matches_reference(self, tmp_path, kind):
        # S3 x C4 repeats each value many times: the row kernel formats each once
        g1, g2 = star_graph(3), cycle_graph(4)
        out = tmp_path / "both.json"
        argv = ["resistance", "--kind", kind, "--g1", write_graph(tmp_path, "s3.txt", g1),
                "--g2", write_graph(tmp_path, "c4.txt", g2), "--method", "both", "--out", str(out)]
        assert main(argv) == 0
        closed = closed_form_resistance_matrix(g1, g2, kind)
        oracle = resistance_oracle(corona(g1, g2, kind).product)
        assert np.unique(closed).size * 10 < closed.size
        payload = {
            "command": "resistance",
            "kind": kind,
            "method": "both",
            "n": closed.shape[0],
            "closed_form": closed,
            "oracle": oracle,
            "max_deviation": float(np.abs(closed - oracle).max()),
            "tolerance": ENTRY_TOL * max(1.0, float(oracle.max())),
        }
        assert out.read_text() == reference_json(payload)

    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    def test_both_bound_scales_with_largest_resistance(self, tmp_path, capsys, kind):
        g1, g2 = path_graph(30), cycle_graph(4)
        argv = ["resistance", "--kind", kind, "--g1", write_graph(tmp_path, "p30.txt", g1),
                "--g2", write_graph(tmp_path, "c4.txt", g2), "--method", "both"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        largest = float(resistance_oracle(corona(g1, g2, kind).product).max())
        assert largest > 29.0
        assert payload["tolerance"] == ENTRY_TOL * largest
        assert main(argv + ["--tolerance", "1e-6"]) == 0
        assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-6

    def test_both_rejects_csv(self, k1, k2, capsys):
        code = main(
            [
                "resistance", "--kind", "vertex", "--g1", k1, "--g2", k2,
                "--method", "both", "--format", "csv",
            ]
        )
        assert code == 2

    def test_disconnected_first_factor(self, tmp_path, k2, capsys):
        disc = tmp_path / "disc.txt"
        disc.write_text("4 2\n0 1\n2 3\n")
        code = main(
            ["resistance", "--kind", "vertex", "--g1", str(disc), "--g2", k2, "--method", "closed-form"]
        )
        assert code == 3
        assert "connected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method,message",
        [
            ("both", "first factor must be connected"),
            ("oracle", "resistance distance needs a connected graph"),
        ],
    )
    def test_disconnected_first_factor_with_the_oracle(self, tmp_path, k2, method, message, capsys):
        disc = tmp_path / "disc.txt"
        disc.write_text("4 2\n0 1\n2 3\n")
        out = tmp_path / "out.json"
        code = main(
            [
                "resistance", "--kind", "vertex", "--g1", str(disc), "--g2", k2,
                "--method", method, "--out", str(out),
            ]
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def _disconnected_first_factor(n: int) -> Graph:
    # a star and a path, two components
    half = n // 2
    return Graph(n, [(0, i) for i in range(1, half)] + [(i, i + 1) for i in range(half, n - 1)])


# the two oracle routes: argv before --g1, the oracle's name in cli and its message
ORACLE_ROUTES = {
    "kirchhoff": (["kirchhoff", "--formula", "oracle", "--kind"], "kirchhoff_oracle",
                  "Kirchhoff index needs a connected graph"),
    "resistance": (["resistance", "--method", "oracle", "--kind"], "resistance_oracle",
                   "resistance distance needs a connected graph"),
}


class TestOracleGate:
    """The CLI oracle routes reject a disconnected product on its factors, before building it."""

    @pytest.fixture
    def product_reads(self, monkeypatch):
        reads = []
        build = CoronaLayout.product.func
        monkeypatch.setattr(
            CoronaLayout, "product", property(lambda layout: reads.append(layout) or build(layout))
        )
        return reads

    def unreachable_oracles(self, monkeypatch):
        for _, name, _ in ORACLE_ROUTES.values():
            monkeypatch.setattr(cli, name, lambda g, name=name: pytest.fail(f"{name} was reached"))

    def run(self, tmp_path, route, kind, g1, g2):
        argv, _, _ = ORACLE_ROUTES[route]
        out = tmp_path / "out.json"
        code = main([*argv, kind, "--g1", write_graph(tmp_path, "g1.txt", g1),
                     "--g2", write_graph(tmp_path, "g2.txt", g2), "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("route", sorted(ORACLE_ROUTES))
    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    @pytest.mark.parametrize("n", [4, 300])
    def test_disconnected_first_factor(
        self, tmp_path, monkeypatch, capsys, product_reads, route, kind, n
    ):
        self.unreachable_oracles(monkeypatch)
        code, out = self.run(tmp_path, route, kind, _disconnected_first_factor(n), cycle_graph(4))
        assert code == 3
        assert capsys.readouterr().err == f"error: {ORACLE_ROUTES[route][2]}\n"
        assert product_reads == []
        assert not out.exists()

    @pytest.mark.parametrize("route", sorted(ORACLE_ROUTES))
    @pytest.mark.parametrize("g2", [complete_graph(1), Graph(3, [(0, 1)])], ids=["K1", "P2+K1"])
    def test_edge_product_with_an_isolated_second_factor_vertex(
        self, tmp_path, monkeypatch, capsys, product_reads, route, g2
    ):
        self.unreachable_oracles(monkeypatch)
        code, out = self.run(tmp_path, route, "edge", path_graph(3), g2)
        assert code == 3
        assert capsys.readouterr().err == f"error: {ORACLE_ROUTES[route][2]}\n"
        assert product_reads == []
        assert not out.exists()

    @pytest.mark.parametrize("g2", [star_graph(3), path_graph(3), Graph(0)], ids=["S3", "P3", "K0"])
    def test_connected_edge_products_keep_their_oracle(self, tmp_path, g2):
        # S3 and P3 are irregular, with no isolated vertex: their edge products are connected
        g1 = path_graph(3)
        product = corona(g1, g2, "edge").product
        code, out = self.run(tmp_path, "kirchhoff", "edge", g1, g2)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == payload["oracle"] == kirchhoff_oracle(product).value
        code, out = self.run(tmp_path, "resistance", "edge", g1, g2)
        assert code == 0
        matrix = np.array(json.loads(out.read_text())["matrix"])
        assert np.array_equal(matrix, resistance_oracle(product))


class TestMemoryExhausted:
    """A product past dense range exits 3 with numpy's message and writes no file."""

    MESSAGE = "Unable to allocate 103. GiB for an array with shape (117300, 117300) and data type float64"

    @pytest.mark.parametrize(
        "argv",
        [
            ["kirchhoff", "--formula", "thm4.1"],
            ["kirchhoff", "--formula", "oracle", "--kind", "vertex"],
            ["resistance", "--method", "both", "--kind", "vertex"],
            ["resistance", "--method", "oracle", "--kind", "vertex"],
        ],
    )
    def test_exit_code_and_message(self, tmp_path, monkeypatch, capsys, p3, argv):
        def exhausted(g):
            raise MemoryError(self.MESSAGE)

        monkeypatch.setattr(cli, "kirchhoff_oracle", exhausted)
        monkeypatch.setattr(cli, "resistance_oracle", exhausted)
        out = tmp_path / "out.json"
        assert main([*argv, "--g1", p3, "--g2", p3, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {self.MESSAGE}\n")
        assert not out.exists()


class TestKirchhoff:
    def test_closed_form_value(self, capsys, k1, k2):
        assert main(["kirchhoff", "--formula", "thm4.1", "--g1", k1, "--g2", k2]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(5.0, abs=1e-9)
        assert payload["method"] == "theorem-4.1"
        assert payload["deviation"] < 1e-9

    def test_edge_formula(self, capsys, k1, k2):
        assert main(["kirchhoff", "--formula", "thm4.3", "--g1", k1, "--g2", k2]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(9.0, abs=1e-9)
        assert payload["kind"] == "edge"

    def test_oracle_needs_kind(self, k1, k2, capsys):
        assert main(["kirchhoff", "--formula", "oracle", "--g1", k1, "--g2", k2]) == 2
        assert (
            main(["kirchhoff", "--formula", "oracle", "--kind", "vertex", "--g1", k1, "--g2", k2])
            == 0
        )

    def test_kind_formula_mismatch(self, k1, k2, capsys):
        code = main(
            ["kirchhoff", "--formula", "thm4.1", "--kind", "edge", "--g1", k1, "--g2", k2]
        )
        assert code == 2

    def test_regular_only_formula_rejects_irregular(self, k2, p3, capsys):
        code = main(["kirchhoff", "--formula", "thm4.3", "--g1", k2, "--g2", p3])
        assert code == 3
        assert "regular" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "formula,message",
        [
            ("thm4.1", "first factor must be connected"),
            ("cor4.2", "first factor must be connected"),
            ("thm4.3", "first factor must be connected"),
            ("oracle", "Kirchhoff index needs a connected graph"),
        ],
    )
    @pytest.mark.parametrize("n", [4, 300], ids=["small", "reordered"])
    def test_disconnected_first_factor(self, tmp_path, formula, message, n, capsys):
        # a star and a path; at 300 vertices the star's spoke (0, 149) sends
        # the first factor's kernel to the hub route
        half = n // 2
        g1 = Graph(n, [(0, i) for i in range(1, half)] + [(i, i + 1) for i in range(half, n - 1)])
        disc = write_graph(tmp_path, "disc.txt", g1)
        c4 = write_graph(tmp_path, "c4.txt", cycle_graph(4))
        kind = "edge" if formula == "thm4.3" else "vertex"
        code = main(["kirchhoff", "--formula", formula, "--kind", kind, "--g1", disc, "--g2", c4])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"


class TestVerify:
    def test_default_corpus_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["status_counts"]["fail"] == 0

    def test_tight_tolerance_fails(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--tolerance", "1e-15", "--out", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["passed"] is False
        assert payload["status_counts"]["fail"] > 0

    def test_user_pair_only(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--corpus", "none", "--pair", "P3", "C4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["status_counts"]["skip"] == 0

    def test_empty_second_factor_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--corpus", "none", "--pair", "K2", "K0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["status_counts"] == {"pass": 18, "fail": 0, "skip": 14, "info": 0}

    @pytest.mark.parametrize("pair", [["K0", "K2"], ["P0", "P0"]])
    def test_empty_first_factor_is_precondition_violation(self, tmp_path, capsys, pair):
        out = tmp_path / "report.json"
        assert main(["verify", "--corpus", "none", "--pair", *pair, "--out", str(out)]) == 3
        assert "nonempty first factor" in capsys.readouterr().err
        assert not out.exists()

    def test_corpus_none_needs_pairs(self, capsys):
        assert main(["verify", "--corpus", "none"]) == 2

    def test_unknown_pair_name(self, capsys):
        assert main(["verify", "--corpus", "none", "--pair", "Q9", "K2"]) == 2

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2


class TestParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_rejected_argv_leaves_parser_reusable(self, tmp_path, k1, k2, capsys):
        argv = ["resistance", "--kind", "vertex", "--g1", k1, "--g2", k2, "--method", "both"]
        alone, after = tmp_path / "alone.json", tmp_path / "after.json"
        cli.build_parser.cache_clear()
        assert main(argv + ["--out", str(alone)]) == 0
        cli.build_parser.cache_clear()
        assert main(["resistance", "--kind", "line", "--g1", k1, "--g2", k2]) == 2
        assert main(argv + ["--out", str(after)]) == 0
        assert after.read_bytes() == alone.read_bytes()


class TestSubprocess:
    def test_console_entry_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            proc = subprocess.run(
                [sys.executable, "-m", "coronakit", "verify", "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("text", ["nan", "0"])
    def test_verify_corpus_script_rejects_a_bad_tolerance(self, text):
        # parsed as coronakit verify parses it: a usage error, not a run of failed rows
        script = Path(__file__).resolve().parents[1] / "scripts" / "verify_corpus.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--tolerance", text], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert "tolerance must be a positive finite number" in proc.stderr
        assert not proc.stdout

    def test_kirchhoff_table_script(self):
        # every corpus pair, each closed form printed next to its oracle
        script = Path(__file__).resolve().parents[1] / "scripts" / "kirchhoff_table.py"
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()[2:]]
        assert len(rows) == 30
        for pair, vertex_closed, vertex_oracle, edge_closed, edge_oracle in rows:
            assert vertex_closed == vertex_oracle, pair
            assert edge_closed == edge_oracle, pair
        assert sum(row[3] != "-" for row in rows) == 5 * 4  # C3, C4, K2 and K3 are regular of degree >= 1

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coronakit", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "build" in proc.stdout and "verify" in proc.stdout
