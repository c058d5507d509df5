from __future__ import annotations

import numpy as np
import pytest

from coronakit import (
    PreconditionError,
    builtin_pairs,
    complete_graph,
    corona,
    cycle_graph,
    edge_copy_resistance_alt,
    laplacian,
    named_graph,
    path_graph,
    report_to_dict,
    resistance_oracle,
    run_verification,
    star_graph,
    vertex_copy_resistance_alt,
)
from coronakit import linalg, metrics, one_inverse, verify

ALT = {"vertex": vertex_copy_resistance_alt, "edge": edge_copy_resistance_alt}


class TestNamedGraph:
    def test_families(self):
        assert named_graph("K4") == complete_graph(4)
        assert named_graph("P2") == path_graph(2)
        assert named_graph("C5") == cycle_graph(5)
        assert named_graph("S4") == star_graph(4)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_graph("Q3")
        with pytest.raises(ValueError):
            named_graph("k2")

    def test_each_name_is_built_once(self):
        assert named_graph("C7") is named_graph("C7")
        assert named_graph("P7") is not named_graph("C7")
        # a bad name is never cached: it raises on every call
        for _ in range(3):
            with pytest.raises(ValueError):
                named_graph("Q3")


@pytest.fixture(scope="module")
def full_report():
    return run_verification()


class TestRunVerification:
    def test_builtin_corpus_passes(self, full_report):
        assert full_report.passed
        assert not any(c.status == "fail" for c in full_report.cases)

    def test_case_ids_unique_and_sorted(self, full_report):
        ids = [c.case_id for c in full_report.cases]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)

    def test_skips_are_annotated(self, full_report):
        skips = [c for c in full_report.cases if c.status == "skip"]
        assert skips
        assert all(c.note for c in skips)
        # edge products need a regular second factor of positive degree
        assert any("not regular" in c.note for c in skips)
        assert any("degree 0" in c.note for c in skips)

    def test_info_rows_report_known_discrepancies(self, full_report):
        info = {c.case_id: c for c in full_report.cases if c.status == "info"}
        alt = info["instance/alt-coefficient/vertex/K1-K2"]
        assert alt.closed_form == pytest.approx(1.25, abs=1e-12)
        assert alt.oracle == pytest.approx(1.0, abs=1e-12)
        assert any(k.startswith("copy-pair-alt/") for k in info)

    def test_summary_families(self, full_report):
        expected = {
            "assembly",
            "counts",
            "group-inverse",
            "group-inverse-nullvector",
            "instance",
            "kirchhoff-closed-form",
            "kirchhoff-oracle-consistency",
            "kirchhoff-regular",
            "kirchhoff-regular-consistency",
            "laplacian-blocks",
            "local-identity",
            "metric-axioms",
            "resistance-closed-form",
            "resistance-one-inverse",
        }
        assert expected <= set(full_report.summary)
        # info rows stay out of the summary
        assert "copy-pair-alt" not in full_report.summary
        assert full_report.summary["instance"] <= 1e-9
        assert full_report.summary["counts"] == 0.0

    def test_pair_count(self, full_report):
        assert len(builtin_pairs()) == 30


class TestUserPairs:
    def test_single_regular_pair_has_no_skips(self):
        report = run_verification(pairs=[("P3", "C4")], include_instances=False)
        assert report.passed
        assert not any(c.status == "skip" for c in report.cases)

    def test_irregular_second_factor_skips_edge_checks(self):
        report = run_verification(pairs=[("P3", "P3")], include_instances=False)
        assert report.passed
        skipped = {c.case_id for c in report.cases if c.status == "skip"}
        assert "kirchhoff-closed-form/edge/P3-P3" in skipped
        assert "assembly/edge/P3-P3" in skipped

    def test_duplicate_pairs_are_deduped(self):
        report = run_verification(pairs=[("K2", "K2"), ("K2", "K2")], include_instances=False)
        assert report.passed


class TestToleranceOverride:
    def test_impossible_tolerance_fails(self):
        report = run_verification(pairs=[("K2", "C3")], tolerance=1e-15, include_instances=False)
        assert not report.passed
        assert any(c.status == "fail" for c in report.cases)
        assert report.tolerance_override == 1e-15

    def test_loose_tolerance_passes(self):
        report = run_verification(pairs=[("K2", "C3")], tolerance=1.0, include_instances=False)
        assert report.passed


class TestReportDict:
    def test_layout(self):
        report = run_verification(pairs=[("K2", "K2")], include_instances=False)
        d = report_to_dict(report)
        assert list(d) == ["passed", "tolerance_override", "status_counts", "summary", "cases"]
        assert d["passed"] is True
        assert d["tolerance_override"] is None
        total = sum(d["status_counts"].values())
        assert total == len(d["cases"]) == len(report.cases)
        for case in d["cases"]:
            assert list(case) == [
                "id",
                "status",
                "closed_form",
                "oracle",
                "deviation",
                "tolerance",
                "note",
            ]


class TestEmptyFactor:
    def test_empty_second_factor_is_verified(self):
        # the vertex product of K2 with the empty graph is K2 itself
        report = run_verification(pairs=[("K2", "K0")], include_instances=False)
        assert report.passed
        assert report_to_dict(report)["status_counts"] == {"pass": 18, "fail": 0, "skip": 14, "info": 0}
        rows = {c.case_id: c for c in report.cases}
        assert (rows["group-inverse/factor/K0"].status, rows["group-inverse/factor/K0"].note) == (
            "skip",
            "empty graph",
        )
        assert rows["counts/vertex/K2-K0/vertices"].oracle == 2.0
        assert rows["resistance-closed-form/vertex/K2-K0"].status == "pass"
        assert rows["kirchhoff-closed-form/vertex/K2-K0"].status == "pass"

    @pytest.mark.parametrize("pair", [("K0", "K2"), ("P0", "P0")])
    def test_empty_first_factor_is_a_precondition_violation(self, pair):
        with pytest.raises(PreconditionError, match="nonempty first factor"):
            run_verification(pairs=[pair], include_instances=False)


class TestOneInversionPerProduct:
    def test_each_product_is_assembled_and_inverted_once(self, monkeypatch):
        assemblies, sizes, matrix_reads = [], [], []
        product_matrix = one_inverse.OneInverse.matrix.fget

        def recording_matrix(oi):
            matrix_reads.append(oi.layout.kind)
            return product_matrix(oi)

        def recording_assembly(*args, **kwargs):
            assemblies.append(one_inverse.one_inverse_corona(*args, **kwargs))
            return assemblies[-1]

        def recording_group_inverse(lap, *args, **kwargs):
            sizes.append(len(lap))
            return linalg.group_inverse_laplacian(lap, *args, **kwargs)

        for module in (verify, metrics):
            monkeypatch.setattr(module, "one_inverse_corona", recording_assembly)
        for module in (verify, metrics, one_inverse):
            monkeypatch.setattr(module, "group_inverse_laplacian", recording_group_inverse)
        monkeypatch.setattr(one_inverse.OneInverse, "matrix", property(recording_matrix))
        report = run_verification(pairs=[("P3", "C4")], include_instances=False)
        assert report.passed
        # both products of P3 and C4 have 27 vertices; the factors have 3 and 4
        assert [(oi.layout.kind, oi.layout.n) for oi in assemblies] == [("vertex", 27), ("edge", 27)]
        assert sizes.count(27) == 2
        assert set(sizes) == {3, 4, 27}
        # the product-size {1}-inverse is built once per product row
        assert matrix_reads == ["vertex", "edge"]


class TestKirchhoffOracleConsistency:
    def test_bound_scales_with_the_index(self):
        # Kf(P800) = 85333199.9996..., where one ulp (1.49e-8) exceeds an absolute 1e-8
        report = run_verification(pairs=[("P800", "K0")], include_instances=False)
        rows = {c.case_id: c for c in report.cases}
        for case_id in (
            "kirchhoff-oracle-consistency/factor/P800",
            "kirchhoff-oracle-consistency/vertex/P800-K0",
        ):
            row = rows[case_id]
            assert row.status == "pass"
            assert row.tolerance == 1e-8 * (1.0 + row.closed_form)


class TestScaledBounds:
    def test_metric_axioms_bound_scales_with_the_largest_resistance(self):
        # the triangle-inequality rounding of P400 reaches 1.22e-10, above an absolute 1e-10
        report = run_verification(pairs=[("P400", "K0")], include_instances=False)
        assert report.passed
        row = {c.case_id: c for c in report.cases}["metric-axioms/vertex/P400-K0"]
        assert row.status == "pass"
        assert row.tolerance == pytest.approx(1e-10 * 399.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    def test_resistance_bounds_scale_with_the_largest_resistance(self, kind):
        # as for resistance --method both: on P220-C4 the deviations reach
        # 2.4e-9 (vertex) and 6.0e-9 (edge), above an absolute 1e-9
        report = run_verification(pairs=[("P6", "C4")], include_instances=False)
        rows = {c.case_id: c for c in report.cases}
        largest = resistance_oracle(corona(path_graph(6), cycle_graph(4), kind).product).max()
        assert largest > 1.0
        for family in ("resistance-closed-form", "resistance-one-inverse"):
            row = rows[f"{family}/{kind}/P6-C4"]
            assert row.status == "pass"
            assert row.tolerance == pytest.approx(1e-9 * largest, rel=1e-12)

    def test_group_inverse_bound_scales_with_the_entries(self):
        # on P1500 the residuals reach 1.66e-8, above an absolute 1e-8; the
        # largest entry of X is (n - 1)(2n - 1) / 6n
        col = verify._Collector(None)
        x, _ = verify._group_inverse_rows(col, "factor/P1500", laplacian(path_graph(1500)))
        row = {c.case_id: c for c in col.cases}["group-inverse/factor/P1500"]
        assert row.status == "pass"
        assert row.tolerance == 1e-8 * np.abs(x).max()
        assert row.tolerance == pytest.approx(1e-8 * 1499 * 2999 / 9000, rel=1e-12)

    def test_null_vector_bound_scales_with_the_entries(self):
        # on P2000 the row sums of X reach 2.33e-10, above an absolute 1e-10,
        # while the largest entry of X is 666
        col = verify._Collector(None)
        x, _ = verify._group_inverse_rows(col, "factor/P2000", laplacian(path_graph(2000)))
        row = {c.case_id: c for c in col.cases}["group-inverse-nullvector/factor/P2000"]
        assert row.status == "pass"
        assert row.tolerance == 1e-10 * np.abs(x).max()
        assert row.tolerance == pytest.approx(1e-10 * 1999 * 3999 / 12000, rel=1e-12)


def _copy_pair_reference(g1, g2, kind):
    # the per-pair loop the copy-pair-alt row once ran: the last pair of largest drift
    layout = corona(g1, g2, kind)
    r = resistance_oracle(layout.product)
    worst, devs = (0.0, None, None), []
    for a in range(g2.vertex_count):
        for b in range(a + 1, g2.vertex_count):
            alt = ALT[kind](g2, a, b)
            true = r[layout.copy_index(a, 0), layout.copy_index(b, 0)]
            dev = abs(alt - true)
            devs.append(dev)
            if dev >= worst[0]:
                worst = (dev, alt, float(true))
    return worst, devs.count(worst[0])


class TestCopyPairRow:
    @pytest.mark.parametrize("pair", [("K2", "C4"), ("K2", "K4"), ("P3", "C5")])
    def test_row_matches_pairwise_loop(self, pair):
        report = run_verification(pairs=[pair], include_instances=False)
        rows = {c.case_id: c for c in report.cases}
        most_ties = 0
        for kind in ("vertex", "edge"):
            (dev, alt, true), ties = _copy_pair_reference(*map(named_graph, pair), kind)
            most_ties = max(most_ties, ties)
            row = rows[f"copy-pair-alt/{kind}/{pair[0]}-{pair[1]}"]
            assert row.status == "info"
            assert (row.deviation, row.closed_form, row.oracle) == (dev, alt, true)
        if pair == ("K2", "C4"):
            assert most_ties >= 2  # the largest drift is reached by more than one pair

    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    @pytest.mark.parametrize("name", ["K2", "C4", "K4", "C5"])
    def test_array_call_matches_scalar_calls(self, kind, name):
        g2 = named_graph(name)
        a, b = np.triu_indices(g2.vertex_count, 1)
        values = ALT[kind](g2, a, b)
        scalars = [ALT[kind](g2, int(i), int(j)) for i, j in zip(a, b)]
        assert all(type(v) is float for v in scalars)
        assert isinstance(values, np.ndarray)
        assert values.tolist() == scalars
        # broadcast index arrays give the full pair matrix
        v = np.arange(g2.vertex_count)
        grid = ALT[kind](g2, v[:, None], v)
        assert grid[a, b].tolist() == scalars
