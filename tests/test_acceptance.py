"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each criterion prints one PASS/FAIL line on the real stdout so the result
is visible in any pytest run, captured or not.
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

import conftest
from coronakit import (
    BASE,
    COPY,
    SUBDIVISION,
    closed_form_resistance_matrix,
    complete_graph,
    corona_edge,
    corona_vertex,
    format_edge_list,
    group_inverse_laplacian,
    is_regular,
    kf_edge_corona_regular,
    kf_vertex_corona,
    kf_vertex_corona_regular,
    kirchhoff_oracle,
    laplacian,
    named_graph,
    neighbor_identity_check,
    one_inverse_edge_corona,
    one_inverse_vertex_corona,
    parse_edge_list,
    resistance_edge_corona,
    resistance_matrix_from_one_inverse,
    resistance_oracle,
    resistance_vertex_corona,
    vertex_copy_resistance_alt,
)
from coronakit.verify import CORPUS_G1, CORPUS_G2


def report(num, description, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" [{detail}]"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def corpus_pairs():
    for a in CORPUS_G1:
        for b in CORPUS_G2:
            yield named_graph(a), named_graph(b)


def edge_admissible(g2):
    r2 = is_regular(g2)
    return r2 is not None and r2 >= 1


def admissible_assemblies():
    for g1, g2 in corpus_pairs():
        yield one_inverse_vertex_corona(g1, g2)
        if edge_admissible(g2):
            yield one_inverse_edge_corona(g1, g2)


def test_criterion_1_construction_counts():
    t0 = time.perf_counter()
    ok = True
    pairs = 0
    for g1, g2 in corpus_pairs():
        pairs += 1
        n1, m1 = g1.vertex_count, g1.edge_count
        n2, m2 = g2.vertex_count, g2.edge_count
        lv = corona_vertex(g1, g2)
        le = corona_edge(g1, g2)
        ok &= lv.product.vertex_count == n1 * (1 + n2 + m2)
        ok &= le.product.vertex_count == n1 * (1 + n2 + m2)
        ok &= lv.product.edge_count == m1 + n1 * n2 + 2 * n1 * m2
        ok &= le.product.edge_count == m1 + 3 * n1 * m2
    dt = time.perf_counter() - t0
    report(1, "corpus products match the count formulas", ok, f"{pairs} pairs, {dt * 1e3:.0f} ms")


def test_criterion_2_assembly_identity():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for oi in admissible_assemblies():
        count += 1
        lap = laplacian(oi.layout.product)
        worst = max(worst, float(np.abs(lap @ oi.matrix @ lap - lap).max()))
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and dt < 10.0
    report(2, "assembled matrices satisfy L N L = L below 1e-8", ok, f"{count} assemblies, max residual {worst:.2e}, {dt:.1f} s")


def test_criterion_3_resistance_reads_match_oracle():
    worst = 0.0
    for oi in admissible_assemblies():
        direct = resistance_matrix_from_one_inverse(oi.matrix)
        oracle = resistance_oracle(oi.layout.product)
        worst = max(worst, float(np.abs(direct - oracle).max()))
    ok = worst < 1e-9
    report(3, "four-entry resistance reads match the oracle below 1e-9", ok, f"max deviation {worst:.2e}")


def test_criterion_4_hand_instances():
    k1, k2 = complete_graph(1), complete_graph(2)
    oi_v = one_inverse_vertex_corona(k1, k2)
    oi_e = one_inverse_edge_corona(k1, k2)
    checks = (
        (resistance_vertex_corona(k1, k2, (COPY, 0, 0), (COPY, 1, 0), one_inv=oi_v), 1.0),
        (resistance_vertex_corona(k1, k2, (BASE, 0, 0), (COPY, 0, 0), one_inv=oi_v), 0.75),
        (resistance_vertex_corona(k1, k2, (SUBDIVISION, 0, 0), (BASE, 0, 0), one_inv=oi_v), 1.0),
        (resistance_vertex_corona(k1, k2, (SUBDIVISION, 0, 0), (COPY, 0, 0), one_inv=oi_v), 0.75),
        (resistance_edge_corona(k1, k2, (COPY, 0, 0), (COPY, 1, 0), one_inv=oi_e), 2.0),
        (resistance_edge_corona(k1, k2, (SUBDIVISION, 0, 0), (COPY, 0, 0), one_inv=oi_e), 1.0),
        (kf_vertex_corona(k1, k2).value, 5.0),
        (kf_vertex_corona(k2, k1).value, 10.0),
        (kf_edge_corona_regular(k1, k2).value, 9.0),
        (kf_vertex_corona_regular(k1, k1).value, 1.0),
    )
    worst = max(abs(got - want) for got, want in checks)
    ok = worst < 1e-9
    report(4, "hand-derived instance values reproduced below 1e-9", ok, f"{len(checks)} values, max deviation {worst:.2e}")


def test_criterion_5_kirchhoff_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    rows = 0
    for g1, g2 in corpus_pairs():
        oracle_v = kirchhoff_oracle(corona_vertex(g1, g2).product).value
        scale = 1e-8 * (1.0 + abs(oracle_v))
        general = kf_vertex_corona(g1, g2).value
        worst = max(worst, abs(general - oracle_v) / scale)
        rows += 1
        if is_regular(g2) is not None:
            special = kf_vertex_corona_regular(g1, g2).value
            worst = max(worst, abs(special - oracle_v) / scale)
            worst = max(worst, abs(special - general) / scale)
            rows += 2
        if edge_admissible(g2):
            oracle_e = kirchhoff_oracle(corona_edge(g1, g2).product).value
            scale_e = 1e-8 * (1.0 + abs(oracle_e))
            closed_e = kf_edge_corona_regular(g1, g2).value
            worst = max(worst, abs(closed_e - oracle_e) / scale_e)
            rows += 1
    dt = time.perf_counter() - t0
    ok = worst < 1.0 and dt < 30.0
    report(5, "Kirchhoff closed forms match the oracle at 1e-8 relative scale", ok, f"{rows} comparisons, worst {worst:.2e} of bound, {dt:.1f} s")


def test_criterion_6_local_neighbor_identity():
    worst = 0.0
    for g1, g2 in corpus_pairs():
        kinds = ["vertex"] + (["edge"] if edge_admissible(g2) else [])
        for kind in kinds:
            layout = corona_vertex(g1, g2) if kind == "vertex" else corona_edge(g1, g2)
            closed = closed_form_resistance_matrix(g1, g2, kind)
            worst = max(worst, neighbor_identity_check(layout.product, closed))
            worst = max(worst, neighbor_identity_check(layout.product, resistance_oracle(layout.product)))
    ok = worst < 1e-9
    report(6, "neighbor expansion identity holds below 1e-9 on product matrices", ok, f"max deviation {worst:.2e}")


def test_criterion_7_copy_pair_coefficient_regression():
    k1, k2 = complete_graph(1), complete_graph(2)
    printed = vertex_copy_resistance_alt(k2, 0, 1)
    shipped = resistance_vertex_corona(k1, k2, (COPY, 0, 0), (COPY, 1, 0))
    layout = corona_vertex(k1, k2)
    oracle = resistance_oracle(layout.product)[layout.copy_index(0, 0), layout.copy_index(1, 0)]
    ok = (
        abs(printed - 1.25) < 1e-12
        and abs(shipped - 1.0) < 1e-12
        and abs(shipped - oracle) < 1e-12
        and abs(printed - oracle) > 0.2
    )
    report(7, "printed copy-pair variant flagged, shipped coefficient matches oracle", ok, f"printed {printed}, shipped {shipped}")


def test_criterion_8_group_inverse_contract():
    worst_identity = 0.0
    worst_null = 0.0
    graphs = [named_graph(name) for name in dict.fromkeys(CORPUS_G1 + CORPUS_G2)]
    for g1, g2 in corpus_pairs():
        graphs.append(corona_vertex(g1, g2).product)
        if edge_admissible(g2):
            graphs.append(corona_edge(g1, g2).product)
    for g in graphs:
        lap = laplacian(g)
        x = group_inverse_laplacian(lap)
        worst_identity = max(
            worst_identity,
            float(np.abs(lap @ x @ lap - lap).max()),
            float(np.abs(x @ lap @ x - x).max()),
            float(np.abs(lap @ x - x @ lap).max()),
        )
        worst_null = max(worst_null, float(np.abs(x.sum(axis=1)).max()))
    ok = worst_identity < 1e-8 and worst_null < 1e-10
    report(8, "group-inverse identities below 1e-8 with null vector below 1e-10", ok, f"{len(graphs)} graphs, identity {worst_identity:.2e}, null {worst_null:.2e}")


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "coronakit", *args], capture_output=True, text=True
        )

    k1 = tmp_path / "k1.txt"
    k1.write_text(format_edge_list(complete_graph(1)))
    k2 = tmp_path / "k2.txt"
    k2.write_text(format_edge_list(complete_graph(2)))
    p3 = tmp_path / "p3.txt"
    p3.write_text(format_edge_list(named_graph("P3")))
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\nx 2\n")

    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    verify1 = run("verify", "--out", str(out1))
    verify2 = run("verify", "--out", str(out2))
    deterministic = (
        verify1.returncode == 0
        and verify2.returncode == 0
        and out1.read_bytes() == out2.read_bytes()
    )

    built = tmp_path / "prod.txt"
    build = run("build", "--kind", "vertex", "--g1", str(k1), "--g2", str(k2), "--out", str(built))
    round_trip = (
        build.returncode == 0
        and parse_edge_list(built.read_text())
        == corona_vertex(complete_graph(1), complete_graph(2)).product
    )

    tight = run("verify", "--tolerance", "1e-15", "--out", str(tmp_path / "r3.json"))
    malformed = run("build", "--kind", "vertex", "--g1", str(bad), "--g2", str(k2))
    precondition = run("kirchhoff", "--formula", "thm4.3", "--g1", str(k2), "--g2", str(p3))
    codes = (
        tight.returncode == 1
        and malformed.returncode == 2
        and "line 3" in malformed.stderr
        and precondition.returncode == 3
    )
    ok = deterministic and round_trip and codes
    report(9, "CLI is byte-deterministic with the documented exit codes", ok, f"verify rc {verify1.returncode}/{tight.returncode}, malformed rc {malformed.returncode}, precondition rc {precondition.returncode}")
