"""The four workloads: seeded inputs, the timed operations and their checks.

``setup(ck, seed, workdir)`` generates a workload's inputs, does the
precomputation its operations reuse, and returns the list of operations of
one round.  Every operation hands the program only graphs
(``coronakit.Graph`` built from generated edge lists), edge-list files or
catalog names; every check compares against ``checker``, which shares no
code with the package.  Sizes are laid out on fixed ladders and the seed
picks the structure at each rung, so the cost of a round hardly depends on
the seed.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checker import (
    CheckError,
    Corona,
    Gadget,
    canonical,
    check_close,
    check_kirchhoff,
    corona_kirchhoff,
    kirchhoff_of,
    product_edges,
)


class OpFailed(Exception):
    """The program reported a failure for an operation."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]  # the timed call
    check: Callable[[object], None]  # raises CheckError; runs untimed on the first round
    read: Callable[[object], object] = lambda out: out  # untimed; raises OpFailed
    key: Callable[[object], object] = lambda value: value  # later rounds must reproduce it
    may_fail: bool = False  # a known fault; any other failure makes the run incorrect


# -- graph families (n, canonical edge list) -----------------------------------


def path(n):
    return n, canonical((i, i + 1) for i in range(n - 1))


def cycle(n):
    return n, canonical((i, (i + 1) % n) for i in range(n))


def star(n):
    return n, canonical((0, i) for i in range(1, n))


def complete(n):
    return n, canonical((i, j) for i in range(n) for j in range(i + 1, n))


def wheel(n):
    return n, canonical([(0, i) for i in range(1, n)] + [(i, i % (n - 1) + 1) for i in range(1, n)])


def circulant(n, jumps):
    return n, canonical({(min(i, (i + k) % n), max(i, (i + k) % n)) for i in range(n) for k in jumps})


def grid(a, b):
    edges = [(r * b + c, r * b + c + 1) for r in range(a) for c in range(b - 1)]
    edges += [(r * b + c, (r + 1) * b + c) for r in range(a - 1) for c in range(b)]
    return a * b, canonical(edges)


def random_tree(n, rng):
    return n, canonical((i, int(rng.integers(0, i))) for i in range(1, n))


def sparse_random(n, rng):
    """Random tree plus n random extra edges: connected, average degree about 4."""
    edges = set(random_tree(n, rng)[1])
    while len(edges) < 2 * n - 1:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return n, canonical(edges)


def random_circulant(n, rng, lo=2, hi=None):
    """C_n(1, k), 4-regular, with k drawn from [lo, hi] and below n/2."""
    hi = (n - 1) // 2 if hi is None else min(hi, (n - 1) // 2)
    return circulant(n, (1, int(rng.integers(lo, hi + 1))))


# name -> (smallest vertex count, edge count of n vertices, maker of (n, rng))
FAMILIES = {
    "path": (2, lambda n: n - 1, lambda n, rng: path(n)),
    "cycle": (3, lambda n: n, lambda n, rng: cycle(n)),
    "star": (3, lambda n: n - 1, lambda n, rng: star(n)),
    "wheel": (4, lambda n: 2 * (n - 1), lambda n, rng: wheel(n)),
    "tree": (3, lambda n: n - 1, random_tree),
    "sparse": (5, lambda n: 2 * n - 1, sparse_random),
    "circulant": (5, lambda n: 2 * n, lambda n, rng: circulant(n, (1, 2))),
    "random-circulant": (5, lambda n: 2 * n, random_circulant),
    "complete": (2, lambda n: n * (n - 1) // 2, lambda n, rng: complete(n)),
}


def ladder(lo: float, hi: float, count: int) -> list[float]:
    """``count`` sizes spaced geometrically from lo to hi."""
    return [lo * (hi / lo) ** (k / (count - 1)) for k in range(count)]


def split_size(target: float, smallest1: int, gadget, smallest2: int, largest2: int, rng, fixed=False):
    """(n1, n2) with n1 * gadget(n2) close to ``target`` and a gadget near sqrt(target).

    The seed picks among the splits within 2 % of the target, so a rung
    costs about the same for every seed; ``fixed`` takes the closest split
    whatever the seed.
    """
    splits = []
    for n2 in range(smallest2, largest2 + 1):
        b = gadget(n2)
        n1 = max(smallest1, round(target / b))
        band = 0.8 <= b / math.sqrt(target) <= 1.6
        splits.append((not band, abs(n1 * b - target) / target, n1, n2))
    close = [s for s in splits if not s[0] and s[1] <= 0.02]
    if fixed or not close:
        close = [min(splits)]
    _, _, n1, n2 = close[int(rng.integers(len(close)))]
    return n1, n2


def _graph(ck, g):
    return ck.graphs.Graph(g[0], tuple(g[1]))


def _gadget_size(g) -> int:
    return 1 + g[0] + len(g[1])


# -- resistance-both --------------------------------------------------------------

RESISTANCE_PAIRS = 100
RESISTANCE_SIZES = (20, 60)
# Each rung has a fixed kind and fixed factor families; the seed picks the
# split of its size between the factors and draws the random families.
RESISTANCE_G2 = {"vertex": ("path", "star", "cycle", "wheel"), "edge": ("cycle", "circulant", "random-circulant")}
RESISTANCE_G1 = ("path", "cycle", "star", "wheel", "tree", "sparse")


def resistance_pairs(seed: int):
    """Seeded (kind, G1, G2) triples whose product sizes follow a fixed ladder."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for k, target in enumerate(ladder(*RESISTANCE_SIZES, RESISTANCE_PAIRS)):
        kind = "vertex" if k % 2 == 0 else "edge"
        f2 = RESISTANCE_G2[kind][(k // 2) % len(RESISTANCE_G2[kind])]
        f1 = RESISTANCE_G1[(k // 2) % len(RESISTANCE_G1)]
        lo2, edges2, make2 = FAMILIES[f2]
        n1, n2 = split_size(target, FAMILIES[f1][0], lambda n: 1 + n + edges2(n), lo2, 40, rng)
        out.append((kind, FAMILIES[f1][2](n1, rng), make2(n2, rng)))
    return out


def _write_edge_list(path_: Path, g) -> None:
    path_.write_text(f"{g[0]} {len(g[1])}\n" + "".join(f"{u} {v}\n" for u, v in g[1]))


def setup_resistance_both(ck, seed: int, workdir: Path) -> list[Op]:
    ops = []
    out = workdir / "resistance.json"
    for k, (kind, g1, g2) in enumerate(resistance_pairs(seed)):
        f1, f2 = workdir / f"g1-{k}.txt", workdir / f"g2-{k}.txt"
        _write_edge_list(f1, g1)
        _write_edge_list(f2, g2)
        argv = ["resistance", "--kind", kind, "--g1", str(f1), "--g2", str(f2), "--method", "both", "--out", str(out)]

        def read(rc, argv=argv):
            if rc != 0:
                raise OpFailed(f"coronakit {' '.join(argv)} exited {rc}")
            return out.read_bytes()

        def check(data, kind=kind, g1=g1, g2=g2):
            payload = json.loads(data)
            ref = Corona(kind, g1[0], g1[1], g2[0], g2[1])
            if payload["n"] != ref.n:
                raise CheckError(f"product has {payload['n']} vertices, expected {ref.n}")
            ref.check_matrix(payload["closed_form"], "closed_form")
            ref.check_matrix(payload["oracle"], "oracle")

        ops.append(Op(f"{kind}/n{g1[0] * _gadget_size(g2)}", lambda argv=argv: ck.cli.main(argv), check, read,
                      key=lambda data: hashlib.sha256(data).digest()))
    return ops


# -- pair-queries ---------------------------------------------------------------

PAIR_PRODUCTS = (("vertex", cycle(150), complete(8)), ("edge", path(200), cycle(12)))
PAIR_BATCHES = 250
PAIR_BATCH = 200  # queries per operation, half on each product


def _coords(g1, g2, vertices: np.ndarray) -> list[tuple[str, int, int]]:
    """(class, local index, copy) of product vertices, from the documented numbering."""
    n1, n2, m2 = g1[0], g2[0], len(g2[1])
    out = []
    for x, i in zip((vertices // n1).tolist(), (vertices % n1).tolist()):
        if x < m2:
            out.append(("subdivision", x, i))
        elif x < m2 + n2:
            out.append(("copy", x - m2, i))
        else:
            out.append(("base", i, i))
    return out


@dataclass
class _Stream:
    """The query stream on one product."""

    kind: str
    g1: tuple
    g2: tuple
    factors: tuple  # the two coronakit.Graph factors
    one_inv: object
    ends: np.ndarray  # (2, queries) product vertices
    coords: list

    def reference(self) -> np.ndarray:
        n1 = self.g1[0]
        ref = Corona(self.kind, n1, self.g1[1], self.g2[0], self.g2[1])
        return ref.pair(self.ends[0] // n1, self.ends[0] % n1, self.ends[1] // n1, self.ends[1] % n1)


def setup_pair_queries(ck, seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    half = PAIR_BATCH // 2
    streams = []
    for kind, g1, g2 in PAIR_PRODUCTS:
        factors = (_graph(ck, g1), _graph(ck, g2))
        one_inv = getattr(ck.one_inverse, f"one_inverse_{kind}_corona")(*factors)
        ends = rng.integers(0, g1[0] * _gadget_size(g2), (2, PAIR_BATCHES * half))
        coords = list(zip(_coords(g1, g2, ends[0]), _coords(g1, g2, ends[1])))
        streams.append(_Stream(kind, g1, g2, factors, one_inv, ends, coords))
    expected = []  # untimed and computed once, on the first check

    def run(part):
        out = []
        for s in streams:
            query, (a, b) = getattr(ck.metrics, f"resistance_{s.kind}_corona"), s.factors
            out += [query(a, b, ci, cj, one_inv=s.one_inv) for ci, cj in s.coords[part]]
        return out

    def check(values, part):
        if not expected:
            expected.extend(s.reference() for s in streams)
        want = np.concatenate([e[part] for e in expected])
        check_close(values, want, "single-pair resistances")

    parts = [slice(k * half, (k + 1) * half) for k in range(PAIR_BATCHES)]
    return [Op(f"batch{k}", lambda p=p: run(p), lambda v, p=p: check(v, p), key=tuple) for k, p in enumerate(parts)]


# -- kirchhoff-factors ----------------------------------------------------------

KF_FIRST = 20  # first factors, each used by every entry of KF_FORMULAS
KF_FIRST_SIZES = (120, 500)
KF_SECOND_SIZES = (10, 200)
# (formula, regular second factor?) per use of a first factor
KF_FORMULAS = (("thm4.1", False), ("thm4.1", True), ("cor4.2", True), ("thm4.3", True), ("thm4.3", True))
KF_FUNCTION = {"thm4.1": "kf_vertex_corona", "cor4.2": "kf_vertex_corona_regular", "thm4.3": "kf_edge_corona_regular"}
KF_REGULAR = ("cycle", "circulant", "random-circulant")
KF_IRREGULAR = ("path", "star", "tree", "wheel")
# Fails on every run: kirchhoff_oracle compares its two routes under an
# absolute 1e-8, and Kf(P1500) is about 5.6e8.
KF_FAILING = ("thm4.1", path(1500), cycle(4))


def _low_kirchhoff_first_factor(k: int, n: int, rng):
    """First factor of rung k; all have Kirchhoff indices near n^2, far below 1e8."""
    root = math.sqrt(n)
    family = k % 5
    if family == 0:
        a = round(root)
        return grid(a, round(n / a))
    if family == 1:
        return circulant(n, (1, round(root)))
    if family == 2:
        return random_circulant(n, rng, math.ceil(root / 2), math.floor(2 * root))
    if family == 3:
        return wheel(n)
    return sparse_random(n, rng)


def kirchhoff_instances(seed: int):
    """Seeded (formula, G1, G2) triples plus the always-failing instance last."""
    rng = np.random.default_rng([seed, 3])
    seconds = [round(n) for n in ladder(*KF_SECOND_SIZES, len(KF_FORMULAS))]
    out = []
    for k, size1 in enumerate(ladder(*KF_FIRST_SIZES, KF_FIRST)):
        g1 = _low_kirchhoff_first_factor(k, round(size1), rng)
        for j, (formula, regular) in enumerate(KF_FORMULAS):
            families = KF_REGULAR if regular else KF_IRREGULAR
            g2 = FAMILIES[families[(k + j) % len(families)]][2](seconds[(k + j) % len(seconds)], rng)
            out.append((formula, g1, g2))
    out.append(KF_FAILING)
    return out


def setup_kirchhoff_factors(ck, seed: int, workdir: Path) -> list[Op]:
    gadgets, first_kf = {}, {}

    def reference(formula, g1, g2) -> float:
        # untimed; factor pieces are shared between instances
        kind = "edge" if formula == "thm4.3" else "vertex"
        key2, key1 = (kind, g2[0], tuple(g2[1])), (g1[0], tuple(g1[1]))
        if key2 not in gadgets:
            gadgets[key2] = Gadget(kind, g2[0], g2[1])
        if key1 not in first_kf:
            first_kf[key1] = kirchhoff_of(*g1)
        return corona_kirchhoff(g1[0], first_kf[key1], gadgets[key2])

    ops = []
    for formula, g1, g2 in kirchhoff_instances(seed):
        a, b = _graph(ck, g1), _graph(ck, g2)
        fn = KF_FUNCTION[formula]
        ops.append(Op(
            f"{formula}/n1={g1[0]}/n2={g2[0]}",
            lambda fn=fn, a=a, b=b: getattr(ck.metrics, fn)(a, b),
            lambda result, formula=formula, g1=g1, g2=g2: check_kirchhoff(
                result.value, reference(formula, g1, g2), formula),
            key=lambda result: result.value,
            may_fail=(formula, g1, g2) == KF_FAILING,
        ))
    return ops


# -- verify-corpus ----------------------------------------------------------------

VERIFY_PAIRS = 70
VERIFY_SIZES = (20, 100)


# catalog letters of the package's graph names; S<k> is the star with k leaves
CATALOG = {"P": "path", "C": "cycle", "S": "star", "K": "complete"}


def named(name: str):
    letter = name[0]
    return FAMILIES[CATALOG[letter]][2](int(name[1:]) + (letter == "S"), None)


def _name(letter: str, n: int) -> str:
    return f"{letter}{n - (letter == 'S')}"


def verify_pairs(seed: int) -> list[tuple[str, str]]:
    """Seeded catalog pairs on a product-size ladder; even rungs take a regular G2."""
    rng = np.random.default_rng([seed, 4])
    out = []
    for k, target in enumerate(ladder(*VERIFY_SIZES, VERIFY_PAIRS)):
        f2 = "C" if k % 2 == 0 else "P"
        f1 = "PCSK"[(k // 2) % 4]
        lo2, edges2, _ = FAMILIES[CATALOG[f2]]
        # the top rung is the same for every seed, and so is the largest product and peak memory
        n1, n2 = split_size(target, FAMILIES[CATALOG[f1]][0], lambda n: 1 + n + edges2(n), lo2, 60, rng,
                            fixed=k == VERIFY_PAIRS - 1)
        out.append((_name(f1, n1), _name(f2, n2)))
    return out


def _check_report(report, pair) -> None:
    if not report.passed:
        bad = [c.case_id for c in report.cases if c.status == "fail"]
        raise CheckError(f"verify {pair}: failing rows {bad[:5]}")
    rows = {c.case_id: c for c in report.cases}
    a, b = pair
    g1, g2 = named(a), named(b)

    def row(case_id):
        if case_id not in rows or rows[case_id].status != "pass":
            raise CheckError(f"verify {pair}: row {case_id} missing or not passed")
        return rows[case_id]

    for label, g in ((a, g1), (b, g2)):
        case_id = f"kirchhoff-oracle-consistency/factor/{label}"
        for value in (row(case_id).closed_form, row(case_id).oracle):
            check_kirchhoff(value, kirchhoff_of(*g), f"verify {pair}: {case_id}")
    degrees = np.bincount(np.asarray(g2[1], dtype=np.int64).ravel(), minlength=g2[0])
    degree = int(degrees[0]) if np.all(degrees == degrees[0]) else None  # None: G2 irregular
    for kind in ("vertex", "edge"):
        tag = f"{kind}/{a}-{b}"
        counts = {"vertices": g1[0] * _gadget_size(g2), "edges": len(product_edges(kind, g1[0], g1[1], g2[0], g2[1]))}
        for what, want in counts.items():
            got = row(f"counts/{tag}/{what}")
            if (got.closed_form, got.oracle) != (want, want):
                raise CheckError(f"verify {pair}: {what} of the {kind} product {got.oracle}, expected {want}")
        if kind == "edge" and not degree:
            continue  # no edge closed form unless G2 is regular of degree >= 1; verify skips it
        kf = Corona(kind, g1[0], g1[1], g2[0], g2[1]).kirchhoff()
        ids = [f"kirchhoff-closed-form/{tag}"] + ([f"kirchhoff-regular/{tag}"] if kind == "vertex" and degree is not None else [])
        for case_id in ids:
            for value in (row(case_id).closed_form, row(case_id).oracle):
                check_kirchhoff(value, kf, f"verify {pair}: {case_id}")


def setup_verify_corpus(ck, seed: int, workdir: Path) -> list[Op]:
    pairs = list(ck.verify.builtin_pairs()) + verify_pairs(seed)
    ops = []
    for pair in pairs:
        ops.append(Op(f"{pair[0]}-{pair[1]}",
                      lambda pair=pair: ck.verify.run_verification(pairs=[pair], include_instances=False),
                      lambda report, pair=pair: _check_report(report, pair),
                      key=lambda report: repr(astuple(report))))  # reports of each round's fresh module
    return ops


WORKLOADS = {
    "resistance-both": setup_resistance_both,
    "pair-queries": setup_pair_queries,
    "kirchhoff-factors": setup_kirchhoff_factors,
    "verify-corpus": setup_verify_corpus,
}
