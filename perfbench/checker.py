"""Reference values for corona products, computed without coronakit.

Every product of the package is the first factor G1 with one rooted gadget B
glued at each of its vertices: B is the subdivision S(G2) plus a root (the
base vertex), joined to the original G2 vertices (vertex product) or to the
inserted subdivision vertices (edge product).  Each base vertex is a cut
vertex, so effective resistance is additive across it:

    r((x, i), (y, j)) = r_B(x, root) + r_G1(i, j) + r_B(root, y)   for i != j
    r((x, i), (y, i)) = r_B(x, y)

and summing over unordered pairs gives the Kirchhoff index

    Kf = n1 Kf(B) + b^2 Kf(G1) + n1 (n1 - 1) b sum_x r_B(root, x),   b = |B|.

Gadget vertices are numbered subdivision vertices first (second-factor edges
in sorted order), then the original second-factor vertices, then the root.
With that numbering the product vertex of gadget vertex x in copy i has the
index x * n1 + i, which is the three-block numbering the package documents.

Run this file to self-test the checker: it produces fresh outputs with the
coronakit command line, confirms they pass, corrupts one resistance and one
Kirchhoff value, and confirms each corruption is caught.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

RESISTANCE_RTOL = 1e-9
KIRCHHOFF_RTOL = 1e-9


class CheckError(Exception):
    """A program output disagrees with the reference."""


def canonical(edges) -> list[tuple[int, int]]:
    return sorted((min(u, v), max(u, v)) for u, v in edges)


def laplacian(n: int, edges) -> np.ndarray:
    lap = np.zeros((n, n))
    if edges:
        e = np.asarray(edges)
        np.add.at(lap, (e[:, 0], e[:, 1]), -1.0)
        np.add.at(lap, (e[:, 1], e[:, 0]), -1.0)
        lap[np.diag_indices(n)] = -lap.sum(axis=1)
    return lap


def resistance_matrix(n: int, edges) -> np.ndarray:
    """All effective resistances of a connected graph: (L + J/n)^-1 - J/n."""
    shift = np.full((n, n), 1.0 / n)
    x = np.linalg.inv(laplacian(n, edges) + shift) - shift
    d = np.diag(x)
    return d[:, None] + d[None, :] - x - x.T


def gadget_edges(kind: str, n2: int, g2_edges) -> tuple[int, list[tuple[int, int]]]:
    """The rooted gadget B of one copy: (vertex count, edges); root is the last vertex."""
    edges2 = canonical(g2_edges)
    m2 = len(edges2)
    root = m2 + n2
    out = []
    for e, (a, b) in enumerate(edges2):
        out += [(e, m2 + a), (e, m2 + b)]
    if kind == "vertex":
        out += [(root, m2 + a) for a in range(n2)]
    else:
        out += [(root, e) for e in range(m2)]
    return root + 1, out


def product_edges(kind: str, n1: int, g1_edges, n2: int, g2_edges) -> np.ndarray:
    """Edges of the product under the documented numbering, shape (m, 2)."""
    b, g_edges = gadget_edges(kind, n2, g2_edges)
    root = b - 1
    copies = np.arange(n1)
    parts = [np.array([[root * n1 + i, root * n1 + j] for i, j in g1_edges], dtype=np.int64).reshape(-1, 2)]
    for x, y in g_edges:
        parts.append(np.stack([x * n1 + copies, y * n1 + copies], axis=1))
    return np.concatenate(parts)


class Corona:
    """Reference resistances and Kirchhoff index of one corona product."""

    def __init__(self, kind: str, n1: int, g1_edges, n2: int, g2_edges):
        self.kind, self.n1 = kind, n1
        self.g1_edges, self.n2, self.g2_edges = list(g1_edges), n2, list(g2_edges)
        self.r_g1 = resistance_matrix(n1, self.g1_edges)
        self.gadget = Gadget(kind, n2, g2_edges)
        self.b = self.gadget.size
        self.n = n1 * self.b

    def pair(self, x: np.ndarray, i: np.ndarray, y: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Resistances between gadget vertices x in copies i and y in copies j."""
        g = self.gadget
        cross = g.to_root[x] + self.r_g1[i, j] + g.to_root[y]
        return np.where(i == j, g.r[x, y], cross)

    def matrix(self) -> np.ndarray:
        g, n1 = self.gadget, self.n1
        ones1 = np.ones((n1, n1))
        cross = np.kron(g.to_root[:, None] + g.to_root[None, :], ones1)
        cross += np.kron(np.ones((self.b, self.b)), self.r_g1)
        same = np.kron(np.ones((self.b, self.b)), np.eye(n1, dtype=bool))
        return np.where(same, np.kron(g.r, ones1), cross)

    def kirchhoff(self) -> float:
        return corona_kirchhoff(self.n1, float(self.r_g1.sum()) / 2.0, self.gadget)

    def edges(self) -> np.ndarray:
        return product_edges(self.kind, self.n1, self.g1_edges, self.n2, self.g2_edges)

    def check_matrix(self, values, what: str) -> None:
        """Compare a full resistance matrix with the reference and Foster's theorem."""
        got = np.asarray(values, dtype=np.float64)
        check_close(got, self.matrix(), what)
        e = self.edges()
        foster = float(got[e[:, 0], e[:, 1]].sum())
        if abs(foster - (self.n - 1)) > RESISTANCE_RTOL * self.n:
            raise CheckError(f"{what}: Foster sum {foster!r}, expected {self.n - 1}")

    def check_kirchhoff(self, value: float, what: str) -> None:
        check_kirchhoff(value, self.kirchhoff(), what)


class Gadget:
    """Resistances inside the rooted gadget B of one second factor."""

    def __init__(self, kind: str, n2: int, g2_edges):
        self.size, edges = gadget_edges(kind, n2, g2_edges)
        self.r = resistance_matrix(self.size, edges)
        self.to_root = self.r[-1].copy()
        self.kirchhoff = float(self.r.sum()) / 2.0


def kirchhoff_of(n: int, edges) -> float:
    return float(resistance_matrix(n, edges).sum()) / 2.0


def corona_kirchhoff(n1: int, kf_g1: float, gadget: Gadget) -> float:
    """Kf = n1 Kf(B) + b^2 Kf(G1) + n1 (n1 - 1) b sum_x r_B(root, x)."""
    b = gadget.size
    return n1 * gadget.kirchhoff + b * b * kf_g1 + n1 * (n1 - 1) * b * float(gadget.to_root.sum())


def check_close(values, want: np.ndarray, what: str) -> None:
    """Resistances against their reference: |x - ref| <= RESISTANCE_RTOL (1 + |ref|) each."""
    got = np.asarray(values, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape}, expected {want.shape}")
    worst = float(np.max(np.abs(got - want) / (1.0 + np.abs(want)), initial=0.0))
    if not worst <= RESISTANCE_RTOL:
        raise CheckError(f"{what}: deviates from the cut-vertex reference by {worst:.3e}")


def check_kirchhoff(value: float, want: float, what: str) -> None:
    if not abs(float(value) - want) <= KIRCHHOFF_RTOL * max(1.0, abs(want)):
        raise CheckError(f"{what}: Kirchhoff index {value!r}, reference {want!r}")


def self_test(ck_cli, workdir: Path) -> list[str]:
    """Corrupt fresh command outputs; return what the checker got wrong.

    An empty list means every uncorrupted output passed and every
    corrupted one was rejected.
    """
    g1 = (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    g2 = (4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    files = {}
    for name, (n, edges) in (("g1", g1), ("g2", g2)):
        files[name] = workdir / f"selftest-{name}.txt"
        files[name].write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    problems = []
    for kind in ("vertex", "edge"):
        ref = Corona(kind, *g1, *g2)
        out = workdir / f"selftest-{kind}.json"
        rc = ck_cli.main(["resistance", "--kind", kind, "--g1", str(files["g1"]), "--g2", str(files["g2"]),
                          "--method", "both", "--out", str(out)])
        if rc != 0:
            problems.append(f"resistance {kind}: command exited {rc}")
            continue
        payload = json.loads(out.read_text())
        for key in ("closed_form", "oracle"):
            try:
                ref.check_matrix(payload[key], f"selftest {kind} {key}")
            except CheckError as exc:
                problems.append(f"uncorrupted output rejected: {exc}")
            corrupt = np.array(payload[key])
            corrupt[1, ref.n - 2] += 1e-6
            try:
                ref.check_matrix(corrupt, "corrupted")
                problems.append(f"resistance {kind} {key}: one entry off by 1e-6 passed")
            except CheckError:
                pass
        formula = "thm4.1" if kind == "vertex" else "thm4.3"
        out = workdir / f"selftest-kf-{kind}.json"
        rc = ck_cli.main(["kirchhoff", "--formula", formula, "--g1", str(files["g1"]), "--g2", str(files["g2"]),
                          "--out", str(out)])
        if rc != 0:
            problems.append(f"kirchhoff {formula}: command exited {rc}")
            continue
        value = json.loads(out.read_text())["value"]
        try:
            ref.check_kirchhoff(value, f"selftest {formula}")
        except CheckError as exc:
            problems.append(f"uncorrupted output rejected: {exc}")
        try:
            ref.check_kirchhoff(value * (1.0 + 1e-7), "corrupted")
            problems.append(f"kirchhoff {formula}: value off by 1e-7 relative passed")
        except CheckError:
            pass
    return problems


def main() -> int:
    import tempfile

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from coronakit import cli

    (root / "perfbench" / "tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / "perfbench" / "tmp") as tmp:
        problems = self_test(cli, Path(tmp))
    for line in problems:
        print(f"self-test: {line}")
    print("checker self-test:", "FAIL" if problems else "PASS (every corruption caught)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
