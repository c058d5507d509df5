#!/usr/bin/env python3
"""Print Kirchhoff indices over the corpus: closed forms next to the oracle."""
from __future__ import annotations

import sys

from coronakit import (
    corona,
    is_regular,
    kf_edge_corona_regular,
    kf_vertex_corona,
    kirchhoff_oracle,
    named_graph,
)
from coronakit.verify import CORPUS_G1, CORPUS_G2


def main() -> int:
    header = f"{'pair':<10}{'vertex closed':>16}{'vertex oracle':>16}{'edge closed':>14}{'edge oracle':>14}"
    print(header)
    print("-" * len(header))
    for a in CORPUS_G1:
        for b in CORPUS_G2:
            g1, g2 = named_graph(a), named_graph(b)
            kv = kf_vertex_corona(g1, g2).value
            ov = kirchhoff_oracle(corona(g1, g2, "vertex").product).value
            r2 = is_regular(g2)
            if r2 is not None and r2 >= 1:
                ke = f"{kf_edge_corona_regular(g1, g2).value:14.4f}"
                oe = kirchhoff_oracle(corona(g1, g2, "edge").product).value
                oe = f"{oe:14.4f}"
            else:
                ke = f"{'-':>14}"
                oe = f"{'-':>14}"
            print(f"{a + '-' + b:<10}{kv:16.4f}{ov:16.4f}{ke}{oe}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
