#!/usr/bin/env python3
"""Print Kirchhoff indices over the corpus: closed forms next to the oracle."""
from __future__ import annotations

import sys

from coronakit import (
    PreconditionError,
    corona,
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
            try:
                ke = f"{kf_edge_corona_regular(g1, g2).value:14.4f}"
            except PreconditionError:  # the closed forms' gate rejects this second factor
                ke = oe = f"{'-':>14}"
            else:
                oe = f"{kirchhoff_oracle(corona(g1, g2, 'edge').product).value:14.4f}"
            print(f"{a + '-' + b:<10}{kv:16.4f}{ov:16.4f}{ke}{oe}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
