#!/usr/bin/env python3
"""Braid random closures and check the Gauss-data round trip.

Prints one row per sample: the word, its closure data size, the braided
word, and whether closure_gauss(braid(G)) gives back G itself, equal
Gauss data with the same crossing labels.  Exits 1 if any round trip is
a MISMATCH.
"""

import argparse
import random
import sys

from doodlekit import braid, closure_gauss, format_word
from doodlekit.words import random_word


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=20)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--max-len", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    failures = 0
    for k in range(args.samples):
        n = rng.randint(1, args.max_n)
        w = random_word(rng, n, rng.randint(0, args.max_len))
        g = closure_gauss(w)
        b = braid(g)
        ok = closure_gauss(b) == g
        failures += not ok
        print(
            f"[{k:3d}] n={n} len={len(w):2d} crossings={g.crossings:2d} "
            f"loops={g.free_loops}  ->  m={b.strands} len={len(b):2d}  "
            f"{'ok' if ok else 'MISMATCH'}   {format_word(w)!r} -> {format_word(b)!r}"
        )
    print(f"\n{args.samples - failures}/{args.samples} round trips closed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
