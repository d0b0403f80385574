#!/usr/bin/env python3
"""Time the diagram layers call by call and print one JSON object.

Draws one random word (seed 1, n = 8, 120 letters), then times mu and pi
on it, closure_gauss and braid of it, the aligned isomorphic test of its
closure against the closure of its braid, and validate of its closure.
Each figure is the best of --repeat timeit runs of --number calls, in
microseconds per call, next to the input size it was taken at: strands n,
letters and crossings.
"""

import argparse
import json
import platform
import random
import timeit

from doodlekit import braid, closure_gauss, isomorphic, mu, pi, validate
from doodlekit.words import random_word

SEED, STRANDS, LETTERS = 1, 8, 120


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--number", type=int, default=200)
    args = ap.parse_args()

    w = random_word(random.Random(SEED), STRANDS, LETTERS)
    g = closure_gauss(w)
    h = closure_gauss(braid(g))
    calls = {
        "mu": lambda: mu(w),
        "pi": lambda: pi(w),
        "closure_gauss": lambda: closure_gauss(w),
        "braid": lambda: braid(g),
        "isomorphic": lambda: isomorphic(h, g),
        "validate": lambda: validate(g),
    }
    size = {"n": w.strands, "letters": len(w), "crossings": g.crossings}
    layers = {}
    for name, call in calls.items():
        best = min(timeit.repeat(call, repeat=args.repeat, number=args.number))
        layers[name] = {"us": round(best / args.number * 1e6, 2), **size}
    print(json.dumps({
        "python": platform.python_version(),
        "seed": SEED,
        "repeat": args.repeat,
        "number": args.number,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
