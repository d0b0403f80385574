#!/usr/bin/env python3
"""Probe the flat Kishino fixture against the unknot.

Braids the fixture, then runs the budgeted move search against the empty
word on one strand.  The Kishino doodle is a nontrivial flat virtual
knot, so no certificate should ever appear; the component count cannot
separate it either, and the expected outcome is an honest Unknown after
exactly --max-states expanded states, the last of them in the level where
the budget runs out.  Exits 1 on any other outcome.
"""

import argparse
import pathlib
import sys
import time

from doodlekit import (
    Budget,
    Equivalent,
    Unknown,
    braid,
    closure_components,
    equivalent_closures,
    format_certificate,
    format_word,
    parse_gauss,
    parse_word,
)

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "kishino.gauss"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-states", type=int, default=Budget.max_states)
    args = ap.parse_args()

    g = parse_gauss(FIXTURE.read_text())
    w = braid(g)
    print(f"braided word: {format_word(w)!r} on {w.strands} strands")
    print(f"closure components: {closure_components(w)}")

    unknot = parse_word("", 1)
    t0 = time.perf_counter()
    verdict = equivalent_closures(w, unknot, Budget(args.max_states))
    dt = time.perf_counter() - t0
    if isinstance(verdict, Equivalent):
        print("unexpected equivalence certificate found:")
        print(format_certificate(w, unknot, verdict.trace))
        return 1
    print(f"verdict: {verdict} ({dt:.1f}s)")
    if not isinstance(verdict, Unknown) or verdict.states_explored != args.max_states:
        print(f"expected Unknown after exactly {args.max_states} states")
        return 1
    explored = verdict.states_explored
    print(f"states explored: {explored} ({explored / dt:,.0f} states/s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
