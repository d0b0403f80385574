#!/usr/bin/env python3
"""Time the diagram layers and the search fan call by call; print one JSON object.

Draws one random word (seed 1, n = 8, 120 letters), then times mu, pi and
closure_components on it, closure_gauss and braid of it, the aligned
isomorphic test of its closure against the closure of its braid, and
validate of its closure.  The braid round trip gives back equal Gauss
data, so the isomorphic row (and isomorphic_wide below) times the
equal-link return; the isomorphic_relabeled row times the same closure
against a relabelling of it (a seed-1 shuffle of its crossings), so that
the matcher that forces a witness piece by piece is timed too.
The separates row times separates of that word against the word with the
first far-commuting pair at or after its middle swapped, a neighbour that
mu does not separate; the separates_distinct row times it against the word
with the kind of its middle letter flipped, which mu separates, so that
both the middles and the whole words are folded.  Both rows give the
letters of the middle where the two words differ.
The closure_gauss, braid and isomorphic calls are timed again on a wide
word (seed 1, n = 40, 1,200 letters), as the *_wide rows, so that the
cost of many strands shows; the braid_wider row times braid on a wider
one still (seed 1, n = 200, 4,000 letters), where each list.index scan
over the arcs in transit is long.
The search fan is timed as one fully consumed _moves_int call with the
default caps, on the braided Kishino doodle (fan) and on a free-reduced
random word (fan_random: seed 1, n = 6, 14 letters), and as one neighbors
call on the Kishino word.  The fan_capped row times one _moves_int call at
the length cap: on the first 15-letter word of the breadth-first walk from
the Kishino word (the walk of the benchmark's fan sample), under the caps
of the benchmark's Kishino searches (16 letters, 4 strands), where no grow
fits.  The fan_final row times the fans of a final search level: every
_moves_int call of the Kishino op below (the Kishino word against the
unknot at Budget(800)) that runs under caps tighter than the search's
own, which only its last level makes, each under the caps it was called
with, in microseconds per fan.  Those words are longer than the unknot's
side allows, so most fans return before their move loop.  The derived
row times one apply_derived call, left-tail-mixed at n = 4, center 4,
beta r1 r2 and kinds srsr (79 steps): a mirrored trace whose one tail
chain pushes through real and virtual letters.  The edge_trace
row times the one check of that trace alone: one _edge_trace call over
its steps as an edge chain of (strands, code) states, each source the
state the step before ended at.  The trace_replay row times the public
check of the same trace: one MoveTrace.replay call, which passes the
params of every step through the step grammar's gate before it applies
the move.  The derived_exchange row times one
apply_derived call, right-exchange-mixed at n = 4, i = 2, beta1 s1,
beta2 r1 r2 and kinds srr (51 steps): the one exchange chain turning the
real bottom level under a virtual top.  The parse_word row times parse_word on
the text of the seed-1 word (n = 8, 120 letters), and the
verify_certificate row one verify_certificate call on the certificate
tests/golden/equiv_mixs_braid.txt (n = 3, 7 steps), which parses every
header and step line and replays the steps.  The two words of that
certificate give the rows of the rest of a certificate round trip: the
format_certificate row writes its replayed trace back to the same text,
and the equivalent_closures_small row runs the search that found it, with
the default budget, from the two words to the Equivalent verdict (square
steps at both ends, since neither word is free-reduced).  The
edge_trace_ends row times the last step of that call alone: one
_edge_trace call from the left word to the right one over the path
_search finds between their free reductions, which joins both unreduced
ends to the path by square steps, so the cost of that join shows next to
the edge_trace row.  The
equivalent_closures_unknown row times the benchmark's Kishino op: the
braided Kishino doodle against the unknot at Budget(800), which ends
Unknown when its budget runs out, so it times 800 expanded states, the
last level's fan results only looked up, never stored, and that fan run
under the caps of the unknot's side: its longest word and widest strand
count, which no state of the last level fits.  These two
equivalent_closures rows time with Python's cyclic collector on, as the
benchmark does, since the search pauses it; every other row times with it
off, as timeit does by default.  Each figure is
the best of --repeat timeit runs of --number calls, in microseconds per
call, next to the input size it was taken at: strands n, letters and, for
the diagram layers, crossings, and for the derived rows the trace steps.  The
two fans also give the edges the call emits and their distinct results, so
the share of edges that reach a new word shows next to the time.

Other tenants of a shared machine slow all Python code, by up to about
1.3x between runs.  So before each timeit run a fixed pure-Python
loop is timed too, and each row gives its best as ref_us next to the raw
us: the ratio us / ref_us compares rows from runs made under different load.
"""

import argparse
import collections
import json
import pathlib
import platform
import random
import sys
import timeit

from doodlekit import (
    apply_derived,
    braid,
    closure_components,
    closure_gauss,
    equivalent_closures,
    format_certificate,
    format_word,
    isomorphic,
    markov,
    mu,
    neighbors,
    parse_gauss,
    parse_word,
    pi,
    relabel,
    separates,
    validate,
    verify_certificate,
)
from doodlekit.markov import Budget
from doodlekit.moves import _edge_trace, _moves_int
from doodlekit.words import TwinWord, free_reduce, random_word

SEED, STRANDS, LETTERS = 1, 8, 120
WIDE_STRANDS, WIDE_LETTERS = 40, 1_200
WIDER_STRANDS, WIDER_LETTERS = 200, 4_000
FAN_STRANDS, FAN_LETTERS = 6, 14
CAPPED_LETTERS = 15
KISHINO_STATES = 800  # the budget of the benchmark's Kishino searches
ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "kishino.gauss"
CERTIFICATE = ROOT / "tests" / "golden" / "equiv_mixs_braid.txt"

# the benchmark's machine-speed loop, so that ref_us means the same in both
sys.path.insert(0, str(ROOT / "bench"))
from run import reference  # noqa: E402


def fan(w: TwinWord, caps=None):
    """One _moves_int call on w with the default caps, or caps = (max_len,
    max_n), every edge consumed, and the input size with the edges the call
    emits and their distinct results."""
    state = (w.strands, w.code)
    max_len, max_n = caps or Budget().resolve(w, w)[1:]
    results = [res for *_, res in _moves_int(state, max_len, max_n)]
    at = {"n": w.strands, "letters": len(w), "edges": len(results), "distinct": len(set(results))}
    if caps:
        at.update(max_len=max_len, max_n=max_n)
    return (lambda: collections.deque(_moves_int(state, max_len, max_n), 0)), at


def far_swap(w: TwinWord) -> TwinWord:
    """w with its first far-commuting pair at or after the middle swapped."""
    t = w.code
    p = next(p for p in range(len(t) // 2, len(t) - 1) if abs(abs(t[p]) - abs(t[p + 1])) >= 2)
    return TwinWord(w.strands, t[:p] + (t[p + 1], t[p]) + t[p + 2 :])


def kind_flip(w: TwinWord) -> TwinWord:
    """w with the kind of its middle letter flipped."""
    p = len(w) // 2
    return TwinWord(w.strands, w.code[:p] + (-w.code[p],) + w.code[p + 1 :])


def chain(trace):
    """The steps of a trace as an edge chain from its start state to its end state."""
    cur = (trace.start.strands, trace.start.code)
    edges = []
    for step in trace.steps:
        res = (step.result.strands, step.result.code)
        edges.append((cur, step.tag, step.params, res))
        cur = res
    return (trace.start.strands, trace.start.code), edges, cur


def final_fans(u: TwinWord, v: TwinWord, budget: Budget):
    """The (state, max_len, max_n) of every _moves_int call of the search of
    u and v under caps tighter than the search's own: the final level's."""
    caps = budget.resolve(u, v)[1:]
    calls = []

    def recording(state, max_len, max_n):
        if (max_len, max_n) != caps:
            calls.append((state, max_len, max_n))
        return _moves_int(state, max_len, max_n)

    markov._moves_int = recording
    try:
        equivalent_closures(u, v, budget)
    finally:
        markov._moves_int = _moves_int
    return calls


def first_of_length(first: TwinWord, letters: int) -> TwinWord:
    """The first word with this many letters in the breadth-first walk from first."""
    seen, queue = {first}, [first]
    for w in queue:
        if len(w) == letters:
            return w
        for _, nb in neighbors(w):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    raise ValueError(f"the walk from {first} reaches no {letters}-letter word")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--number", type=int, default=200)
    args = ap.parse_args()

    w = random_word(random.Random(SEED), STRANDS, LETTERS)
    g = closure_gauss(w)
    h = closure_gauss(braid(g))
    sigma = list(range(1, g.crossings + 1))
    random.Random(SEED).shuffle(sigma)
    relabeled = relabel(g, tuple(sigma))
    kishino = braid(parse_gauss(FIXTURE.read_text()))
    unknot = parse_word("", 1)
    # a prefix of a free-reduced word is free-reduced
    drawn = free_reduce(random_word(random.Random(SEED), FAN_STRANDS, 4 * FAN_LETTERS))
    other = TwinWord(FAN_STRANDS, drawn.code[:FAN_LETTERS])
    size = {"n": w.strands, "letters": len(w), "crossings": g.crossings}
    swapped, flipped = far_swap(w), kind_flip(w)
    wide = random_word(random.Random(SEED), WIDE_STRANDS, WIDE_LETTERS)
    wide_g = closure_gauss(wide)
    wide_h = closure_gauss(braid(wide_g))
    wide_size = {"n": wide.strands, "letters": len(wide), "crossings": wide_g.crossings}
    wider = random_word(random.Random(SEED), WIDER_STRANDS, WIDER_LETTERS)
    wider_g = closure_gauss(wider)
    wider_size = {"n": wider.strands, "letters": len(wider), "crossings": wider_g.crossings}
    item = dict(n=4, i=4, beta=parse_word("r1 r2", 4), kinds="srsr")
    trace = apply_derived("left-tail-mixed", **item).trace
    steps = len(trace.steps)
    checked = chain(trace)
    exchange = dict(
        n=4, i=2, beta1=parse_word("s1", 2), beta2=parse_word("r1 r2", 4), kinds="srr"
    )
    exchange_steps = len(apply_derived("right-exchange-mixed", **exchange).trace.steps)
    text = format_word(w)
    certificate = CERTIFICATE.read_text()
    replayed = verify_certificate(certificate)
    cert_size = {"n": replayed.start.strands, "steps": len(replayed.steps)}
    left, right = replayed.start, replayed.end
    path = markov._search(
        *((x.strands, free_reduce(x).code) for x in (left, right)), *Budget().resolve(left, right)
    )
    ends = ((left.strands, left.code), path, (right.strands, right.code))
    final = final_fans(kishino, unknot, Budget(KISHINO_STATES))
    calls = {
        "mu": (lambda: mu(w), size),
        "pi": (lambda: pi(w), size),
        "closure_components": (lambda: closure_components(w), size),
        "separates": (lambda: separates(w, swapped), {"n": w.strands, "letters": len(w), "middle": 2}),
        "separates_distinct": (lambda: separates(w, flipped), {"n": w.strands, "letters": len(w), "middle": 1}),
        "closure_gauss": (lambda: closure_gauss(w), size),
        "braid": (lambda: braid(g), size),
        "isomorphic": (lambda: isomorphic(h, g), size),
        "isomorphic_relabeled": (lambda: isomorphic(g, relabeled), size),
        "validate": (lambda: validate(g), size),
        "fan": fan(kishino),
        "fan_random": fan(other),
        # the Kishino searches cap at the Kishino word's default caps
        "fan_capped": fan(first_of_length(kishino, CAPPED_LETTERS), Budget().resolve(kishino, kishino)[1:]),
        "fan_final": (
            lambda: [edge for call in final for edge in _moves_int(*call)],
            {
                "n": kishino.strands,
                "letters": len(kishino),
                "max_states": KISHINO_STATES,
                "fans": len(final),
                "edges": sum(len(list(_moves_int(*call))) for call in final),
                "max_len": final[0][1],
                "max_n": final[0][2],
            },
        ),
        "neighbors": (lambda: neighbors(kishino), {"n": kishino.strands, "letters": len(kishino)}),
        "closure_gauss_wide": (lambda: closure_gauss(wide), wide_size),
        "braid_wide": (lambda: braid(wide_g), wide_size),
        "isomorphic_wide": (lambda: isomorphic(wide_h, wide_g), wide_size),
        "braid_wider": (lambda: braid(wider_g), wider_size),
        "derived": (lambda: apply_derived("left-tail-mixed", **item), {"n": 4, "i": 4, "steps": steps}),
        "derived_exchange": (
            lambda: apply_derived("right-exchange-mixed", **exchange),
            {"n": 4, "i": 2, "steps": exchange_steps},
        ),
        "edge_trace": (lambda: _edge_trace(*checked), {"n": 4, "i": 4, "steps": steps}),
        "edge_trace_ends": (lambda: _edge_trace(*ends), {**cert_size, "path": len(path)}),
        "trace_replay": (trace.replay, {"n": 4, "i": 4, "steps": steps}),
        "parse_word": (lambda: parse_word(text, w.strands), {"n": w.strands, "letters": len(w)}),
        "verify_certificate": (lambda: verify_certificate(certificate), cert_size),
        "format_certificate": (lambda: format_certificate(left, right, replayed), cert_size),
        "equivalent_closures_small": (lambda: equivalent_closures(left, right), cert_size),
        "equivalent_closures_unknown": (
            lambda: equivalent_closures(kishino, unknot, Budget(KISHINO_STATES)),
            {"n": kishino.strands, "letters": len(kishino), "max_states": KISHINO_STATES},
        ),
    }
    collector_on = {"equivalent_closures_small", "equivalent_closures_unknown"}
    per_call = {"fan_final": len(final)}
    layers = {}
    for name, (call, at) in calls.items():
        timer = timeit.Timer(call, setup="gc.enable()" if name in collector_on else "pass")
        runs = [(reference(), timer.timeit(args.number)) for _ in range(args.repeat)]
        ref, best = map(min, zip(*runs))
        us = best / args.number / per_call.get(name, 1) * 1e6
        layers[name] = {"us": round(us, 2), "ref_us": round(ref * 1e6, 1), **at}
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
