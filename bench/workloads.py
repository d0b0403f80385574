"""The four benchmark workloads: seeded inputs, timed ops and their oracles.

Each builder takes the freshly imported doodlekit layer modules and a seed
and returns a Corpus.  An op's ``run`` is the timed call into doodlekit;
its ``check`` is the oracle, run outside the timed region, which returns
None for a correct result and a reason otherwise.  Oracles recompute what
they can here (component counts, expected derived-move words, relabelled
arc sets) instead of trusting the function under test.

Ops call doodlekit through module attributes (``m.gauss.isomorphic``), so
the traced run can swap those attributes for span-recording wrappers.
"""

from __future__ import annotations

import itertools
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

KISHINO_BUDGET = 800


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Corpus:
    ops: list[Op]  # one pass, in seeded order
    trace_ops: list[Op]  # the fixed work of the traced run
    fan_sample: Callable[[], list]  # words for the neighbors() measurement
    counts: Callable[[list], dict]  # per-layer counts from traced results
    params: dict  # generator parameters
    sizes: dict  # input-size summary


# ---------------------------------------------------------------------------
# independent helpers


def components(word) -> int:
    """Closure components: cycles of the strand permutation, computed here."""
    pos = list(range(word.strands))
    for let in word.letters:
        i = let.index
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    seen = [False] * len(pos)
    count = 0
    for k in range(len(pos)):
        if not seen[k]:
            count += 1
            while not seen[k]:
                seen[k] = True
                k = pos[k]
    return count


def random_text(rng: random.Random, strands: int, length: int) -> str:
    if strands < 2:
        return ""
    return " ".join(
        f"{rng.choice('sr')}{rng.randint(1, strands - 1)}" for _ in range(length)
    )


def shift(text: str, by: int) -> str:
    return " ".join(f"{t[0]}{int(t[1:]) + by}" for t in text.split())


def join(*parts: str) -> str:
    return " ".join(" ".join(parts).split())


def summary(values) -> dict:
    values = list(values)
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def family_instance(item, n, i=None, beta="", beta1="", beta2="", kinds=None):
    """(lhs, lhs strands, rhs, rhs strands) of a derived-move item.

    Built from the item's defining word pattern, independently of
    doodlekit.derived.  ``order`` runs from the extreme index to the
    center: n..i for right items, 1..i for left items.
    """
    if item == "left-virtual-destab":
        return join(shift(beta, 1), "r1"), n + 1, beta, n
    side, family = item.split("-", 1)
    span = list(range(i, n + 1)) if side == "right" else list(range(1, i + 1))
    kind = dict(zip(span, kinds or "s" * len(span)))
    order = span[::-1] if side == "right" else span
    arm = [f"{kind[j]}{j}" for j in order]
    if family.startswith("tail"):
        base = beta if side == "right" else shift(beta, 1)
        return join(base, *arm, *arm[-2::-1]), n + 1, beta, n
    virt = ["r" + t[1:] for t in arm]
    if side == "right":
        core, tail = beta1, beta2
    else:
        core, tail = shift(beta1, i), shift(beta2, 1)
    lhs = join(*arm, core, *arm[::-1], tail)
    rhs = join(*virt, core, *virt[::-1], tail)
    return lhs, n + 1, rhs, n + 1


# ---------------------------------------------------------------------------
# kishino_probe


def kishino_probe(m, seed: int, root: Path) -> Corpus:
    """Budgeted searches from every rotation of the braided Kishino doodle.

    Rotations are conjugates, so each closes to the Kishino doodle; the
    seed fixes the order in which a pass visits them.
    """
    g = m.gauss.parse_gauss((root / "fixtures" / "kishino.gauss").read_text())
    braided = m.alexander.braid(g)
    rotations = list(range(len(braided.letters)))
    random.Random(seed).shuffle(rotations)
    unknot = m.words.parse_word("", 1)
    budget = m.markov.Budget(KISHINO_BUDGET)

    def make(rot):
        word = m.words.TwinWord(braided.strands, braided.letters[rot:] + braided.letters[:rot])

        def check(v):
            if components(word) != 1:
                return "Kishino word does not close to one component"
            if not isinstance(v, m.markov.Unknown):
                return f"expected Unknown, got {type(v).__name__}"
            if v.states_explored != KISHINO_BUDGET:
                return f"explored {v.states_explored} states, budget {KISHINO_BUDGET}"
            return None

        return Op(lambda: m.markov.equivalent_closures(word, unknot, budget), check), word

    made = [make(rot) for rot in rotations]
    ops = [op for op, _ in made]
    first = made[0][1]

    def fan_sample():
        # the first 200 states of a breadth-first walk from the first rotation
        seen, queue = {first}, [first]
        for w in queue:
            if len(seen) >= 200:
                break
            for _, nb in m.markov.neighbors(w):
                if nb not in seen and len(seen) < 200:
                    seen.add(nb)
                    queue.append(nb)
        return list(seen)

    return Corpus(
        ops=ops,
        trace_ops=ops[:5],
        fan_sample=fan_sample,
        counts=lambda results: {
            "markov.states_explored": mean(v.states_explored for v in results)
        },
        params={"max_states": KISHINO_BUDGET, "rotations": rotations},
        sizes={"word_length": len(braided.letters), "strands": braided.strands,
               "crossings": g.crossings, "corpus": len(ops)},
    )


# ---------------------------------------------------------------------------
# proof_corpus

# Sizes cycle through fixed grids.  The letters and moves are drawn once from
# PROOF_CONTENT_SEED and the run's seed only orders the pairs: a pair's search
# cost depends on its letters so much that op_ms_p90 moved by 25% between
# content seeds, even with four times as many random pairs.
PROOF_CONTENT_SEED = 0
REBRAID_SIZES = list(itertools.product(range(1, 4), range(0, 11)))  # (n, length)
REBRAID_EACH = 6
CHAIN_SIZES = list(itertools.product(range(2, 5), range(0, 9), range(1, 7)))  # (n, length, moves)
CHAIN_EACH = 2


def small_words(n: int) -> list[str]:
    return [""] if n < 2 else ["", "s1", "r1"]


def family_pairs():
    """Search instances for every derived-move family at n = 2, 3 (366 pairs)."""
    out = []
    for n in (2, 3):
        for i in range(1, n + 1):
            for b in small_words(n):
                out.append(family_instance("right-tail-real", n, i, beta=b))
                out.append(family_instance("left-tail-real", n, i, beta=b))
            for ks in itertools.product("sr", repeat=n - i + 1):
                for b1 in small_words(i):
                    for b2 in small_words(n):
                        out.append(family_instance(
                            "right-exchange-mixed", n, i, beta1=b1, beta2=b2, kinds=ks))
                        out.append(family_instance(
                            "left-exchange-mixed", n, n + 1 - i, beta1=b1, beta2=b2, kinds=ks))
            for ks in itertools.product("sr", repeat=n - i + 1):
                for b in small_words(n):
                    out.append(family_instance("right-tail-mixed", n, i, beta=b, kinds=ks))
                    out.append(family_instance("left-tail-mixed", n, n + 1 - i, beta=b, kinds=ks))
    return out


def proof_corpus(m, seed: int, root: Path) -> Corpus:
    """Provable pairs: rebraid pairs, random move chains, derived families."""
    rng = random.Random(PROOF_CONTENT_SEED)
    W, mk = m.words, m.markov
    pairs = []  # (u, v, budget)
    for lhs, ln, rhs, rn in family_pairs():
        u, v = W.parse_word(lhs, ln), W.parse_word(rhs, rn)
        # the test suite's tight caps for the derived-move battery
        pairs.append((u, v, mk.Budget(100_000, max(len(u), len(v)) + 2,
                                      max(u.strands, v.strands))))
    for n, length in REBRAID_SIZES * REBRAID_EACH:
        u = W.parse_word(random_text(rng, n, length), n)
        v = m.alexander.braid(m.gauss.closure_gauss(u))
        pairs.append((u, v, mk.Budget(100_000, max(len(u), len(v)) + 4,
                                      max(u.strands, v.strands) + 1)))
    for n, length, moves in CHAIN_SIZES * CHAIN_EACH:
        u = W.free_reduce(W.parse_word(random_text(rng, n, length), n))
        v = u
        for _ in range(moves):
            options = mk.neighbors(v, mk.Budget(max_len=len(u) + 6, max_n=n + 2))
            if not options:
                break
            v = rng.choice(options)[1]
        pairs.append((u, v, mk.Budget(60_000, max(len(u), len(v)) + 4,
                                      max(u.strands, v.strands) + 1)))
    random.Random(seed).shuffle(pairs)

    def make(u, v, budget):
        def run():
            verdict = mk.equivalent_closures(u, v, budget)
            if not isinstance(verdict, mk.Equivalent):
                return verdict, None, None
            cert = mk.format_certificate(u, v, verdict.trace)
            return verdict, cert, mk.verify_certificate(cert)

        def check(result):
            verdict, _, back = result
            if not isinstance(verdict, mk.Equivalent):
                return f"expected Equivalent, got {verdict}"
            trace = verdict.trace
            if trace.start != u or trace.end != v or not trace.replay():
                return "trace does not replay from u to v"
            if back.start != u or back.end != v:
                return "certificate does not verify from u to v"
            if components(u) != components(v):
                return "component counts differ"
            return None

        return Op(run, check)

    ops = [make(*p) for p in pairs]
    return Corpus(
        ops=ops,
        trace_ops=ops,
        fan_sample=lambda: [W.free_reduce(u) for u, _, _ in pairs[:200]],
        counts=lambda results: {
            "markov.cert_steps": mean(len(r[0].trace.steps) for r in results
                                      if isinstance(r[0], mk.Equivalent))
        },
        params={"family_pairs": "derived families n=2..3 (366)",
                "content_seed": PROOF_CONTENT_SEED,
                "rebraid": f"{REBRAID_EACH} pairs per n=1..3 x length 0..10",
                "chains": f"{CHAIN_EACH} pairs per n=2..4 x length 0..8 x 1..6 moves"},
        sizes={"word_length": summary(max(len(u), len(v)) for u, v, _ in pairs),
               "strands": summary(max(u.strands, v.strands) for u, v, _ in pairs),
               "corpus": len(pairs)},
    )


# ---------------------------------------------------------------------------
# derived_battery


def betas(n: int) -> list[str]:
    if n < 2:
        return [""]
    return ["", "s1", "r1"] + (["r2", "r1 r2"] if n >= 3 else [])


def derived_grid():
    """(item, keyword arguments as text) for the full derived-move grid (630)."""
    grid = []

    def add(item, n, **kw):
        grid.append((item, dict(n=n, **kw)))

    for n in (2, 3, 4):
        for i in range(1, n + 1):
            for b in betas(n):
                add("right-tail-real", n, i=i, beta=b)
            for b1 in betas(i):
                for b2 in betas(n):
                    add("right-exchange-run", n, i=i, beta1=b1, beta2=b2)
    for n in (2, 3):
        for i in range(1, n + 1):
            m = n + 1 - i
            for ks in itertools.product("sr", repeat=n - i + 1):
                for b1 in betas(i):
                    for b2 in betas(n):
                        add("right-exchange-mixed", n, i=i, beta1=b1, beta2=b2, kinds=ks)
                for b in betas(n):
                    add("right-tail-mixed", n, i=i, beta=b, kinds=ks)
            for b in betas(n):
                add("left-tail-real", n, i=i, beta=b)
            for b1 in betas(m):
                for b2 in betas(n):
                    add("left-exchange-run", n, i=i, beta1=b1, beta2=b2)
            for ks in itertools.product("sr", repeat=i):
                add("left-exchange-mixed", n, i=i, beta1=betas(m)[-1], beta2="r1", kinds=ks)
                for b in betas(n):
                    add("left-tail-mixed", n, i=i, beta=b, kinds=ks)
        for b in betas(n):
            add("left-virtual-destab", n, beta=b)
    return grid


def word_strands(item: str, n: int, i, arg: str) -> int:
    """Strand count apply_derived requires for a sub-word argument."""
    if arg == "beta1":
        return i if item.startswith("right-") else n + 1 - i
    return n


def derived_battery(m, seed: int, root: Path) -> Corpus:
    """apply_derived over the full grid, in a seeded order."""
    W, mk = m.words, m.markov
    grid = derived_grid()
    random.Random(seed).shuffle(grid)

    def make(item, spec):
        n, i = spec["n"], spec.get("i")
        kw = {"n": n}
        if i is not None:
            kw["i"] = i
        for arg in ("beta", "beta1", "beta2"):
            if arg in spec:
                kw[arg] = W.parse_word(spec[arg], word_strands(item, n, i, arg))
        if "kinds" in spec:
            kw["kinds"] = list(spec["kinds"])
        lhs, ln, rhs, rn = family_instance(item, **spec)
        want_lhs, want_rhs = W.parse_word(lhs, ln), W.parse_word(rhs, rn)

        def check(dm):
            if dm.lhs != want_lhs or dm.rhs != want_rhs:
                return f"{item} {spec}: sides differ from the item's pattern"
            trace = dm.trace
            if trace.start != dm.lhs or trace.end != dm.rhs or not trace.replay():
                return f"{item} {spec}: trace does not replay"
            back = mk.verify_certificate(mk.format_certificate(dm.lhs, dm.rhs, trace))
            if back.end != dm.rhs:
                return f"{item} {spec}: certificate does not verify"
            if components(dm.lhs) != components(dm.rhs):
                return f"{item} {spec}: component counts differ"
            return None

        return Op(lambda: m.derived.apply_derived(item, **kw), check), want_lhs

    made = [make(item, spec) for item, spec in grid]
    ops = [op for op, _ in made]
    return Corpus(
        ops=ops,
        trace_ops=ops,
        fan_sample=lambda: [W.free_reduce(lhs) for _, lhs in made[:200]],
        counts=lambda results: {
            "derived.trace_steps": mean(len(dm.trace.steps) for dm in results)
        },
        params={"grid": "n=2..4 tail-real/exchange-run right; n=2..3 all other items",
                "betas": "'', s1, r1 (+ r2, 'r1 r2' for n>=3)"},
        sizes={"word_length": summary(len(lhs.letters) for _, lhs in made),
               "strands": summary(lhs.strands for _, lhs in made),
               "corpus": len(ops)},
    )


# ---------------------------------------------------------------------------
# diagram_roundtrip

DIAGRAMS = 1000  # word k: n = 2 + k % 7, length 10..120 rising with k
SMALL_LENGTH = (8, 32)  # relabelled copies stay below the backtracking blow-up
PROBE_LENGTH = 2_600  # about 1,300 crossings, above the recursion ceiling


def isomorphic_relabeled(m, g, h):
    """Named call site, so the traced run can tell relabelled calls apart."""
    return m.gauss.isomorphic(g, h)


def m0_neighbour(rng: random.Random, text: str, n: int) -> str:
    """One relation application: a far commutation, else a square insertion."""
    toks = text.split()
    far = [p for p in range(len(toks) - 1)
           if abs(int(toks[p][1:]) - int(toks[p + 1][1:])) >= 2]
    if far:
        p = rng.choice(far)
        toks[p], toks[p + 1] = toks[p + 1], toks[p]
    else:
        g = f"{rng.choice('sr')}{rng.randint(1, n - 1)}"
        p = rng.randint(0, len(toks))
        toks[p:p] = [g, g]
    return " ".join(toks)


def arc_set(g, sigma=None):
    """Arcs as plain tuples, crossings renamed by sigma when given."""
    ren = (lambda c: c) if sigma is None else (lambda c: sigma[c - 1])
    return {((ren(f.crossing), f.slot), (ren(t.crossing), t.slot)) for f, t in g.arcs}


def diagram_roundtrip(m, seed: int, root: Path) -> Corpus:
    """Gauss data, braiding, isomorphism and mu on seeded random words."""
    rng = random.Random(seed)
    W, G = m.words, m.gauss
    items = []
    lo, hi = SMALL_LENGTH
    for k in range(DIAGRAMS):
        n = 2 + k % 7
        text = random_text(rng, n, 10 + k * 110 // (DIAGRAMS - 1))
        word = W.parse_word(text, n)
        neighbour = W.parse_word(m0_neighbour(rng, text, n), n)
        sn = 2 + k % 3
        small_text = random_text(rng, sn, lo + (k // 3) % (hi - lo + 1))
        small = G.closure_gauss(W.parse_word(small_text, sn))
        perm = list(range(1, small.crossings + 1))
        rng.shuffle(perm)
        items.append((word, neighbour, small, G.relabel(small, tuple(perm)), tuple(perm)))
    rng.shuffle(items)

    def make(word, neighbour, small, relabeled, perm):
        reals = sum(1 for let in word.letters if let.kind == "s")

        def run():
            g1 = m.gauss.closure_gauss(word)
            b = m.alexander.braid(g1)
            g2 = m.gauss.closure_gauss(b)
            sigma = m.gauss.isomorphic(g1, g2)
            tau = isomorphic_relabeled(m, small, relabeled)
            counts = (m.words.closure_components(word), m.words.closure_components(b))
            sep = m.freegroup.separates(word, neighbour)
            return g1, b, g2, sigma, tau, counts, sep

        def check(result):
            g1, b, g2, sigma, tau, counts, sep = result
            if g1.crossings != reals:
                return "closure has the wrong crossing count"
            if sigma is None or arc_set(g1, sigma) != arc_set(g2):
                return "braid round trip is not witnessed by isomorphic"
            if counts != (components(word), components(word)) or g1.free_loops != g2.free_loops:
                return "braiding changed the closure components"
            if tau is None or arc_set(small, tau) != arc_set(relabeled):
                return "relabelled copy is not witnessed by isomorphic"
            if sep:
                return "separates() claims an M0 neighbour differs"
            return None

        return Op(run, check)

    ops = [make(*it) for it in items]
    return Corpus(
        ops=ops,
        trace_ops=ops[:100],
        fan_sample=lambda: [W.free_reduce(it[0]) for it in items[:50]],
        counts=lambda results: {
            "gauss.crossings": mean(r[0].crossings for r in results),
            "alexander.braid.strands": mean(r[1].strands for r in results),
            "freegroup.mu.image_letters": mean(
                sum(len(img.letters) for img in m.freegroup.mu(it[0]).images)
                for it in items[:len(results)]),
        },
        params={"diagrams": f"{DIAGRAMS} words, n=2..8, length 10..120",
                "relabelled": f"n=2..4, length {lo}..{hi}",
                "neighbour": "far commutation, else square insertion"},
        sizes={"word_length": summary(len(it[0].letters) for it in items),
               "strands": summary(it[0].strands for it in items),
               "crossings": summary(sum(1 for let in it[0].letters if let.kind == "s")
                                    for it in items),
               "relabelled_crossings": summary(it[2].crossings for it in items),
               "corpus": len(items)},
    )


def recursion_probe(m, seed: int) -> int:
    """1 if aligned isomorphic fails by recursion on a diagram past the ceiling."""
    rng = random.Random(seed)
    word = m.words.parse_word(random_text(rng, 8, PROBE_LENGTH), 8)
    g = m.gauss.closure_gauss(word)
    try:
        m.gauss.isomorphic(g, g)
    except RecursionError:
        return 1
    return 0


BUILDERS = {
    "kishino_probe": kishino_probe,
    "proof_corpus": proof_corpus,
    "derived_battery": derived_battery,
    "diagram_roundtrip": diagram_roundtrip,
}
