"""Markov moves M0-M5, a budgeted equivalence search, and certificates.

Move inventory (on free-reduced words; every neighbor is reduced again):

- M0: one application of a defining relation.  Enumerated as the splices
  of the relator rotations: adjacent swaps for far commutativity, the
  virtual braid and mixed-relation rewrites in all rotated forms, and the
  unbalanced 1<->3 / 2<->4 splits that grow or shrink a word by two
  letters.  Inserting a bare square g g is a legal relation application
  but reduces straight back, so it is never emitted; deleting one never
  fires because states are already reduced.
- M1: conjugation by a single generator (w -> g w g) and one-letter
  cyclic shifts in both directions.  Generator conjugations generate all
  conjugations because every letter is an involution.
- M2: right stabilization w -> w s_n or w r_n (strand count grows by
  one); destabilization removes a trailing extreme-index letter that
  occurs nowhere else in the word.
- M3: the left analogue, real type only: w -> (1 (x) w) s_1.
- M4/M5: right/left exchange; applicable when the extreme index occurs
  exactly twice with equal kind in the stated pattern (second occurrence
  trailing for M4, first occurrence leading for M5); both kinds flip.

The search is a bidirectional breadth-first search keyed by
(free-reduced word, strand count), with deterministic expansion order and
a replayable stitched trace on success.  Unknown is a first-class verdict:
the move system is complete but gives no length bound, so budgets are
honest caps, not heuristics.

Every edge has one exact inverse, worked out from the move itself and used
to reverse the backward half of a stitched trace: square insertions
rebuild the letters the move cancelled (its image before free reduction),
then the paired move at the same position restores the source.  M0 rules
pair through _M0_INVERSE, M1 shifts swap direction, M1 conjugations and
M4/M5 are their own inverses, and M2/M3 stabilization pairs with
destabilization, taking the kind of the removed letter.  A conjugation
needs no insertions: conjugating again cancels the same letters.

Internally words are tuples of signed ints (+i for s_i, -i for r_i);
public entry points speak TwinWord.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .errors import CertificateError, PatternMismatch
from .words import (
    REAL,
    VIRTUAL,
    Letter,
    TwinWord,
    closure_components,
    format_word,
    parse_word,
)

# ---------------------------------------------------------------------------
# int encoding

State = tuple[int, tuple[int, ...]]  # (strand count, letters)
Edge = tuple[State, str, tuple, State]  # (source, tag, params, result)


def _to_int(w: TwinWord) -> State:
    return w.strands, tuple(
        let.index if let.kind == REAL else -let.index for let in w.letters
    )


def _from_int(state: State) -> TwinWord:
    n, t = state
    return TwinWord(
        n, tuple(Letter(REAL if a > 0 else VIRTUAL, abs(a)) for a in t)
    )


def _reduce(t: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for a in t:
        if out and out[-1] == a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def _tok(a: int) -> str:
    return f"s{a}" if a > 0 else f"r{-a}"


def _untok(s: str) -> int:
    kind, idx = s[:1], int(s[1:] or "0")
    if idx >= 1 and kind == "s":
        return idx
    if idx >= 1 and kind == "r":
        return -idx
    raise CertificateError(f"bad letter token {s!r}")


# ---------------------------------------------------------------------------
# M0 rewrite windows
#
# Each helper inspects a window of the word and returns the replacement
# letters, or None.  The window content determines the rewrite uniquely
# for every rule id, which keeps (rule, position) a complete description.


def _w_comm(win):
    a, b = win
    if abs(abs(a) - abs(b)) >= 2:
        return (b, a)
    return None


def _w_comm_shrink(win):
    h, g, h2 = win
    if h == h2 and abs(abs(h) - abs(g)) >= 2:
        return (g,)
    return None


def _w_braid(win):
    a, b, c = win
    if a < 0 and b < 0 and a == c and abs(a - b) == 1:
        return (b, a, b)
    return None


def _w_braid_grow(win):
    a, b = win
    if a < 0 and b < 0 and abs(a - b) == 1:
        return (b, a, b, a)
    return None


def _w_braid_shrink(win):
    a, b, c, d = win
    if a < 0 and b < 0 and a == c and b == d and abs(a - b) == 1:
        return (b, a)
    return None


def _w_mix3(win):
    a, b, c = win
    # rotations of the mixed relation r_i r_{i+1} s_i = s_{i+1} r_i r_{i+1}
    if a < 0 and b < 0 and c > 0:
        x = -a
        if -b == x + 1 and c == x:  # r_i r_{i+1} s_i -> s_{i+1} r_i r_{i+1}
            return (x + 1, -x, -(x + 1))
        if -b == x - 1 and c == x:  # r_{i+1} r_i s_{i+1} -> s_i r_{i+1} r_i
            return (x - 1, -x, -(x - 1))
    if a < 0 and b > 0 and c < 0 and a == c:
        x = -a
        if b == x - 1:  # r_{i+1} s_i r_{i+1} -> r_i s_{i+1} r_i
            return (-(x - 1), x, -(x - 1))
        if b == x + 1:  # r_i s_{i+1} r_i -> r_{i+1} s_i r_{i+1}
            return (-(x + 1), x, -(x + 1))
    if a > 0 and b < 0 and c < 0:
        z = a
        if -b == z + 1 and -c == z:  # s_i r_{i+1} r_i -> r_{i+1} r_i s_{i+1}
            return (-(z + 1), -z, z + 1)
        if -b == z - 1 and -c == z:  # s_{i+1} r_i r_{i+1} -> r_i r_{i+1} s_i
            return (-(z - 1), -z, z - 1)
    return None


def _w_mixs_grow(win):
    a, b = win
    if a < 0 and b > 0:
        if -a == b + 1:  # r_{i+1} s_i -> r_i s_{i+1} r_i r_{i+1}
            i = b
            return (-i, i + 1, -i, -(i + 1))
        if b == -a + 1:  # r_i s_{i+1} -> r_{i+1} s_i r_{i+1} r_i
            i = -a
            return (-(i + 1), i, -(i + 1), -i)
    if a > 0 and b < 0:
        if -b == a + 1:  # s_i r_{i+1} -> r_{i+1} r_i s_{i+1} r_i
            i = a
            return (-(i + 1), -i, i + 1, -i)
        if a == -b + 1:  # s_{i+1} r_i -> r_i r_{i+1} s_i r_{i+1}
            i = -b
            return (-i, -(i + 1), i, -(i + 1))
    return None


def _w_mixs_shrink(win):
    a, b, c, d = win
    if a < 0 and b > 0 and c < 0 and d < 0 and a == c:
        x = -a
        if b == x + 1 and -d == x + 1:  # r_i s_{i+1} r_i r_{i+1} -> r_{i+1} s_i
            return (-(x + 1), x)
        if b == x - 1 and -d == x - 1:  # r_{i+1} s_i r_{i+1} r_i -> r_i s_{i+1}
            return (-(x - 1), x)
    if a < 0 and b < 0 and c > 0 and d < 0 and b == d:
        if -a == c and -b == c - 1:  # r_{i+1} r_i s_{i+1} r_i -> s_i r_{i+1}
            return (c - 1, a)
        if -a == c and -b == c + 1:  # r_i r_{i+1} s_i r_{i+1} -> s_{i+1} r_i
            return (c + 1, a)
    return None


def _w_mixr_grow(win):
    a, b = win
    if a < 0 and b < 0:
        if -b == -a + 1:  # r_i r_{i+1} -> s_{i+1} r_i r_{i+1} s_i
            i = -a
            return (i + 1, -i, -(i + 1), i)
        if -a == -b + 1:  # r_{i+1} r_i -> s_i r_{i+1} r_i s_{i+1}
            i = -b
            return (i, -(i + 1), -i, i + 1)
    return None


def _w_mixr_shrink(win):
    a, b, c, d = win
    if a > 0 and b < 0 and c < 0 and d > 0:
        if a == -b + 1 and -c == a and d == -b:  # s_{i+1} r_i r_{i+1} s_i -> r_i r_{i+1}
            return (b, c)
        if a == -b - 1 and -c == a and d == -b:  # s_i r_{i+1} r_i s_{i+1} -> r_{i+1} r_i
            return (b, c)
    return None


_M0_FIXED = {
    "comm": (_w_comm, 2),
    "comm-shrink": (_w_comm_shrink, 3),
    "braid": (_w_braid, 3),
    "braid-grow": (_w_braid_grow, 2),
    "braid-shrink": (_w_braid_shrink, 4),
    "mix3": (_w_mix3, 3),
    "mixs-grow": (_w_mixs_grow, 2),
    "mixs-shrink": (_w_mixs_shrink, 4),
    "mixr-grow": (_w_mixr_grow, 2),
    "mixr-shrink": (_w_mixr_shrink, 4),
}

# rule ids whose splice result is rebuilt by the paired rule at the same
# position, used for trace reversal
_M0_INVERSE = {
    "comm": "comm",
    "braid": "braid",
    "mix3": "mix3",
    "comm-shrink": "comm-grow",
    "comm-grow": "comm-shrink",
    "square-ins": "square-del",
    "square-del": "square-ins",
    "braid-grow": "braid-shrink",
    "braid-shrink": "braid-grow",
    "mixs-grow": "mixs-shrink",
    "mixs-shrink": "mixs-grow",
    "mixr-grow": "mixr-shrink",
    "mixr-shrink": "mixr-grow",
}


def _apply_m0(t: tuple[int, ...], rule: str, pos: int, extra: int | None):
    """Splice one relation application at pos and reduce; None if no match.

    The square rules splice without reducing: they are only used to
    normalize word boundaries in traces, where the unreduced intermediate
    word is the whole point.
    """
    if rule == "comm-grow":
        if not 0 <= pos < len(t) or extra is None:
            return None
        g = t[pos]
        if abs(abs(g) - abs(extra)) < 2:
            return None
        return _reduce(t[:pos] + (extra, g, extra) + t[pos + 1 :])
    if rule == "square-ins":
        if extra is None or not 0 <= pos <= len(t):
            return None
        return t[:pos] + (extra, extra) + t[pos:]
    if rule == "square-del":
        if not 0 <= pos <= len(t) - 2 or t[pos] != t[pos + 1]:
            return None
        return t[:pos] + t[pos + 2 :]
    entry = _M0_FIXED.get(rule)
    if entry is None:
        return None
    fn, width = entry
    if pos < 0 or pos + width > len(t):
        return None
    rhs = fn(t[pos : pos + width])
    if rhs is None:
        return None
    return _reduce(t[:pos] + rhs + t[pos + width :])


# ---------------------------------------------------------------------------
# full move application


def _apply_int(state: State, tag: str, params: tuple) -> Optional[State]:
    n, t = state
    if tag == "M0":
        rule, pos = params[0], params[1]
        extra = params[2] if len(params) > 2 else None
        if rule == "comm-grow" and extra is not None and abs(extra) > n - 1:
            return None
        rt = _apply_m0(t, rule, pos, extra)
        return None if rt is None else (n, rt)
    if tag == "M1":
        if params[0] == "conj":
            g = params[1]
            if not 1 <= abs(g) <= n - 1:
                return None
            return (n, _reduce((g,) + t + (g,)))
        if params[0] == "shift" and t:
            if params[1] == "left":
                return (n, _reduce(t[1:] + t[:1]))
            if params[1] == "right":
                return (n, _reduce(t[-1:] + t[:-1]))
        return None
    if tag == "M2":
        if params[0] == "stab":
            g = n if params[1] == "s" else -n
            return (n + 1, t + (g,))
        if params[0] == "destab":
            if n >= 2 and t and abs(t[-1]) == n - 1:
                if sum(1 for a in t if abs(a) == n - 1) == 1:
                    return (n - 1, t[:-1])
        return None
    if tag == "M3":
        if params[0] == "stab":
            shifted = tuple(a + 1 if a > 0 else a - 1 for a in t)
            return (n + 1, shifted + (1,))
        if params[0] == "destab":
            if n >= 2 and t and t[-1] == 1:
                if sum(1 for a in t if abs(a) == 1) == 1:
                    body = tuple(a - 1 if a > 0 else a + 1 for a in t[:-1])
                    return (n - 1, body)
        return None
    if tag == "M4":
        e = n - 1
        ps = [p for p, a in enumerate(t) if abs(a) == e]
        if e >= 1 and len(ps) == 2 and ps[1] == len(t) - 1 and (
            (t[ps[0]] > 0) == (t[ps[1]] > 0)
        ):
            out = list(t)
            out[ps[0]] = -out[ps[0]]
            out[ps[1]] = -out[ps[1]]
            return (n, tuple(out))
        return None
    if tag == "M5":
        ps = [p for p, a in enumerate(t) if abs(a) == 1]
        if len(ps) == 2 and ps[0] == 0 and (t[ps[0]] > 0) == (t[ps[1]] > 0):
            out = list(t)
            out[ps[0]] = -out[ps[0]]
            out[ps[1]] = -out[ps[1]]
            return (n, tuple(out))
        return None
    return None


def _moves_int(
    state: State, max_len: int, max_n: int
) -> Iterator[tuple[str, tuple, State]]:
    """All single moves from state, deterministic order, caps applied.

    Results are free-reduced; self-loops and duplicate results are
    filtered by the caller.
    """
    n, t = state
    L = len(t)

    def ok(res: Optional[State]):
        if res is None:
            return None
        if len(res[1]) > max_len or res[0] > max_n or res[0] < 1:
            return None
        return res

    # M0 splice rules at each position
    rule_order = (
        "comm",
        "braid",
        "mix3",
        "comm-shrink",
        "braid-shrink",
        "mixs-shrink",
        "mixr-shrink",
        "braid-grow",
        "mixs-grow",
        "mixr-grow",
    )
    for pos in range(L):
        for rule in rule_order:
            rt = _apply_m0(t, rule, pos, None)
            if rt is not None:
                res = ok((n, rt))
                if res is not None:
                    yield "M0", (rule, pos), res
        g = t[pos]
        for j in range(1, n):
            if abs(j - abs(g)) >= 2:
                for h in (j, -j):
                    rt = _apply_m0(t, "comm-grow", pos, h)
                    if rt is not None:
                        res = ok((n, rt))
                        if res is not None:
                            yield "M0", ("comm-grow", pos, h), res

    # M1 conjugations and cyclic shifts
    for j in range(1, n):
        for g in (j, -j):
            res = ok(_apply_int(state, "M1", ("conj", g)))
            if res is not None:
                yield "M1", ("conj", g), res
    if L:
        for direction in ("left", "right"):
            res = ok(_apply_int(state, "M1", ("shift", direction)))
            if res is not None:
                yield "M1", ("shift", direction), res

    # M2 / M3 stabilizations
    for kind in ("s", "r"):
        res = ok(_apply_int(state, "M2", ("stab", kind)))
        if res is not None:
            yield "M2", ("stab", kind), res
    res = ok(_apply_int(state, "M2", ("destab",)))
    if res is not None:
        yield "M2", ("destab",), res
    res = ok(_apply_int(state, "M3", ("stab",)))
    if res is not None:
        yield "M3", ("stab",), res
    res = ok(_apply_int(state, "M3", ("destab",)))
    if res is not None:
        yield "M3", ("destab",), res

    # M4 / M5 exchanges
    res = ok(_apply_int(state, "M4", ()))
    if res is not None:
        yield "M4", (), res
    res = ok(_apply_int(state, "M5", ()))
    if res is not None:
        yield "M5", (), res


# ---------------------------------------------------------------------------
# public move objects


@dataclass(frozen=True)
class MoveInstance:
    tag: str
    params: tuple
    source: TwinWord
    result: TwinWord

    def replay(self) -> bool:
        got = _apply_int(_to_int(self.source), self.tag, self.params)
        return got is not None and got == _to_int(self.result)

    def describe(self) -> str:
        return " ".join([self.tag] + _render_params(self.tag, self.params))


@dataclass(frozen=True)
class MoveTrace:
    start: TwinWord
    steps: tuple[MoveInstance, ...]

    @property
    def end(self) -> TwinWord:
        return self.steps[-1].result if self.steps else self.start

    def replay(self) -> bool:
        cur = self.start
        for step in self.steps:
            if step.source != cur or not step.replay():
                return False
            cur = step.result
        return True


@dataclass(frozen=True)
class Budget:
    max_states: int = 100_000
    max_len: Optional[int] = None
    max_n: Optional[int] = None

    def resolve(self, u: TwinWord, v: TwinWord) -> tuple[int, int, int]:
        ml = self.max_len
        if ml is None:
            ml = max(len(u), len(v)) + 4
        mn = self.max_n
        if mn is None:
            mn = max(u.strands, v.strands) + 1
        return self.max_states, ml, mn


@dataclass(frozen=True)
class Equivalent:
    trace: MoveTrace


@dataclass(frozen=True)
class Distinct:
    invariant: str
    left_value: object
    right_value: object


@dataclass(frozen=True)
class Unknown:
    states_explored: int
    budget: Budget


Verdict = Union[Equivalent, Distinct, Unknown]


def apply_move(w: TwinWord, tag: str, params: tuple) -> TwinWord:
    """Apply one tagged rewrite; raises PatternMismatch if it does not fit."""
    res = _apply_int(_to_int(w), tag, params)
    if res is None:
        raise PatternMismatch(f"move {tag} {params} does not apply to '{w}'")
    return _from_int(res)


def neighbors(
    w: TwinWord, caps: Optional[Budget] = None
) -> list[tuple[MoveInstance, TwinWord]]:
    """All words one move away, deduplicated by resulting word."""
    caps = caps or Budget()
    _, ml, mn = caps.resolve(w, w)
    state = _to_int(w)
    seen = {state}
    out = []
    for tag, params, res in _moves_int(state, ml, mn):
        if res in seen:
            continue
        seen.add(res)
        rw = _from_int(res)
        out.append((MoveInstance(tag, params, w, rw), rw))
    return out


# ---------------------------------------------------------------------------
# trace reversal


def _square_edges(n: int, lhs: tuple[int, ...], rhs: tuple[int, ...]) -> list[Edge]:
    """Square deletions from lhs down to its free reduction, then square
    insertions up to rhs (leftmost squares first on both sides)."""

    def deletions(t):
        chain = []
        while True:
            for p in range(len(t) - 1):
                if t[p] == t[p + 1]:
                    chain.append((t, p))
                    t = t[:p] + t[p + 2 :]
                    break
            else:
                return chain, t

    down, lred = deletions(lhs)
    up, rred = deletions(rhs)
    if lred != rred:
        raise PatternMismatch("sides do not share a free reduction")
    edges = [((n, t), "M0", ("square-del", p), (n, t[:p] + t[p + 2 :])) for t, p in down]
    for t, p in reversed(up):
        edges.append(((n, t[:p] + t[p + 2 :]), "M0", ("square-ins", p, t[p]), (n, t)))
    return edges


def _inverse_edges(src: State, tag: str, params: tuple, dst: State) -> list[Edge]:
    """The exact inverse of the edge src -> dst, as a chain dst -> ... -> src.

    Moves that free-reduce their result (the M0 splices and M1) are undone
    by square insertions that rebuild the move's image before reduction,
    the paired move at the same position, and, if src itself was not
    reduced, square insertions that restore it.  The other moves are undone
    by their paired move alone.
    """
    n, t = src
    image = None
    if tag == "M0":
        rule, pos = params[0], params[1]
        paired = _M0_INVERSE[rule]
        inv = (paired, pos) + ((t[pos],) if paired in ("comm-grow", "square-ins") else ())
        if rule == "comm-grow":
            image = t[:pos] + (params[2], t[pos], params[2]) + t[pos + 1 :]
        elif rule in _M0_FIXED:
            fn, width = _M0_FIXED[rule]
            image = t[:pos] + fn(t[pos : pos + width]) + t[pos + width :]
    elif tag == "M1" and params[0] == "conj":
        # conjugating again cancels whatever the first conjugation cancelled
        inv = params
        image = dst[1]
    elif tag == "M1":
        left = params[1] == "left"
        inv = ("shift", "right" if left else "left")
        image = t[1:] + t[:1] if left else t[-1:] + t[:-1]
    elif tag in ("M2", "M3"):
        if params[0] == "stab":
            inv = ("destab",)
        elif tag == "M2":
            inv = ("stab", "s" if t[-1] > 0 else "r")
        else:
            inv = ("stab",)
    else:  # M4 and M5 are their own inverses
        inv = params
    if image is None:
        return [(dst, tag, inv, src)]
    red = _reduce(t)
    # the square chains are empty unless letters cancelled; skip their scans
    edges = _square_edges(n, dst[1], image) if image != dst[1] else []
    edges.append(((n, image), tag, inv, (n, red)))
    if red != t:
        edges += _square_edges(n, red, t)
    return edges


def _edge_trace(start: TwinWord, edges: list[Edge]) -> MoveTrace:
    steps = tuple(
        MoveInstance(tag, params, _from_int(a), _from_int(b))
        for a, tag, params, b in edges
    )
    return MoveTrace(start, steps)


# ---------------------------------------------------------------------------
# the equivalence engine


def equivalent_closures(
    u: TwinWord, v: TwinWord, budget: Optional[Budget] = None
) -> Verdict:
    """Decide closure equivalence within a budget.

    Distinct verdicts cite a computed invariant mismatch; Equivalent
    verdicts carry a replayable trace; Unknown reports the spent budget.
    Search states are free-reduced; unreduced inputs enter and leave the
    trace through explicit square-deletion / insertion M0 steps.
    """
    budget = budget or Budget()
    cu, cv = closure_components(u), closure_components(v)
    if cu != cv:
        return Distinct("closure_components", cu, cv)

    max_states, max_len, max_n = budget.resolve(u, v)
    nu, tu = _to_int(u)
    nv, tv = _to_int(v)
    su, sv = (nu, _reduce(tu)), (nv, _reduce(tv))
    visited: list[dict] = [{su: None}, {sv: None}]
    frontier: list[list[State]] = [[su], [sv]]
    roots = (su, sv)
    explored = 0

    def build_verdict(meet: State) -> Equivalent:
        paths: list[list[Edge]] = [[], []]
        for side in (0, 1):
            cur = meet
            while visited[side][cur] is not None:
                prev, tag, params = visited[side][cur]
                paths[side].append((prev, tag, params, cur))
                cur = prev
        # the v-side edges run v -> meet; their inverses run meet -> v
        edges = _square_edges(nu, tu, su[1]) + paths[0][::-1]
        for prev, tag, params, cur in paths[1]:
            edges += _inverse_edges(prev, tag, params, cur)
        edges += _square_edges(nv, sv[1], tv)
        trace = _edge_trace(u, edges)
        if not trace.replay() or trace.end != v:
            raise RuntimeError("internal: stitched trace failed to replay")
        return Equivalent(trace)

    if su == sv:
        edges = _square_edges(nu, tu, su[1]) + _square_edges(nv, sv[1], tv)
        return Equivalent(_edge_trace(u, edges))

    while frontier[0] and frontier[1]:
        if len(frontier[0]) != len(frontier[1]):
            side = 0 if len(frontier[0]) < len(frontier[1]) else 1
        else:
            side = 0 if roots[0] <= roots[1] else 1
        nxt: list[State] = []
        for state in sorted(frontier[side]):
            if explored >= max_states:
                return Unknown(explored, budget)
            explored += 1
            for tag, params, res in _moves_int(state, max_len, max_n):
                if res in visited[side]:
                    continue
                visited[side][res] = (state, tag, params)
                if res in visited[1 - side]:
                    return build_verdict(res)
                nxt.append(res)
        frontier[side] = nxt
    return Unknown(explored, budget)


# ---------------------------------------------------------------------------
# certificate files


def _render_params(tag: str, params: tuple) -> list[str]:
    if tag == "M0":
        out = [params[0], str(params[1])]
        if len(params) > 2:
            out.append(_tok(params[2]))
        return out
    if tag == "M1":
        if params[0] == "conj":
            return ["conj", _tok(params[1])]
        return ["shift", params[1]]
    return [str(p) for p in params]


def format_certificate(left: TwinWord, right: TwinWord, trace: MoveTrace) -> str:
    lines = [
        "doodlekit certificate",
        f"left n={left.strands} : {format_word(left)}",
        f"right n={right.strands} : {format_word(right)}",
    ]
    for step in trace.steps:
        head = " ".join([step.tag] + _render_params(step.tag, step.params))
        lines.append(
            f"step {head} -> {format_word(step.result)} @ n={step.result.strands}"
        )
    return "\n".join(lines) + "\n"


def _parse_params(tag: str, fields: list[str]) -> tuple:
    def bad():
        return CertificateError(f"bad parameters {fields} for move {tag}")

    if tag == "M0":
        if len(fields) < 2 or fields[0] not in (
            *_M0_FIXED, "comm-grow", "square-ins", "square-del"
        ):
            raise bad()
        rule, pos = fields[0], int(fields[1])
        if rule in ("comm-grow", "square-ins"):
            if len(fields) != 3:
                raise bad()
            return (rule, pos, _untok(fields[2]))
        if len(fields) != 2:
            raise bad()
        return (rule, pos)
    if tag == "M1":
        if len(fields) == 2 and fields[0] == "conj":
            return ("conj", _untok(fields[1]))
        if len(fields) == 2 and fields[0] == "shift" and fields[1] in ("left", "right"):
            return ("shift", fields[1])
        raise bad()
    if tag == "M2":
        if fields == ["destab"] or (len(fields) == 2 and fields[0] == "stab" and fields[1] in ("s", "r")):
            return tuple(fields)
        raise bad()
    if tag == "M3":
        if fields in (["stab"], ["destab"]):
            return tuple(fields)
        raise bad()
    if tag in ("M4", "M5"):
        if fields:
            raise bad()
        return ()
    raise CertificateError(f"unknown move tag {tag!r}")


def parse_certificate(text: str):
    """Parse a certificate into (left, right, steps) without replaying."""
    lines = [
        ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines or lines[0].strip() != "doodlekit certificate":
        raise CertificateError("missing certificate header")

    def parse_header(line: str, label: str) -> TwinWord:
        try:
            head, body = line.split(":", 1)
            fields = head.split()
            assert fields[0] == label and fields[1].startswith("n=")
            return parse_word(body.strip(), int(fields[1][2:]))
        except (ValueError, AssertionError, IndexError) as exc:
            raise CertificateError(f"bad header line {line!r}") from exc

    if len(lines) < 3:
        raise CertificateError("certificate lacks word headers")
    left = parse_header(lines[1], "left")
    right = parse_header(lines[2], "right")

    raw_steps = []
    for line in lines[3:]:
        if not line.startswith("step "):
            raise CertificateError(f"unexpected line {line!r}")
        try:
            head, rhs = line[5:].split(" -> ", 1)
            body, ncl = rhs.rsplit("@ n=", 1)
            n = int(ncl)
            result = parse_word(body.strip(), n)
            fields = head.split()
            tag = fields[0]
            params = _parse_params(tag, fields[1:])
        except (ValueError, IndexError) as exc:
            raise CertificateError(f"bad step line {line!r}") from exc
        raw_steps.append((tag, params, result))
    return left, right, raw_steps


def verify_certificate(text: str) -> MoveTrace:
    """Replay a certificate; raises CertificateError unless it checks out."""
    left, right, raw_steps = parse_certificate(text)
    steps = []
    cur = left
    for tag, params, result in raw_steps:
        try:
            got = apply_move(cur, tag, params)
        except PatternMismatch as exc:
            raise CertificateError(str(exc)) from exc
        if got != result:
            raise CertificateError(
                f"step {tag} {params} gives '{got}', certificate claims '{result}'"
            )
        steps.append(MoveInstance(tag, params, cur, result))
        cur = result
    if cur != right:
        raise CertificateError(
            f"trace ends at '{cur}' @ n={cur.strands}, not the right word"
        )
    return MoveTrace(left, tuple(steps))
