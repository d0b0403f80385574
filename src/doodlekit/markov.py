"""Markov moves M0-M5: a budgeted equivalence search, and certificates.

The moves themselves, the fan that lists a state's moves, the exact
inverse of every edge and the traces that edge chains become are in
doodlekit.moves; its MoveInstance and MoveTrace are public here too.

equivalent_closures compares closure components, then _search, a
bidirectional breadth-first search keyed by (free-reduced word, strand
count) with deterministic expansion order, returns a path of Edges
(source, tag, params, result) between the two roots or the states it
spent; moves._edge_trace turns a path into a replayable trace.  Unknown
is a first-class verdict: the move system is complete but gives no length
bound, so budgets are honest caps, not heuristics.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .errors import CertificateError, DoodleError, PatternMismatch
from .moves import Edge, MoveInstance, MoveTrace, State, _apply_int, _edge_trace, _invert_edges
from .moves import _moves_int, _parse_params, _plain
from .words import (
    Letter,
    TwinWord,
    _content_lines,
    _count,
    _cut,
    _quoted,
    _quoted_line,
    _reduce,
    _word,
    closure_components,
    format_word,
    parse_word,
)


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
    """Apply one tagged rewrite; raises PatternMismatch unless it has a form and fits."""
    form = _plain(tag, params)
    res = None if form is None else _apply_int((w.strands, w.code), tag, form[0])
    if res is None:
        shown = _cut(tag) if type(tag) is str else _quoted(tag)  # a str tag shows bare
        raise PatternMismatch(f"move {shown} {_quoted(params)} does not apply to {_quoted(str(w))}")
    return TwinWord(*res)


def neighbors(
    w: TwinWord, caps: Optional[Budget] = None
) -> list[tuple[MoveInstance, TwinWord]]:
    """All words one move away from a free-reduced word, deduplicated by
    resulting word; every result is free-reduced too.  Raises
    PatternMismatch for a word that is not free-reduced."""
    if _reduce(w.code) != w.code:
        raise PatternMismatch(f"neighbors needs a free-reduced word, not {_quoted(str(w))}")
    caps = caps or Budget()
    _, ml, mn = caps.resolve(w, w)
    state = (w.strands, w.code)
    seen = {state}
    out = []
    for _, tag, params, res in _moves_int(state, ml, mn):
        if res in seen:
            continue
        seen.add(res)
        rw = _word(*res)
        out.append((MoveInstance(tag, params, w, rw), rw))
    return out


# ---------------------------------------------------------------------------
# the equivalence engine


def equivalent_closures(
    u: TwinWord, v: TwinWord, budget: Optional[Budget] = None
) -> Verdict:
    """Decide closure equivalence within a budget.

    Distinct verdicts cite a computed invariant mismatch; Equivalent
    verdicts carry a replayable trace; Unknown reports the spent budget.
    The closure components are compared first, then _search joins the two
    free-reduced roots, and _edge_trace turns its path into the trace,
    joining an unreduced input to its root by square steps.
    """
    budget = budget or Budget()
    cu, cv = closure_components(u), closure_components(v)
    if cu != cv:
        return Distinct("closure_components", cu, cv)
    max_states, max_len, max_n = budget.resolve(u, v)
    su, sv = (u.strands, _reduce(u.code)), (v.strands, _reduce(v.code))
    path = _search(su, sv, max_states, max_len, max_n)
    if type(path) is int:
        return Unknown(path, budget)
    return Equivalent(_edge_trace((u.strands, u.code), path, (v.strands, v.code)))


def _search(
    su: State, sv: State, max_states: int, max_len: int, max_n: int
) -> Union[list[Edge], int]:
    """The edges of a path from su to sv ([] if they are equal), or the
    number of states expanded when the budget or the frontier runs out.

    Each round expands one sorted level of the side with the smaller
    frontier.  A level is final when the states left in the budget,
    max_states - explored, are no more than its size: its first that many
    states are expanded, and nothing it reaches ever is.  So that level
    stores nothing and only tests each result against the other side.  This
    is exact: a result already visited on its own side is never on the
    other, since a state on both sides would have ended the search, so the
    first hit is the meet the full level would find, with the same edge.
    Its fan is capped at the other side's longest word and widest strand
    count too, which only drops edges whose results are not on that side;
    on a word more than two letters over that cap, the fan returns at once
    unless a seam can cancel enough letters for an edge to fit
    (doodlekit.moves), since no other edge can.

    The search runs with Python's cyclic garbage collector paused, for the
    whole process, and turns it back on after, if it was on before.  That is
    safe because the search builds no reference cycle, so the collector
    would only walk the tuples it allocates and free nothing.
    """
    if su == sv:
        return []
    enabled = gc.isenabled()
    gc.disable()
    try:
        visited: list[dict] = [{su: None}, {sv: None}]
        frontier: list[list[State]] = [[su], [sv]]
        explored = 0
        while frontier[0] and frontier[1]:
            if len(frontier[0]) != len(frontier[1]):
                side = 0 if len(frontier[0]) < len(frontier[1]) else 1
            else:
                side = 0 if su <= sv else 1
            mine, other = visited[side], visited[1 - side]
            level = sorted(frontier[side])
            rest = max(max_states - explored, 0)
            if rest <= len(level):
                # the final level: nothing it reaches is expanded, so it only
                # looks for a meet, no longer or wider than the other side (docstring)
                cap_len = cap_n = 0
                for m, x in other:
                    if len(x) > cap_len:
                        cap_len = len(x)
                    if m > cap_n:
                        cap_n = m
                for state in level[:rest]:
                    for edge in _moves_int(state, min(max_len, cap_len), min(max_n, cap_n)):
                        if edge[3] in other:
                            mine[edge[3]] = edge
                            return _meet_path(visited, edge[3])
                return explored + rest
            explored += len(level)
            nxt: list[State] = []
            for state in level:
                for edge in _moves_int(state, max_len, max_n):
                    res = edge[3]
                    if mine.setdefault(res, edge) is not edge:
                        continue
                    if res in other:
                        return _meet_path(visited, res)
                    nxt.append(res)
            frontier[side] = nxt
        return explored
    finally:
        if enabled:
            gc.enable()


def _meet_path(visited: list[dict], meet: State) -> list[Edge]:
    """The edges from the first side's root through meet to the second's:
    each side's visited map holds the edge that first reached a state (None
    at its root), and the second side's edges are inverted, since they run
    from its root to meet."""
    paths: list[list[Edge]] = [[], []]
    for side in (0, 1):
        edge = visited[side][meet]
        while edge is not None:
            paths[side].append(edge)
            edge = visited[side][edge[0]]
    return paths[0][::-1] + _invert_edges(paths[1][::-1])


# ---------------------------------------------------------------------------
# certificate files


def format_certificate(left: TwinWord, right: TwinWord, trace: MoveTrace) -> str:
    lines = [
        "doodlekit certificate",
        f"left n={left.strands} : {format_word(left)}",
        f"right n={right.strands} : {format_word(right)}",
    ]
    for step in trace.steps:
        res = step.result
        lines.append(f"step {step.describe()} -> {format_word(res)} @ n={res.strands}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=1024)
def _step_head(head: str) -> tuple[str, tuple]:
    """The tag and parameters of the move fields of a step line.  Certificates
    repeat a few heads, so each is split and parsed once; an error is never
    cached, so a bad head raises on every call."""
    fields = head.split()
    return fields[0], _parse_params(fields[0], fields[1:])


def parse_certificate(text: str):
    """Parse a certificate into (left, right, steps) without replaying."""
    lines = _content_lines(text)
    if not lines or lines[0].strip() != "doodlekit certificate":
        raise CertificateError("missing certificate header")

    def parse_header(line: str, label: str) -> TwinWord:
        try:
            head, body = line.split(":", 1)
            name, strands = head.split()
            if name != label or not strands.startswith("n="):
                raise ValueError(line)
            return parse_word(body.strip(), _count(strands[2:]))
        except (ValueError, DoodleError) as exc:
            raise CertificateError(f"bad header line {_quoted_line(line)}") from exc

    if len(lines) < 3:
        raise CertificateError("certificate lacks word headers")
    left = parse_header(lines[1], "left")
    right = parse_header(lines[2], "right")

    raw_steps = []
    for line in lines[3:]:
        if not line.startswith("step "):
            raise CertificateError(f"unexpected line {_quoted_line(line)}")
        try:
            head, rhs = line[5:].split(" -> ", 1)
            body, ncl = rhs.rsplit("@ n=", 1)
            n = _count(ncl.strip())
            result = parse_word(body.strip(), n)
            tag, params = _step_head(head)
        except CertificateError:
            raise
        except (ValueError, IndexError, DoodleError) as exc:
            raise CertificateError(f"bad step line {_quoted_line(line)}") from exc
        raw_steps.append((tag, params, result))
    return left, right, raw_steps


def verify_certificate(text: str) -> MoveTrace:
    """Replay a certificate; raises CertificateError unless it checks out."""
    left, right, raw_steps = parse_certificate(text)
    steps = []
    cur = left
    for tag, params, result in raw_steps:
        got = _apply_int((cur.strands, cur.code), tag, params)
        if got != (result.strands, result.code):
            try:
                word = apply_move(cur, tag, params)
            except PatternMismatch as exc:
                raise CertificateError(str(exc)) from exc
            gives, claims = _quoted(str(word)), _quoted(str(result))
            raise CertificateError(
                f"step {tag} {_quoted(params)} gives {gives}, certificate claims {claims}"
            )
        steps.append(MoveInstance(tag, params, cur, result))
        cur = result
    if cur != right:
        ends = f"{_quoted(str(cur))} @ n={_quoted(cur.strands)}"
        raise CertificateError(f"trace ends at {ends}, not the right word")
    return MoveTrace(left, tuple(steps))
