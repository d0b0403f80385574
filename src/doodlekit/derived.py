"""Derived Markov moves: the composite rewrites behind destabilization.

Each item rewrites a word pattern and returns a move-by-move trace that
replays under the atomic M0-M5 semantics of :mod:`doodlekit.markov`.

Right-handed items (words in VT_{n+1}, all on n >= 2):

    right-tail-real       b . s_n .. s_i .. s_n  ~  b                (b in VT_n)
    right-exchange-run    s_n .. s_i b1 s_i .. s_n b2  ~  all-virtual (b1 in VT_i)
    right-exchange-mixed  t_n .. t_i b1 t_i .. t_n b2  ~  all-virtual (t_j = s or r)
    right-tail-mixed      b . t_n .. t_{c+1} t_c t_{c+1} .. t_n  ~  b (center c)

The left-* items are the strand mirrors of these, and left-virtual-destab
is the rewrite (1 (x) b) r_1 ~ b, which is not an atomic move.  The
builders take the kinds of the t_j as one map from level j to the letter
t_j itself, +j for s_j and -j for r_j; apply_derived makes it once from
the 's'/'r' choices it is given.

Construction strategy: every trace is an explicit chain of moves; none
is searched for.  The exchange items are built by an inductive chain
(exchange-move flip, mixed-relation pushes through the nested
palindrome, commutation sweeps, rotations by conjugation with an end
letter, recursion, and a final braid merge).  Mixed-kind arms convert
run by run: each maximal run of real levels takes one exchange chain,
after the virtual levels above it are unwound to real by that chain run
backwards.  Every tail, real or mixed, takes one chain with the same
push-and-sweep: M4 flips the top pair if it is real, the pair passes a
real letter by mixed-relation steps and a virtual one by braid steps,
and the inner letters, each one index up with its kind kept, form a
shorter tail.  Once every arm is virtual, a stage loop moves the
palindrome outward by braid steps around a virtual center and mix3 steps
around a real one.  Two rules carry the rest, with V = r_n .. r_i and
Q = r_n .. r_1 in VT_{n+1}:

- Q g_{i+1} = g_i Q for a generator g of either kind (far commutations
  around one braid or mix3 step).  left-virtual-destab wraps Q around the
  lifted word by conjugation, pushes it through letter by letter, and
  ends in the stage loop of an all-virtual tail.
- r_j V = V r_{j+1}, r_{j+1} b1 = b1 r_{j+1} and r_{j+1} V^-1 = V^-1 r_j
  (two braid steps and far commutations), so conjugating Y = V b1 V^-1
  plus b2 by r_j slides the left copy through Y.  The exchange-run tail,
  Y plus the reduced S b2 S^-1 (S = r_i .. r_{n-1}), is that chain from
  Y b2 run backwards, whatever letters cancelled at either seam.

Left-handed traces are produced by mirroring right-handed ones through
the index reversal j -> n+1-j, which maps every splice rule to itself and
swaps the left/right move families; it maps the four moves right-handed
chains make, M0, M1, M2 destabilization and M4.  Degenerate instances
whose two sides share a free reduction get a pure square-deletion/insertion
trace.

Each step is computed once, by the builder that takes it: chains run
backwards (markov._invert_edges) and mirrored chains are passed on as
built, not applied again.  The finished trace is replayed once, in
markov._edge_trace, which also checks that it ends at the item's right
side; a chain that goes wrong is an internal error (RuntimeError).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PatternMismatch
from .markov import (
    Edge,
    MoveTrace,
    State,
    _apply_int,
    _edge_trace,
    _invert_edges,
    _square_edges,
)
from .words import TwinWord, _digits, _reduce, _shift


@dataclass
class _Builder:
    state: State
    edges: list = field(default_factory=list)

    @property
    def word(self) -> tuple[int, ...]:
        return self.state[1]

    @property
    def n(self) -> int:
        return self.state[0]

    def apply(self, tag: str, params: tuple) -> None:
        res = _apply_int(self.state, tag, params)
        if res is None:
            raise RuntimeError(f"internal: step {tag} {params} does not apply to {self.state}")
        self.edges.append((self.state, tag, params, res))
        self.state = res

    def m0(self, rule: str, pos: int) -> None:
        self.apply("M0", (rule, pos))

    def comm(self, pos: int) -> None:
        self.m0("comm", pos)

    def conj(self, g: int) -> None:
        self.apply("M1", ("conj", g))

    def splice(self, edges: list[Edge]) -> None:
        """Append a chain built elsewhere; it must start here."""
        if edges[0][0] != self.state:
            raise RuntimeError("internal: spliced sub-trace does not chain")
        self.edges += edges
        self.state = edges[-1][3]


# ---------------------------------------------------------------------------
# word patterns (int encoding: +i real, -i virtual)


def _x_pattern(n: int, i: int, b1: tuple[int, ...], sign: int = 1) -> tuple[int, ...]:
    """s_n .. s_i b1 s_i .. s_n, or r_n .. r_i b1 r_i .. r_n for sign -1"""
    down = tuple(sign * x for x in range(n, i - 1, -1))
    return down + b1 + tuple(reversed(down))


def _mirror(n: int, t: tuple[int, ...]) -> tuple[int, ...]:
    """The index reversal j -> n - j of VT_n, kinds kept."""
    return tuple(n - a if a > 0 else -n - a for a in t)


# ---------------------------------------------------------------------------
# right tails, real and mixed


def _push_sweep(step, start: int, levels: int, core: int, centre: bool, virtual=()) -> None:
    """Push the virtual pair at start inward through a nest of push levels
    around core letters, then sweep the nested virtual letters out to
    flanking runs; a one-letter centre takes one more splice and one more
    sweep level.  The pair passes a real letter by mixs-grow and mix3 and,
    at the same positions, a virtual one by braid-grow and braid; virtual
    holds the levels k whose letter is virtual, the centre at k = 0.
    step(rule, pos) takes one M0 step."""
    ofs = start
    for k in range(levels, 0, -1):
        step("braid-grow" if k in virtual else "mixs-grow", ofs)
        zlen = 2 * (k - 1) + core
        for j in range(zlen):
            step("comm", ofs + 3 + j)
        step("braid" if k in virtual else "mix3", ofs + 3 + zlen)
        ofs += 2
    if centre:
        step("braid" if 0 in virtual else "mix3", ofs)
    d = levels + centre
    for j in range(1, d):
        for k in range(j):
            step("comm", start + 2 * j - 1 - k)
    nest_end = start + 4 * levels + 1 + core
    for j in range(1, d):
        for k in range(j):
            step("comm", nest_end - 2 * j + k)


def _build_tail(b: _Builder, n: int, i: int, kinds: dict[int, int]) -> None:
    """word = (reduced VT_n prefix) + t_n .. t_{i+1} t_i t_{i+1} .. t_n  ->  prefix."""
    if i == n:
        b.apply("M2", ("destab",))
        return
    base = len(b.word) - 2 * (n - i) - 1
    if all(kinds[j] < 0 for j in range(i + 1, n + 1)):
        # every arm is virtual: turn the prefix to the back and move the
        # palindrome outward stage by stage (r_{k+1} t_k r_{k+1} = r_k t_{k+1} r_k)
        for _ in range(base):
            b.conj(b.word[0])
        rule, center = "braid" if kinds[i] < 0 else "mix3", n - i - 1
        for k in range(i, n):
            b.m0(rule, center)
            for step in range(n - k - 1):
                b.comm(center - 1 - step)
            for step in range(n - k - 1):
                b.comm(center + 2 + step)
        for _ in range(n - i + 1):
            b.conj(b.word[0])
        b.apply("M2", ("destab",))
        for k in range(n - 1, i - 1, -1):
            b.conj(-k)
        return
    if kinds[n] > 0:
        b.apply("M4", ())
    # The nest is the exchange run's at level i + 1 around the centre t_i.
    # A step can drop a letter pair into the prefix, which may end with the
    # letter arriving at its boundary; such a contact only consumes prefix
    # letters that no later step touches, so the accumulated slip keeps all
    # later positions exact.
    slip = 0

    def tracked(rule, pos):
        nonlocal slip
        want = len(b.word) + (2 if rule.endswith("-grow") else 0)
        b.m0(rule, pos - slip)
        slip += want - len(b.word)

    _push_sweep(tracked, base, n - i - 1, 1, True, {k for k in range(n - i) if kinds[i + k] < 0})
    # conjugate the flanking runs away and recurse on the shorter tail,
    # whose letters t_i .. t_{n-1} each moved up one index, kinds kept
    for _ in range(n - i):
        b.conj(b.word[-1])
    _build_tail(b, n, i + 1, {j + 1: j + 1 if kinds[j] > 0 else -j - 1 for j in range(i, n)})
    for k in range(i, n):
        b.conj(-k)


# ---------------------------------------------------------------------------
# right-exchange-run


def _build_exchange_run(b: _Builder, n: int, i: int, b1: tuple[int, ...]) -> None:
    """word = X(n, i, b1) + b2  ->  Y(n, i, b1) + b2."""
    b2 = b.word[len(_x_pattern(n, i, b1)) :]
    # rotate b2 round to the front, flip the extreme pair, rotate it back
    for _ in b2:
        b.conj(b.word[-1])
    b.apply("M4", ())
    for _ in b2:
        b.conj(b.word[0])
    if i == n:
        return
    # pushes, bottom level included uniformly (b1 is nonempty here); not
    # slip-tracked, as a mix3 can cancel core letters inside the nest
    _push_sweep(b.m0, 0, n - i, len(b1), False)
    # bury the left run and recurse at i+1
    for _ in range(n - i):
        b.conj(b.word[0])
    b1p = (-i,) + b1 + (-i,)
    _build_exchange_run(b, n, i + 1, b1p)

    # word = Y + reduced S b2 S^-1; build Y + b2 -> here and run it backwards
    Y = _x_pattern(n, i, b1, -1)
    if b.word[len(Y) :] == b2:
        return
    back = _Builder((b.n, Y + b2))
    for j in range(n - 1, i - 1, -1):
        back.conj(-j)
        # r_j V = V r_{j+1}
        for pos in range(n - j - 1):
            back.comm(pos)
        back.m0("braid", n - j - 1)
        # r_{j+1} past r_{j-1} .. r_i b1 r_i .. r_{j-1}, then V^-1
        p = n - j + 1
        for step in range(2 * (j - i) + len(b1)):
            back.comm(p + step)
        p += 2 * (j - i) + len(b1)
        back.m0("braid", p)
        for step in range(n - j - 1):
            back.comm(p + 2 + step)
    b.splice(_invert_edges(back.edges))


# ---------------------------------------------------------------------------
# right-exchange-mixed


def _mid_letters(
    j: int, i: int, b1: tuple[int, ...], kinds: dict[int, int]
) -> tuple[int, ...]:
    """t_{j-1} .. t_i b1 t_i .. t_{j-1}"""
    out = tuple([kinds[m] for m in range(j - 1, i - 1, -1)])
    return out + b1 + out[::-1]


def _build_exchange_mixed(
    b: _Builder, n: int, i: int, b1: tuple[int, ...], kinds: dict[int, int]
) -> None:
    """word = t_n .. t_i b1 t_i .. t_n + b2  ->  all-virtual version + b2."""
    lead = len(_mid_letters(n + 1, i, b1, kinds))
    b2 = b.word[lead:]
    top = n
    for j in range(n, i - 1, -1):
        if kinds[j] < 0:
            top = j - 1
        elif j == i or kinds[j - 1] < 0:
            # top .. j is a maximal run of real levels: unwind the virtual
            # levels above it to real, then turn levels n .. j virtual
            if top < n:
                blk = _mid_letters(top + 1, i, b1, kinds)
                scratch = _Builder((b.n, _x_pattern(n, top + 1, blk) + b2))
                _build_exchange_run(scratch, n, top + 1, blk)
                b.splice(_invert_edges(scratch.edges))
            _build_exchange_run(b, n, j, _mid_letters(j, i, b1, kinds))


# ---------------------------------------------------------------------------
# left-virtual-destab


def _virtual_destab_edges(beta: State) -> list[Edge]:
    """(1 (x) beta) r_1  ->  beta, through Q = r_n .. r_1 and Q g_{i+1} = g_i Q."""
    n, t = beta
    lifted = _shift(t, 1)
    b = _Builder((n + 1, lifted + (-1,)))
    # Q + lifted + r_2 .. r_n, reduced: a trailing run r_{c+1} .. r_2 of
    # lifted cancels, leaving Q + lifted[:m] + r_{c+2} .. r_n
    b.conj(b.word[-1])
    for j in range(2, n + 1):
        b.conj(-j)
    c = 0
    while c < len(lifted) and lifted[-1 - c] == -(c + 2):
        c += 1
    m = len(lifted) - c
    # push Q through lifted[:m]; letter k, g_{i+1}, sits at k + n
    for k in range(m):
        i = abs(lifted[k]) - 1
        for step in range(i - 1):
            b.comm(k + n - 1 - step)
        b.m0("mix3" if lifted[k] > 0 else "braid", k + n - i - 1)
        for step in range(n - i - 1):
            b.comm(k + n - i - 2 - step)
    # t[:m] + r_n .. r_{c+1} + r_c .. r_1 + r_{c+2} .. r_n: move r_c .. r_1
    # past r_{c+2} .. r_n and round to the front
    for j in range(1, c + 1):
        for step in range(n - c - 1):
            b.comm(m + n - j + step)
    for _ in range(c):
        b.conj(b.word[-1])
    _build_tail(b, n, c + 1, {j: -j for j in range(c + 1, n + 1)})
    for j in range(c, 0, -1):
        b.conj(-j)
    return b.edges


# ---------------------------------------------------------------------------
# strand mirror (left-handed family)


def _mirror_edges(edges: list[Edge]) -> list[Edge]:
    """Map a right-handed trace through the index reversal j -> n+1-j.

    Right-handed chains, run backwards or not, take only M0, M1, M2
    destabilization and M4 steps.  The mirrored states are the mirrors of
    the states the trace holds, so no step is applied again; only the turn
    around a misplaced exchange pair computes its two intermediate words.
    Each state is mirrored once: an edge that starts where the last one
    ended reuses that mirror, and any other source, a gap included, is
    mirrored afresh for markov._edge_trace to judge."""
    out: list[Edge] = []
    prev = mdst = None
    for src, tag, params, dst in edges:
        msrc = mdst if src == prev else (src[0], _mirror(*src))
        prev, mdst = dst, (dst[0], _mirror(*dst))
        N = src[0]
        if tag == "M0":
            if len(params) > 2:
                params = (params[0], params[1], _mirror(N, params[2:])[0])
            out.append((msrc, "M0", params, mdst))
        elif tag == "M1":
            out.append((msrc, "M1", ("conj", _mirror(N, params[1:])[0]), mdst))
        elif tag == "M2" and params == ("destab",):
            if src[1][-1] > 0:
                out.append((msrc, "M3", ("destab",), mdst))
            else:
                out += _virtual_destab_edges(mdst)
        elif tag == "M4":
            # M5 needs the mirrored pair to lead the word: else turn the
            # last letter to the front and back by conjugation
            if _apply_int(msrc, "M5", ()) == mdst:
                out.append((msrc, "M5", (), mdst))
            else:
                turn = ("conj", msrc[1][-1])
                step1 = _apply_int(msrc, "M1", turn)
                step2 = _apply_int(step1, "M5", ())
                out += [
                    (msrc, "M1", turn, step1),
                    (step1, "M5", (), step2),
                    (step2, "M1", ("conj", step2[1][0]), mdst),
                ]
        else:
            raise RuntimeError(f"internal: cannot mirror move {tag} {params}")
    return out


# ---------------------------------------------------------------------------
# public entry point


@dataclass(frozen=True)
class DerivedMove:
    item: str
    lhs: TwinWord
    rhs: TwinWord
    trace: MoveTrace


def _finish(item: str, lhs: State, rhs: State, edges: list[Edge]) -> DerivedMove:
    trace = _edge_trace(lhs, edges, rhs)
    return DerivedMove(item, trace.start, trace.end, trace)


def _req_word(w: TwinWord | None, strands: int, label: str) -> tuple[int, ...]:
    if w is None:
        return ()
    if w.strands != strands:
        raise PatternMismatch(f"{label} must live in VT_{_digits(strands)}")
    t = w.code
    if _reduce(t) != t:
        raise PatternMismatch(f"{label} must be free-reduced")
    return t


def _req_kinds(kinds, span) -> dict[int, int]:
    if kinds is None:
        return {j: j for j in span}
    if len(kinds) != len(span) or any(k not in ("s", "r") for k in kinds):
        raise PatternMismatch(f"kinds must give 's'/'r' for each of indices {list(span)}")
    return {j: j if k == "s" else -j for j, k in zip(span, kinds)}


def apply_derived(
    item: str,
    *,
    n: int,
    i: int | None = None,
    beta: TwinWord | None = None,
    beta1: TwinWord | None = None,
    beta2: TwinWord | None = None,
    kinds=None,
) -> DerivedMove:
    """Instantiate a derived move and build its replayable trace.

    Parameters select the item, the ambient n, the depth index i
    (for the tail-mixed items the center index), the kind choices for t_j where
    applicable, and the sub-words; sub-words must be free-reduced and
    carry the strand counts stated by the item.  An argument the item does
    not take is a PatternMismatch too.
    """
    if n < 2:
        raise PatternMismatch("derived moves need n >= 2")
    side, _, family = item.partition("-")
    if item == "left-virtual-destab":
        takes = {"beta"}
    elif side in ("right", "left") and family in (
        "tail-real", "exchange-run", "exchange-mixed", "tail-mixed"
    ):
        takes = {"i", "kinds"} if family.endswith("mixed") else {"i"}
        takes |= {"beta"} if family.startswith("tail") else {"beta1", "beta2"}
    else:
        raise PatternMismatch(f"unknown derived item {item!r}")
    given = {"i": i, "beta": beta, "beta1": beta1, "beta2": beta2, "kinds": kinds}
    for name, value in given.items():
        if value is not None and name not in takes:
            raise PatternMismatch(f"item {item} takes no {name}")
    mirror = side == "left"
    N = n + 1

    if item == "left-virtual-destab":
        bt = _req_word(beta, n, "beta")
        edges = _virtual_destab_edges((n, bt))
        return _finish(item, (N, _shift(bt, 1) + (-1,)), (n, bt), edges)
    if i is None or not 1 <= i <= n:
        raise PatternMismatch(f"item {item} needs 1 <= i <= n")

    # build the right-handed instance; a left item is its mirror image, and
    # the mirror of (k (x) w) in VT_{n+1} is the mirror of w in VT_{n+1-k}
    ir = n + 1 - i if mirror else i
    span = range(1, i + 1) if mirror else range(i, n + 1)
    kd = _req_kinds(kinds, span)
    kd_r = {N - j: N - j if a > 0 else j - N for j, a in kd.items()} if mirror else kd
    if family.startswith("tail"):
        bt = _req_word(beta, n, "beta")
        bt_r = _mirror(n, bt) if mirror else bt
        start, end = bt_r + _mid_letters(N, ir + 1, (kd_r[ir],), kd_r), (n, bt)
        b = _Builder((N, start))
        _build_tail(b, n, ir, kd_r)
    else:
        b1 = _req_word(beta1, ir, "beta1")
        b2 = _req_word(beta2, n, "beta2")
        if mirror:
            b1, b2 = _mirror(ir, b1), _mirror(n, b2)
        start = _mid_letters(N, ir, b1, kd_r) + b2
        rhs = _x_pattern(n, ir, b1, -1) + b2
        end = (N, _mirror(N, rhs) if mirror else rhs)
        if _reduce(start) != start or _reduce(rhs) != rhs:
            lhs = _mirror(N, start) if mirror else start
            return _finish(item, (N, lhs), end, _square_edges(N, lhs, end[1]))
        b = _Builder((N, start))
        _build_exchange_mixed(b, n, ir, b1, kd_r)
    edges = _mirror_edges(b.edges) if mirror else b.edges
    return _finish(item, (N, _mirror(N, start) if mirror else start), end, edges)
