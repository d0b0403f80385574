"""Derived Markov moves: the composite rewrites behind destabilization.

Each item rewrites a word pattern and returns a move-by-move trace that
replays under the atomic M0-M5 semantics of :mod:`doodlekit.moves`.

Right-handed items (words in VT_{n+1}, all on n >= 2):

    right-tail-real       b . s_n .. s_i .. s_n  ~  b                (b in VT_n)
    right-exchange-run    s_n .. s_i b1 s_i .. s_n b2  ~  all-virtual (b1 in VT_i)
    right-exchange-mixed  t_n .. t_i b1 t_i .. t_n b2  ~  all-virtual (t_j = s or r)
    right-tail-mixed      b . t_n .. t_{c+1} t_c t_{c+1} .. t_n  ~  b (center c)

The left-* items are the strand mirrors of these, and left-virtual-destab
is the rewrite (1 (x) b) r_1 ~ b, which is not an atomic move.  The
builders take the arm as the tuple of its letters t_i .. t_n, +j for s_j
and -j for r_j, and read i and n off its two ends; apply_derived makes
it once from the 's'/'r' choices it is given.

Construction strategy: every trace is an explicit chain of moves; none
is searched for.  Every exchange, run or mixed, takes one inductive
chain: the virtual levels below the lowest real one join the core (an
arm with no real level is already all-virtual), M4 flips the top pair if
it is real, the pair r_n passes a real letter by mixed-relation pushes
and a virtual one by braid pushes, commutation sweeps and a rotation by
conjugation with an end letter bury the left run, the inner letters,
each one index up with its kind kept, recurse around the core r_i b1
r_i, and a final braid merge follows.  Every tail, real or mixed, takes
one chain with the same push-and-sweep: M4 flips the top pair if it is
real, the pair passes a real letter by mixed-relation steps and a
virtual one by braid steps, and the inner letters, each one index up
with its kind kept, form a shorter tail.  Once every arm is virtual, a
stage loop moves the palindrome outward by braid steps around a virtual
center and mix3 steps around a real one.  Two rules carry the rest, with
V = r_n .. r_i and Q = r_n .. r_1 in VT_{n+1}:

- Q g_{i+1} = g_i Q for a generator g of either kind (far commutations
  around one braid or mix3 step).  left-virtual-destab wraps Q around the
  lifted word by conjugation, pushes it through letter by letter, and
  ends in the stage loop of an all-virtual tail.
- r_j V = V r_{j+1}, r_{j+1} b1 = b1 r_{j+1} and r_{j+1} V^-1 = V^-1 r_j
  (two braid steps and far commutations), so conjugating Y = V b1 V^-1
  plus b2 by r_j slides the left copy through Y.  The exchange chain's
  last leg, from Y plus the reduced S b2 S^-1 (S = r_i .. r_{n-1}) to
  Y b2, is that chain run backwards, whatever letters cancelled at
  either seam.

Left-handed traces are produced by mirroring right-handed ones through
the index reversal j -> n+1-j, which maps every splice rule to itself and
swaps the left/right move families; it maps the four moves right-handed
chains make, M0, M1, M2 destabilization and M4.  A degenerate exchange
(empty beta1) builds no chain: its two sides share a free reduction, and
moves._edge_trace joins them by square deletions and insertions.

Each step is computed once, in _Builder.apply, the only place here that
applies a move: chains run backwards (moves._invert_edges) and mirrored
chains are passed on as built, not applied again.  The finished chain is
replayed once, in moves._edge_trace, which also checks that it ends at
the item's right side and drops its loops, so no trace passes a state
twice; a chain that goes wrong is an internal error (RuntimeError).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PatternMismatch
from .moves import Edge, MoveTrace, State
from .moves import _Builder, _edge_trace, _invert_edges, _push_sweep
from .words import TwinWord, _digits, _quoted, _reduce, _shift


# ---------------------------------------------------------------------------
# word patterns (int encoding: +i real, -i virtual)


def _pal(arm: tuple[int, ...], core: tuple[int, ...]) -> tuple[int, ...]:
    """t_n .. t_i core t_i .. t_n for arm = t_i .. t_n"""
    return arm[::-1] + core + arm


def _virtual_arm(i: int, n: int) -> tuple[int, ...]:
    """r_i .. r_n"""
    return tuple(range(-i, -n - 1, -1))


def _mirror(n: int, t: tuple[int, ...]) -> tuple[int, ...]:
    """The index reversal j -> n - j of VT_n, kinds kept."""
    return tuple(n - a if a > 0 else -n - a for a in t)


# ---------------------------------------------------------------------------
# right tails, real and mixed


def _build_tail(b: _Builder, arm: tuple[int, ...]) -> None:
    """word = (reduced VT_n prefix) + t_n .. t_{i+1} t_i t_{i+1} .. t_n  ->  prefix."""
    i, n = abs(arm[0]), abs(arm[-1])
    if i == n:
        b.apply("M2", ("destab",))
        return
    base = len(b.word) - 2 * (n - i) - 1
    if all(a < 0 for a in arm[1:]):
        # every arm is virtual: turn the prefix to the back and move the
        # palindrome outward stage by stage (r_{k+1} t_k r_{k+1} = r_k t_{k+1} r_k)
        for _ in range(base):
            b.conj(b.word[0])
        rule, center = "braid" if arm[0] < 0 else "mix3", n - i - 1
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
    if arm[-1] > 0:
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

    _push_sweep(tracked, base, arm[:-1], 1, True)
    # conjugate the flanking runs away and recurse on the shorter tail,
    # whose letters t_i .. t_{n-1} each moved up one index, kinds kept
    for _ in range(n - i):
        b.conj(b.word[-1])
    _build_tail(b, _shift(arm[:-1], 1))
    for k in range(i, n):
        b.conj(-k)


# ---------------------------------------------------------------------------
# right exchanges, run and mixed


def _build_exchange(b: _Builder, b1: tuple[int, ...], arm: tuple[int, ...]) -> None:
    """word = t_n .. t_i b1 t_i .. t_n + b2  ->  Y(n, i, b1) + b2."""
    b2 = b.word[2 * len(arm) + len(b1) :]
    # virtual levels below the lowest real one join the core
    low = next((k for k, a in enumerate(arm) if a > 0), None)
    if low is None:
        return
    arm, b1 = arm[low:], _pal(arm[:low], b1)
    i, n = arm[0], abs(arm[-1])
    if arm[-1] > 0:
        # rotate b2 round to the front, flip the extreme pair, rotate it back
        for _ in b2:
            b.conj(b.word[-1])
        b.apply("M4", ())
        for _ in b2:
            b.conj(b.word[0])
    if i == n:
        return
    # pushes, bottom level included uniformly (b1 is nonempty here); not
    # slip-tracked, as a push step can cancel core letters inside the nest
    _push_sweep(b.m0, 0, arm[:-1], len(b1), False)
    # bury the left run and recurse at i+1 around r_i b1 r_i, whose arm
    # t_i .. t_{n-1} moved up one index, kinds kept
    for _ in range(n - i):
        b.conj(b.word[0])
    _build_exchange(b, (-i,) + b1 + (-i,), _shift(arm[:-1], 1))

    # word = Y + reduced S b2 S^-1; build Y + b2 -> here and run it backwards
    Y = _pal(_virtual_arm(i, n), b1)
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
    _build_tail(b, _virtual_arm(c + 1, n))
    for j in range(c, 0, -1):
        b.conj(-j)
    return b.edges


# ---------------------------------------------------------------------------
# strand mirror (left-handed family)


def _mirror_edges(edges: list[Edge]) -> list[Edge]:
    """Map a right-handed trace through the index reversal j -> n+1-j.

    Right-handed chains, run backwards or not, take only M0, M1, M2
    destabilization and M4 steps.  The mirrored states are the mirrors of
    the states the trace holds, so no step is applied again; the turn
    around an exchange pair that does not lead the word is built anew, as
    three steps of a _Builder.
    Each state is mirrored once: an edge that starts where the last one
    ended reuses that mirror, and any other source, a gap included, is
    mirrored afresh for moves._edge_trace to judge."""
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
            # M5 needs the mirrored pair to lead the word, which it does
            # exactly when the M4 pair leads it here: else turn the last
            # letter to the front and back by conjugation
            if abs(src[1][0]) == N - 1:
                out.append((msrc, "M5", (), mdst))
            else:
                turn = _Builder(msrc)
                turn.conj(msrc[1][-1])
                turn.apply("M5", ())
                turn.conj(turn.word[0])
                out += turn.edges
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


def _req_kinds(kinds, span) -> tuple[int, ...]:
    if kinds is None:
        return tuple(span)
    if len(kinds) != len(span) or any(k not in ("s", "r") for k in kinds):
        raise PatternMismatch(f"kinds must give 's'/'r' for each of indices {list(span)}")
    return tuple([j if k == "s" else -j for j, k in zip(span, kinds)])


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
        raise PatternMismatch(f"unknown derived item {_quoted(item)}")
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

    # build the right-handed instance on the arm t_i .. t_n; a left item is
    # its mirror image, and the mirror of (k (x) w) in VT_{n+1} is the
    # mirror of w in VT_{n+1-k}
    arm = _req_kinds(kinds, range(1, i + 1) if mirror else range(i, n + 1))
    if mirror:
        arm = _mirror(N, arm)[::-1]
    tail = family.startswith("tail")
    if tail:
        inputs = [(n, _req_word(beta, n, "beta"))]
    else:
        ir = abs(arm[0])
        inputs = [(ir, _req_word(beta1, ir, "beta1")), (n, _req_word(beta2, n, "beta2"))]
    subs = [_mirror(*s) for s in inputs] if mirror else [t for _, t in inputs]
    if tail:
        # the right side is beta as given, in either hand
        start, rhs = (N, subs[0] + _pal(arm[1:], arm[:1])), inputs[0]
    else:
        b1, b2 = subs
        start = (N, _pal(arm, b1) + b2)
        rhs = _pal(_virtual_arm(ir, n), b1) + b2
        rhs = (N, _mirror(N, rhs) if mirror else rhs)
    lhs = (N, _mirror(*start)) if mirror else start
    b = _Builder(start)
    if tail:
        _build_tail(b, arm)
    elif b1:
        _build_exchange(b, b1, arm)
    # an empty b1 builds nothing: t_i t_i meet on both sides, which _edge_trace joins
    return _finish(item, lhs, rhs, _mirror_edges(b.edges) if mirror else b.edges)
