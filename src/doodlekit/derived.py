"""Derived Markov moves: the composite rewrites behind destabilization.

Each item rewrites a word pattern and returns a move-by-move trace that
replays under the atomic M0-M5 semantics of :mod:`doodlekit.markov`.

Right-handed items (words in VT_{n+1}, all on n >= 2):

    right-tail-real       b . s_n .. s_i .. s_n  ~  b                (b in VT_n)
    right-exchange-run    s_n .. s_i b1 s_i .. s_n b2  ~  all-virtual (b1 in VT_i)
    right-exchange-mixed  t_n .. t_i b1 t_i .. t_n b2  ~  all-virtual (t_j = s or r)
    right-tail-mixed      b . t_n .. t_{c+1} t_c t_{c+1} .. t_n  ~  b (center c)

The left-* items are the strand mirrors of these, and left-virtual-destab
is the rewrite (1 (x) b) r_1 ~ b, which is not an atomic move.

Construction strategy: the right tail and exchange items are built by an
inductive chain (exchange-move flip, mixed-relation pushes through the
nested palindrome, commutation sweeps, cyclic shifts, recursion, and a
final braid merge); mixed-kind arms are converted pair by pair, outside
in, by running the exchange chain forwards and backwards; the mixed tail
reduces to that plus an endgame.  Left-handed traces are produced by
mirroring right-handed ones through the index reversal j -> n+1-j, which
maps every splice rule to itself and swaps the left/right move families.
Degenerate instances whose two sides share a free reduction get a pure
square-deletion/insertion trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PatternMismatch
from .markov import (
    Budget,
    Edge,
    Equivalent,
    MoveTrace,
    State,
    _apply_int,
    _edge_trace,
    _from_int,
    _inverse_edges,
    _reduce,
    _square_edges,
    _to_int,
    equivalent_closures,
)
from .words import TwinWord


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
            raise PatternMismatch(
                f"derived step {tag} {params} does not apply to {self.state}"
            )
        self.edges.append((self.state, tag, params, res))
        self.state = res

    def m0(self, rule: str, pos: int, extra: int | None = None) -> None:
        self.apply("M0", (rule, pos, extra) if extra is not None else (rule, pos))

    def comm(self, pos: int) -> None:
        self.m0("comm", pos)

    def conj(self, g: int) -> None:
        self.apply("M1", ("conj", g))

    def shift_left(self) -> None:
        self.apply("M1", ("shift", "left"))

    def shift_right(self) -> None:
        self.apply("M1", ("shift", "right"))

    def splice(self, edges: list[Edge]) -> None:
        for src, tag, params, dst in edges:
            if src != self.state:
                raise PatternMismatch("spliced sub-trace does not chain")
            self.apply(tag, params)

    def expect(self, t: tuple[int, ...]) -> None:
        if self.word != t:
            raise PatternMismatch(f"derived chain reached {self.word}, wanted {t}")


def _invert_edges(edges: list[Edge]) -> list[Edge]:
    """Edge list of the reversed path."""
    return [e for edge in reversed(edges) for e in _inverse_edges(*edge)]


def _search_edges(u: State, v: State, slack: int = 6) -> list[Edge]:
    """Bounded-search sub-trace between two states known to be equivalent.

    The left-virtual-destab trace and the exchange-run tail whose boundary
    cancelled into the conjugating runs are assembled here; instances are
    small and the resulting certificate replays like any other.
    """
    uw, vw = _from_int(u), _from_int(v)
    ml = max(len(u[1]), len(v[1])) + slack
    mn = max(u[0], v[0]) + 1
    verdict = equivalent_closures(uw, vw, Budget(200_000, ml, mn))
    if not isinstance(verdict, Equivalent):
        raise PatternMismatch(
            f"no bounded derivation found from '{uw}' to '{vw}'"
        )
    return [
        (_to_int(s.source), s.tag, s.params, _to_int(s.result))
        for s in verdict.trace.steps
    ]


# ---------------------------------------------------------------------------
# word patterns (int encoding: +i real, -i virtual)


def _tail_right(n: int, i: int) -> tuple[int, ...]:
    """s_n s_{n-1} .. s_i .. s_{n-1} s_n"""
    down = tuple(range(n, i, -1))
    return down + (i,) + tuple(reversed(down))


def _x_pattern(n: int, i: int, b1: tuple[int, ...]) -> tuple[int, ...]:
    """s_n .. s_i b1 s_i .. s_n"""
    down = tuple(range(n, i - 1, -1))
    return down + b1 + tuple(reversed(down))


def _y_pattern(n: int, i: int, b1: tuple[int, ...]) -> tuple[int, ...]:
    """r_n .. r_i b1 r_i .. r_n"""
    down = tuple(-x for x in range(n, i - 1, -1))
    return down + b1 + tuple(reversed(down))


def _kind_letter(kind: str, j: int) -> int:
    return j if kind == "s" else -j


# ---------------------------------------------------------------------------
# right-tail-real


def _build_tail_real(b: _Builder, n: int, i: int) -> None:
    """word = (reduced VT_n prefix) + tail_right(n, i)  ->  prefix."""
    tail = _tail_right(n, i)
    base = len(b.word) - len(tail)
    if base < 0 or b.word[base:] != tail:
        raise PatternMismatch("word does not end with the stabilization tail")
    if i == n:
        b.apply("M2", ("destab",))
        return
    b.apply("M4", ())
    # Push the virtual pair inward through the nested palindrome, then sweep
    # the nested virtual letters out to flanking runs.  A push or sweep step
    # can drop a letter pair into the word prefix (the prefix may end with
    # the very letter arriving at its boundary); every such contact only
    # consumes prefix-run letters that no later step touches, so tracking
    # the accumulated slippage keeps all later positions exact.
    slip = 0

    def tracked(op, pos, expected_delta, extra=None):
        nonlocal slip
        before = len(b.word)
        if extra is None:
            b.m0(op, pos - slip)
        else:
            b.m0(op, pos - slip, extra)
        slip += before + expected_delta - len(b.word)

    ofs = base
    for k in range(n, i + 1, -1):
        tracked("mixs-grow", ofs, 2)
        zlen = 2 * (k - i) - 3
        for step in range(zlen):
            tracked("comm", ofs + 3 + step, 0)
        tracked("mix3", ofs + 3 + zlen, 0)
        ofs += 2
    tracked("mix3", ofs, 0)
    d = n - i
    for j in range(1, d):
        for step in range(j):
            tracked("comm", base + 2 * j - 1 - step, 0)
    nest_len = 4 * d - 1
    for j in range(1, d):
        p = base + nest_len - 1 - 2 * j
        for step in range(j):
            tracked("comm", p + step, 0)
    # conjugate the flanking runs away and recurse on the shorter tail
    for _ in range(d):
        b.shift_right()
    _build_tail_real(b, n, i + 1)
    for k in range(i, n):
        b.conj(-k)


# ---------------------------------------------------------------------------
# right-exchange-run


def _build_exchange_run(b: _Builder, n: int, i: int, b1: tuple[int, ...]) -> None:
    """word = X(n, i, b1) + b2  ->  Y(n, i, b1) + b2."""
    X = _x_pattern(n, i, b1)
    if b.word[: len(X)] != X:
        raise PatternMismatch("word does not start with the exchange pattern")
    b2 = b.word[len(X) :]
    b2len = len(b2)

    def flip_extremes() -> None:
        for _ in range(b2len):
            b.shift_right()
        b.apply("M4", ())
        for _ in range(b2len):
            b.shift_left()

    if i == n:
        flip_extremes()
        return

    flip_extremes()
    # pushes, bottom level included uniformly (b1 is nonempty here)
    ofs = 0
    for k in range(n, i, -1):
        b.m0("mixs-grow", ofs)
        zlen = 2 * (k - i - 1) + len(b1)
        for step in range(zlen):
            b.comm(ofs + 3 + step)
        b.m0("mix3", ofs + 3 + zlen)
        ofs += 2
    # outward sweep
    d = n - i
    for j in range(1, d):
        for step in range(j):
            b.comm(2 * j - 1 - step)
    nest_len = 4 * d + 2 + len(b1)
    for j in range(1, d):
        p = nest_len - 1 - 2 * j
        for step in range(j):
            b.comm(p + step)
    # bury the left run and recurse at i+1
    for _ in range(d):
        b.shift_left()
    b1p = (-i,) + b1 + (-i,)
    _build_exchange_run(b, n, i + 1, b1p)

    Y = _y_pattern(n, i, b1)
    rest = b.word[len(Y) :]
    if rest == b2:
        return
    s_run = tuple(-x for x in range(i, n))
    p_run = tuple(-x for x in range(n - 1, i - 1, -1))
    if rest == s_run + b2 + p_run:
        for _ in range(d):
            b.shift_right()
        _dance(b, n, i, b1, b2len)
        b.expect(Y + b2)
        return
    # a boundary of b2 cancelled into the conjugating runs; finish by search
    b.splice(_search_edges(b.state, (b.n, Y + b2)))


def _dance(b: _Builder, n: int, i: int, b1: tuple[int, ...], b2len: int) -> None:
    """Merge the flanking runs of P . Y(n, i, b1) . S . b2 into Y(n, i, b1) . b2."""
    for k in range(i, n):
        dk = n - k
        for step in range(dk - 1):
            b.comm(dk - 1 + step)
        q = len(b.word) - b2len - dk
        for step in range(dk - 1):
            b.comm(q - 1 - step)
        left = 2 * dk - 2
        b.m0("braid", left)
        right = 2 * dk + 2 * (k - i + 1) + len(b1) - 1
        b.m0("braid", right)
        stray = 2 * dk
        for step in range(2 * (k - i) + len(b1)):
            b.comm(stray + step)


# ---------------------------------------------------------------------------
# right-exchange-mixed


def _mid_letters(
    j: int, i: int, b1: tuple[int, ...], kinds: dict[int, str]
) -> tuple[int, ...]:
    """t_{j-1} .. t_i b1 t_i .. t_{j-1}"""
    out = [_kind_letter(kinds[m], m) for m in range(j - 1, i - 1, -1)]
    return tuple(out) + b1 + tuple(reversed(out))


def _build_exchange_mixed(
    b: _Builder, n: int, i: int, b1: tuple[int, ...], kinds: dict[int, str]
) -> None:
    """word = t_n .. t_i b1 t_i .. t_n + b2  ->  all-virtual version + b2."""
    lead = len(_mid_letters(n + 1, i, b1, kinds))
    b2 = b.word[lead:]
    for j in range(n, i - 1, -1):
        mid = _mid_letters(j, i, b1, kinds)
        if kinds[j] == "r":
            continue
        if j < n:
            blk = (j,) + mid + (j,)
            scratch = _Builder((b.n, _x_pattern(n, j + 1, blk) + b2))
            _build_exchange_run(scratch, n, j + 1, blk)
            if scratch.state != b.state:
                raise PatternMismatch("kind-flip scratch trace mismatch")
            b.splice(_invert_edges(scratch.edges))
        _build_exchange_run(b, n, j, mid)


# ---------------------------------------------------------------------------
# right-tail-mixed


def _build_tail_mixed(
    b: _Builder, n: int, c: int, kinds: dict[int, str], blen: int
) -> None:
    """word = beta + t_n .. t_{c+1} t_c t_{c+1} .. t_n  ->  beta."""
    if c == n:
        b.apply("M2", ("destab",))
        return
    for _ in range(blen):
        b.shift_left()
    tc = _kind_letter(kinds[c], c)
    _build_exchange_mixed(b, n, c + 1, (tc,), kinds)
    # word = r_n .. r_{c+1} t_c r_{c+1} .. r_n + beta
    if tc < 0:
        # braid the palindrome outward stage by stage
        for k in range(c, n):
            center = n - c - 1
            b.m0("braid", center)
            for step in range(n - k - 1):
                b.comm(center - 1 - step)
            for step in range(n - k - 1):
                b.comm(center + 2 + step)
        for _ in range(n - c + 1):
            b.shift_left()
        b.apply("M2", ("destab",))
        for k in range(n - 1, c - 1, -1):
            b.conj(-k)
    else:
        blk = (c,)
        scratch = _Builder((b.n, _x_pattern(n, c + 1, blk) + b.word[2 * (n - c) + 1 :]))
        _build_exchange_run(scratch, n, c + 1, blk)
        if scratch.state != b.state:
            raise PatternMismatch("mixed-tail scratch trace mismatch")
        b.splice(_invert_edges(scratch.edges))
        for _ in range(blen):
            b.shift_right()
        _build_tail_real(b, n, c)


# ---------------------------------------------------------------------------
# strand mirror (left-handed family)


def _mirror_state(state: State) -> State:
    n, t = state
    return n, tuple((n - abs(a)) * (1 if a > 0 else -1) for a in t)


def _virtual_destab_edges(beta: State) -> list[Edge]:
    """(1 (x) beta) r_1  ->  beta, assembled by bounded search."""
    nb, tb = beta
    lifted = tuple(a + 1 if a > 0 else a - 1 for a in tb) + (-1,)
    return _search_edges((nb + 1, lifted), beta)


def _mirror_edges(edges: list[Edge]) -> list[Edge]:
    """Map a right-handed trace through the index reversal j -> n+1-j."""
    out: list[Edge] = []

    def emit(src: State, tag: str, params: tuple, dst: State) -> None:
        got = _apply_int(src, tag, params)
        if got != dst:
            raise PatternMismatch(f"mirrored step {tag} {params} failed")
        out.append((src, tag, params, dst))

    for src, tag, params, dst in edges:
        msrc, mdst = _mirror_state(src), _mirror_state(dst)
        N = src[0]
        if tag == "M0":
            if len(params) > 2:
                h = params[2]
                mh = (N - abs(h)) * (1 if h > 0 else -1)
                params = (params[0], params[1], mh)
            emit(msrc, "M0", params, mdst)
        elif tag == "M1" and params[0] == "conj":
            g = params[1]
            mg = (N - abs(g)) * (1 if g > 0 else -1)
            emit(msrc, "M1", ("conj", mg), mdst)
        elif tag == "M1":
            emit(msrc, "M1", params, mdst)
        elif tag == "M2" and params[0] == "stab":
            if params[1] == "s":
                emit(msrc, "M3", ("stab",), mdst)
            else:
                sub = _invert_edges(_virtual_destab_edges(msrc))
                for e in sub:
                    emit(*e)
        elif tag == "M2":
            if src[1][-1] > 0:
                emit(msrc, "M3", ("destab",), mdst)
            else:
                for e in _virtual_destab_edges(mdst):
                    emit(*e)
        elif tag == "M3" and params[0] == "stab":
            emit(msrc, "M2", ("stab", "s"), mdst)
        elif tag == "M3":
            emit(msrc, "M2", ("destab",), mdst)
        elif tag == "M4":
            # mirrored pattern has its index-1 pair at (p, end); expose a
            # leading pair for M5 when needed
            if _apply_int(msrc, "M5", ()) == mdst:
                emit(msrc, "M5", (), mdst)
            else:
                step1 = _apply_int(msrc, "M1", ("shift", "right"))
                emit(msrc, "M1", ("shift", "right"), step1)
                step2 = _apply_int(step1, "M5", ())
                emit(step1, "M5", (), step2)
                emit(step2, "M1", ("shift", "left"), mdst)
        elif tag == "M5":
            if _apply_int(msrc, "M4", ()) == mdst:
                emit(msrc, "M4", (), mdst)
            else:
                step1 = _apply_int(msrc, "M1", ("shift", "left"))
                emit(msrc, "M1", ("shift", "left"), step1)
                step2 = _apply_int(step1, "M4", ())
                emit(step1, "M4", (), step2)
                emit(step2, "M1", ("shift", "right"), mdst)
        else:
            raise PatternMismatch(f"cannot mirror move {tag}")
    return out


# ---------------------------------------------------------------------------
# public entry point


@dataclass(frozen=True)
class DerivedMove:
    item: str
    lhs: TwinWord
    rhs: TwinWord
    trace: MoveTrace


def _finish(item: str, lhs_state: State, rhs_state: State, edges: list[Edge]) -> DerivedMove:
    lhs, rhs = _from_int(lhs_state), _from_int(rhs_state)
    trace = _edge_trace(lhs, edges)
    if not trace.replay() or trace.end != rhs:
        raise PatternMismatch(f"derived trace for {item} failed to replay")
    return DerivedMove(item, lhs, rhs, trace)


def _req_word(w: TwinWord | None, strands: int, label: str) -> tuple[int, ...]:
    if w is None:
        return ()
    if w.strands != strands:
        raise PatternMismatch(f"{label} must live in VT_{strands}")
    t = _to_int(w)[1]
    if _reduce(t) != t:
        raise PatternMismatch(f"{label} must be free-reduced")
    return t


def _req_kinds(kinds, span, label="kinds"):
    if kinds is None:
        kinds = ["s"] * len(span)
    if len(kinds) != len(span) or any(k not in ("s", "r") for k in kinds):
        raise PatternMismatch(
            f"{label} must give 's'/'r' for each of indices {list(span)}"
        )
    return dict(zip(span, kinds))


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
    carry the strand counts stated by the item.
    """
    if n < 2:
        raise PatternMismatch("derived moves need n >= 2")
    mirror = item.startswith("left-")
    N = n + 1

    if item == "left-virtual-destab":
        bt = _req_word(beta, n, "beta")
        lifted = tuple(a + 1 if a > 0 else a - 1 for a in bt) + (-1,)
        edges = _virtual_destab_edges((n, bt))
        return _finish(item, (N, lifted), (n, bt), edges)

    families = {
        "tail-real": "1",
        "exchange-run": "2",
        "exchange-mixed": "3",
        "tail-mixed": "4",
    }
    side, _, family = item.partition("-")
    if side not in ("right", "left") or family not in families:
        raise PatternMismatch(f"unknown derived item {item!r}")
    sub = families[family]
    if i is None or not 1 <= i <= n:
        raise PatternMismatch(f"item {item} needs 1 <= i <= n")

    # assemble the right-handed instance; left items mirror (i, words, kinds)
    if mirror:
        ir = n + 1 - i

        def mword(w: tuple[int, ...], amb: int) -> tuple[int, ...]:
            return tuple((amb - abs(a)) * (1 if a > 0 else -1) for a in w)

    else:
        ir = i

    if sub == "1":
        bt = _req_word(beta, n, "beta")
        if mirror:
            # (1 (x) beta) s_1 .. s_i .. s_1 mirrors to beta' tail(n, n+1-i)
            lift = tuple(a + 1 if a > 0 else a - 1 for a in bt)
            bt_r = mword(lift, N)
            lhs = lift + tuple(
                list(range(1, i)) + [i] + list(range(i - 1, 0, -1))
            )
            rhs_state = (n, bt)
        else:
            bt_r = bt
            lhs = bt + _tail_right(n, i)
            rhs_state = (n, bt)
        b = _Builder((N, bt_r + _tail_right(n, ir)))
        _build_tail_real(b, n, ir)
        b.expect(bt_r)
        edges = _mirror_edges(b.edges) if mirror else b.edges
        return _finish(item, (N, lhs), rhs_state, edges)

    if sub in ("2", "3"):
        span = range(1, i + 1) if mirror else range(i, n + 1)
        kd = _req_kinds(kinds, span) if sub == "3" else {j: "s" for j in span}
        if mirror:
            b1t = _req_word(beta1, n + 1 - i, "beta1")
            b2t = _req_word(beta2, n, "beta2")
            # mirror of t_1 .. t_i (i (x) b1) t_i .. t_1 (1 (x) b2)
            b1_lift = tuple(a + i if a > 0 else a - i for a in b1t)
            b2_lift = tuple(a + 1 if a > 0 else a - 1 for a in b2t)
            arm = [_kind_letter(kd[j], j) for j in range(i, 0, -1)]

            def left_pattern(arm_letters):
                up = list(reversed(arm_letters))
                return tuple(up) + b1_lift + tuple(arm_letters)

            lhs = left_pattern(arm) + b2_lift
            rhs = left_pattern([-abs(a) for a in arm]) + b2_lift
            b1_r = mword(b1_lift, N)
            b2_r = mword(b2_lift, N)
            kd_r = {N - j: kd[j] for j in span}
        else:
            b1t = _req_word(beta1, i, "beta1")
            b2t = _req_word(beta2, n, "beta2")
            arm = [_kind_letter(kd[j], j) for j in range(n, i - 1, -1)]
            lhs = tuple(arm) + b1t + tuple(reversed(arm)) + b2t
            rhs = (
                tuple(-abs(a) for a in arm)
                + b1t
                + tuple(-abs(a) for a in reversed(arm))
                + b2t
            )
            b1_r, b2_r, kd_r = b1t, b2t, kd
        if _reduce(lhs) != lhs or _reduce(rhs) != rhs:
            return _finish(item, (N, lhs), (N, rhs), _square_edges(N, lhs, rhs))
        if mirror:
            lhs_r = _mirror_state((N, lhs))[1]
            b = _Builder((N, lhs_r))
            _build_exchange_mixed(b, n, n + 1 - i, b1_r, kd_r)
            edges = _mirror_edges(b.edges)
        else:
            b = _Builder((N, lhs))
            _build_exchange_mixed(b, n, i, b1_r, kd_r)
            edges = b.edges
        return _finish(item, (N, lhs), (N, rhs), edges)

    # sub == "4": center index i, arms i+1..n (right) / mirrored (left)
    bt = _req_word(beta, n, "beta")
    span = range(1, i + 1) if mirror else range(i, n + 1)
    kd = _req_kinds(kinds, span)
    if mirror:
        lift = tuple(a + 1 if a > 0 else a - 1 for a in bt)
        arm = [_kind_letter(kd[j], j) for j in range(1, i + 1)]
        lhs = lift + tuple(arm) + tuple(reversed(arm[:-1]))
        bt_r = mword(lift, N)
        c_r = n + 1 - i
        kd_r = {N - j: kd[j] for j in span}
        b = _Builder((N, bt_r + _pal_tail(n, c_r, kd_r)))
        _build_tail_mixed(b, n, c_r, kd_r, len(bt_r))
        b.expect(bt_r)
        edges = _mirror_edges(b.edges)
        return _finish(item, (N, lhs), (n, bt), edges)
    lhs = bt + _pal_tail(n, i, kd)
    b = _Builder((N, lhs))
    _build_tail_mixed(b, n, i, kd, len(bt))
    b.expect(bt)
    return _finish(item, (N, lhs), (n, bt), b.edges)


def _pal_tail(n: int, c: int, kinds: dict[int, str]) -> tuple[int, ...]:
    """t_n .. t_{c+1} t_c t_{c+1} .. t_n"""
    down = [_kind_letter(kinds[j], j) for j in range(n, c, -1)]
    return tuple(down) + (_kind_letter(kinds[c], c),) + tuple(reversed(down))
