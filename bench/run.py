#!/usr/bin/env python3
"""doodlekit benchmark: one workload, one client, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; doodlekit is imported from
``src/`` and only the standard library is used.  The next op starts when
the last one returns, in one process with no threads.  Inputs come from
the seed; every result is checked by the workload's oracle outside the
timed region.

With ``--trace 0`` the ops run in whole passes over the corpus until
``--seconds`` have elapsed (at least one pass), and the end-to-end metrics
are reported.  Times are corrected for contention from other tenants of
the machine (see ``Speed``).  With ``--trace 1`` the workload's fixed trace
set runs once untraced and once with every public doodlekit function
wrapped in a span recorder; the per-layer metrics come from those spans,
the spans are written to ``.bench_trace/``, and the overhead compares the
two passes.

A report with sample counts goes to stderr; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("words", "freegroup", "gauss", "alexander", "markov", "derived")
SETUP_REPEATS = 5
FAN_REPEATS = 3
REFERENCE_MS = 2.25  # reference() on a quiet core of the recording machine (bench/README.md)
REFERENCE_EVERY_S = 0.05
LONG_OP_S = 0.02  # shorter ops are never interrupted by a sample, and repeated
SHORT_OP_REPEATS = 3

PER_LAYER = (
    "markov.neighbors.us_per_fan",
    "markov.neighbors.fan_size",
    "markov.states_explored",
    "markov.equivalent_closures.ms",
    "markov.format_certificate.ms",
    "markov.verify_certificate.ms",
    "markov.cert_steps",
    "derived.search_fallback.calls",
    "derived.search_fallback.ms",
    "derived.apply_derived.ms",
    "derived.trace_steps",
    "gauss.closure_gauss.ms",
    "gauss.isomorphic.ms",
    "gauss.isomorphic_relabeled.ms",
    "gauss.crossings",
    "gauss.isomorphic.recursion_errors",
    "alexander.braid.ms",
    "alexander.braid.strands",
    "freegroup.mu.ms",
    "freegroup.separates.ms",
    "freegroup.mu.image_letters",
    "words.closure_components.us",
    *(f"layer.{layer}.self_ms" for layer in LAYERS),
    "trace.overhead_pct",
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def unit(name: str) -> str:
    for suffix, u in ((".us", "us"), ("us_per_fan", "us"), (".ms", "ms"),
                      ("self_ms", "ms"), ("_pct", "%")):
        if name.endswith(suffix):
            return u
    return "count"


def fresh_import() -> SimpleNamespace:
    """Import doodlekit from this checkout's src/, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "doodlekit" or k.startswith("doodlekit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("doodlekit")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "doodlekit":
        raise ImportError(f"doodlekit imported from {pkg.__file__}, not this checkout")
    return SimpleNamespace(**{l: importlib.import_module(f"doodlekit.{l}") for l in LAYERS})


def reference() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's current speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts, recent = {}, ()
        for i in range(8000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + 1
            recent = (i,) if len(recent) > 8 else recent + (i,)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Machine-speed samples, to correct measured times for contention.

    Other tenants of the machine slow all Python code by up to 1.7x, for
    seconds or for a whole run.  Inside ``with speed:`` a timer signal runs
    reference() every REFERENCE_EVERY_S, also in the middle of an op that
    has run for LONG_OP_S; a shorter op gets its sample when it returns.
    ``spent`` is the time those samples took, which timed code subtracts.
    ``corrected`` rescales a time measured over [start, end] by
    REFERENCE_MS over the mean loop time around that interval: the time an
    uncontended machine would have taken.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0
        self.op_start: Optional[float] = None  # start of the op being timed
        self._busy = False
        self._pending = False

    def _tick(self, *_signal) -> None:
        if self.op_start is not None and time.perf_counter() - self.op_start < LONG_OP_S:
            self._pending = True
        else:
            self.sample()

    def op_done(self) -> None:
        self.op_start = None
        if self._pending:
            self._pending = False
            self.sample()

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.took.append(reference())
        self.at.append(t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "Speed":
        self.sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def corrected(self, start: float, end: float, seconds: float) -> float:
        margin = 2 * REFERENCE_EVERY_S
        lo = bisect.bisect_left(self.at, start - margin)
        hi = bisect.bisect_right(self.at, end + margin)
        near = self.took[lo:hi] or self.took[max(0, lo - 1):lo + 1]
        return seconds * REFERENCE_MS * 1e-3 / statistics.fmean(near)


def setup(workload: str, seed: int, speed: Speed):
    """Import and build the inputs SETUP_REPEATS times; keep the last build."""
    timings = []
    with speed:
        for _ in range(SETUP_REPEATS):
            spent, t0 = speed.spent, time.perf_counter()
            m = fresh_import()
            corpus = workloads.BUILDERS[workload](m, seed, ROOT)
            t1 = time.perf_counter()
            timings.append((t0, t1, t1 - t0 - (speed.spent - spent)))
    return m, corpus, [speed.corrected(*t) for t in timings]


class Outcome:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.results: list = []

    def fail(self, why: str) -> None:
        if self.failed < 5:
            log(f"FAILED op: {why}")
        self.failed += 1


def run_op(op, out: Outcome, speed: Speed, call=None, keep=False):
    """Time one op net of speed sampling; check it, or keep it to check later.

    Returns (start, end, net seconds).
    """
    out.attempted += 1
    raised = None
    spent, t0 = speed.spent, time.perf_counter()
    speed.op_start = t0
    try:
        result = (call or op.run)()
    except Exception:  # a raising op is a failed op; keep measuring
        raised = traceback.format_exc(limit=3)
    t1 = time.perf_counter()
    timing = (t0, t1, t1 - t0 - (speed.spent - spent))
    speed.op_done()
    if raised is not None:
        out.fail(raised)
    elif keep:
        out.results.append((op, result))
    else:
        check(op, result, out)
    return timing


def check(op, result, out: Outcome) -> None:
    try:
        why = op.check(result)
    except Exception:  # an oracle that cannot even read the result rejects it
        why = traceback.format_exc(limit=3)
    if why is not None:
        out.fail(why)


def warm_up(ops) -> None:
    """Run the first op once, untimed and unchecked, so lazy set-up is done."""
    try:
        ops[0].run()
    except Exception:  # the timed runs count and report it
        pass


def measure(corpus, seconds: float, speed: Speed):
    """Whole passes over the corpus until `seconds` have elapsed.

    Returns the outcome and, per op, all its timings.
    """
    out = Outcome()
    timings: list[list[tuple]] = [[] for _ in corpus.ops]
    with speed:
        warm_up(corpus.ops)
        start = time.perf_counter()
        while True:
            for op, mine in zip(corpus.ops, timings):
                mine.append(run_op(op, out, speed))
                if mine[-1][2] < LONG_OP_S:  # a short op is timed SHORT_OP_REPEATS times
                    mine.extend(run_op(op, out, speed) for _ in range(SHORT_OP_REPEATS - 1))
            if time.perf_counter() - start >= seconds:
                return out, timings


def end_to_end(corpus, seconds: float, setup_times: list[float], speed: Speed):
    out, timings = measure(corpus, seconds, speed)
    # an op's latency: the median of its corrected times
    lat = [statistics.median(speed.corrected(*t) for t in ts) for ts in timings]
    raw = [statistics.median(t[2] for t in ts) for ts in timings]
    n = f"{len(lat)} ops, {sum(map(len, timings))} timings"
    log(f"reference loop: median {statistics.median(speed.took) * 1e3:.3f} ms over "
        f"{len(speed.took)} samples, nominal {REFERENCE_MS} ms; uncorrected: "
        f"ops_per_s {len(raw) / sum(raw):.4f}, op_ms_p50 {statistics.median(raw) * 1e3:.4f}")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": (len(lat) / sum(lat), "1/s", n),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms", n),
        "op_ms_p90": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms", n),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1),
    }
    return metrics, out.attempted, out.failed


def timed_pass(ops, out: Outcome, speed: Speed, tracer=None) -> float:
    """Corrected seconds one pass over ops takes; traced results are kept."""
    spent, t0 = speed.spent, time.perf_counter()
    for op in ops:
        if tracer is None:
            run_op(op, out, speed)
        else:
            run_op(op, out, speed, call=tracer.wrap("bench.op", "bench", op.run), keep=True)
    t1 = time.perf_counter()
    return speed.corrected(t0, t1, t1 - t0 - (speed.spent - spent))


def per_layer(m, corpus, workload: str, seed: int, speed: Speed):
    ops = corpus.trace_ops
    plain, traced = Outcome(), Outcome()
    # span times leave out the speed samples taken inside them
    tracer = spans.Tracer(lambda: time.perf_counter_ns() - round(speed.spent * 1e9))
    with speed:
        warm_up(ops)
        plain_s = timed_pass(ops, plain, speed)
        tracer.patch({layer: getattr(m, layer) for layer in LAYERS})
        tracer.patch_attr(workloads, "isomorphic_relabeled", "bench.isomorphic_relabeled", "bench")
        try:
            traced_s = timed_pass(ops, traced, speed, tracer)
        finally:
            tracer.restore()
    for op, result in traced.results:
        check(op, result, traced)

    out_path = ROOT / ".bench_trace" / f"{workload}-seed{seed}.jsonl.gz"
    tracer.write(out_path)
    log(f"spans: {len(tracer.spans)} written to {out_path.relative_to(ROOT)}")

    sp, own = tracer.spans, tracer.self_times()
    dur = [s[spans.END] - s[spans.START] for s in sp]
    calls = defaultdict(list)  # span name -> span indices
    for k, s in enumerate(sp):
        calls[s[spans.NAME]].append(k)

    def ms(name, times=dur, where=lambda k: True, scale=1e-6) -> float:
        picked = [times[k] for k in calls[name] if where(k)]
        return statistics.fmean(picked) * scale if picked else 0.0

    def relabeled(k) -> bool:
        parent = sp[k][spans.PARENT]
        return parent >= 0 and sp[parent][spans.NAME] == "bench.isomorphic_relabeled"

    def fallback(k) -> bool:
        return sp[k][spans.SITE] == "derived"

    values = {
        "markov.equivalent_closures.ms": ms("markov.equivalent_closures", own),
        "markov.format_certificate.ms": ms("markov.format_certificate"),
        "markov.verify_certificate.ms": ms("markov.verify_certificate"),
        "derived.search_fallback.calls": sum(map(fallback, calls["markov.equivalent_closures"])),
        "derived.search_fallback.ms": ms("markov.equivalent_closures", where=fallback),
        "derived.apply_derived.ms": ms("derived.apply_derived", own),
        "gauss.closure_gauss.ms": ms("gauss.closure_gauss"),
        "gauss.isomorphic.ms": ms("gauss.isomorphic", where=lambda k: not relabeled(k)),
        "gauss.isomorphic_relabeled.ms": ms("gauss.isomorphic", where=relabeled),
        "alexander.braid.ms": ms("alexander.braid"),
        "freegroup.mu.ms": ms("freegroup.mu"),
        "freegroup.separates.ms": ms("freegroup.separates"),
        "words.closure_components.us": ms("words.closure_components", scale=1e-3),
        "trace.overhead_pct": (traced_s / plain_s - 1) * 100,
    }
    for layer in LAYERS:
        total = sum(own[k] for k, s in enumerate(sp) if s[spans.NAME].startswith(layer + "."))
        values[f"layer.{layer}.self_ms"] = total * 1e-6 / len(ops)
    values.update(corpus.counts([r for _, r in traced.results]))

    fan_words = corpus.fan_sample()
    fan_us, fan_sizes = [], []
    for _ in range(FAN_REPEATS):
        for w in fan_words:
            t0 = time.perf_counter()
            fan = m.markov.neighbors(w)
            fan_us.append((time.perf_counter() - t0) * 1e6)
            fan_sizes.append(len(fan))
    values["markov.neighbors.us_per_fan"] = statistics.median(fan_us)
    values["markov.neighbors.fan_size"] = statistics.fmean(fan_sizes)
    if workload == "diagram_roundtrip":
        values["gauss.isomorphic.recursion_errors"] = workloads.recursion_probe(m, seed)

    samples = {name: len(ops) for name in PER_LAYER}
    samples["markov.neighbors.us_per_fan"] = len(fan_us)
    samples["markov.neighbors.fan_size"] = len(fan_sizes)
    metrics = {
        name: (values.get(name, 0), unit(name), samples[name]) for name in PER_LAYER
    }
    log(f"trace set: {len(ops)} ops, untraced {plain_s:.3f} s, traced {traced_s:.3f} s")
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    speed = Speed()
    m, corpus, setup_times = setup(args.workload, args.seed, speed)
    log(f"workload {args.workload} seed {args.seed} python {platform.python_version()} "
        f"nproc {os.cpu_count()}")
    log(f"params {json.dumps(corpus.params)}")
    log(f"sizes {json.dumps(corpus.sizes)}")

    if args.trace:
        metrics, attempted, failed = per_layer(m, corpus, args.workload, args.seed, speed)
    else:
        metrics, attempted, failed = end_to_end(corpus, args.seconds, setup_times, speed)
    for name, (value, u, n) in metrics.items():
        log(f"  {name:36s} {value:14.6f} {u:6s} samples={n}")
    log(f"attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
