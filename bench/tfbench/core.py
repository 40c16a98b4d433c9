"""Closed-loop runner shared by the workloads: rounds of operations, timing,
tail percentiles, set-up sampling and in-memory spans.

An operation is one call into the library. A workload hands out rounds: a
fixed list of operation types with inputs drawn from its seeded pools. The
timed phase runs whole rounds until the run length has passed, so every
run attempts the same mix and known-fault operations are always the same
share of the attempts.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (per-mille percentile, samples it needs so that >= 10 lie beyond it)
TAIL_LADDER = ((990, 1_000), (900, 100), (750, 40))


@dataclass
class Op:
    """One library call. `kind` names the operation type; `data` is what the
    check needs besides the call's result."""

    kind: str
    call: Callable[[], Any]
    data: Any = None


@dataclass
class Record:
    op: Op
    seconds: float
    result: Any = None
    error: BaseException | None = None


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    fault: str | None = None  # set when the miss is a named, known fault


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0


@dataclass
class Tracer:
    """Spans kept in memory and written out when the run ends."""

    spans: list = field(default_factory=list)

    def open(self, name: str, parent: int | None = None) -> Span:
        sp = Span(len(self.spans), name, parent, time.perf_counter_ns())
        self.spans.append(sp)
        return sp

    @staticmethod
    def close(sp: Span) -> None:
        sp.end_ns = time.perf_counter_ns()

    def as_json(self) -> list:
        return [{"id": s.sid, "name": s.name, "parent": s.parent,
                 "start_ns": s.start_ns, "end_ns": s.end_ns} for s in self.spans]


def run_op(op: Op) -> Record:
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        # keep the exception, not its tracebacks: their frames (also those of
        # the exception it was raised while handling) hold the call's arrays
        exc.__traceback__ = exc.__context__ = exc.__cause__ = None
        return Record(op, time.perf_counter() - t0, error=exc)
    return Record(op, time.perf_counter() - t0, result=result)


def run_round(ops: list, tracer: Tracer | None = None, round_index: int = 0) -> list:
    if tracer is None:
        return [run_op(op) for op in ops]
    rsp = tracer.open(f"round[{round_index}]")
    out = []
    for op in ops:
        sp = tracer.open(op.kind, rsp.sid)
        out.append(run_op(op))
        tracer.close(sp)
    tracer.close(rsp)
    return out


def timed_phase(workload, seconds: float) -> tuple:
    """Whole rounds until `seconds` have passed: (records, wall seconds,
    rounds, peak RSS in MB through the first round).

    The peak is taken after the first round, which holds every operation
    type once or more: later rounds add only stored results, and those pin
    memory freed by the large operations, so a peak over the whole phase
    would grow with the number of rounds, i.e. with the speed of the host.
    """
    records = []
    i = 0
    t0 = time.perf_counter()
    while True:
        records.extend(run_round(workload.round_ops(i)))
        if i == 0:
            rss = peak_rss_mb()
        i += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return records, time.perf_counter() - t0, i, rss


def traced_phase(workload, seconds: float, tracer: Tracer) -> tuple:
    """Each round twice on the same inputs, traced and untraced, alternating
    which goes first: (records, traced seconds, untraced seconds, rounds)."""
    records = []
    traced = untraced = 0.0
    i = 0
    t0 = time.perf_counter()
    while True:
        ops = workload.round_ops(i)
        for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
            s = time.perf_counter()
            records.extend(run_round(ops, tracer if with_trace else None, i))
            dt = time.perf_counter() - s
            if with_trace:
                traced += dt
            else:
                untraced += dt
        i += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return records, traced, untraced, i


def tail_percentile(n: int) -> int:
    """Highest ladder percentile (per mille) with at least 10 samples beyond it;
    500 (the median alone) below 40 samples."""
    for permille, need in TAIL_LADDER:
        if n >= need:
            return permille
    return 500


def nearest_rank(sorted_vals: list, permille: int) -> tuple:
    """(value, samples strictly beyond its rank) by the nearest-rank rule."""
    n = len(sorted_vals)
    rank = -(-permille * n // 1000)  # ceil without float rounding
    rank = min(max(rank, 1), n)
    return sorted_vals[rank - 1], n - rank


def median(vals: list) -> float:
    s = sorted(vals)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_samples(argv_base: list, k: int, env: dict, timeout: float = 120.0) -> list:
    """Set-up time of k fresh processes, each timed from launch to the line
    READY it prints when its set-up is done, run one after another."""
    out = []
    for _ in range(k):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv_base + ["--setup-only"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("set-up sample timed out")
        if line.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed (exit {proc.returncode}): {err.strip()}")
        out.append(t1 - t0)
    return out


def latency_summary(records: list) -> dict:
    lat = sorted(r.seconds for r in records)
    permille = tail_percentile(len(lat))
    tail, beyond = nearest_rank(lat, permille)
    return {"p50_s": median(lat), "tail_s": tail, "tail_percentile": permille / 10.0,
            "tail_beyond": beyond, "samples": len(lat)}


def throughput(records: list, rounds: int) -> float:
    """Operations a second of a round in which every operation takes the
    upper quartile (nearest rank) of its type's times in this run:
    operations per round divided by the sum over types of (count per round)
    x (upper quartile).

    The run makes whole rounds of one mix, so this is a wall-time rate of
    the workload, the one that three quarters of each type's calls keep up
    with. Operations over the whole wall time would follow the share of the
    run that the host spent in a fast or a slow spell; an upper quartile
    stays in the slow level the host holds most of the time unless a fast
    spell fills three quarters of the run.
    """
    kinds: dict = {}
    for r in records:
        kinds.setdefault(r.op.kind, []).append(r.seconds)
    round_s = sum(len(v) / rounds * nearest_rank(sorted(v), 750)[0] for v in kinds.values())
    return len(records) / rounds / round_s


def per_kind(records: list) -> dict:
    kinds: dict = {}
    for r in records:
        kinds.setdefault(r.op.kind, []).append(r.seconds)
    return {k: {"n": len(v), "median_ms": 1e3 * median(v)} for k, v in sorted(kinds.items())}


def environment() -> dict:
    import numpy
    import scipy
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": affinity, "cpu_count": os.cpu_count(),
            "platform": sys.platform}

