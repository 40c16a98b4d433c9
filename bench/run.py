#!/usr/bin/env python3
"""thetaforge benchmark: three closed-loop workloads in one process, one thread.

    python3 bench/run.py --workload errfn|theta|certify --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src. With
--trace 0 the last line of stdout is the end-to-end result of the workload;
with --trace 1 it is the per-layer result of a traced run (spans kept in
memory and written to .bench_runs/). The line before it is a JSON record of
the run: versions, nproc, rounds, sample counts and per-operation medians.
Exit code 0 means every output passed its check apart from the known
faults; 1 means some output was wrong; 2 means the library is not there.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("errfn", "theta", "certify")
END_TO_END_UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "throughput_ops_s": "1/s", "peak_rss_mb": "MB"}


def pinned_env() -> dict:
    """This process's environment with BLAS/OpenMP pinned to one thread, the
    library's own thread pool off, and ./src first on the import path."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("THETA_FORGE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def load(name: str):
    import importlib

    return importlib.import_module(f"tfbench.{name}").Workload()


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def judge(workload, records) -> tuple:
    """(failed, correct, unexpected misses, known faults met): every record
    is checked; a miss keeps `correct` only when the workload names it as a
    known fault. A check that raises counts as a miss."""
    from tfbench.core import Verdict

    failed = 0
    unexpected = []
    faults: dict = {}
    for rec in records:
        try:
            v = workload.check(rec)
        except Exception as exc:
            v = Verdict(False, f"check raised {type(exc).__name__}: {exc}")
        if v.ok:
            continue
        failed += 1
        if v.fault is None:
            unexpected.append(f"{rec.op.kind}: {v.reason}")
        else:
            faults[v.fault] = faults.get(v.fault, 0) + 1
    return failed, not unexpected, unexpected, faults


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "thetaforge" / "__init__.py").is_file():
        sys.stderr.write(f"thetaforge sources not found under {SRC}\n")
        return 2
    env = pinned_env()
    os.environ.update({k: env[k] for k in THREAD_VARS})  # before numpy loads
    os.environ.pop("THETA_FORGE_THREADS", None)
    sys.path.insert(0, str(SRC))

    from tfbench import core

    if args.setup_only:
        load(args.workload).setup(args.seed)
        print("READY", flush=True)
        return 0

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}
    if args.trace == 0:
        samples = core.setup_samples([sys.executable, str(Path(__file__).resolve()),
                                      "--workload", args.workload, "--seed", str(args.seed),
                                      "--seconds", str(args.seconds)], SETUP_SAMPLES, env)
        workload = load(args.workload)
        workload.setup(args.seed)
        records, wall, rounds, rss = core.timed_phase(workload, args.seconds)
        lat = core.latency_summary(records)
        metrics = {"setup_s": core.median(samples), "latency_p50_ms": 1e3 * lat["p50_s"],
                   "latency_tail_ms": 1e3 * lat["tail_s"],
                   "throughput_ops_s": core.throughput(records, rounds), "peak_rss_mb": rss}
        units = END_TO_END_UNITS
        info.update(setup_samples_s=samples, wall_s=wall, rounds=rounds, latency=lat,
                    ops_per_wall_s=len(records) / wall)
    else:
        from tfbench.layers import METRICS, Probes

        workload = load(args.workload)
        workload.setup(args.seed)
        tracer = core.Tracer()
        records, traced, untraced, rounds = core.traced_phase(workload, args.seconds, tracer)
        metrics = Probes(tracer, ROOT, env).run_all()
        metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        units = dict(METRICS, **{"trace.overhead_pct": "%"})
        info.update(traced_s=traced, untraced_s=untraced, rounds=rounds)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "spans": tracer.as_json()}) + "\n")
        info["trace_file"] = str(trace_file.relative_to(ROOT))

    t0 = time.perf_counter()
    failed, correct, unexpected, faults = judge(workload, records)
    info.update(check_s=time.perf_counter() - t0, known_faults=faults,
                unexpected=unexpected[:5], per_op=core.per_kind(records),
                env=core.environment())
    for line in unexpected[:5]:
        sys.stderr.write(f"wrong output: {line}\n")
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
