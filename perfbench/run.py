"""covband benchmark: one workload per user-facing job, measured end to end.

    python3 perfbench/run.py --workload select-p1000 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each run starts fresh workload processes
(``worker.py``) with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS removed, so the program's own thread default governs.

``--trace 0``: ``SETUPS - 1`` set-up-only processes, then one timed process;
``setup_s`` is the median set-up time over all of them (process start until
the first op is ready: interpreter start, import, input generation).

``--trace 1``: one process alternating untraced and traced ops, for the
per-layer numbers and the tracing overhead, then one traced op in a process
started with OPENBLAS_NUM_THREADS=1, reported under ``t1.``.

The last stdout line is the result JSON; the lines before it give the
environment, the op count and any failed op.  Files go to ``.perfbench_work``
(removed when the run ends) and traced spans to ``.perfbench_out`` in the
checkout.  Importing this module loads no numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import LAYERS, UNMEASURED  # noqa: E402

WORKLOAD_NAMES = ("select-p1000", "select-operator-p400", "forecast-cholesky", "sim-table1")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 5
DEADLINE_S = 170.0  # the whole run, every process included

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
}
# Layer metrics an optimisation is expected to move; see BENCHMARK.json.
PER_LAYER = {
    **{f"{layer}.{stat}": unit for layer in LAYERS
       for stat, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))},
    "traced.op_p50_s": "s",
    "untraced.op_p50_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_frac": "ratio",
    "t1.op_s": "s",
    **{f"t1.{layer}.self_s": "s" for layer in LAYERS},
}


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, deadline: float, *, seconds: float = 0.0, pattern: str = "0",
          setup_only: bool = False, blas_threads: str | None = None, spans_out: str | None = None):
    """Run one worker process to completion; return (its result, its set-up time)."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}-{time.monotonic_ns()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--pattern", pattern, "--work-dir", work_dir]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for another workload process")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerFailed(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready_at"] - started


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        spans_out = os.path.join(ROOT, ".perfbench_out", f"spans-{workload}-seed{seed}.json")
        res, _ = spawn(workload, seed, deadline, seconds=seconds, pattern="01", spans_out=spans_out)
        t1, _ = spawn(workload, seed, deadline, pattern="1", blas_threads="1")
        traced_p50 = statistics.median(res["traced_walls"])
        untraced_p50 = statistics.median(res["untraced_walls"])
        layers = res["layers"]
        metrics = {f"{layer}.{stat}": layers[layer][stat] for layer in LAYERS for stat in ("calls", "self_s", "errors")}
        metrics.update({
            "traced.op_p50_s": traced_p50,
            "untraced.op_p50_s": untraced_p50,
            "trace.overhead_s": traced_p50 - untraced_p50,
            "trace.self_sum_frac": sum(v["self_s"] for v in layers.values()) / res["traced_mean_s"],
            "t1.op_s": t1["traced_mean_s"],
            **{f"t1.{layer}.self_s": t1["layers"][layer]["self_s"] for layer in LAYERS},
        })
        units = PER_LAYER
        runs = [res, t1]
        idle = [layer for layer in LAYERS if layers[layer]["calls"] == 0]
        notes = [f"unmeasured layers (on no workload path): {', '.join(UNMEASURED)}",
                 f"layers this workload never calls (their metrics read 0): {', '.join(idle) or 'none'}",
                 f"spans written to {os.path.relpath(spans_out, ROOT)}",
                 f"t1 env: {json.dumps(t1['env'])}"]
    else:
        setups = [spawn(workload, seed, deadline, setup_only=True)[1] for _ in range(SETUPS - 1)]
        res, setup = spawn(workload, seed, deadline, seconds=seconds)
        setups.append(setup)
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(res["untraced_walls"]),
            "ops_per_s": res["ops"] / res["measured_s"],
            "cpu_per_op_s": res["cpu_s"] / res["ops"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
        runs = [res]
        notes = []
    attempted = sum(r["ops"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    return {
        "env": res["env"],
        "notes": notes,
        "walls": res["untraced_walls"] + res["traced_walls"],
        "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def report(workload: str, out: dict) -> None:
    res = out["result"]
    print(f"env: {json.dumps(out['env'])}")
    for note in out["notes"]:
        print(note)
    for f in out["failures"]:
        print(f"FAILED op {f['op']} (--seed {f['seed']}): {f['problem']}")
    print(f"{workload}: {res['attempted']} ops, {res['failed']} failed "
          f"(fail_frac {res['failed'] / res['attempted']:g}); op wall times "
          + " ".join(f"{w:.3f}" for w in out["walls"]) + " s")
    for name, m in res["metrics"].items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description="covband benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        outs = [(name, run_workload(name, args.seed, args.seconds, bool(args.trace))) for name in names]
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, out in outs:
        report(name, out)
    if args.workload != "all":
        print(json.dumps(outs[0][1]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
