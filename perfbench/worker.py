"""One workload process: set up, run the closed loop, check every op, report.

Started by ``run.py`` with the BLAS thread variables it chose.  covband is
imported first, from the checkout's ``src``, so no other module loads
numpy (and with it OpenBLAS) before the package does.  The last stdout line
is one JSON object for ``run.py``.

Closed loop, one client: op ``i+1`` starts only when op ``i`` has returned,
and ops are started until ``--seconds`` have passed and each character
of ``--pattern`` has had its op.
``--pattern`` says which ops are traced, cycling over its characters: ``0``
untraced, ``1`` traced.  Checks run after the loop, outside the timed region.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import covband.cli  # noqa: E402  (must load before numpy)

if not os.path.abspath(covband.cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"covband was imported from {covband.cli.__file__}, not from {SRC}")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer, layer_summary  # noqa: E402
from workloads import WORKLOADS, CheckFailed, op_seed  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas(lib_glob: str, suffix: str) -> tuple[str | None, int | None]:
    """(config string, thread count) reported by the OpenBLAS library matching the glob."""
    paths = glob.glob(lib_glob)
    if not paths:
        return None, None
    lib = ctypes.CDLL(paths[0])
    get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_config().decode(), int(get_threads())


def environment() -> dict:
    np_config, np_threads = _openblas(
        os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"),
        "64_",
    )
    sp_config, sp_threads = _openblas(
        os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs", "libscipy_openblas-*.so"),
        "",
    )
    cpu_model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": np_config,
        "scipy_openblas": sp_config,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "numpy_openblas_threads": np_threads,
        "scipy_openblas_threads": sp_threads,
    }


def run_op(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = covband.cli.main(argv)
        except Exception:  # a crash is a failed op, not a failed benchmark
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--pattern", default="0", help="which ops are traced, e.g. 0, 1 or 01")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True, help="scratch directory, removed at exit")
    parser.add_argument("--spans-out", help="where the traced run writes its spans")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    os.makedirs(args.work_dir)
    try:
        inputs = workload.make_inputs(args.seed, args.work_dir)
        ready_at = time.monotonic()
        result = {"ready_at": ready_at, "env": environment()}
        if not args.setup_only:
            result.update(measure(workload, inputs, args))
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(workload, inputs: dict, args) -> dict:
    tracer = Tracer()
    ops = []
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    while len(ops) < len(args.pattern) or time.perf_counter() - t0 < args.seconds:
        i = len(ops)
        traced = args.pattern[i % len(args.pattern)] == "1"
        out_dir = os.path.join(args.work_dir, f"op{i}")
        os.mkdir(out_dir)
        seed = op_seed(args.seed, i)
        argv = workload.argv(inputs, seed, out_dir)
        if traced:
            tracer.op = i
            tracer.install()
        try:
            start = time.perf_counter()
            code, out, err = run_op(argv)
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        ops.append({"i": i, "seed": seed, "traced": traced, "wall_s": wall,
                    "code": code, "stdout": out, "stderr": err, "out_dir": out_dir})
    measured = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    for op in ops:
        problem = None
        if op["code"] != 0:
            problem = f"exit code {op['code']}: {op['stderr'].strip()}"
        else:
            try:
                workload.check(inputs, op["seed"], op["out_dir"], op["stdout"])
            except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failures.append({"op": op["i"], "seed": op["seed"], "problem": problem})

    walls = {flag: [op["wall_s"] for op in ops if op["traced"] == flag] for flag in (False, True)}
    traced_ops = len(walls[True])
    result = {
        "ops": len(ops),
        "failures": failures,
        "measured_s": measured,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "untraced_walls": walls[False],
        "traced_walls": walls[True],
    }
    if traced_ops:
        layers = layer_summary(tracer.spans)
        for stats in layers.values():  # per traced op
            for key in stats:
                stats[key] /= traced_ops
        result["layers"] = layers
        result["traced_mean_s"] = statistics.fmean(walls[True])
        if args.spans_out:
            os.makedirs(os.path.dirname(args.spans_out), exist_ok=True)
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump([dataclasses.asdict(s) for s in tracer.spans], fh)
    return result


if __name__ == "__main__":
    sys.exit(main())
