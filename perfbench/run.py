"""Benchmark of coronakit: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: resistance-both, pair-queries, kirchhoff-factors, verify-corpus
(see README.md).  The run pins BLAS to one thread and imports numpy and
scipy; set-up time starts after that.  The run is made of rounds.  Each
round imports coronakit afresh (from ``src/`` of this checkout), sets the
workload up, and then runs every operation of the workload once in a closed
loop, one caller issuing the next operation when the previous one has
returned.  Rounds go on until set-ups and operations have taken
``--seconds``, at least 100 operations have run and at least four rounds are
done.
``setup_s`` is the median set-up and an operation's time is its median
over the rounds.  Outputs are checked untimed against an independent
reference; a failure of any operation but the one known fault the workload
names makes the run incorrect.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer figures with
``--trace 1``.  A fuller record, with the environment, goes to
``perfbench/results/``.
"""
from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
# before numpy is imported: BLAS reads these once, when it loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 100
# A short set-up is repeated up to SETUP_REPS times per round, while the
# round's set-ups have taken less than SETUP_REPEAT_S, for more samples of it.
SETUP_REPS = 3
SETUP_REPEAT_S = 0.5
MIN_ROUNDS = 4  # at least two of each kind when tracing


def fresh_import(layers):
    """Import coronakit and its layer modules anew; return {layer: module}."""
    for name in [m for m in sys.modules if m == "coronakit" or m.startswith("coronakit.")]:
        del sys.modules[name]
    importlib.import_module("coronakit")
    return {layer: importlib.import_module(f"coronakit.{layer}") for layer in layers}


class Timings:
    """Durations of every set-up and timed operation, kept apart for traced rounds."""

    def __init__(self, labels: list[str]) -> None:
        self.labels = labels
        self.plain = [[] for _ in labels]
        self.traced = [[] for _ in labels]
        self.setups = {False: [], True: []}  # set-up of each round, untraced and traced
        self.rounds = {False: [], True: []}  # round totals, untraced and traced
        self.spans = []  # (set-up, round) tracer snapshots of each traced round

    def typical(self, traced: bool = False) -> list[float]:
        """Each operation's median time over the rounds."""
        return [statistics.median(t) for t in (self.traced if traced else self.plain)]


def measure(workload, seed, workdir, seconds, tracer):
    """Time rounds of the workload, each on fresh set-ups; alternate untraced and traced rounds when tracing.

    Every round imports coronakit anew and sets the workload up again, so no
    program state carries over from one round to the next: work the program
    does on the first call and then reuses is paid in every round.  The
    round's operations run on its last set-up.
    """
    timings = None
    problems = []
    attempted = failed = 0
    spent = 0.0  # seconds of set-ups and operations so far
    reported, first = set(), {}
    while True:
        n_rounds = len(timings.rounds[False]) + len(timings.rounds[True]) if timings else 0
        tracing = tracer is not None and n_rounds % 2 == 1
        setups = []
        while not setups or (len(setups) < SETUP_REPS and sum(setups) < SETUP_REPEAT_S):
            ops = op = modules = out = value = error = None  # the last objects go before the next set-up
            gc.collect()
            if tracer is not None:
                tracer.uninstall()
                tracer.reset()
            start = time.perf_counter()
            modules = fresh_import(spans.LAYERS)
            if tracing:
                tracer.install(modules)
            ops = workload(sys.modules["coronakit"], seed, workdir)
            setups.append(time.perf_counter() - start)
        if timings is None:
            timings = Timings([op.label for op in ops])
        if tracing:
            setup_spans = tracer.snapshot()
            tracer.reset()
        samples = timings.traced if tracing else timings.plain
        round_time = 0.0
        for k, op in enumerate(ops):
            error = None
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # the program's own failure; the run goes on
                error = exc
            elapsed = time.perf_counter() - start
            attempted += 1
            round_time += elapsed
            samples[k].append(elapsed)
            if error is None:
                try:
                    value = op.read(out)
                except workloads.OpFailed as exc:
                    error = exc
            if error is not None:
                failed += 1
                outcome = ("failed", type(error).__name__)
                if op.label not in reported:
                    reported.add(op.label)
                    print(f"failed: {op.label}: {type(error).__name__}: {error}", file=sys.stderr)
                    if not isinstance(error, workloads.OpFailed):
                        traceback.print_exception(error, limit=-3, file=sys.stderr)
                    if not op.may_fail:
                        problems.append(f"{op.label}: failed: {type(error).__name__}: {error}")
            else:
                outcome = ("ok", op.key(value))
            if k not in first:
                first[k] = outcome
                if error is None:
                    try:
                        op.check(value)
                    except checker.CheckError as exc:
                        problems.append(f"{op.label}: {exc}")
            elif outcome != first[k]:
                problems.append(f"{op.label}: outcome differs from its first round")
        if tracing:
            tracer.uninstall()
            timings.spans.append((setup_spans, tracer.snapshot()))
        timings.setups[tracing] += setups
        timings.rounds[tracing].append(round_time)
        spent += sum(setups) + round_time
        if spent >= seconds and attempted >= MIN_OPS and n_rounds + 1 >= MIN_ROUNDS:
            break
    return modules, timings, attempted, failed, problems


def blas_threads():
    """Thread count numpy's bundled OpenBLAS reports, or None where that is not readable."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn()
    return None


def environment():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("resistance-both", "pair-queries", "kirchhoff-factors", "verify-corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coronakit" / "__init__.py").is_file():
        print(f"error: no coronakit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tracer = spans.Tracer() if args.trace else None
    scratch = HERE / "tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workdir = Path(tmp)
        modules, timings, attempted, failed, problems = measure(
            workloads.WORKLOADS[args.workload], args.seed, workdir, args.seconds, tracer)
        ck = sys.modules["coronakit"]
        if not Path(ck.__file__).resolve().is_relative_to(SRC):
            print(f"error: coronakit imported from {ck.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        problems += [f"checker self-test: {p}" for p in checker.self_test(modules["cli"], workdir)]

    typical = timings.typical()
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(timings.setups[False]), "s"),
            "wall_s": (sum(typical), "s"),
            "op_p50_ms": (statistics.median(typical) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(typical, n=10)[8] * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        overhead = (sum(timings.typical(traced=True)) / sum(typical) - 1.0) * 100.0
        rounds = timings.rounds[True]
        middle = sorted(range(len(rounds)), key=rounds.__getitem__)[(len(rounds) - 1) // 2]
        figures = spans.per_layer(*timings.spans[middle], overhead)
        metrics = {name: (float(figures[name]), unit) for name, unit in spans.PER_LAYER.items()}

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "result": result,
        "problems": problems,
        "setup_s": timings.setups[False],
        "traced_setup_s": timings.setups[True],
        "round_s": timings.rounds[False],
        "traced_round_s": timings.rounds[True],
        "ops": {f"{k}:{label}": t for k, (label, t) in enumerate(zip(timings.labels, timings.plain))},
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("environment: " + json.dumps(record["environment"]))
    print(f"rounds: {len(timings.rounds[False])} untraced, {len(timings.rounds[True])} traced,"
          f" {len(timings.labels)} operations each")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
