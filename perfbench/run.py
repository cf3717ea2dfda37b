"""hkit benchmark: four workloads through the public library functions and the
`hkit` command line, with exact output checks and an optional traced run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the repository root; hkit is imported from ./src. Load is one
closed loop in one process: the next operation starts when the previous one
has ended. A pass runs every input of the workload once. Passes repeat until
the next one would end after --seconds, but at least the workload's minimum
number of passes run. Every timed interval is scaled to the host's fast
speed by reference work timed alongside it (pipeline.Speedometer), and each
operation's time is the median of its scaled repeats.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics. With --trace 1 untraced and traced passes alternate, it holds the
per-layer metrics, and the spans of the last traced pass go to
perfbench/out/trace-<workload>.json.
"""

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import inputs
import pipeline
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LIB_MODULES = ("errors", "intmat", "arrangement", "hypertoric", "localmodel", "characterization")
SETUP_REPEATS = 5
INTERPRETER_RUNS = 5


@dataclass(frozen=True)
class Workload:
    make: object  # seed -> list of inputs
    min_passes: int
    cli: bool = False


WORKLOADS = {
    "corpus": Workload(inputs.corpus_inputs, 1),
    "kladder": Workload(inputs.kladder_inputs, 3),
    "wide": Workload(inputs.wide_inputs, 3),
    "cli": Workload(inputs.cli_jobs, 3, cli=True),
}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
CLI_METRICS = ("cli.process_ms", "cli.in_process_ms", "cli.startup_ms", "cli.interpreter_ms")


def import_hkit():
    """Import hkit afresh from ./src; the timed part of set-up."""
    for name in [k for k in sys.modules if k == "hkit" or k.startswith("hkit.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"hkit.{m}") for m in LIB_MODULES})
    if Path(lib.intmat.__file__).resolve().parent != SRC / "hkit":
        raise SystemExit(f"perfbench: hkit was imported from {lib.intmat.__file__}, not {SRC}")
    return lib


def setup(work, seed):
    """Import hkit and build the inputs; the part that setup_s times."""
    lib = import_hkit()
    items = work.make(seed)
    if not work.cli:
        for inp in items:
            inp.matrix = lib.intmat.IntMatrix(inp.rows, cols=inp.n)
    return lib, items


def cli_env():
    """A scrubbed environment: no HKIT_BUDGET or other PYTHON* settings."""
    env = {k: v for k, v in os.environ.items() if k in ("PATH", "LANG", "LC_ALL", "HOME")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_pass(op, items, tracer=None):
    """[(input id, seconds in hkit, failures)] for one pass over the inputs."""
    results = []
    for item in items:
        if tracer is not None:
            tracer.input_id = item.id
        seconds, failures = op(item)
        results.append((item.id, seconds, failures))
    return results


def per_op(passes):
    """{input id: the median of its repeats, in seconds}."""
    repeats = {}
    for results in passes:
        for item_id, seconds, _ in results:
            repeats.setdefault(item_id, []).append(seconds)
    return {k: statistics.median(v) for k, v in repeats.items()}


def percentile(values, p):
    """Nearest-rank percentile and the number of values above it."""
    ordered = sorted(values)
    k = max(0, math.ceil(p / 100 * len(ordered)) - 1)
    return ordered[k], len(ordered) - k - 1


def tail(values):
    """(label, value, count above it): the highest of p99, p95 and p90 with at
    least ten values above it, else the maximum."""
    for p in (99, 95, 90):
        value, beyond = percentile(values, p)
        if beyond >= 10:
            return f"p{p}", value, beyond
    return "max", max(values), 0


def interpreter_ms(env, speed):
    """Median scaled time of a bare `python -c pass`."""
    times = []
    for _ in range(INTERPRETER_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        times.append(speed.scaled(start, time.perf_counter()) * 1000)
    return statistics.median(times)


def e2e_metrics(work, setups, passes):
    ops = [seconds * 1000 for seconds in per_op(passes).values()]
    label, tail_ms, beyond = tail(ops)
    runs = [r for results in passes for r in results]
    failed = sum(1 for r in runs if r[2])
    who = resource.RUSAGE_CHILDREN if work.cli else resource.RUSAGE_SELF
    print(
        f"each operation timed as the median of {len(passes)} repeats; op_tail_ms is "
        f"{label} of {len(ops)} operations ({beyond} above it); "
        f"failed_frac {failed / len(runs):.6g} ({failed} of {len(runs)})"
    )
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(ops) / 1000,
        "op_p50_ms": statistics.median(ops),
        "op_tail_ms": tail_ms,
        "ok_frac": (len(runs) - failed) / len(runs),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def report_failures(passes):
    """Print each failing input once; True when every failure is a known
    seed defect of that input and stage."""
    correct = True
    seen = set()
    for p in passes:
        for item_id, _, failures in p:
            for stage, message in failures:
                known = pipeline.KNOWN_DEFECTS.get(item_id, {}).get(stage)
                correct = correct and known is not None
                if (item_id, stage) not in seen:
                    seen.add((item_id, stage))
                    tag = f"known seed defect: {known}" if known else "UNEXPECTED"
                    print(f"FAILED {item_id} [{stage}] {message} ({tag})")
    return correct


def run_workload(args, work, speed):
    """Set up, run the passes and return the result object to print."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib, items = setup(work, args.seed)
        setups.append(speed.scaled(start, time.perf_counter()))

    env = cli_env()
    process = []  # (process seconds, in-process timing_ms) per cli report
    if work.cli:
        sink = lambda seconds, timing: process.append((seconds, timing))  # noqa: E731
        op = lambda job: pipeline.cli_op(env, speed, job, sink)  # noqa: E731
    else:
        op = lambda inp: pipeline.matrix_op(lib, speed, inp)  # noqa: E731

    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        plain.append(run_pass(op, items))
        if args.trace:
            tracer = Tracer()
            tracer.install(lib)
            raw = speed.raw
            try:
                traced_op = tracer.wrap("cli.process", op) if work.cli else op
                traced.append(run_pass(traced_op, items, tracer))
            finally:
                tracer.uninstall()
            # Span times get the same scaling as the pass they belong to.
            layers.append(tracer.layer_metrics(sum(r[1] for r in traced[-1]) / (speed.raw - raw)))
        now = time.perf_counter()
        needed = 1 if args.trace else work.min_passes
        if len(plain) >= needed and now - start + (now - lap) > args.seconds:
            break

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} pass(es) of {len(items)} operations")
    slowdown = statistics.median(r for _, r in speed.samples) / pipeline.REFERENCE_SECONDS
    print(f"unscaled time measured {speed.raw:.4g} s; the host ran {slowdown:.3g}x slower than its fast state")
    correct = report_failures(plain + traced)
    attempted = sum(len(p) for p in plain + traced)
    failed = sum(1 for p in plain + traced for r in p if r[2])

    if not args.trace:
        values = e2e_metrics(work, setups, plain)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        metrics = {}
        for key in layers[0]:
            unit = "ms" if key.endswith("_ms") else ("ratio" if key.endswith("ratio") else "count")
            metrics[key] = {"value": statistics.median_low(m[key] for m in layers), "unit": unit}
        wall = sum(per_op(traced).values())
        metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": wall - sum(per_op(plain).values()), "unit": "s"}
        cli_values = dict.fromkeys(CLI_METRICS, 0.0)
        timed = [(s * 1000, t) for s, t in process]
        if timed:
            cli_values["cli.process_ms"] = statistics.median(s for s, _ in timed)
            cli_values["cli.in_process_ms"] = statistics.median(t for _, t in timed)
            cli_values["cli.startup_ms"] = statistics.median(s - t for s, t in timed)
            cli_values["cli.interpreter_ms"] = interpreter_ms(env, speed)
        metrics.update({k: {"value": v, "unit": "ms"} for k, v in cli_values.items()})
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{args.workload}.json", {"workload": args.workload, "seed": args.seed})

    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    work = WORKLOADS[args.workload]
    # One CPU for this process and the hkit subprocesses it starts, so that
    # the reference work and the measured work run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with pipeline.Speedometer() as speed:
        result = run_workload(args, work, speed)
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
