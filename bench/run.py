"""Benchmark of freeconv: density sheets, edge approaches and certificates.

Run from the root of a freeconv checkout:

    python3 bench/run.py --workload density-scalar --seed 0 --seconds 15 --trace 0

The run imports freeconv from ./src, makes the workload's inputs from the
seed, then repeats whole rounds of the workload's operations until
--seconds have passed, checking every output against a reference computed
apart from freeconv (or a property the paper proves).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
from spans and counters around freeconv's public calls with --trace 1.
The result, and with --trace 1 the spans, are also written to .bench_out/.
The exit code is 0 when every checked output was correct, 1 when one was
not, and 2 when the checkout holds no freeconv sources to run.
"""

import os

# One BLAS thread, set before anything imports numpy: the matrices are small
# (at most 60 x 60), where threads add overhead and run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5          # the run's own set-up, then more in fresh interpreters
SETUP_TIMEOUT_S = 120

WORKLOAD_NAMES = ("density-scalar", "density-matrix", "edge-approach", "certificates")

# per-layer metrics, per round: self times summed over tracer entries ...
LAYER_TIMES = {
    "algebra.cp_apply_s": ["algebra.cp_apply"],
    "model.resolvent_s": ["model.resolvent"],
    "model.expect_s": ["model.expect"],
    "subordination.h_map_s": ["subordination.h_map"],
    "subordination.solve_s": ["subordination.solve"],
    "serialize.read_s": ["serialize.read"],
    "serialize.write_s": ["serialize.write"],
    "cli.command_s": ["cli.command"],
}
# ... call counts of tracer entries ...
LAYER_CALLS = {
    "algebra.cp_apply_calls": "algebra.cp_apply",
    "algebra.linearize_calls": "algebra.linearize",
    "model.cauchy_calls": "model.cauchy",
    "model.expect_calls": "model.expect",
    "subordination.h_map_calls": "subordination.h_map",
}
# ... and counters the tracer reads from arguments and results.
LAYER_COUNTS = (
    "subordination.h_map_points",
    "subordination.iterations",
    "subordination.iterations_max",
    "subordination.solves",
    "subordination.unconverged",
    "serialize.bytes_read",
    "serialize.bytes_written",
)


class SetupError(Exception):
    """The checkout holds no runnable freeconv, or a set-up sample failed."""


def setup(workload: str, seed: int, workdir: Path):
    """Import freeconv from the checkout and make the inputs.

    Returns (operations of one round, seconds taken).
    """
    start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "freeconv" / "__init__.py").is_file():
        raise SetupError(f"no freeconv sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import freeconv
    import freeconv.cli  # noqa: F401  (the CLI is part of what a user loads)
    if Path(freeconv.__file__).resolve().parent != (src / "freeconv").resolve():
        raise SetupError(f"imported freeconv from {freeconv.__file__}, not from {src}")
    import workloads

    workdir.mkdir(parents=True)
    ops = workloads.WORKLOADS[workload](freeconv, seed, workdir)
    return ops, time.perf_counter() - start


def setup_in_fresh_interpreter(workload: str, seed: int, workdir: Path) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"set-up sample failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_rounds(ops, seconds: float, tracer=None):
    """Repeat whole rounds of ops until `seconds` have passed (at least one round).

    Returns (round times, attempted, failed, wrong); a round's time is the
    sum of its operations' times, checks excluded.  An operation counts as
    failed when the program reports a failure or its output fails its
    check, and as wrong only in the second case.
    """
    round_times = []
    attempted = failed = wrong = 0
    reported = set()
    start = time.perf_counter()
    while True:
        round_time = 0.0
        for op in ops:
            if tracer is not None:
                tracer.op = f"{len(round_times)}:{op.name}"
            t0 = time.perf_counter()
            try:
                out = op.run()
                problems = None
            except Exception as exc:  # the program's failure is counted, not fatal
                problems = [f"failed: {type(exc).__name__}: {exc}"]
            elapsed = time.perf_counter() - t0
            round_time += elapsed
            attempted += 1
            if problems is None:
                try:
                    problems = op.check(out)
                except Exception as exc:  # malformed output is a wrong output
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                wrong += bool(problems)
            if problems:
                failed += 1
                if op.name not in reported:
                    reported.add(op.name)
                    print(f"{op.name}: " + "; ".join(problems), file=sys.stderr)
        round_times.append(round_time)
        if time.perf_counter() - start >= seconds:
            break
    return round_times, attempted, failed, wrong


def layer_metrics(tracer, rounds: int, round_times) -> dict:
    metrics = {name: {"value": sum(tracer.self_time[e] for e in entries) / rounds, "unit": "s"}
               for name, entries in LAYER_TIMES.items()}
    for name, entry in LAYER_CALLS.items():
        metrics[name] = {"value": tracer.calls[entry] / rounds, "unit": "count"}
    for name in LAYER_COUNTS:
        value = tracer.counts[name] if name.endswith("_max") else tracer.counts[name] / rounds
        metrics[name] = {"value": value, "unit": "count"}
    metrics["traced_round_s"] = {"value": statistics.fmean(round_times), "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        try:
            _, seconds = setup(args.workload, args.seed, Path(args.workdir))
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(repr(seconds))
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        try:
            ops, own_setup = setup(args.workload, args.seed, run_dir / "inputs")
            setup_times = [own_setup] + [
                setup_in_fresh_interpreter(args.workload, args.seed, run_dir / f"setup-{k}")
                for k in range(1, SETUP_SAMPLES)]
        except (SetupError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        round_times, attempted, failed, wrong = run_rounds(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "round_s": {"value": statistics.fmean(round_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        metrics = layer_metrics(tracer, len(round_times), round_times)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"rounds": len(round_times), "spans": tracer.spans_json()}) + "\n")
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {**result, "setup_samples_s": setup_times, "round_times_s": round_times},
        indent=2) + "\n")
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
