"""cosetlab benchmark: one workload per process, one thread, checked answers.

    python3 perfbench/run.py --workload search_s5 --seed 1 --seconds 35 --trace 0

Run from the repository root.  Set-up builds the seeded cases and their
expected answers (see ``workloads.py``).  A timed pass then runs whole
rounds of cases for about ``--seconds``, checking every answer.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs an untraced and a traced pass of half the time each and prints the
per-layer metrics, writing the spans to ``perfbench/out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the seed, ``nproc``,
the Python version, the commit, the case counts and the tail latency.  Any
wrong answer or exception makes the exit code 1.  Without the library
sources next to this directory the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("search_s5", "checker_s4_trivial", "cli_pipelines")
SETUP_SAMPLES = 7
TAIL_BEYOND = 10


def _import_library() -> None:
    if not (SRC / "cosetlab" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(HERE)]


def setup(name: str, seed: int):
    """Imports, group construction and seeded case generation."""
    import workloads
    return workloads.MAKERS[name](seed)


def commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(name: str, seed: int) -> float:
    """Median wall time of fresh processes that only set up (process start to
    the first case being ready, plus interpreter exit).  The first process is
    not counted: it reads the interpreter and library files into the page
    cache, which the timed ones then find warm."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times[1:])


def timed_pass(workload, seconds: float, tracer=None, max_rounds: int | None = None) -> dict:
    """Whole rounds, at least one, within ``seconds``: another round starts
    only if one as long as the last would end in time."""
    durations, evals, calls, failures = [], 0, 0, []
    rounds = 0
    start = round_start = perf_counter()
    while True:
        for case in workload.schedule(rounds):
            if tracer is not None:
                tracer.case = len(durations)
            t0 = perf_counter()
            try:
                outcome = workload.run(case)
            except Exception as exc:  # a raising case is a failed case; keep running
                outcome = None
                detail = f"{case.kind}: {type(exc).__name__}: {exc}"
            durations.append(perf_counter() - t0)
            if tracer is not None:
                tracer.end_case()
            if outcome is not None:
                evals += outcome.source_evals
                calls += outcome.decision_calls
                detail = outcome.detail
                if outcome.ok:
                    continue
            failures.append(detail)
        rounds += 1
        now = perf_counter()
        if (now - start) + (now - round_start) > seconds or rounds == max_rounds:
            break
        round_start = now
    return {"wall": perf_counter() - start, "durations": durations, "rounds": rounds,
            "evals": evals, "calls": calls, "failures": failures}


def tail(durations: list[float]) -> dict | None:
    """The highest whole percentile with at least ten cases beyond it."""
    n = len(durations)
    if n < 2 * TAIL_BEYOND:
        return None
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    ordered = sorted(durations)
    rank = max(1, math.ceil(pct / 100 * n))
    return {"percentile": pct, "value": ordered[rank - 1], "cases": n,
            "cases_beyond": n - rank}


def end_to_end(result: dict, setup_s: float) -> dict:
    n = len(result["durations"])
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "case_s_p50": {"value": statistics.median(result["durations"]), "unit": "s"},
        "cases_per_s": {"value": n / result["wall"], "unit": "1/s"},
        "oracle_evals_per_case": {"value": result["evals"] / n, "unit": "count"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def traced_run(workload, seconds: float, spans_path: Path):
    """An untraced and then a traced pass over the same rounds, half the time
    each.  Returns both passes, the per-layer metrics of the traced pass and
    what the ``info`` line reports about the trace."""
    import tracing
    plain = timed_pass(workload, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = timed_pass(workload, seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    n, case_time = len(traced["durations"]), sum(traced["durations"])
    layers = tracer.layer_metrics(n, case_time)
    layers["trace.overhead_frac"] = 1 - (n / traced["wall"]) / (
        len(plain["durations"]) / plain["wall"])
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in tracing.LAYER_METRICS.items()}
    info = {"spans": len(tracer.spans), "file": str(spans_path.relative_to(ROOT))}
    return plain, traced, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_library()
    workload = setup(args.workload, args.seed)
    if args.setup_only:
        return 0
    import tracing
    pristine = tracing.function_objects()
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None

    info = {"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "commit": commit(),
            "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        spans_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        plain, result, metrics, info["trace_info"] = traced_run(
            workload, args.seconds, spans_path)
        failures = plain["failures"] + result["failures"]
        attempted = len(plain["durations"]) + len(result["durations"])
    else:
        result = timed_pass(workload, args.seconds)
        failures = result["failures"]
        attempted = len(result["durations"])
        metrics = end_to_end(result, setup_s)
    patched = tracing.patched_names(pristine)
    if patched:
        failures.append(f"library left patched: {', '.join(patched)}")

    n = len(result["durations"])
    info.update({"rounds": result["rounds"], "cases": n,
                 "case_s_tail": tail(result["durations"]),
                 "decision_calls_per_case": result["calls"] / n,
                 "failed_frac": len(failures) / attempted})
    for detail in failures[:10]:
        print(f"perfbench: FAILED {detail}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
