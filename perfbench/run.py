"""genocchi benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory.  Every process this starts is a worker (worker.py) that
runs alone: two measured workers, each running a checked warm-up round
and then whole rounds of the workload for half of --seconds,
with workers that only import and prepare before, between and after
them.  Timings are medians over the rounds, each round scaled to a
reference speed of the host (speed.py), because the host's speed changes
by up to 1.8x within seconds.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 1 a traced worker gives the
per-layer metrics instead; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOADS = ("verify-6", "emit-7", "count-7", "map-stream")
SLICES = 2  # measured workers in one run, each a fresh process
SETUP_RUNS = 5  # set-up only workers before each measured worker and after the last
DEADLINE_S = 170.0  # a run must end within 180 s
# tail percentile of the request times, as quantiles(n=TAIL_Q)[-1]
TAIL_Q = 100


class WorkerError(RuntimeError):
    pass


def _worker(args, mode: str, started: float, seconds: float = 0.0, *extra: str) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(seconds), mode, *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    left = DEADLINE_S - (monotonic() - started)
    if left <= 0:
        raise WorkerError("out of time before the worker could start")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=left)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker did not finish within {DEADLINE_S} s") from None
    if done.returncode != 0:
        raise WorkerError(f"{mode} worker exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _run_slice(args, started: float, seconds: float) -> dict:
    """One measured worker, with the times of its operations read back."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-items.bin"
    part = _worker(args, "run", started, seconds, str(path))
    times = array("d")
    with open(path, "rb") as fh:
        times.fromfile(fh, sum(part["items"].values()))
    path.unlink()
    items, at = {}, 0
    for kind, count in part["items"].items():
        items[kind], at = times[at:at + count], at + count
    part["items"] = items
    return part


def _merge(slices: list[dict]) -> dict:
    """One run from its slices.  The slices run the same operations on the
    same inputs, so they must print the same."""
    run = dict(slices[0])
    for part in slices[1:]:
        for key in ("attempted", "failed", "rounds", "raw_rounds"):
            run[key] = run[key] + part[key]
        run["items"] = {kind: times + part["items"].get(kind, array("d"))
                        for kind, times in run["items"].items()}
        run["checks"] = {name: ok and part["checks"].get(name, False)
                         for name, ok in run["checks"].items()}
        run["checks"]["rounds-agree"] &= (part["digest"] == run["digest"]
                                          and part["objects"] == run["objects"])
    return run


def _request_times(items: dict[str, array]) -> tuple[float, float]:
    """(median, tail) request time.  With one kind of request and enough
    samples, the tail is the TAIL_Q-quantile that has at least ten samples
    beyond it.  A command workload has a few samples of each command: the
    median is that of the commands' medians and the tail the slowest
    command's median."""
    if len(items) == 1:
        times, = items.values()
        if len(times) >= 10 * TAIL_Q:
            return statistics.median(times), statistics.quantiles(times, n=TAIL_Q)[-1]
    medians = [statistics.median(times) for times in items.values()]
    return statistics.median(medians), max(medians)


def end_to_end(args, started: float) -> tuple[dict, dict]:
    # set-up samples spread over the whole run
    setups, slices = [], []
    for _ in range(SLICES):
        setups += [_worker(args, "setup", started)["setup_s"] for _ in range(SETUP_RUNS)]
        slices.append(_run_slice(args, started, args.seconds / SLICES))
        setups.append(slices[-1]["setup_s"])
    setups += [_worker(args, "setup", started)["setup_s"] for _ in range(SETUP_RUNS)]
    run = _merge(slices)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    p50, tail = _request_times(run["items"])
    wall = statistics.median(run["rounds"])
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(wall, "s"),
        "peak_rss_mb": _metric(peak_kib / 1024, "MiB"),
        "objects_per_s": _metric(run["objects"] / wall, "1/s"),
        "request_p50_us": _metric(p50 * 1e6, "us"),
        "request_tail_us": _metric(tail * 1e6, "us"),
    }
    _store(args, run)
    return run, metrics


def _store(args, run: dict) -> None:
    """Keep the untraced outputs, so a traced run can compare against them."""
    RESULTS.mkdir(exist_ok=True)
    kept = {k: run[k] for k in ("inputs", "objects", "digest", "checks")}
    kept.update(seed=args.seed, raw_wall_s=statistics.median(run["raw_rounds"]))
    (RESULTS / f"{args.workload}.json").write_text(json.dumps(kept), encoding="utf-8")


def _stored(args) -> dict | None:
    path = RESULTS / f"{args.workload}.json"
    if not path.exists():
        return None
    kept = json.loads(path.read_text(encoding="utf-8"))
    return kept if kept["inputs"] == "fixed" or kept["seed"] == args.seed else None


def traced(args, started: float) -> tuple[dict, dict, bool]:
    """Per-layer metrics from a traced worker, with the tracing overhead and
    a comparison of its outputs and checks against an untraced run."""
    base = _stored(args)
    if base is None:
        _store(args, _run_slice(args, started, args.seconds))
        base = _stored(args)
    run = _worker(args, "trace", started, args.seconds,
                  str(RESULTS / f"{args.workload}-trace.json"))
    same = run["digest"] == base["digest"] and run["checks"] == base["checks"]
    if not same:
        print("traced run differs from the untraced run in outputs or checks",
              file=sys.stderr)
    wall = statistics.median(run["raw_rounds"])
    metrics = {name: _metric(value, LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s"))
               for name, value in run["layers"].items()}
    metrics["trace.wall_s"] = _metric(wall, "s")
    metrics["trace.untraced_wall_s"] = _metric(base["raw_wall_s"], "s")
    metrics["trace.overhead_s"] = _metric(wall - base["raw_wall_s"], "s")
    return run, metrics, same


LAYER_UNITS = {"calls": "count", "objects": "count", "stdout_bytes": "bytes",
               "enumerations_per_cell": "count/cell",
               "statistics_per_object": "count/object",
               "serialize_per_object": "count/object"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "genocchi" / "__init__.py").is_file():
        print("error: run from the root of a genocchi checkout (no src/genocchi here)",
              file=sys.stderr)
        return 2
    if HERE.parent != Path.cwd().resolve():
        print(f"error: run from {HERE.parent}", file=sys.stderr)
        return 2
    started = monotonic()
    try:
        if args.trace:
            run, metrics, same = traced(args, started)
        else:
            run, metrics = end_to_end(args, started)
            same = True
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed_checks = sorted(name for name, ok in run["checks"].items() if not ok)
    if failed_checks:
        print(f"failed checks: {', '.join(failed_checks)}", file=sys.stderr)
    print(json.dumps({
        "correct": same and not failed_checks,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
