"""hyparc benchmark: run one workload, check every answer, print the metrics.

    python3 perfbench/run.py --workload hyperbolic --seed 0 --seconds 30 --trace 0

Each repetition is a fresh single-threaded worker process (``worker.py``)
that sets up and makes one pass over the workload's inputs; repetitions run
one after another until ``--seconds`` is used up.  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` untraced and traced
repetitions alternate and the per-layer metrics are printed, together with
the tracing overhead and, from one extra untimed pass over the default
seed's inputs, the number of reports whose bytes differ from the reference.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table with units and sample counts.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Nothing may run past this many seconds after start; a worker still running
# then is killed and its unfinished analyses count as failed.
HARD_LIMIT_S = 165
GRACE_S = 90
# Extra set-up-only workers per timed run, so that setup_s is a median of many.
SETUP_SAMPLES = 5


@dataclass
class Rep:
    """One worker process: its set-up time and, if it finished, its ``done`` event."""

    traced: bool
    cases: int
    setup_s: float | None = None  # None when killed before set-up ended
    wall_s: float = 0.0
    done: dict | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.cases if self.done is None else len(self.done["failures"])


class SetupError(RuntimeError):
    """A worker died before it was ready: the benchmark itself cannot run."""


def run_worker(workload: str, seed: int, size: str, cases: int, deadline: float,
               flag: str | None = None) -> Rep:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size] + ([flag] if flag else [])
    rep = Rep(traced=flag == "--trace", cases=cases)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(0.0, deadline - spawned))
        killed = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    rep.wall_s = time.monotonic() - spawned
    events = [json.loads(line) for line in out.splitlines() if line.startswith(b"{")]
    by_kind = {e["event"]: e for e in events}
    if "ready" in by_kind:
        rep.setup_s = by_kind["ready"]["t"] - spawned
    elif not killed:
        raise SetupError(f"worker exited {proc.returncode} before set-up ended:\n"
                         + err.decode(errors="replace")[-2000:])
    rep.done = by_kind.get("done")
    if killed:
        finished = sum(e["event"] == "analysis" for e in events)
        rep.problems.append(f"seed {seed}: killed at the run deadline in analysis #{finished}")
    elif rep.done is None and flag != "--setup-only":
        rep.problems.append(f"seed {seed}: worker exited {proc.returncode}: "
                            + err.decode(errors="replace")[-500:])
    if rep.done is not None:
        rep.problems += [f"seed {seed}: {f}" for f in rep.done["failures"]]
    return rep


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(plain: list[Rep], setups: list[float], attempted: int, failed: int) -> dict:
    """name -> (value, unit, note on the samples) for every end-to-end metric."""
    complete = [r for r in plain if r.done is not None]
    metrics = {}
    if complete:
        latencies = [ms for r in complete for ms in r.done["latencies_ms"]]
        metrics["run_s"] = (statistics.median(r.done["run_s"] for r in complete), "s",
                            f"median of {len(complete)} passes of {complete[0].cases} analyses")
        for name, q in (("analysis_p50_ms", 0.50), ("analysis_p95_ms", 0.95)):
            beyond = len(latencies) - math.ceil(q * len(latencies))
            few = " (fewer than 10)" if beyond < 10 else ""
            metrics[name] = (percentile(latencies, q), "ms",
                             f"{len(latencies)} samples, {beyond} beyond{few}")
        metrics["peak_rss_mb"] = (statistics.median(r.done["peak_rss_mb"] for r in complete),
                                  "MB", f"median of {len(complete)} processes")
    if setups:
        metrics["setup_s"] = (statistics.median(setups), "s", f"median of {len(setups)} set-ups")
    metrics["ok_frac"] = ((attempted - failed) / attempted, "frac",
                          f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    return metrics


def per_layer(plain: list[Rep], traced: list[Rep], check: Rep | None) -> dict:
    """name -> (value, unit, note on the samples) for every per-layer metric present."""
    import tracing

    complete = [r for r in traced if r.done is not None]
    metrics = {}
    if complete:
        layers = [r.done["layers"] for r in complete]
        for name, unit, _ in tracing.METRICS:
            if name in layers[0]:
                metrics[name] = (statistics.median_low(v[name] for v in layers), unit,
                                 f"median of {len(complete)} traced passes")
        if complete[0].done["missing"]:
            print("hook targets missing, their metrics are absent: "
                  + ", ".join(complete[0].done["missing"]))
    untraced = [r.done["run_s"] for r in plain if r.done is not None]
    if complete and untraced:
        ratio = statistics.median(r.done["run_s"] for r in complete) / statistics.median(untraced)
        metrics["trace.overhead_frac"] = (ratio - 1, "frac",
                                          f"{len(complete)} traced / {len(untraced)} untraced passes")
    if check is not None and check.done is not None and check.done["bytes_changed"] is not None:
        metrics["cli.bytes_changed"] = (check.done["bytes_changed"], "count",
                                        f"of {check.cases} default-seed reports")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", help="'tiny' for a quick self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "hyparc" / "cli.py").is_file():
        print(f"hyparc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS or args.size not in workloads.SIZES:
        parser.error(f"workload must be one of {workloads.WORKLOADS}, size one of {workloads.SIZES}")

    start = time.monotonic()
    deadline = start + min(args.seconds + GRACE_S, HARD_LIMIT_S)
    cases = len(workloads.cases(args.workload, args.seed, args.size))
    modes = [None, "--trace"] if args.trace else [None]
    reps: list[Rep] = []
    setups: list[float] = []
    check = None
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                rep = run_worker(args.workload, args.seed, args.size, cases, deadline, "--setup-only")
                setups += [rep.setup_s] if rep.setup_s is not None else []
            start = time.monotonic()
        while True:
            flag = modes[len(reps) % len(modes)]
            reps.append(run_worker(args.workload, args.seed, args.size, cases, deadline, flag))
            if reps[-1].done is None:
                break
            elapsed = time.monotonic() - start
            typical = statistics.median(r.wall_s for r in reps)
            if len(reps) >= len(modes) and elapsed + typical > args.seconds:
                break
        if args.trace and reps[-1].done is not None:
            if args.seed == workloads.DEFAULT_SEED:
                check = reps[0]
            else:
                check = run_worker(args.workload, workloads.DEFAULT_SEED, args.size, cases, deadline)
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 3

    counted = reps + ([check] if check is not None and check is not reps[0] else [])
    attempted = sum(r.cases for r in counted)
    failed = sum(r.failed for r in counted)
    plain = [r for r in reps if not r.traced]
    if args.trace:
        metrics = per_layer(plain, [r for r in reps if r.traced], check)
    else:
        setups += [r.setup_s for r in plain if r.setup_s is not None]
        metrics = end_to_end(plain, setups, attempted, failed)

    print(f"workload={args.workload} size={args.size} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} attempted={attempted} failed={failed}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")
    for problem in [p for r in counted for p in r.problems][:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
