"""One benchmark repetition in a fresh process.

Set-up (interpreter start, ``import hyparc.cli``, building the input
documents) ends with a ``ready`` line carrying the monotonic clock, which the
parent subtracts from its spawn time.  Then one pass runs every input through
the ``analyze`` command in-process, timing each call; the answers are checked
after the pass, outside the timed region.  Every line on stdout is one JSON
event: ``ready``, one ``analysis`` per input, and ``done``.

    python3 perfbench/worker.py --workload hyperbolic --seed 0 [--size tiny] [--trace | --setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from click.testing import CliRunner  # noqa: E402

from hyparc import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"
SPANS_DIR = HERE / "out"


def emit(event: dict) -> None:
    print(json.dumps(event), flush=True)


def reference_for(workload: str, seed: int, size: str) -> list | None:
    """Stored answers for the default seed; None for any other seed."""
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload][size]


def run_pass(cases, tracer=None, on_result=None) -> list[tuple[int, bytes, float]]:
    """Run each case through ``hyparc analyze -``; (exit code, stdout, seconds) each."""
    runner = CliRunner()
    results = []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.start_analysis(i)
        start = time.perf_counter()
        res = runner.invoke(cli.main, ["analyze", "-"], input=case.text)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_analysis()
        results.append((res.exit_code, res.stdout_bytes, elapsed))
        if on_result is not None:
            on_result(i, elapsed)
    return results


def check_pass(cases, results, reference) -> tuple[list[str], int | None]:
    """(one line per failed analysis, analyses whose bytes differ from the reference)."""
    failures = []
    changed = None if reference is None else 0
    if reference is not None and len(reference) != len(cases):
        failures.append(f"reference has {len(reference)} entries for {len(cases)} inputs")
        reference = None
    for i, (case, (code, out, _)) in enumerate(zip(cases, results)):
        ref = reference[i] if reference is not None else None
        found = checks.problems(case, code, out, ref)
        if found:
            failures.append(f"#{i} {case.label}: {'; '.join(found)}")
        if ref is not None and checks.digest(out) != ref["output_sha256"]:
            changed += 1
    return failures, changed


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="exit once ready")
    args = parser.parse_args()

    cases = workloads.cases(args.workload, args.seed, args.size)
    reference = reference_for(args.workload, args.seed, args.size)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    emit({"event": "ready", "t": time.monotonic(), "cases": len(cases)})
    if args.setup_only:
        return

    results = run_pass(
        cases, tracer, lambda i, s: emit({"event": "analysis", "i": i, "ms": s * 1e3})
    )
    failures, changed = check_pass(cases, results, reference)
    done = {
        "event": "done",
        "run_s": sum(r[2] for r in results),
        "latencies_ms": [r[2] * 1e3 for r in results],
        "failures": failures,
        "bytes_changed": changed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        done["layers"] = tracer.metrics()
        done["missing"] = sorted(tracer.missing)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.dump(SPANS_DIR / f"spans-{args.workload}-{args.size}-{args.seed}.json")
    emit(done)


if __name__ == "__main__":
    main()
