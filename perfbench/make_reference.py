"""Write ``reference.json``: the default seed's answers, produced by the current code.

For every input the answer fields and the SHA-256 of the exact output bytes
are stored.  Each input with r <= 9 is also checked against the exhaustive
oracle ``brute_force_max_parts`` before anything is written, and every
answer must pass the benchmark's independent checks.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json

import worker  # first: it puts src/ on sys.path
import workloads
from checks import answer_record
from hyparc import brute_force_max_parts, load
from hyparc.dimension_search import BRUTE_FORCE_LIMIT


def main() -> None:
    seed = workloads.DEFAULT_SEED
    reference: dict = {}
    for workload in workloads.WORKLOADS:
        reference[workload] = {}
        for size in workloads.SIZES:
            cases = workloads.cases(workload, seed, size)
            results = worker.run_pass(cases)
            failures, _ = worker.check_pass(cases, results, None)
            if failures:
                raise SystemExit(f"{workload}/{size}: " + "\n".join(failures))
            records = [answer_record(c, out) for c, (_, out, _) in zip(cases, results)]
            for case, rec in zip(cases, records):
                if len(case.forms) <= BRUTE_FORCE_LIMIT:
                    parts, blocks = brute_force_max_parts(load(case.n, case.forms))
                    found = [list(b) for b in blocks] if blocks else None
                    if (parts, found) != (rec["parts_max"], rec["witness_partition"]):
                        raise SystemExit(f"{workload}/{size} {case.label}: brute force disagrees")
            reference[workload][size] = records
            print(f"{workload}/{size}: {len(records)} answers", flush=True)
    write(reference)


def write(reference: dict) -> None:
    """One answer record per line, so that a changed answer shows as one changed line."""
    lines = ["{"]
    for i, (workload, sizes) in enumerate(reference.items()):
        lines.append(f"{json.dumps(workload)}: {{")
        for j, (size, records) in enumerate(sizes.items()):
            lines.append(f"{json.dumps(size)}: [")
            lines.append(",\n".join(json.dumps(r) for r in records))
            lines.append("]" + ("," if j < len(sizes) - 1 else ""))
        lines.append("}" + ("," if i < len(reference) - 1 else ""))
    lines.append("}")
    worker.REFERENCE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
