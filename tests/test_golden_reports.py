"""Golden bytes: ``analyze`` output on a fixed generated corpus.

``golden_reports.json`` holds the exit code and the SHA-256 of the stdout
bytes of ``hyparc analyze -`` for every ``generate`` kind with n = 1-4 and
r = 1-8 (seeds 0-1 for ``random``; the other kinds ignore the seed).  Any
change to a report on this corpus fails here.  To regenerate the file after
an intended output change::

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from click.testing import CliRunner

from hyparc import cli

GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"


def golden_inputs() -> dict[str, dict]:
    """Label -> input document, for every valid (kind, n, r, seed) of the corpus."""
    docs = {}
    for kind in ("general_position", "random", "pencil"):
        for n in range(1, 5):
            for r in range(1, 9):
                for seed in (0, 1) if kind == "random" else (0,):
                    try:
                        doc = cli.generate_document(kind, n, r, seed)
                    except ValueError:
                        continue  # e.g. a pencil of r >= 2 lines in P^1
                    docs[f"{kind} n={n} r={r} seed={seed}"] = doc
    return docs


def run_report(doc: dict) -> dict:
    res = CliRunner().invoke(cli.main, ["analyze", "-"], input=json.dumps(doc))
    return {
        "exit_code": res.exit_code,
        "output_sha256": hashlib.sha256(res.stdout_bytes).hexdigest(),
    }


def compute_golden() -> dict[str, dict]:
    return {label: run_report(doc) for label, doc in golden_inputs().items()}


def test_reports_match_golden_bytes():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute_golden()
    assert sorted(actual) == sorted(expected)
    changed = [label for label in expected if actual[label] != expected[label]]
    assert not changed, f"{len(changed)} reports changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
