"""Golden bytes: ``analyze`` output on fixed generated corpora.

Each pinned set holds the exit code and the SHA-256 of the stdout bytes of
``hyparc analyze -`` for every input of its corpus:

* ``golden_reports.json``: every ``generate`` kind with n = 1-4 and r = 1-8
  (seeds 0-1 for ``random``; the other kinds ignore the seed);
* ``golden_long_chains.json``: multi-block inputs whose witness chains are
  longer, ``random`` with n = 5-7, r = 9-11 and seeds 0-2,
  ``general_position`` n = 9, r = 12, and 20 coordinate forms in P^19 plus
  x0 + x1 (a 19-step chain), and ten ``random`` inputs (n = 3-7) whose
  moment-curve walk has a quotient of dimension >= 2 and picks t = 1, so
  the kernel depends on the exact coordinates of the avoided forms.

Any change to a report on these corpora fails here.  To regenerate both
files after an intended output change::

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from click.testing import CliRunner

from hyparc import arrangement, cli
from hyparc.arrangement import load
from hyparc.dimension_search import max_valid_parts

HERE = Path(__file__).resolve().parent


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


# (n, r, seed) of ``random`` inputs whose witness walk picks t = 1 with a
# quotient of dimension >= 2.  At t = 0 the kernel is spanned by the
# extension rows past the first, whatever their scale; at t >= 1 it is not.
T_ONE_WALKS = (
    (3, 5, 4), (3, 5, 7), (3, 5, 8), (5, 7, 8), (5, 8, 8),
    (7, 9, 7), (7, 9, 8), (7, 10, 8), (7, 11, 8), (7, 12, 8),
)


def long_chain_inputs() -> dict[str, dict]:
    """Label -> input document for the inputs with long witness chains."""
    docs = {
        f"random n={n} r={r} seed={seed}": cli.generate_document("random", n, r, seed)
        for n in range(5, 8)
        for r in range(9, 12)
        for seed in range(3)
    }
    docs["general_position n=9 r=12 seed=0"] = cli.generate_document(
        "general_position", 9, 12
    )
    for n, r, seed in T_ONE_WALKS:
        docs[f"random n={n} r={r} seed={seed}"] = cli.generate_document("random", n, r, seed)
    coordinates = [[int(i == j) for j in range(20)] for i in range(20)]
    docs["coordinates n=19 plus x0+x1"] = {
        "n": 19, "forms": coordinates + [[1, 1] + [0] * 18],
    }
    return docs


PINNED = {
    "golden_reports.json": golden_inputs,
    "golden_long_chains.json": long_chain_inputs,
}


def run_report(doc: dict) -> dict:
    res = CliRunner().invoke(cli.main, ["analyze", "-"], input=json.dumps(doc))
    return {
        "exit_code": res.exit_code,
        "output_sha256": hashlib.sha256(res.stdout_bytes).hexdigest(),
    }


def compute_golden(inputs) -> dict[str, dict]:
    return {label: run_report(doc) for label, doc in inputs().items()}


def assert_matches_pinned(name: str) -> None:
    expected = json.loads((HERE / name).read_text(encoding="utf-8"))
    actual = compute_golden(PINNED[name])
    assert sorted(actual) == sorted(expected)
    changed = [label for label in expected if actual[label] != expected[label]]
    assert not changed, f"{len(changed)} reports changed, e.g. {changed[:5]}"


def test_reports_match_golden_bytes():
    assert_matches_pinned("golden_reports.json")


def test_long_chain_reports_match_golden_bytes():
    assert_matches_pinned("golden_long_chains.json")


def test_partition_search_reads_no_s(monkeypatch):
    """The search gives the pinned reports' partitions with s unavailable.

    The exit-3 cross-check compares the search with verdicts that read s,
    so it is an independent check only while the search does not read s.
    """
    expected = []
    for name, inputs in PINNED.items():
        pinned = json.loads((HERE / name).read_text(encoding="utf-8"))
        for label, doc in inputs().items():
            res = CliRunner().invoke(cli.main, ["analyze", "-"], input=json.dumps(doc))
            assert hashlib.sha256(res.stdout_bytes).hexdigest() == pinned[label]["output_sha256"]
            report = json.loads(res.stdout)
            partition = report["witness_partition"]
            expected.append((doc, report["parts_max"], partition and tuple(map(tuple, partition))))

    def no_s(a):
        raise AssertionError("the partition search read s")

    monkeypatch.setattr(arrangement, "compute_s", no_s)
    for doc, parts, partition in expected:
        assert max_valid_parts(load(doc["n"], doc["forms"])) == (parts, partition)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    for name, inputs in PINNED.items():
        (HERE / name).write_text(json.dumps(compute_golden(inputs), indent=1, sort_keys=True) + "\n")
