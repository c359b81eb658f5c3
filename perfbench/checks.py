"""Independent answer checks for one ``hyparc analyze`` result.

Nothing here calls ``hyparc``: the witness is re-checked from the printed
document with this module's own ``Fraction`` arithmetic, so a defect in the
program's own verifier cannot hide a wrong witness.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from workloads import Case, projective_class, rank

# Answer fields compared with the stored reference (default seed only).
ANSWER_FIELDS = ("profile", "d_max", "parts_max", "witness_partition", "verdicts")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def answer_record(case: Case, stdout: bytes) -> dict:
    """The reference entry for one analysis: input digest, answers, output digest."""
    doc = json.loads(stdout)
    record = {"input_sha256": digest(case.text.encode())}
    record.update({k: doc[k] for k in ANSWER_FIELDS})
    record["output_sha256"] = digest(stdout)
    return record


def _witness_problems(doc: dict) -> list[str]:
    ws = doc.get("witness_subspace")
    if not isinstance(ws, dict):
        return ["no witness subspace printed"]
    if ws.get("verified") is not True:
        return ["witness not marked verified"]
    points = ws["point_basis"]
    dim = ws["dim"]
    if dim != doc["d_max"]:
        return [f"witness dimension {dim} != d_max {doc['d_max']}"]
    if len(points) != dim + 1 or rank(points) != dim + 1:
        return ["witness point basis is not independent of size dim+1"]
    restrictions = [
        [sum(Fraction(f[c]) * Fraction(p[c]) for c in range(len(f))) for p in points]
        for f in doc["forms"]
    ]
    vanishing = [i for i, rho in enumerate(restrictions) if not any(rho)]
    if vanishing:
        return [f"form {vanishing[0]} vanishes on the witness"]
    groups: dict = {}
    for i, rho in enumerate(restrictions):
        groups.setdefault(projective_class(rho), []).append(i)
    reps = list(groups)
    if rank(reps) != len(reps):
        return ["restriction classes are dependent"]
    printed = sorted(sorted(c["forms"]) for c in ws["restriction_classes"])
    if printed != sorted(groups.values()):
        return ["printed restriction classes differ from the recomputed ones"]
    return []


def problems(case: Case, exit_code: int, stdout: bytes, reference: dict | None) -> list[str]:
    """Every reason this analysis counts as failed; empty when it passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        doc = json.loads(stdout)
        out: list[str] = []
        if doc["cross_check"]:
            out.append(f"cross_check: {doc['cross_check']}")
        n, d_max, m = doc["profile"]["n"], doc["d_max"], doc["profile"]["m"]
        if {projective_class(f) for f in doc["forms"]} != {
            projective_class(f) for f in case.forms
        }:
            out.append("printed forms are not the input's projective classes")
        if m != n - rank(doc["forms"]):
            out.append(f"m={m} but the forms have rank {rank(doc['forms'])}")
        if doc["achievable"] != list(range(d_max + 1)):
            out.append("achievable is not 0..d_max")
        parts, blocks = doc["parts_max"], doc["witness_partition"]
        if parts is None:
            if d_max != m + 1 or blocks is not None:
                out.append("no valid partition but d_max != m + 1")
        elif d_max != m + parts or sorted(i for b in blocks for i in b) != list(
            range(len(doc["forms"]))
        ) or len(blocks) != parts:
            out.append("witness partition inconsistent with parts_max and d_max")
        elif blocks != sorted(sorted(b) for b in blocks):
            out.append("witness partition is not in restricted-growth order")
        if doc["verdicts"]["finiteness"] != (d_max <= 0):
            out.append("finiteness verdict disagrees with d_max")
        if case.expected_d_max is not None:
            if d_max != case.expected_d_max:
                out.append(f"d_max={d_max}, general position implies {case.expected_d_max}")
            if not doc["profile"]["general_position"] or doc["profile"]["s"] != n:
                out.append("profile of a general-position input is wrong")
        out += _witness_problems(doc)
        if reference is not None:
            if reference["input_sha256"] != digest(case.text.encode()):
                out.append("input differs from the reference corpus")
            for key in ANSWER_FIELDS:
                if doc[key] != reference[key]:
                    out.append(f"{key} differs from the reference")
        return out
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError, StopIteration) as exc:
        return [f"unreadable report: {exc!r}"]
