"""Command-line interface: analyze arrangements, generate input documents.

Input document (JSON, file or stdin)::

    {"n": 2, "forms": [[1, 0, 0], ["1/2", 1, 0], [0, 0, 1]]}

Coefficients are integers or exact fractions written as "p/q"; floats are
rejected.  The analyze report is deterministic: re-running on the same input
produces byte-identical output (timing is only included on request).

Exit codes: 0 success, 1 input or usage error, 2 internal assertion failure
(theorem-violating state, i.e. a bug: any error other than a refusal raised
after the input was validated), 3 cross-check discrepancy, 4 refused (valid
input with more than 22 forms, the limit of the partition search; the
finiteness verdict keeps the same limit until a work budget replaces it).
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
import time
from fractions import Fraction

import click

from . import corollaries, dimension_search, witness
from .arrangement import Arrangement, ArrangementError, RefusedError, load, profile
from .exact_linalg import InternalError, primitive_vector

_FRACTION_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?", re.ASCII)

EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_CROSS_CHECK = 3
EXIT_REFUSED = 4


class InputError(ValueError):
    """Malformed input document."""


class _Float(str):
    """The text of a JSON float, kept so that the field holding it rejects it in its own terms."""

    __repr__ = str.__str__  # shown as written, like the numbers of the document


def parse_input(text: str) -> tuple[int, list[list[int | Fraction]]]:
    """Parse an input document into (n, exact coefficient rows).

    JSON integers stay ``int``; "p/q" strings become ``Fraction``.
    """
    try:
        doc = json.loads(text, parse_float=_Float)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input document must be an object with 'n' and 'forms'")
    for key in ("n", "forms"):
        if key not in doc:
            raise InputError(f"input document is missing the '{key}' field")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"'n' must be an integer, got {n!r}")
    raw_forms = doc["forms"]
    if not isinstance(raw_forms, list):
        raise InputError("'forms' must be a list of coefficient lists")
    forms: list[list[int | Fraction]] = []
    for i, row in enumerate(raw_forms):
        if not isinstance(row, list):
            raise InputError(f"form {i} is not a list")
        coords = []
        for j, entry in enumerate(row):
            if isinstance(entry, bool):
                raise InputError(f"form {i}, entry {j}: booleans are not coefficients")
            if isinstance(entry, _Float):
                raise InputError(
                    f"float coefficient {str(entry)!r} is not allowed; "
                    "use an exact fraction \"p/q\""
                )
            if isinstance(entry, str) and _FRACTION_RE.fullmatch(entry):
                entry = Fraction(entry)
            elif not isinstance(entry, int):
                shown = reprlib.repr(entry)  # the entry may be a JSON value of any size
                if len(shown) > 60:
                    shown = shown[:57] + "..."
                raise InputError(
                    f"form {i}, entry {j}: {shown} is not an integer or \"p/q\" fraction"
                )
            coords.append(entry)
        forms.append(coords)
    return n, forms


def build_report(a: Arrangement, with_witness: bool = True) -> dict:
    """Run the full pipeline and assemble the report document."""
    # Search first: it refuses oversized inputs before the profile's search for s.
    report = dimension_search.achievable_dimensions(a)
    prof = profile(a)
    verdicts = corollaries.verdict(a)
    doc: dict = {
        "profile": {
            "n": a.n,
            "r": prof.r,
            "m": prof.m,
            "s": prof.s,
            "general_position": prof.general_position,
        },
        "forms": [list(f) for f in a.forms],
        "d_max": report.d_max,
        "achievable": list(report.achievable),
        "parts_max": report.parts_max,
        "witness_partition": (
            [list(b) for b in report.best_partition] if report.best_partition else None
        ),
        "witness_subspace": None,
        "verdicts": {
            "finiteness": verdicts.finiteness,
            "gp_bound": verdicts.gp_bound,
            "gp_bound_achieved": verdicts.gp_bound_achieved,
        },
        "warnings": list(a.warnings),
    }
    if with_witness:
        if report.best_partition is not None:
            w = witness.witness_subspace(witness.build_u_chain(a, report.best_partition))
        else:
            w = witness.build_witness_for_mplus1(a)
        doc["witness_subspace"] = {
            "dim": w.dim,
            "point_basis": [list(row) for row in w.point_basis],
            "restriction_classes": [
                {"covector": list(cls), "forms": list(idxs)}
                for cls, idxs in w.verification.classes
            ],
            "verified": w.verification.ok,
        }
    doc["cross_check"] = corollaries.cross_check(a, report, verdicts)
    return doc


def _render_text(doc: dict) -> str:
    lines = []
    p = doc["profile"]
    lines.append(
        f"arrangement: n={p['n']} r={p['r']} m={p['m']} s={p['s']} "
        f"general_position={p['general_position']}"
    )
    lines.append(f"d_max: {doc['d_max']}")
    lines.append("achievable dimensions: " + ", ".join(str(d) for d in doc["achievable"]))
    if doc["witness_partition"] is not None:
        lines.append(
            "witness partition: "
            + " | ".join("{" + ",".join(map(str, b)) + "}" for b in doc["witness_partition"])
        )
    ws = doc.get("witness_subspace")
    if ws is not None:
        lines.append(f"witness subspace: dim {ws['dim']}, verified={ws['verified']}")
        for row in ws["point_basis"]:
            lines.append("  point " + " ".join(str(c) for c in row))
    v = doc["verdicts"]
    lines.append(
        f"verdicts: finiteness={v['finiteness']} gp_bound={v['gp_bound']} "
        f"gp_bound_achieved={v['gp_bound_achieved']}"
    )
    for w in doc["warnings"]:
        lines.append(f"warning: {w}")
    for d in doc["cross_check"]:
        lines.append(f"CROSS-CHECK DISCREPANCY: {d}")
    if "timing_seconds" in doc:
        lines.append(f"timing: {doc['timing_seconds']} s")
    return "\n".join(lines) + "\n"


def _usage_error_exits_input(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = EXIT_INPUT  # click's default 2 is EXIT_INTERNAL here
        raise


class _Group(click.Group):
    """Exits 1 on usage errors, which click raises in ``make_context`` and ``invoke``."""

    def make_context(self, *args, **kwargs):
        return _usage_error_exits_input(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_error_exits_input(super().invoke, ctx)


@click.group(cls=_Group)
def main():
    """Classify a projective hyperplane-arrangement complement."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact coefficients may have any number of digits


@main.command("analyze")
@click.argument("input_path", default="-")
@click.option("--no-witness", is_flag=True, help="Skip witness construction.")
@click.option("--json", "fmt", flag_value="json", default=True, help="JSON report (default).")
@click.option("--text", "fmt", flag_value="text", help="Human-readable report.")
@click.option("--timing", is_flag=True, help="Include wall-clock timing in the report.")
def cmd_analyze(input_path, no_witness, fmt, timing):
    """Analyze an arrangement from INPUT_PATH (or '-' for stdin)."""
    try:
        if input_path == "-":
            text = sys.stdin.read()
        else:
            with open(input_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        n, raw_forms = parse_input(text)
        arrangement = load(n, raw_forms)
    except (InputError, ArrangementError, OSError, UnicodeDecodeError) as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    started = time.monotonic()
    try:
        doc = build_report(arrangement, with_witness=not no_witness)
    except RefusedError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_REFUSED)
    except (InternalError, ValueError) as exc:  # ``load`` validated the input: a bug
        click.echo(f"internal error (theorem-violating state): {exc}", err=True)
        sys.exit(EXIT_INTERNAL)
    if timing:
        doc["timing_seconds"] = round(time.monotonic() - started, 3)
    if fmt == "json":
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(_render_text(doc), nl=False)
    if doc["cross_check"]:
        sys.exit(EXIT_CROSS_CHECK)


def generate_document(kind: str, n: int, r: int, seed: int = 0) -> dict:
    """Deterministic input documents for testing and demos.

    * ``general_position``: moment-curve forms (1, t, t^2, ..., t^n) at
      distinct integers t; any n+1 of them are independent (Vandermonde).
    * ``random``: small integer coefficients from the seeded generator,
      regenerated until r distinct projective classes exist.
    * ``pencil``: r forms in the span of the first two coordinates, so all
      hyperplanes share a common zero set (needs n >= 2 for r >= 2).
    """
    import random as _random

    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    if kind == "general_position":
        forms = [[t**k for k in range(n + 1)] for t in range(1, r + 1)]
    elif kind == "random":
        rng = _random.Random(seed)
        classes: dict[tuple[int, ...], list[int]] = {}
        attempts = 0
        while len(classes) < r:
            attempts += 1
            if attempts > 10_000 * r:
                raise ValueError(f"cannot produce {r} distinct forms in dimension {n}")
            row = [rng.randint(-3, 3) for _ in range(n + 1)]
            if all(c == 0 for c in row):
                continue
            classes.setdefault(primitive_vector(row), row)
        forms = list(classes.values())
    elif kind == "pencil":
        if n < 2 and r > 1:
            raise ValueError("a pencil of r >= 2 hyperplanes needs n >= 2")
        tail = [0] * (n - 1)
        forms = [[1, t] + tail for t in range(r - 1)]
        forms.append([0, 1] + tail if r > 1 else [1, 0] + tail)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return {"n": n, "forms": forms}


@main.command("generate")
@click.option(
    "--kind",
    type=click.Choice(["general_position", "random", "pencil"]),
    required=True,
)
@click.option("-n", "--dimension", "n", type=int, required=True)
@click.option("-r", "--count", "r", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
def cmd_generate(kind, n, r, seed):
    """Emit a deterministic input document to stdout."""
    try:
        doc = generate_document(kind, n, r, seed)
    except ValueError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    click.echo(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
