"""Seeded input recipes for the benchmark workloads.

The recipes live here, not in ``hyparc generate``, so that a change to the
program's own generator cannot shift the corpus.  Nothing in this module
imports ``hyparc``.

Every general-position input is built incrementally: a candidate form is kept
only if every (n+1)-subset it completes is independent, checked with the
exact ``rank`` below.  For general position with r > n the largest
concurrent subset has s = n forms, so the paper's bound gives the expected
answer d_max = floor(n / (r - n)) without running the search; r >= 2n+1
makes the complement hyperbolic (d_max = 0, Green 1977).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

DEFAULT_SEED = 0
WORKLOADS = ("hyperbolic", "partition_search", "batch_small")
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Case:
    """One input document plus what the recipe knows about its answer."""

    label: str
    n: int
    forms: tuple[tuple[int, ...], ...]
    expected_d_max: Optional[int]  # known from the recipe, else None
    text: str = field(init=False)  # the JSON document handed to the program

    def __post_init__(self):
        doc = {"n": self.n, "forms": [list(f) for f in self.forms]}
        object.__setattr__(self, "text", json.dumps(doc))


def rank(rows) -> int:
    """Exact rank of a list of rational rows (Gaussian elimination)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    width = len(mat[0]) if mat else 0
    for col in range(width):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][col] != 0:
                f = mat[i][col] / mat[r][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def projective_class(row) -> tuple[Fraction, ...]:
    """Scale a nonzero rational row so that its first nonzero entry is 1."""
    row = [Fraction(x) for x in row]
    lead = next(x for x in row if x != 0)
    return tuple(x / lead for x in row)


def _general_position(rng: random.Random, n: int, r: int, bound: int) -> list[tuple[int, ...]]:
    """r forms with entries in [-bound, bound], every min(r, n+1) of them independent.

    Greedy: a candidate is kept when each subset it completes stays independent;
    a set that cannot be extended within a fixed number of draws starts over.
    """
    for _ in range(1000):
        forms: list[tuple[int, ...]] = []
        for _ in range(100 * r):
            if len(forms) == r:
                return forms
            cand = tuple(rng.randint(-bound, bound) for _ in range(n + 1))
            k = min(len(forms), n)
            if any(cand) and all(rank(list(sub) + [cand]) == k + 1 for sub in combinations(forms, k)):
                forms.append(cand)
        if len(forms) == r:
            return forms
    raise RuntimeError(f"no general-position set of {r} forms in P^{n} with bound {bound}")


def _moment_curve(rng: random.Random, n: int, r: int) -> list[tuple[int, ...]]:
    """(1, t, ..., t^n) at r distinct seeded nodes t; Vandermonde, so general position."""
    nodes = rng.sample(range(-r, r + 1), r)
    return [tuple(t**k for k in range(n + 1)) for t in nodes]


def _distinct_random(rng: random.Random, n: int, r: int) -> list[tuple[int, ...]]:
    """r projectively distinct nonzero forms with entries in [-3, 3]."""
    seen: set = set()
    forms: list[tuple[int, ...]] = []
    while len(forms) < r:
        cand = tuple(rng.randint(-3, 3) for _ in range(n + 1))
        if any(cand) and projective_class(cand) not in seen:
            seen.add(projective_class(cand))
            forms.append(cand)
    return forms


def _pencil(rng: random.Random, n: int, r: int) -> list[tuple[int, ...]]:
    """r distinct forms a*b1 + c*b2 in the span of two independent base forms."""
    while True:
        b1, b2 = _distinct_random(rng, n, 2)
        if rank([b1, b2]) == 2:
            break
    ratios: set = set()
    forms: list[tuple[int, ...]] = []
    while len(forms) < r:
        a, c = rng.randint(-3, 3), rng.randint(-3, 3)
        if (a, c) == (0, 0):
            continue
        key = projective_class((a, c))
        if key not in ratios:
            ratios.add(key)
            forms.append(tuple(a * x + c * y for x, y in zip(b1, b2)))
    return forms


def _gp_case(label: str, n: int, forms) -> Case:
    r = len(forms)
    return Case(label, n, tuple(forms), n // (r - n) if r > n else None)


# (recipe, n, r) per input.  "gp" draws random general-position forms; "moment"
# uses the moment curve at seeded nodes.  Several mid-sized inputs of similar
# cost per pass, rather than a few large ones, so that the pass time and the
# per-analysis percentiles vary little between seeds.
_HEAVY = {
    # d_max = 0: all three bipartition scans (search pre-pass, verdict,
    # cross-check) run to the end; witness and enumeration do almost nothing.
    "hyperbolic": {
        "full": [("gp", 2, 10), ("gp", 2, 10), ("gp", 3, 10), ("gp", 3, 10),
                 ("gp", 3, 10), ("gp", 4, 9), ("gp", 4, 9), ("moment", 4, 9)],
        "tiny": [("gp", 2, 5), ("moment", 2, 6)],
    },
    # d_max >= 1: the descending Stirling enumeration from cap = n - m runs
    # through many invalid partitions before the first valid one.
    "partition_search": {
        "full": [("moment", 7, 10), ("gp", 7, 10), ("gp", 6, 10), ("gp", 6, 10),
                 ("moment", 6, 9), ("gp", 6, 9)],
        "tiny": [("moment", 4, 6), ("gp", 3, 5)],
    },
}

# batch_small cycles through every (kind, n, r) with n = 2-5 and r = 3-7, so
# each pass has the same mix; "random" appears twice per cycle.
_BATCH_KINDS = ("random", "general_position", "random", "pencil")
_BATCH_COUNT = {"full": 320, "tiny": 12}


def cases(workload: str, seed: int, size: str = "full") -> list[Case]:
    """The workload's inputs for one seed; the same seed gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{size}:{seed}")
    if workload in _HEAVY:
        out = []
        for recipe, n, r in _HEAVY[workload][size]:
            if recipe == "gp":
                forms = _general_position(rng, n, r, bound=3 if n >= 3 else 4)
            else:
                forms = _moment_curve(rng, n, r)
            out.append(_gp_case(f"{recipe} n={n} r={r}", n, forms))
        return out
    return _batch_small(rng, _BATCH_COUNT[size])


def _batch_small(rng: random.Random, count: int) -> list[Case]:
    """Small mixed inputs (n = 2-5, r = 3-7); no input repeats."""
    out: list[Case] = []
    seen: set = set()
    while len(out) < count:
        i = len(out)
        kind = _BATCH_KINDS[i % 4]
        n, r = 2 + (i // 4) % 4, 3 + (i // 16) % 5
        if kind == "random":
            case = Case(f"random n={n} r={r}", n, tuple(_distinct_random(rng, n, r)), None)
        elif kind == "pencil":
            case = Case(f"pencil n={n} r={r}", n, tuple(_pencil(rng, n, r)), None)
        else:
            case = _gp_case(f"general_position n={n} r={r}", n, _general_position(rng, n, r, 3))
        key = (n, frozenset(projective_class(f) for f in case.forms))
        if key not in seen:
            seen.add(key)
            out.append(case)
    return out
