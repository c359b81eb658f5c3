"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass.  All tolerances are exact (rational arithmetic).
"""

import random
from itertools import combinations

from hyparc.corollaries import finiteness_verdict
from hyparc.dimension_search import (
    SpanCache,
    achievable_dimensions,
    blocks_of,
    brute_force_max_parts,
    check_partition,
    max_valid_parts,
    partitions_rgs,
)
from hyparc.exact_linalg import intersect, nullspace, span
from hyparc.witness import (
    build_u_chain,
    build_witness_for_mplus1,
    witness_subspace,
)

from .corpus import moment_curve_arrangement, random_arrangement
from .oracles import induced_partition, make_witness


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _witness_for(a, rep):
    if rep.best_partition is not None:
        return witness_subspace(build_u_chain(a, rep.best_partition))
    return build_witness_for_mplus1(a)


def _check_witness_soundness(a, rep, failures):
    w = _witness_for(a, rep)
    # Re-deriving the witness from its point basis alone reproduces it,
    # verification record included.
    if w.dim != rep.d_max or not w.verification.ok or make_witness(a, w.point_basis) != w:
        failures.append((a.n, a.r, "witness dimension or verification"))
        return
    blocks = induced_partition(a, w)
    if rep.parts_max is not None:
        if blocks is None or not check_partition(a, blocks).valid:
            failures.append((a.n, a.r, "induced partition invalid"))


def test_criterion_1_general_position_grid():
    """d_max equals floor(n / (r - n)) on the moment-curve grid."""
    failures = []
    for n in range(2, 5):
        for r in range(n + 1, n + 6):
            a = moment_curve_arrangement(n, r)
            rep = achievable_dimensions(a)
            expected = n // (r - n)
            if rep.d_max != expected:
                failures.append((n, r, rep.d_max, expected))
    _report(1, not failures, f"general-position grid, 2<=n<=4, n+1<=r<=n+5 {failures}")


def test_criterion_2_finiteness_threshold():
    """For n=2, general position r in {5, 6, 7}: d_max = 0 and finiteness."""
    failures = []
    for r in (5, 6, 7):
        a = moment_curve_arrangement(2, r)
        rep = achievable_dimensions(a)
        if rep.d_max != 0 or not finiteness_verdict(a):
            failures.append((r, rep.d_max))
    _report(2, not failures, f"r > 2s threshold at n=2 {failures}")


def test_criterion_3_baseline_guarantee():
    """d_max >= m + 1 and achievable = {0, ..., d_max} on 50 random cases."""
    rng = random.Random(303)
    failures = []
    for _ in range(50):
        a = random_arrangement(rng, rng.randint(1, 4), rng.randint(1, 7))
        rep = achievable_dimensions(a)
        if rep.d_max < rep.m + 1 or rep.achievable != tuple(range(rep.d_max + 1)):
            failures.append((a.n, a.r, rep))
    _report(3, not failures, f"50 random arrangements {failures}")


def test_criterion_4_oracle_equivalence():
    """Pruned search equals exhaustive enumeration on 200 random cases."""
    rng = random.Random(404)
    failures = []
    for _ in range(200):
        a = random_arrangement(rng, rng.randint(1, 4), rng.randint(2, 7))
        pruned = max_valid_parts(a)
        brute = brute_force_max_parts(a)
        if pruned != brute:
            failures.append((a.n, a.r, pruned, brute))
            continue
        if pruned[1] is not None and not check_partition(a, pruned[1]).valid:
            failures.append((a.n, a.r, "witness invalid"))
    _report(4, not failures, f"200 random arrangements {failures}")


def test_criterion_5_witness_soundness():
    """Witnesses across criteria 1-4 verify, have the claimed dimension, and
    induce a valid partition (when the criterion applies)."""
    failures = []
    for n in range(2, 5):
        for r in range(n + 1, n + 6):
            a = moment_curve_arrangement(n, r)
            _check_witness_soundness(a, achievable_dimensions(a), failures)
    rng = random.Random(505)
    for _ in range(50):
        a = random_arrangement(rng, rng.randint(1, 4), rng.randint(1, 7))
        _check_witness_soundness(a, achievable_dimensions(a), failures)
    _report(5, not failures, f"grid + 50 random witnesses {failures}")


def test_criterion_6_coarsening_monotonicity():
    """Every coarsening of a valid partition stays valid, 100 random pairs."""
    rng = random.Random(606)
    failures = []
    pairs = 0
    while pairs < 100:
        a = random_arrangement(rng, rng.randint(2, 4), rng.randint(3, 7))
        cache = SpanCache(a)
        valid = [
            blocks_of(rgs)
            for rgs in partitions_rgs(a.r)
            if max(rgs) >= 2 and check_partition(a, blocks_of(rgs), cache=cache).valid
        ]
        if not valid:
            continue
        blocks = rng.choice(valid)
        pairs += 1
        for i, j in combinations(range(len(blocks)), 2):
            merged = tuple(sorted(blocks[i] + blocks[j]))
            coarser = tuple(
                sorted(
                    [merged] + [b for k, b in enumerate(blocks) if k not in (i, j)],
                    key=min,
                )
            )
            if not check_partition(a, coarser, cache=cache).valid:
                failures.append((a.n, a.r, blocks, coarser))
    _report(6, not failures, f"100 (arrangement, valid partition) pairs {failures}")


def test_criterion_7_kernel_properties():
    """Grassmann identity, canonical uniqueness, zero-set rank complement:
    1000 randomized cases each."""
    rng = random.Random(707)
    failures = []

    def random_rows(width):
        return [
            [rng.randint(-4, 4) for _ in range(width)]
            for _ in range(rng.randint(0, width + 1))
        ]

    for _ in range(1000):
        width = rng.randint(2, 5)
        u, v = span(random_rows(width), width), span(random_rows(width), width)
        if span(u.basis + v.basis, width).rank + intersect(u, v).rank != u.rank + v.rank:
            failures.append(("grassmann", u, v))
    for _ in range(1000):
        width = rng.randint(2, 5)
        rows = random_rows(width)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        scaled = []
        for row in shuffled:
            scale = rng.choice([1, 2, -1, 3, -7])
            scaled.append([scale * c for c in row])
        if span(scaled, width) != span(rows, width):
            failures.append(("uniqueness", rows))
    for _ in range(1000):
        width = rng.randint(2, 5)
        forms = span(random_rows(width), width)
        if nullspace(forms.basis, width).rank != width - forms.rank:
            failures.append(("zero_set", forms))
    _report(7, not failures, f"3 x 1000 randomized kernel cases {failures}")
