"""Partition-lattice search for the achievable complement dimensions.

A partition of the form set into p >= 2 blocks is *valid* when no form lies
in W = sum over blocks of (block span intersected with the span of the other
blocks).  The maximal achievable dimension is m + p_max over valid
partitions, with the guaranteed baseline m + 1 when no partition with at
least two blocks is valid.

Key structural facts used by the search:

* The span of a union of blocks equals the sum of the block spans, so the
  per-block contribution to W depends only on the block, not the partition.
  Block spans and overlaps are therefore memoized per arrangement.
* Validity is preserved under coarsening (merging blocks).  Contrapositive:
  if any bipartition coarsening of a candidate is invalid, the candidate is
  invalid.  The search precomputes all bipartition verdicts and uses them to
  discard candidates before the full check; if no bipartition is valid, no
  partition with >= 2 blocks can be.
* A bipartition (S, E∖S) is valid iff S and E∖S are both flats, i.e. each
  side contains every form in its own span.  Proof: for p = 2,
  W = span(S) ∩ span(E∖S), and a form of S always lies in span(S), so it
  lies in W iff it lies in span(E∖S); likewise for a form of E∖S.  The
  pre-pass therefore needs only integer rank tests, no intersections.

Partitions are enumerated via restricted-growth strings in lexicographic
order, which fixes the reported witness deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .arrangement import Arrangement, compute_m, refuse_above_scan_limit
from .exact_linalg import InternalError, Subspace, contains, intersect, is_flat, span

Blocks = tuple[tuple[int, ...], ...]

BRUTE_FORCE_LIMIT = 9  # Bell(9) = 21147 partitions


@dataclass(frozen=True)
class PartitionCheck:
    valid: bool
    w_space: Subspace
    violating_form: Optional[int]


@dataclass(frozen=True)
class DimensionReport:
    m: int
    d_max: int
    achievable: tuple[int, ...]
    best_partition: Optional[Blocks]
    parts_max: Optional[int]


def partitions_rgs(r: int, blocks: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Set partitions of range(r) as restricted-growth strings, lex order.

    With ``blocks`` given, only partitions with exactly that many blocks are
    produced (branches that can no longer reach the count are pruned).
    """
    if r < 1:
        return
    rgs = [0] * r

    def rec(i: int, maxlab: int) -> Iterator[tuple[int, ...]]:
        if i == r:
            if blocks is None or maxlab + 1 == blocks:
                yield tuple(rgs)
            return
        hi = maxlab + 1
        if blocks is not None:
            hi = min(hi, blocks - 1)
            if maxlab + (r - i) < blocks - 1:
                return  # cannot reach the required block count
        for lab in range(hi + 1):
            rgs[i] = lab
            yield from rec(i + 1, max(maxlab, lab))

    yield from rec(1, 0)


def blocks_of(rgs: tuple[int, ...]) -> Blocks:
    nblocks = max(rgs) + 1
    blocks: list[list[int]] = [[] for _ in range(nblocks)]
    for idx, lab in enumerate(rgs):
        blocks[lab].append(idx)
    return tuple(tuple(b) for b in blocks)


class SpanCache:
    """Per-arrangement memo of block spans and block/complement overlaps."""

    def __init__(self, a: Arrangement):
        self.a = a
        self.vectors = a.form_vectors()
        self.all_indices = frozenset(range(a.r))
        self._span: dict[frozenset, Subspace] = {}
        self._overlap: dict[frozenset, Subspace] = {}

    def span_of(self, indices: frozenset) -> Subspace:
        cached = self._span.get(indices)
        if cached is None:
            cached = span([self.vectors[i] for i in sorted(indices)], self.a.n + 1)
            self._span[indices] = cached
        return cached

    def overlap(self, block: frozenset) -> Subspace:
        """(block span) intersected with (span of all other forms)."""
        cached = self._overlap.get(block)
        if cached is None:
            cached = intersect(
                self.span_of(block), self.span_of(self.all_indices - block)
            )
            self._overlap[block] = cached
        return cached


def _validate_partition(a: Arrangement, blocks: Blocks) -> None:
    seen: set[int] = set()
    if len(blocks) < 2:
        raise ValueError("partition must have at least 2 blocks")
    for block in blocks:
        if not block:
            raise ValueError("partition contains an empty block")
        for idx in block:
            if idx in seen:
                raise ValueError(f"index {idx} appears in two blocks")
            if not 0 <= idx < a.r:
                raise ValueError(f"index {idx} out of range for {a.r} forms")
            seen.add(idx)
    if len(seen) != a.r:
        raise ValueError("partition does not cover all form indices")


def check_partition(
    a: Arrangement, blocks: Blocks, cache: Optional[SpanCache] = None
) -> PartitionCheck:
    """Evaluate the separation criterion for one partition.

    Computes W = sum over blocks of (block span ∩ span of the other blocks)
    and reports the first form (in canonical order) lying in W, if any.
    """
    _validate_partition(a, blocks)
    if cache is None:
        cache = SpanCache(a)
    w_rows: list = []
    for block in blocks:
        w_rows.extend(cache.overlap(frozenset(block)).basis)
    w_space = span(w_rows, a.n + 1)
    violating = None
    if not w_space.is_zero:
        for idx, vec in enumerate(cache.vectors):
            if contains(w_space, vec):
                violating = idx
                break
    return PartitionCheck(
        valid=violating is None, w_space=w_space, violating_form=violating
    )


def _merges_all_valid(keys: list[int], bip_ok: bytearray) -> bool:
    """Are all bipartition coarsenings of a partition valid?

    ``keys[j]`` has bit i set for each form i of block j.  Each coarsening
    merges the blocks into two groups; the group containing form 0 (block 0)
    indexes ``bip_ok`` once shifted right by one bit.  Necessary for validity.
    """
    first, rest = keys[0], keys[1:]
    for mask in range(2 ** len(rest) - 1):  # exclude merging everything together
        side = first
        for k, key in enumerate(rest):
            if mask >> k & 1:
                side |= key
        if not bip_ok[side >> 1]:
            return False
    return True


def max_valid_parts(a: Arrangement) -> tuple[Optional[int], Optional[Blocks]]:
    """Maximum number of blocks of a valid partition, with a witness.

    Returns (None, None) when no partition with >= 2 blocks is valid (or the
    arrangement has a single form).  The witness is the lexicographically
    least restricted-growth string among the valid partitions with the
    maximal block count.  Refuses above ``BIPARTITION_SCAN_LIMIT`` forms.
    """
    r = a.r
    refuse_above_scan_limit(a, "partition search")
    m = compute_m(a)
    cap = min(r, a.n - m)  # d = m + p cannot exceed n; a single form gives 1
    if cap < 2:
        return None, None
    cache = SpanCache(a)

    # Verdicts for all 2^(r-1) bipartitions (valid iff both sides are flats),
    # one byte each: a set-keyed table takes gigabytes at r = 22.  Index: the
    # side containing form 0, with bit i-1 set for each other form i in it.
    bip_ok = bytearray(2 ** (r - 1))  # the last index, side == all, stays 0
    coeffs = [f.coeffs for f in a.forms]
    for mask in range(2 ** (r - 1) - 1):
        side = frozenset([0] + [k + 1 for k in range(r - 1) if mask >> k & 1])
        bip_ok[mask] = is_flat(coeffs, side) and is_flat(coeffs, cache.all_indices - side)
    if 1 not in bip_ok:
        return None, None  # every partition coarsens to some bipartition

    for p in range(cap, 1, -1):
        for rgs in partitions_rgs(r, blocks=p):
            keys = [0] * p
            for i, lab in enumerate(rgs):
                keys[lab] |= 1 << i
            if not _merges_all_valid(keys, bip_ok):
                continue
            blocks = blocks_of(rgs)
            # A bipartition is its own only coarsening, so the flat test decides it.
            if p == 2 or check_partition(a, blocks, cache).valid:
                return p, blocks
    return None, None


def brute_force_max_parts(a: Arrangement) -> tuple[Optional[int], Optional[Blocks]]:
    """Oracle: exhaustively check every partition with >= 2 blocks.

    No search pruning at all; same result contract as ``max_valid_parts``.
    Refuses arrangements above ``BRUTE_FORCE_LIMIT`` forms (Bell numbers explode).
    """
    if a.r > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force refused: {a.r} forms exceeds the limit of {BRUTE_FORCE_LIMIT}"
        )
    if a.r < 2:
        return None, None
    cache = SpanCache(a)
    best_parts: Optional[int] = None
    best_blocks: Optional[Blocks] = None
    for rgs in partitions_rgs(a.r):
        blocks = blocks_of(rgs)
        if len(blocks) < 2:
            continue
        if check_partition(a, blocks, cache).valid:
            if best_parts is None or len(blocks) > best_parts:
                best_parts = len(blocks)
                best_blocks = blocks
    return best_parts, best_blocks


def achievable_dimensions(a: Arrangement) -> DimensionReport:
    """Full classification: maximal dimension d_max and the range below it.

    d_max = m + p_max when a valid partition exists, else the guaranteed
    baseline m + 1.  Every dimension from 0 up to d_max is achievable
    (witnesses of any smaller dimension exist; see the witness module).
    """
    m = compute_m(a)
    parts, witness = max_valid_parts(a)
    d_max = m + parts if parts is not None else m + 1
    if d_max > a.n or d_max < m + 1:
        raise InternalError(
            f"computed d_max={d_max} outside [{m + 1}, {a.n}]; this cannot happen"
        )
    return DimensionReport(
        m=m,
        d_max=d_max,
        achievable=tuple(range(0, d_max + 1)),
        best_partition=witness,
        parts_max=parts,
    )
