"""Partition-lattice search for the achievable complement dimensions.

A partition of the form set E into p >= 2 blocks is *valid* when no form lies
in W = sum over blocks of (block span intersected with the span of the other
blocks).  The maximal achievable dimension is m + p_max over valid
partitions, with the guaranteed baseline m + 1 when no partition with at
least two blocks is valid.  ``check_partition`` computes W itself in
``Fraction`` arithmetic; the tests use it and ``brute_force_max_parts`` as
oracles.  The search works in the matroid of the forms instead (flats,
closure and connected components as in Oxley, *Matroid Theory*).  A set of
forms is a *flat* when it contains every form in its span, and *clopen* when
it and its complement are both flats.

Block criterion.  A partition B_1..B_p (p >= 2) is valid iff every block is
clopen.  Let V_j = span(B_j) and V_-j = span(E∖B_j), so that
W = sum_j V_j ∩ V_-j.  If a form x of B_i lies in W, every summand with
j != i lies in V_j ⊆ V_-i and the summand with j = i lies in V_-i, so x lies
in span(E∖B_i) and the complement of B_i is not a flat.  Conversely, a form
x of B_i in span(E∖B_i) lies in V_i ∩ V_-i ⊆ W.  So the partition is valid
iff the complement of every block is a flat; each block is then the
intersection of the other blocks' complements, a flat too.  For p = 2 this
is the bipartition rule of ``corollaries``.  Merging blocks keeps every
complement an intersection of flats, so coarsening preserves validity.

p <= rank.  Pick one form x_i from each block of a valid partition.  A
linear dependence would put some x_i in the span of the others, inside the
flat E∖B_i that does not contain x_i.  So the picks are independent,
p <= rank = n - m, and d_max = m + p_max never exceeds n.

Components.  Two forms lie in one connected component when a circuit (a
minimal dependent set) holds both.  Let T be a separator, a union of
connected components, so the matroid is the direct sum of its restrictions
to T and E∖T: span(T) and span(E∖T) meet only in 0, and the closure of a
set is the union of the closures of its parts in T and in E∖T (no form is
zero, so there are no loops).

* Splitting a separator off a block keeps every block clopen: if B is
  clopen, B ∩ T and B∖T are flats, and so are their complements
  (E∖B) ∩ T ∪ (E∖T) and (E∖B)∖T ∪ T.  Splitting a block that meets both
  T and E∖T adds a block, so a maximum valid partition refines the
  components.
* The clopen sets of a direct sum are exactly the unions of clopen sets of
  its parts.  So the maximum partitions are the unions of one maximum
  partition of each component into sets clopen there, and p_max is the sum
  of the component maxima.  A component with no such partition into two or
  more sets contributes itself as one block; a coloop is a singleton block,
  and independent forms give p = r.
* Partitions are compared by their restricted-growth strings (RGS: the
  label of a form is the rank of its block ordered by least form).  Two
  partitions first differ at the least form i whose block, cut down to the
  forms up to i, differs, and the one whose block of i has the smaller
  least form comes first.  When the partitions are unions over the same
  components, form i and both its blocks lie in one component, and the
  comparison is the same as in that component's own order.  So the
  per-component lexicographically least maximum partitions combine to the
  global one.

Components from relations.  The components are the joined supports of the
rows of ``Arrangement.relations``, a basis of the relations lambda with
sum_i lambda_i f_i = 0.

* Each row lies in one component.  The rows come in form order, and the
  row made at form c is zero at every earlier row's pivot
  (``int_nullspace``).  Its part in a component C other than that of c
  sums to a vector of span(C) ∩ span(E∖C) = 0, so it is a relation among
  forms of C before c and a combination of earlier rows.  By induction
  each earlier row lies in one component, so the part is a combination of
  the earlier rows in C alone.  It is zero at their pivots, and echelon
  rows have no nonzero combination that vanishes at all their pivots, so
  the part is zero.
* The supports join into exactly the components.  The rows in a
  component C span the relations among its forms.  If the supports split
  C into unions X and Y, those relations are the direct sum of the
  relations among X and among Y, so r(C) = |C| - #relations = r(X) + r(Y)
  and C is not connected.  A form in no support is in no circuit: it is a
  coloop.

Search, per component.  The maximum partition is an exact cover by
clopen sets, memoised on the set U of uncovered forms: the lowest
uncovered form f opens the next block, so its candidates are the clopen
sets A with f in A ⊆ U.  A two-sided closure search yields them on demand:
the lowest undecided form joins side A, then side B, that side is closed
with the integer kernel, and a branch dies when the two closures meet.
Side A starts as cl{f} and side B as cl(E∖U).  That loses no candidate:
the complement of a clopen A ⊆ U is a flat that holds E∖U, so it holds
cl(E∖U).  Candidates that cannot reach the best count are pruned by an
upper bound on the blocks of a cover of the forms left: the sum of 1/c(i),
where c(i) is the size of the smallest cocircuit holding form i.  A
cocircuit is the complement of a hyperplane, so c(i) is r minus the
largest flat other than E that avoids i, and a clopen set S other than E
that holds i has such a flat as its complement, so |S| >= c(i)
(``_max_cover`` proves the bound).  Side A only grows, so the closure
search drops a branch as soon as its side A is too heavy for the bound.  A
cover has weight at least 1 per block, so while a candidate must leave
room for one block or none, the bound can only skip forms that have no
cover at all, which the search for their cover finds out by itself.  A
component computes c the first time a candidate must leave room for two
blocks or more; one with no clopen set besides E never does.  In general
position with n + 1 < r <= 2n a flat other than E has at most n forms, so
c(i) = r - n, the clopen sets other than E are the sets of r - n to n
forms, the bound is r / (r - n), and its floor is already the largest
number of blocks.  Ties are decided on the RGS, so the cover found is the
lexicographically least maximum one, the same witness the exhaustive
oracle returns.  The search reads neither s nor the verdicts, so the
exit-3 cross-check that compares them with it stays independent.

c from the shallower side.  The cocircuits of the forms are the circuits
of the columns of their relation rows (``arrangement``), so c(i) is also
the size of the smallest circuit through column i.  Each row lies in one
component (above), so a component C has its own |C| - rank(C) rows, which
give its rank with no elimination, and ``dual_is_shallower`` picks the side
from that rank and row count, as it does for s.
``_smallest_cocircuits`` lists flats of the forms down to rank(C) - 2;
``_smallest_dual_circuits`` takes columns into an independent set T with
``_close``.  Before each take of u it gives every column whose residual is
± that of u the bound |T| + 2, when there are two or more: such a column
e lies in span(T + u) but not in span(T), and the circuit inside T + u + e
holds both.  So every bound is a true circuit size.  It is also the
least: for a smallest circuit C through column i, let G = cl(C∖i).  The
path that takes the members of G but skips i skips only i and columns
outside G.  Its closure stays inside the flat G, so it can die only on i;
and while i is outside the closure, some member of C∖i is too, still
undecided.  So the path pulls i in, or dies on i, by rank |C| - 1, at a
take from |T| <= |C| - 2 that gives i its bound before the step.  A branch
stops once no column outside its flat can get a bound below its current
one, since every later take records |T| + 2 or more.

Test before closing.  Each closure search here tests, before it closes a
side with u, the condition the child would test on entry, on a superset of
what the child reads, and skips the closure when the child would return at
once.  ``_splits`` closes A with u only when ``keep`` accepts A + u: the
closure holds A + u, and ``keep`` rejects every superset of a set it
rejects; it closes B only when ``keep`` still accepts A.
``_smallest_dual_circuits`` takes u only when a column other than u is
undecided, and one outside the flat of T has a bound above |T| + 3: the
child's undecided columns and those outside its flat are among these, and
its entry tests ask for one undecided and for one outside with a bound
above |T + u| + 2.  No test reads anything that changes between the test
and the child's entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Callable, Iterator, Optional, Sequence

from .arrangement import Arrangement, dual_is_shallower, refuse_above_scan_limit
from .exact_linalg import (
    InternalError,
    Subspace,
    contains,
    intersect,
    primitive_vector,
    span,
)

Blocks = tuple[tuple[int, ...], ...]
Mask = int  # a set of forms: bit i set for form i

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


def partitions_rgs(r: int) -> Iterator[tuple[int, ...]]:
    """Set partitions of range(r) as restricted-growth strings, lex order."""
    if r < 1:
        return
    rgs = [0] * r

    def rec(i: int, maxlab: int) -> Iterator[tuple[int, ...]]:
        if i == r:
            yield tuple(rgs)
            return
        for lab in range(maxlab + 2):
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
        self.all_indices = frozenset(range(a.r))
        self._span: dict[frozenset, Subspace] = {}
        self._overlap: dict[frozenset, Subspace] = {}

    def span_of(self, indices: frozenset) -> Subspace:
        cached = self._span.get(indices)
        if cached is None:
            cached = span([self.a.forms[i] for i in sorted(indices)], self.a.n + 1)
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


def validate_partition(a: Arrangement, blocks: Blocks) -> None:
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
    validate_partition(a, blocks)
    if cache is None:
        cache = SpanCache(a)
    w_rows: list = []
    for block in blocks:
        w_rows.extend(cache.overlap(frozenset(block)).basis)
    w_space = span(w_rows, a.n + 1)
    violating = None
    if not w_space.is_zero:
        for idx, vec in enumerate(a.forms):
            if contains(w_space, vec):
                violating = idx
                break
    return PartitionCheck(
        valid=violating is None, w_space=w_space, violating_form=violating
    )


def _low(mask: Mask) -> int:
    """Index of the lowest set bit."""
    return (mask & -mask).bit_length() - 1


def _components(a: Arrangement) -> list[Mask]:
    """Connected components of the forms' matroid, ordered by least form.

    Joins the supports of the arrangement's relations (module docstring);
    a form in no support is a coloop and stays alone.
    """
    comps = [1 << i for i in range(a.r)]
    for _, relation in a.relations:
        support = sum(1 << i for i, x in enumerate(relation) if x)
        comps = [c for c in comps if not c & support] + [
            sum(c for c in comps if c & support)  # disjoint: sum is union
        ]
    return sorted(comps, key=_low)


def _close(side: Mask, outside: dict[int, Sequence[int]], u: int, other: Mask):
    """Closure of ``side`` plus form ``u``; None when it meets ``other``.

    ``outside`` maps each form not in ``side`` to its residual against the
    span of ``side``; reducing those by the residual of ``u`` gives the
    residuals against the grown span, and a zero residual puts its form in
    the closure.  A residual that is zero at the pivot of ``u``'s residual
    is already reduced, and it stays nonzero.  Returns the closed side and
    its ``outside`` map.  The step is inline: in this hot loop a call to
    ``int_residual`` per residual measured about 10 % slower.
    """
    row = outside[u]
    pivot = next(j for j, x in enumerate(row) if x)
    lead = row[pivot]
    side |= 1 << u
    still_outside = {}
    for e, res in outside.items():
        c = res[pivot]
        if not c:
            still_outside[e] = res
        elif e != u:
            res = [lead * x - c * y for x, y in zip(res, row)]
            g = gcd(*res)
            if g:
                still_outside[e] = [x // g for x in res] if g > 1 else res
            elif other >> e & 1:
                return None
            else:
                side |= 1 << e
    return side, still_outside


def _splits(
    full: Mask, a: Mask, a_out: dict, b: Mask, b_out: dict, keep: Callable[[Mask], bool]
) -> Iterator[Mask]:
    """Side A of every split of ``full`` into two flats around the seeds.

    Two-sided closure search: the lowest undecided form joins side A, then
    side B, that side is closed again, and a branch dies when the two
    closures meet or when ``keep`` rejects side A.  Sides only grow, so a
    rejected A rejects its whole branch as long as ``keep`` only tightens.
    So A is closed with u only when ``keep`` accepts A + u, and B only when
    it still accepts A: the A child's side holds A + u, and ``keep`` cannot
    change before the child tests it, as nothing is yielded in between.
    Trying A first yields the sides A in decreasing order of their
    indicator strings read from form 0.
    """
    if not keep(a):
        return
    undecided = full & ~(a | b)
    if not undecided:
        yield a
        return
    u = _low(undecided)
    grown = keep(a | 1 << u) and _close(a, a_out, u, b)
    if grown:
        yield from _splits(full, *grown, b, b_out, keep)
    grown = keep(a) and _close(b, b_out, u, a)
    if grown:
        yield from _splits(full, a, a_out, *grown, keep)


def _smallest_cocircuits(vecs: list[tuple[int, ...]], rank: int) -> list[int]:
    """For each form i, the size of the smallest cocircuit that holds it.

    A cocircuit is the complement of a hyperplane, so the smallest one
    through i is r minus the largest hyperplane that avoids i.  The search
    lists flats two ranks below the whole set: the lowest undecided form is
    taken into the flat, which is closed again, or skipped, and a branch
    dies when the closure takes in a skipped form.  Each take raises the
    rank by one.  Over such a flat F the forms outside reduce to a plane,
    so the hyperplanes through F are F plus one projective class of those
    residuals each.  A branch stops once no hyperplane in it, which avoids
    every skipped form, can be larger than the largest already found for
    every form outside F.  ``rank`` is the rank of all the vectors.
    """
    k = len(vecs)
    full = (1 << k) - 1
    coline = rank - 2
    zero = (0,) * len(vecs[0])
    largest = [0] * k

    def dfs(flat: Mask, outside: dict, skipped: Mask, rank: int) -> None:
        size = flat.bit_count()
        undecided = full & ~(flat | skipped)
        reach = size + undecided.bit_count()
        if all(largest[i] >= reach for i in outside):
            return
        if rank == coline:
            classes: dict[tuple[int, ...], Mask] = {}
            for e, res in outside.items():  # residuals are primitive up to sign
                key = tuple(res)
                if key < zero:
                    key = tuple(-x for x in key)
                classes[key] = classes.get(key, 0) | 1 << e
            # the residuals span the plane, so there are two classes or more
            first, second = sorted(classes.values(), key=int.bit_count)[:-3:-1]
            for i in outside:
                other = second if first >> i & 1 else first
                largest[i] = max(largest[i], size + other.bit_count())
            return
        if not undecided:
            return
        u = _low(undecided)
        grown = _close(flat, outside, u, skipped)
        if grown:
            dfs(*grown, skipped, rank + 1)
        dfs(flat, outside, skipped | 1 << u, rank)

    dfs(0, dict(enumerate(vecs)), 0, 0)
    del dfs  # break the function <-> cell cycle, so no garbage is left for gc
    return [k - f for f in largest]


def _smallest_dual_circuits(relations: list[tuple[int, ...]], k: int) -> list[int]:
    """For each of k forms, the size of the smallest cocircuit that holds it.

    The same numbers as ``_smallest_cocircuits``, from the k columns of the
    relation rows, whose circuits are the cocircuits of the forms.  A zero
    column is a circuit by itself.  Otherwise the lowest undecided column u
    is taken into the independent set T, whose flat is closed again, or
    skipped, and a branch dies when the closure takes in a skipped column.
    Before each take, when two or more columns have residuals ± that of u,
    skipped ones included, each of them gets the bound |T| + 2.  The module
    docstring proves the bounds exact, and why u is taken only while a
    column other than u can still get a bound below the current one.
    """
    corank = len(relations)
    columns = [tuple(lam[i] for lam in relations) for i in range(k)]
    smallest = [corank + 1 if any(col) else 1 for col in columns]
    # lists, as ``_close`` makes its residuals, so that == compares them
    nonzero = {e: list(primitive_vector(col)) for e, col in enumerate(columns) if any(col)}
    full = sum(1 << e for e in nonzero)

    def dfs(flat: Mask, outside: dict, skipped: Mask, rank: int) -> None:
        if all(smallest[e] <= rank + 2 for e in outside):
            return
        undecided = full & ~(flat | skipped)
        if not undecided:
            return
        u = _low(undecided)
        row = outside[u]
        neg = [-x for x in row]
        same = [e for e, res in outside.items() if res == row or res == neg]
        if len(same) > 1:
            for e in same:
                smallest[e] = min(smallest[e], rank + 2)
        # the child's entry tests, on supersets of its ``outside`` and ``undecided``
        if undecided & ~(1 << u) and any(smallest[e] > rank + 3 for e in outside if e != u):
            grown = _close(flat, outside, u, skipped)
            if grown:
                dfs(*grown, skipped, rank + 1)
        dfs(flat, outside, skipped | 1 << u, rank)

    dfs(0, nonzero, 0, 0)
    del dfs  # break the function <-> cell cycle, so no garbage is left for gc
    return smallest


def _max_cover(
    vecs: list[tuple[int, ...]], relations: list[tuple[int, ...]]
) -> tuple[int, ...]:
    """RGS of the lexicographically least partition into most clopen sets.

    Exact cover memoised on the uncovered forms U: the lowest uncovered form
    f opens the next block, so its candidates are the clopen sets A with
    f in A ⊆ U.  They come from ``_splits`` seeded with A = cl{f} and
    B = cl(E∖U), which loses none: the complement of such an A is a flat
    that holds E∖U, so it holds cl(E∖U).  They arrive in the order of their
    best possible RGS (labels 0 on A, 1 elsewhere).  A candidate is skipped
    when the forms it leaves cannot be covered by enough blocks to beat the
    best cover so far, or to tie it with a smaller RGS.

    Weight bound.  Let c(i) be the size of the smallest cocircuit that holds
    form i (``_smallest_cocircuits``).  A clopen set S other than E that
    holds i has a complement that is a flat other than E avoiding i, so
    |S| >= c(i), and |E| = r >= c(i).  A block B holds only forms with
    c(i) <= |B|, so sum over i in B of 1/c(i) >= 1, and a cover of a set U
    has at most sum over i in U of 1/c(i) blocks.  The sum is kept in
    integers, with weight lcm/c(i) for form i.  A candidate A leaves room
    for ``want`` more blocks only if weight(A) + want * lcm <= weight(U),
    and A only grows in the search, so the test prunes the search itself.
    While ``want`` is 1 or less the test can only skip forms that have no
    cover at all, which ``solve`` finds out by itself, so c is computed the
    first time ``want`` reaches 2.  A component with no clopen set besides
    E never gets there.  ``relations`` are the component's rows of
    ``Arrangement.relations``, cut down to its forms: they give its rank
    and the side c is read from (module docstring).
    """
    k = len(vecs)
    nothing = dict(enumerate(vecs))
    by_bound: dict[int, Mask] = {}  # c(i) -> the forms i with that bound, once known
    scale = 1
    best: dict[Mask, tuple[int, tuple[int, ...]]] = {0: (0, ())}

    def weight(mask: Mask) -> int:
        return sum(scale // c * (mask & m).bit_count() for c, m in by_bound.items())

    def solve(uncovered: Mask, need: int) -> Optional[tuple[int, tuple[int, ...]]]:
        """(blocks, RGS) of the best cover if it has at least ``need`` blocks."""
        nonlocal scale
        hit = best.get(uncovered)
        if hit is not None:
            return hit if hit[0] >= need else None
        forms = [i for i in range(k) if uncovered >> i & 1]
        b, b_out = 0, nothing
        for e in range(k):
            if not (uncovered | b) >> e & 1:
                b, b_out = _close(b, b_out, e, 0)
        seed = None if b >> forms[0] & 1 else _close(0, nothing, forms[0], b)
        if seed is None:
            return None
        top = None
        floor = need - 1  # blocks every later candidate must leave room for

        def keep(a: Mask) -> bool:
            return not by_bound or weight(a) + floor * scale <= weight(uncovered)

        for s in _splits((1 << k) - 1, *seed, b, b_out, keep):
            rest = uncovered & ~s
            # blocks the rest must reach: as many as the best cover so far
            # has after its first block, one more when a first block s
            # cannot give a smaller RGS (labels 0 on s, 1 elsewhere); a
            # later candidate needs no fewer
            want = need - 1
            if top is not None:
                want = top[0] - 1 + (
                    tuple(0 if s >> i & 1 else 1 for i in forms) >= top[1]
                )
            floor = want
            if want > 1 and not by_bound:
                rank = k - len(relations)
                if dual_is_shallower(rank, len(relations)):
                    bound = _smallest_dual_circuits(relations, k)
                else:
                    bound = _smallest_cocircuits(vecs, rank)
                for i, c in enumerate(bound):
                    by_bound[c] = by_bound.get(c, 0) | 1 << i
                scale = lcm(*by_bound)
            if by_bound and weight(rest) < want * scale:
                continue
            sub = solve(rest, want)
            if sub is None:
                continue
            labels = iter(sub[1])
            rgs = tuple(0 if s >> i & 1 else 1 + next(labels) for i in forms)
            if top is None or (-1 - sub[0], rgs) < (-top[0], top[1]):
                top = (1 + sub[0], rgs)
                floor = top[0] - 1
        if top is not None:
            best[uncovered] = top
        return top

    rgs = solve((1 << k) - 1, 1)[1]
    del solve  # break the function <-> cell cycle, so no garbage is left for gc
    return rgs


def max_valid_parts(a: Arrangement) -> tuple[Optional[int], Optional[Blocks]]:
    """Maximum number of blocks of a valid partition, with a witness.

    Returns (None, None) when no partition with >= 2 blocks is valid (or the
    arrangement has a single form).  The witness is the lexicographically
    least restricted-growth string among the valid partitions with the
    maximal block count.  Each matroid component contributes its own
    lexicographically least maximum partition into clopen sets (module
    docstring); a coloop, a component of one form, is its own block and
    needs no cover.  Refuses above ``BIPARTITION_SCAN_LIMIT`` forms.
    """
    refuse_above_scan_limit(a, "partition search")
    blocks = []
    for comp in _components(a):
        forms = [i for i in range(a.r) if comp >> i & 1]
        if not comp & (comp - 1):  # a coloop is a singleton block
            blocks.append(tuple(forms))
            continue
        relations = [tuple(lam[i] for i in forms) for p, lam in a.relations if comp >> p & 1]
        for block in blocks_of(_max_cover([a.forms[i] for i in forms], relations)):
            blocks.append(tuple(forms[i] for i in block))
    if len(blocks) < 2:
        return None, None
    return len(blocks), tuple(sorted(blocks))


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
    m = a.m
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
