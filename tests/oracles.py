"""Test oracles that ``analyze`` never runs.

``is_flat`` is the plain definition of a flat of the forms' matroid, which
the clopen tests compare the search's criteria against.
``largest_subset_of_rank`` is the subset search that computed s before
``hyparc.arrangement`` searched hyperplanes and relation circuits for it.  ``clopen_sets``
lists every clopen set of a component, and ``eager_max_cover`` runs the
exact cover over that list with the exact sizes of the smallest clopen
sets as its bound: the on-demand cover in ``hyparc.dimension_search`` is
checked against both.
``generic_avoiding_extension`` and ``restrictions`` are the ``Fraction``
moment-curve walk and witness restrictions, on canonical RREF bases, that
the integer ones in ``hyparc.witness`` are checked against, and
``sequential_u_chain`` is the paper's chain of block steps built from them.
``u_invariant_failure`` checks the four invariants on U from their
definitions, with ``Fraction`` block meets.
``make_witness`` verifies the span of rational point rows as a witness.
``shrink_witness`` and ``induced_partition`` are the constructive proof
behind the report's ``achievable`` list: every dimension below d_max has a
verified witness, and a verified witness of dimension d > m + 1 induces a
valid partition into d - m blocks.
"""

from fractions import Fraction
from itertools import count
from math import lcm
from typing import Iterable, Optional, Sequence

from hyparc.arrangement import Arrangement
from hyparc.dimension_search import Blocks, Mask, _close, _low
from hyparc.exact_linalg import (
    DimensionMismatchError,
    IntRows,
    Subspace,
    Vector,
    contains,
    int_echelon,
    int_residual,
    intersect,
    nullspace,
    primitive_vector,
    reduce_against,
    span,
    vector,
)
from hyparc.witness import WitnessSubspace, _generic_point, _witness


def is_flat(vectors: Sequence[Sequence[int]], side: Iterable[int]) -> bool:
    """True when no vector outside ``side`` lies in the span of those inside.

    ``side`` holds indices into ``vectors``; such a set is a flat of the
    vectors' matroid.
    """
    inside = set(side)
    rows = int_echelon(vectors[i] for i in inside)
    return all(
        any(int_residual(rows, v)) for i, v in enumerate(vectors) if i not in inside
    )


def largest_subset_of_rank(vectors: Sequence[Sequence[int]], cap: int) -> int:
    """The largest number of the vectors whose span has rank at most ``cap``.

    s is this number for the forms and cap n.  Rank is monotone in the
    subset, so the search grows subsets incrementally and prunes any branch
    whose rank would pass ``cap``; a dependent vector is always taken (it
    enlarges the subset without changing the rank).
    """
    r = len(vectors)
    best = 0

    def dfs(i: int, rows: list, count: int) -> None:
        nonlocal best
        if count + (r - i) <= best:
            return
        if i == r:
            best = max(best, count)
            return
        res = int_residual(rows, vectors[i])
        pivot = next((j for j, x in enumerate(res) if x), None)
        if pivot is None:
            dfs(i + 1, rows, count + 1)  # free: rank unchanged
        else:
            if len(rows) < cap:
                dfs(i + 1, rows + [(pivot, res)], count + 1)
            dfs(i + 1, rows, count)

    dfs(0, [], 0)
    return best


def clopen_sets(vecs: list[tuple[int, ...]]) -> list[Mask]:
    """Every nonempty clopen set of the vectors' matroid, as bitmasks.

    Two-sided closure search: the lowest undecided form joins one side or
    the other, the side is closed again, and a branch dies when the two
    closures meet.  Form 0 starts on the first side, so each clopen pair
    {S, complement} is reached once.
    """
    full = (1 << len(vecs)) - 1
    found: list[Mask] = []

    def dfs(a: Mask, a_out: dict, b: Mask, b_out: dict) -> None:
        undecided = full & ~(a | b)
        if not undecided:
            found.extend(s for s in (a, b) if s)
            return
        u = _low(undecided)
        grown = _close(a, a_out, u, b)
        if grown:
            dfs(*grown, b, b_out)
        grown = _close(b, b_out, u, a)
        if grown:
            dfs(a, a_out, *grown)

    nothing = dict(enumerate(vecs))
    dfs(*_close(0, nothing, 0, 0), 0, nothing)
    del dfs  # break the function <-> cell cycle, so no garbage is left for gc
    return found


def eager_max_cover(vecs: list[tuple[int, ...]]) -> tuple[int, ...]:
    """RGS of the lexicographically least partition into most clopen sets.

    Exact cover memoised on the uncovered forms: the lowest uncovered form
    opens the next block, so its candidates are the clopen sets with that
    least form, tried in the order of their best possible RGS.  A candidate
    is skipped when the forms it leaves cannot be covered by enough blocks
    to beat the best cover so far, or to tie it with a smaller RGS.

    Size bound.  Let size(i) be the size of the smallest clopen set that
    holds form i.  A block B holds only forms with size(i) <= |B|, so
    sum over i in B of 1/size(i) >= 1, and a cover of a set U has at most
    sum over i in U of 1/size(i) blocks.  The sum is kept in integers, with
    weight lcm/size(i) for form i.
    """
    k = len(vecs)
    clopen = clopen_sets(vecs)
    by_size: dict[int, Mask] = {}  # size(i) -> the forms i with that size
    unsized = (1 << k) - 1
    for s in sorted(clopen, key=int.bit_count):  # E itself is clopen
        if s & unsized:
            by_size[s.bit_count()] = by_size.get(s.bit_count(), 0) | s & unsized
            unsized &= ~s
    scale = lcm(*by_size)
    starting: dict[int, list[Mask]] = {}
    # by the least RGS a first block s allows: labels 0 on s, 1 elsewhere
    for s in sorted(clopen, key=lambda s: format(s, "b").zfill(k)[::-1], reverse=True):
        starting.setdefault(_low(s), []).append(s)
    best: dict[Mask, tuple[int, tuple[int, ...]]] = {0: (0, ())}

    def reaches(mask: Mask, blocks: int) -> bool:
        """False when no cover of ``mask`` has ``blocks`` blocks or more."""
        weight = sum(scale // c * (mask & m).bit_count() for c, m in by_size.items())
        return weight >= blocks * scale

    def solve(uncovered: Mask, need: int) -> Optional[tuple[int, tuple[int, ...]]]:
        """(blocks, RGS) of the best cover if it has at least ``need`` blocks."""
        hit = best.get(uncovered)
        if hit is not None:
            return hit if hit[0] >= need else None
        forms = [i for i in range(k) if uncovered >> i & 1]
        top = None
        for s in starting.get(forms[0], ()):
            if s & ~uncovered:
                continue
            rest = uncovered & ~s
            # blocks the rest must reach: as many as the best cover so far
            # has after its first block, one more when a first block s
            # cannot give a smaller RGS (labels 0 on s, 1 elsewhere)
            want = need - 1
            if top is not None:
                want = top[0] - 1 + (
                    tuple(0 if s >> i & 1 else 1 for i in forms) >= top[1]
                )
            if not reaches(rest, want):
                continue
            sub = solve(rest, want)
            if sub is None:
                continue
            labels = iter(sub[1])
            rgs = tuple(0 if s >> i & 1 else 1 + next(labels) for i in forms)
            if top is None or (-1 - sub[0], rgs) < (-top[0], top[1]):
                top = (1 + sub[0], rgs)
        if top is not None:
            best[uncovered] = top
        return top

    rgs = solve((1 << k) - 1, 1)[1]
    del solve  # break the function <-> cell cycle, so no garbage is left for gc
    return rgs


def make_witness(a: Arrangement, point_rows: Sequence[Sequence]) -> WitnessSubspace:
    """Verify the span of exact rational point rows as a witness."""
    if any(len(row) != a.n + 1 for row in point_rows):
        raise DimensionMismatchError(f"point row not of length {a.n + 1}")
    return _witness(a, [primitive_vector(row) for row in point_rows if any(row)])


def quotient_basis(container: Subspace, inside: Subspace) -> list[Vector]:
    """The vectors completing the inside basis to a basis of the container.

    Each container basis vector not yet in the span is reduced against the
    inside basis and the vectors kept so far, and its residual is kept.
    """
    basis = list(inside.basis)
    for b in container.basis:
        res, _ = reduce_against(basis, b)
        if any(res):
            basis.append(tuple(res))
    return basis[inside.rank:]


def generic_avoiding_extension(
    container: Subspace, inside: Subspace, avoid: Sequence[Sequence]
) -> tuple[int, Subspace]:
    """The moment-curve parameter t and the hyperplane of the walk, in ``Fraction``.

    The hyperplane of ``container`` contains ``inside`` and misses every
    avoid vector: with ext the ``quotient_basis``, it is the inside plus the
    kernel of the first phi = (1, t, t^2, ...) nonzero on the coordinates
    past the inside basis of every avoid vector, spanned by
    ext_f - t^f ext_0 for f >= 1.
    """
    if inside.rank >= container.rank:
        raise ValueError("inside must be a proper subspace of container")
    ext = quotient_basis(container, inside)
    basis = list(inside.basis) + ext
    j = inside.rank
    tails = []
    for v in avoid:
        if len(v) != container.ambient_dim:
            raise DimensionMismatchError("avoid vector of the wrong length")
        res, coords = reduce_against(basis, vector(v))
        if any(res):
            raise ValueError("avoid vector outside the container")
        if not any(coords[j:]):
            raise ValueError("avoid vector lies inside the forced subspace")
        tails.append(coords[j:])
    for t in count():
        phi = [t**f for f in range(len(ext))]
        if all(sum(p * q for p, q in zip(phi, tail)) != 0 for tail in tails):
            break
    kernel = [tuple(x - t**f * y for x, y in zip(ext[f], ext[0])) for f in range(1, len(ext))]
    return t, span(list(inside.basis) + kernel, container.ambient_dim)


def sequential_u_chain(a: Arrangement, partition: Blocks) -> Subspace:
    """U by the chain U_0 = W ⊆ ... ⊆ U_p, in ``Fraction``.

    W is the sum of the overlaps span(block) ∩ span(other forms).  Step i
    reads the meet U_{i-1} ∩ span(block i) off U_{i-1} itself and adds the
    walk's hyperplane of the block span containing it and missing the block.
    """
    width = a.n + 1
    forms = a.forms
    blocks = [[forms[i] for i in block] for block in partition]
    spans = [span(block, width) for block in blocks]
    others = [span([f for f in forms if f not in block], width) for block in blocks]
    u = span([b for v, o in zip(spans, others) for b in intersect(v, o).basis], width)
    for block, v in zip(blocks, spans):
        _, hyperplane = generic_avoiding_extension(v, intersect(u, v), block)
        u = span(list(u.basis) + list(hyperplane.basis), width)
    return u


def u_invariant_failure(
    coeffs: Sequence[Sequence[int]],
    block_rows: Sequence[IntRows],
    w: IntRows,
    u: Sequence[Sequence[int]],
) -> Optional[str]:
    """The message of the first invariant U fails, in ``witness._check_u``'s order, or None.

    ``u`` holds rows that span U, as ``UChain.rows`` does.  Each invariant
    is read off its definition: W ⊆ U; each meet U ∩ V_j,
    a ``Fraction`` intersection, is a hyperplane of V_j; no form lies in U;
    U is the sum of the meets.
    """
    width = len(coeffs[0])
    u_space = span(u, width)
    if not all(contains(u_space, row) for _, row in w):
        return "separation space W not contained in U"
    meets = []
    for j, rows in enumerate(block_rows):
        block = span([row for _, row in rows], width)
        meets.append(intersect(u_space, block))
        if meets[-1].rank != block.rank - 1:
            return f"block {j}: U ∩ span(block) is not a hyperplane of the block span"
    if any(contains(u_space, v) for v in coeffs):
        return "a form of the arrangement lies in U"
    if span([b for meet in meets for b in meet.basis], width) != u_space:
        return "U is not the sum of its block intersections"
    return None


def restrictions(point_basis: Sequence[Vector], coeffs: Sequence[Sequence[int]]) -> list[Vector]:
    """Each form as a covector on the parameter space of the point basis.

    Each basis row is scaled to integers by the lcm of its denominators, so
    an entry is one integer dot product divided by that lcm.
    """
    scaled = []
    for row in point_basis:
        d = lcm(*(c.denominator for c in row))
        scaled.append((d, [c.numerator * (d // c.denominator) for c in row]))
    return [
        tuple(Fraction(sum(x * y for x, y in zip(f, num)), d) for d, num in scaled)
        for f in coeffs
    ]


def shrink_witness(a: Arrangement, y: WitnessSubspace, d_target: int) -> WitnessSubspace:
    """A verified witness of any dimension below an existing one.

    Working in the parameter space of Y: intersect enough restricted
    hyperplane classes (or all of them, when there are too few) to cut the
    dimension down, then extend by a generic parameter point off every
    restricted hyperplane.
    """
    if not 0 <= d_target <= y.dim:
        raise ValueError(f"target dimension {d_target} outside [0, {y.dim}]")
    check = make_witness(a, y.point_basis).verification
    if not check.ok:
        raise ValueError("witness to shrink does not verify")
    # The restriction classes are covectors on the canonical RREF rows.
    points = span(y.point_basis, a.n + 1).basis
    if d_target == y.dim:
        return y
    cut = y.dim + 1 - d_target
    class_covs = [vector(cls) for cls, _ in check.classes]
    param_dim = y.dim + 1
    if d_target == 0:
        core_rows: list[Vector] = []
    elif len(class_covs) >= cut:
        core_rows = list(nullspace(class_covs[:cut], param_dim).basis)
    else:
        core_rows = list(nullspace(class_covs, param_dim).basis[:d_target])
    point = _generic_point(class_covs, param_dim)
    param_rows = core_rows + [point]
    ambient_rows = [
        tuple(
            sum(prow[i] * points[i][c] for i in range(param_dim))
            for c in range(a.n + 1)
        )
        for prow in param_rows
    ]
    w = make_witness(a, ambient_rows)
    assert w.dim == d_target, f"shrunk witness has dimension {w.dim}, expected {d_target}"
    assert w.verification.ok, f"shrunk witness failed: {w.verification.diagnostics}"
    return w


def induced_partition(a: Arrangement, y: WitnessSubspace) -> Optional[Blocks]:
    """Partition of the form indices recovered from a verified witness.

    Groups forms by their restriction class on Y, then merges leading groups
    until exactly d - m blocks remain (the common intersection of the
    restricted hyperplanes may be larger than the global one, in which case
    the grouping starts with more blocks than the target).  Returns None when
    d - m < 2, where the criterion does not apply.
    """
    check = make_witness(a, y.point_basis).verification
    if not check.ok:
        raise ValueError("witness does not verify")
    target = y.dim - a.m
    if target < 2:
        return None
    groups = [list(idxs) for _, idxs in check.classes]
    assert len(groups) >= target, "fewer restriction classes than target blocks"
    merge_count = len(groups) - target + 1
    merged = sorted(i for g in groups[:merge_count] for i in g)
    blocks = [tuple(merged)] + [tuple(g) for g in groups[merge_count:]]
    return tuple(sorted(blocks, key=min))
