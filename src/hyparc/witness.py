"""Certified witness subspaces for the achievable dimensions.

For a valid partition into p blocks, a nested chain of covector spaces
U_0 ⊆ ... ⊆ U_p is built so that Y = Z(U_p) is a projective subspace of
dimension d = m + p: Y is not contained in the arrangement, and the
restricted forms fall into exactly p projectively distinct classes that are
linearly independent on Y.

Chain invariants, asserted after every step:

1. U_{i-1} ⊆ U_i;
2. dim(U_i ∩ B_i) = dim(B_i) - 1, where B_i is the span of block i;
3. no form of the arrangement lies in U_i;
4. U_i equals the sum over blocks j of U_i ∩ B_j.

Genericity (choosing hyperplanes or points that avoid finitely many bad
loci) is realized deterministically by walking the integer moment curve
(1, t, t^2, ...) for t = 0, 1, 2, ...; each constraint excludes only
finitely many t, so the walk terminates and the output is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arrangement import Arrangement
from .dimension_search import Blocks, SpanCache, check_partition
from .exact_linalg import (
    InternalError,
    Subspace,
    Vector,
    contains,
    intersect,
    nullspace,
    primitive_vector,
    reduce_against,
    span,
    sum_spaces,
    vector,
    zero_set,
)

_GENERIC_SEARCH_CAP = 10_000  # far beyond any reachable bad-value count


@dataclass(frozen=True)
class UChain:
    """The nested covector spaces U_0 ⊆ ... ⊆ U_p for one valid partition."""

    arrangement: Arrangement
    partition: Blocks
    spaces: tuple[Subspace, ...]


@dataclass(frozen=True)
class CondCheck:
    """Verification record for a candidate witness subspace."""

    ok: bool
    not_contained: bool  # no form restricts to zero on Y
    independent: bool  # distinct restriction classes are independent
    vanishing_form: Optional[int]
    classes: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    diagnostics: str


@dataclass(frozen=True)
class WitnessSubspace:
    """A projective subspace Y parametrized by an echelon point basis."""

    point_basis: tuple[Vector, ...]
    dim: int
    restrictions: tuple[Vector, ...]
    verification: CondCheck


def _assert(condition: bool, message: str) -> None:
    if not condition:
        raise InternalError(message)


def _moment_vector(dim: int, t: int) -> Vector:
    return tuple(Fraction(t) ** k for k in range(dim))


def _restrictions(point_basis: Sequence[Vector], forms: Sequence[Vector]) -> list[Vector]:
    """Each form as a covector on the parameter space of the point basis."""
    return [
        tuple(sum(f[c] * row[c] for c in range(len(row))) for row in point_basis)
        for f in forms
    ]


def _cond_check(restrictions: Sequence[Vector], param_dim: int) -> CondCheck:
    vanishing = next(
        (i for i, rho in enumerate(restrictions) if all(c == 0 for c in rho)), None
    )
    if vanishing is not None:
        return CondCheck(
            ok=False,
            not_contained=False,
            independent=False,
            vanishing_form=vanishing,
            classes=(),
            diagnostics=f"contained in arrangement: form {vanishing} vanishes on Y",
        )
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, rho in enumerate(restrictions):
        groups.setdefault(primitive_vector(rho), []).append(i)
    classes = tuple(
        sorted(((cls, tuple(idxs)) for cls, idxs in groups.items()), key=lambda c: c[1])
    )
    class_span = span([vector(cls) for cls, _ in classes], param_dim)
    independent = class_span.rank == len(classes)
    return CondCheck(
        ok=independent,
        not_contained=True,
        independent=independent,
        vanishing_form=None,
        classes=classes,
        diagnostics="" if independent else "restriction classes are dependent",
    )


def make_witness(a: Arrangement, point_rows: Sequence[Sequence]) -> WitnessSubspace:
    """Normalize a point parametrization and attach its verification record."""
    points = span([vector(row) for row in point_rows], a.n + 1)
    restrictions = tuple(_restrictions(points.basis, a.vectors))
    return WitnessSubspace(
        point_basis=points.basis,
        dim=points.rank - 1,
        restrictions=restrictions,
        verification=_cond_check(restrictions, points.rank),
    )


def verify_cond(a: Arrangement, y: WitnessSubspace) -> CondCheck:
    """Re-run the witness verification from the point basis alone."""
    return _cond_check(_restrictions(y.point_basis, a.vectors), len(y.point_basis))


def generic_avoiding_extension(
    container: Subspace, inside: Subspace, avoid: Sequence[Vector]
) -> Subspace:
    """A hyperplane of ``container`` containing ``inside``, missing ``avoid``.

    Works in the quotient container/inside: completes the inside basis to a
    basis of the container, expresses each avoid vector there, and picks the
    first moment-curve functional nonzero on every avoid image.  The returned
    hyperplane is the inside plus that functional's kernel.
    """
    if inside.rank >= container.rank:
        raise ValueError("inside must be a proper subspace of container")
    for v in avoid:
        if not contains(container, v):
            raise ValueError("avoid vector outside the container")
        if contains(inside, v):
            raise ValueError("avoid vector lies inside the forced subspace")
    # Complete the inside basis to a basis of the container.
    basis = list(inside.basis)
    for b in container.basis:
        res, _ = reduce_against(basis, b)
        if any(res):
            basis.append(tuple(res))
    j = inside.rank
    ext = basis[j:]
    quot = len(ext)
    tails = []
    for v in avoid:
        res, coords = reduce_against(basis, v)
        _assert(not any(res), "avoid vector has no coordinates in container")
        tails.append(coords[j:])
    for t in range(_GENERIC_SEARCH_CAP):
        phi = _moment_vector(quot, t)
        if all(sum(p * q for p, q in zip(phi, tail)) != 0 for tail in tails):
            break
    else:
        raise InternalError("no generic functional found; this cannot happen")
    kernel = nullspace([phi], quot)
    width = container.ambient_dim
    v_rows = list(inside.basis) + [
        tuple(sum(kv[l] * ext[l][c] for l in range(quot)) for c in range(width))
        for kv in kernel.basis
    ]
    return span(v_rows, width)


def _check_chain_step(
    a: Arrangement,
    block_spans: Sequence[Subspace],
    u_prev: Subspace,
    u_next: Subspace,
    step: int,
) -> None:
    _assert(
        all(contains(u_next, b) for b in u_prev.basis),
        f"chain step {step}: previous space not contained in the new one",
    )
    meet = intersect(u_next, block_spans[step - 1])
    _assert(
        meet.rank == block_spans[step - 1].rank - 1,
        f"chain step {step}: block intersection is not a hyperplane of the block span",
    )
    _assert(
        not any(contains(u_next, v) for v in a.vectors),
        f"chain step {step}: a form of the arrangement entered the chain space",
    )
    decomposed = span(
        [b for s in block_spans for b in intersect(u_next, s).basis], a.n + 1
    )
    _assert(
        decomposed == u_next,
        f"chain step {step}: space is not the sum of its block intersections",
    )


def build_u_chain(a: Arrangement, partition: Blocks) -> UChain:
    """Inductive construction of U_0 ⊆ ... ⊆ U_p for a valid partition.

    Each step extends U_{i-1} ∩ B_i to a hyperplane of the block span B_i
    missing every form of the block, and adds it into the chain.  All chain
    invariants are asserted after each step, and the final rank must equal
    (n+1) - (d+1) with d = m + p; any failure is an internal error, since the
    construction provably succeeds on valid partitions.
    """
    cache = SpanCache(a)
    chk = check_partition(a, partition, cache)
    if not chk.valid:
        raise ValueError(
            f"partition fails the separation criterion (form {chk.violating_form})"
        )
    vecs = a.vectors
    block_spans = [cache.span_of(frozenset(b)) for b in partition]
    spaces = [chk.w_space]
    for i, block in enumerate(partition, start=1):
        container = block_spans[i - 1]
        inside = intersect(spaces[-1], container)
        avoid = [vecs[idx] for idx in block]
        hyperplane = generic_avoiding_extension(container, inside, avoid)
        u_next = sum_spaces(spaces[-1], hyperplane)
        _check_chain_step(a, block_spans, spaces[-1], u_next, i)
        spaces.append(u_next)
    d = a.m + len(partition)
    _assert(
        spaces[-1].rank == a.n - d,
        f"final chain space has rank {spaces[-1].rank}, expected {a.n - d}",
    )
    return UChain(arrangement=a, partition=partition, spaces=tuple(spaces))


def witness_subspace(chain: UChain) -> WitnessSubspace:
    """Y = zero set of the final chain space, verified."""
    a = chain.arrangement
    points = zero_set(chain.spaces[-1])
    w = make_witness(a, points.basis)
    d = a.m + len(chain.partition)
    _assert(w.dim == d, f"witness has dimension {w.dim}, expected {d}")
    _assert(w.verification.ok, f"witness verification failed: {w.verification.diagnostics}")
    return w


def _generic_point(
    covectors: Sequence[Vector], dim: int
) -> Vector:
    """First moment-curve point of the given dimension off every covector."""
    for t in range(_GENERIC_SEARCH_CAP):
        pt = _moment_vector(dim, t)
        if all(sum(c * p for c, p in zip(cov, pt)) != 0 for cov in covectors):
            return pt
    raise InternalError("no generic point found; this cannot happen")


def build_witness_for_mplus1(a: Arrangement) -> WitnessSubspace:
    """The always-achievable witness of dimension m + 1.

    For m = -1 this is a single point off every hyperplane.  Otherwise Y is
    the common intersection of the arrangement extended by one generic point,
    so all restrictions collapse to a single projective class.
    """
    m = a.m
    forms = a.vectors
    point = _generic_point(forms, a.n + 1)
    if m == -1:
        rows: list[Vector] = [point]
    else:
        core = zero_set(span(forms, a.n + 1))
        rows = list(core.basis) + [point]
    w = make_witness(a, rows)
    _assert(w.dim == m + 1, f"baseline witness has dimension {w.dim}, expected {m + 1}")
    _assert(w.verification.ok, f"baseline witness failed: {w.verification.diagnostics}")
    return w


def shrink_witness(a: Arrangement, y: WitnessSubspace, d_target: int) -> WitnessSubspace:
    """A verified witness of any dimension below an existing one.

    Working in the parameter space of Y: intersect enough restricted
    hyperplane classes (or all of them, when there are too few) to cut the
    dimension down, then extend by a generic parameter point off every
    restricted hyperplane.
    """
    if not 0 <= d_target <= y.dim:
        raise ValueError(f"target dimension {d_target} outside [0, {y.dim}]")
    check = verify_cond(a, y)
    if not check.ok:
        raise ValueError("witness to shrink does not verify")
    if d_target == y.dim:
        return y
    cut = y.dim + 1 - d_target
    class_covs = [vector(cls) for cls, _ in check.classes]
    param_dim = y.dim + 1
    if d_target == 0:
        core_rows: list[Vector] = []
    elif len(class_covs) >= cut:
        core_rows = list(zero_set(span(class_covs[:cut], param_dim)).basis)
    else:
        flat = zero_set(span(class_covs, param_dim))
        core_rows = list(flat.basis[:d_target])
    point = _generic_point(class_covs, param_dim)
    param_rows = core_rows + [point]
    ambient_rows = [
        tuple(
            sum(prow[i] * y.point_basis[i][c] for i in range(param_dim))
            for c in range(a.n + 1)
        )
        for prow in param_rows
    ]
    w = make_witness(a, ambient_rows)
    _assert(w.dim == d_target, f"shrunk witness has dimension {w.dim}, expected {d_target}")
    _assert(w.verification.ok, f"shrunk witness failed: {w.verification.diagnostics}")
    return w


def induced_partition(a: Arrangement, y: WitnessSubspace) -> Optional[Blocks]:
    """Partition of the form indices recovered from a verified witness.

    Groups forms by their restriction class on Y, then merges leading groups
    until exactly d - m blocks remain (the common intersection of the
    restricted hyperplanes may be larger than the global one, in which case
    the grouping starts with more blocks than the target).  Returns None when
    d - m < 2, where the criterion does not apply.
    """
    check = verify_cond(a, y)
    if not check.ok:
        raise ValueError("witness does not verify")
    target = y.dim - a.m
    if target < 2:
        return None
    groups = [list(idxs) for _, idxs in check.classes]
    _assert(len(groups) >= target, "fewer restriction classes than target blocks")
    merge_count = len(groups) - target + 1
    merged = sorted(i for g in groups[:merge_count] for i in g)
    blocks = [tuple(merged)] + [tuple(g) for g in groups[merge_count:]]
    return tuple(sorted(blocks, key=min))
