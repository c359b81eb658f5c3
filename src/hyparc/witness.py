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

Arithmetic.  The forms are the arrangement's primitive integer rows, and
the chain lives on the integer kernel of ``exact_linalg``: each U_i is a
list of integer echelon rows, U_0 = W comes from one Zassenhaus
intersection per block but the last, and the invariants are checked with
integer residuals, ranks and block intersections.  Step i extends the
block intersection U_{i-1} ∩ B_i that the check of U_{i-1} (for U_0, the
sum giving W) already computed.  The zero set of U_p, the restrictions'
dot products and the rank of their classes are integer too.  Canonical
``Fraction`` RREF is computed only where a result depends on the basis and
not just on the space: the moment-curve walk in
``generic_avoiding_extension`` reads the bases of U_{i-1} ∩ B_i and B_i
(the forms it avoids stay integer rows, and the kernel of the functional
it picks is written down, not eliminated), and the report prints the basis
of Y.  Both are canonical, so every U_i is the same space, and the witness
the same bytes, however U_i is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .arrangement import Arrangement
from .dimension_search import Blocks, validate_partition
from .exact_linalg import (
    DimensionMismatchError,
    IntRows,
    InternalError,
    Subspace,
    Vector,
    int_echelon,
    int_intersect,
    int_nullspace,
    int_rank,
    int_residual,
    primitive_vector,
    reduce_against,
    span,
    vector,
)

_GENERIC_SEARCH_CAP = 10_000  # far beyond any reachable bad-value count


@dataclass(frozen=True)
class UChain:
    """The nested covector spaces U_0 ⊆ ... ⊆ U_p for one valid partition.

    ``rows`` holds each U_i as integer echelon rows.
    """

    arrangement: Arrangement
    partition: Blocks
    rows: tuple[IntRows, ...]


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


def _plain(rows: IntRows) -> list[tuple[int, ...]]:
    """The integer vectors of echelon rows, without their pivots."""
    return [row for _, row in rows]


def _in(rows: IntRows, v: Sequence[int]) -> bool:
    """Whether the integer vector v lies in the span of the echelon rows."""
    return not any(int_residual(rows, v))


def _moment_vector(dim: int, t: int) -> tuple[int, ...]:
    return tuple(t**k for k in range(dim))


def _restrictions(
    point_basis: Sequence[Vector], coeffs: Sequence[Sequence[int]]
) -> list[Vector]:
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


def _cond_check(restrictions: Sequence[Vector]) -> CondCheck:
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
    independent = int_rank(cls for cls, _ in classes) == len(classes)
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
    restrictions = tuple(_restrictions(points.basis, a.forms))
    return WitnessSubspace(
        point_basis=points.basis,
        dim=points.rank - 1,
        restrictions=restrictions,
        verification=_cond_check(restrictions),
    )


def generic_avoiding_extension(
    container: Subspace, inside: Subspace, avoid: Sequence[Sequence]
) -> Subspace:
    """A hyperplane of ``container`` containing ``inside``, missing ``avoid``.

    Works in the quotient container/inside: completes the inside basis to a
    basis of the container, expresses each avoid vector there, and picks the
    first moment-curve functional phi = (1, t, t^2, ...) nonzero on every
    avoid image.  The returned hyperplane is the inside plus the kernel of
    phi; as phi_0 = 1, that kernel is spanned by e_f - t^f e_0 for f >= 1.
    An avoid vector lies in the container iff it has coordinates in that
    basis, and in the inside iff its coordinates past the inside basis
    vanish.
    """
    if inside.rank >= container.rank:
        raise ValueError("inside must be a proper subspace of container")
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
        if len(v) != container.ambient_dim:
            raise DimensionMismatchError("avoid vector of the wrong length")
        res, coords = reduce_against(basis, v)
        if any(res):
            raise ValueError("avoid vector outside the container")
        if not any(coords[j:]):
            raise ValueError("avoid vector lies inside the forced subspace")
        tails.append(coords[j:])
    for t in range(_GENERIC_SEARCH_CAP):
        phi = _moment_vector(quot, t)
        if all(sum(p * q for p, q in zip(phi, tail)) != 0 for tail in tails):
            break
    else:
        raise InternalError("no generic functional found; this cannot happen")
    kernel = [tuple(x - t**f * y for x, y in zip(ext[f], ext[0])) for f in range(1, quot)]
    return span(list(inside.basis) + kernel, container.ambient_dim)


def _check_chain_step(
    coeffs: Sequence[Sequence[int]],
    block_rows: Sequence[IntRows],
    u_prev: IntRows,
    u_next: IntRows,
    step: int,
) -> list[IntRows]:
    """Assert the four chain invariants (module docstring) for U_step.

    Returns the block meets U_step ∩ B_j, which the next step reads.
    """
    width = len(coeffs[0])
    _assert(
        all(_in(u_next, b) for b in _plain(u_prev)),
        f"chain step {step}: previous space not contained in the new one",
    )
    meets = [int_intersect(_plain(u_next), _plain(b), width) for b in block_rows]
    _assert(
        len(meets[step - 1]) == len(block_rows[step - 1]) - 1,
        f"chain step {step}: block intersection is not a hyperplane of the block span",
    )
    _assert(
        not any(_in(u_next, v) for v in coeffs),
        f"chain step {step}: a form of the arrangement entered the chain space",
    )
    parts = [row for meet in meets for row in _plain(meet)]
    _assert(
        all(_in(u_next, v) for v in parts) and int_rank(parts) == len(u_next),
        f"chain step {step}: space is not the sum of its block intersections",
    )
    return meets


def block_overlaps(coeffs: Sequence[Sequence[int]], partition: Blocks) -> list[IntRows]:
    """For each block but the last, span(block) ∩ span(other forms), as echelon rows.

    Their sum is the separation space W.  The last block's overlap adds
    nothing: a vector in it is a sum of one vector per other block, and each
    of those lies in its block and in the span of the forms outside it.
    Every other block lies in the span of the forms outside a block, so W
    does too, and each overlap is also W ∩ span(block), a block meet of U_0.
    """
    width = len(coeffs[0])
    overlaps = []
    for block in partition[:-1]:
        others = set(range(len(coeffs))) - set(block)
        overlaps.append(
            int_intersect((coeffs[i] for i in block), (coeffs[i] for i in others), width)
        )
    return overlaps


def build_u_chain(a: Arrangement, partition: Blocks) -> UChain:
    """Inductive construction of U_0 ⊆ ... ⊆ U_p for a valid partition.

    U_0 is the separation space W; a partition with a form in W is rejected.
    Each step extends U_{i-1} ∩ B_i to a hyperplane of the block span B_i
    missing every form of the block, and adds it into the chain.  All chain
    invariants are asserted after each step, and the final rank must equal
    (n+1) - (d+1) with d = m + p; any failure is an internal error, since the
    construction provably succeeds on valid partitions.
    """
    validate_partition(a, partition)
    coeffs = a.forms
    width = a.n + 1
    meets = block_overlaps(coeffs, partition)
    u = int_echelon(row for meet in meets for row in _plain(meet))
    violating = next((i for i, v in enumerate(coeffs) if _in(u, v)), None)
    if violating is not None:
        raise ValueError(f"partition fails the separation criterion (form {violating})")
    block_rows = [int_echelon(coeffs[i] for i in block) for block in partition]
    chain = [u]
    for i, block in enumerate(partition, start=1):
        # The walk reads canonical bases, so U_i depends on the spaces alone.
        avoid = [coeffs[idx] for idx in block]
        container = span(_plain(block_rows[i - 1]), width)
        inside = span(_plain(meets[i - 1]), width)
        hyperplane = generic_avoiding_extension(container, inside, avoid)
        u_next = int_echelon(_plain(u) + [primitive_vector(b) for b in hyperplane.basis])
        meets = _check_chain_step(coeffs, block_rows, u, u_next, i)
        chain.append(u_next)
        u = u_next
    d = a.m + len(partition)
    _assert(
        len(u) == a.n - d,
        f"final chain space has rank {len(u)}, expected {a.n - d}",
    )
    return UChain(arrangement=a, partition=partition, rows=tuple(chain))


def witness_subspace(chain: UChain) -> WitnessSubspace:
    """Y = zero set of the final chain space, verified."""
    a = chain.arrangement
    points = int_nullspace(_plain(chain.rows[-1]), a.n + 1)
    w = make_witness(a, _plain(points))
    d = a.m + len(chain.partition)
    _assert(w.dim == d, f"witness has dimension {w.dim}, expected {d}")
    _assert(w.verification.ok, f"witness verification failed: {w.verification.diagnostics}")
    return w


def _generic_point(covectors: Sequence[Sequence], dim: int) -> tuple[int, ...]:
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
    point = _generic_point(a.forms, a.n + 1)
    if m == -1:
        rows = [point]
    else:
        rows = _plain(int_nullspace(a.forms, a.n + 1)) + [point]
    w = make_witness(a, rows)
    _assert(w.dim == m + 1, f"baseline witness has dimension {w.dim}, expected {m + 1}")
    _assert(w.verification.ok, f"baseline witness failed: {w.verification.diagnostics}")
    return w
