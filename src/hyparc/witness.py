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

Arithmetic.  Everything here is integer; only ``make_witness`` takes
rational point rows, and clears their denominators first.  The forms are
the arrangement's primitive integer rows, and each U_i is a list of
integer echelon rows of ``exact_linalg``: U_0 = W comes from one
Zassenhaus intersection per block but the last, and the invariants are
checked with integer residuals, ranks and block intersections.  Step i
extends the block intersection U_{i-1} ∩ B_i that the check of U_{i-1}
(for U_0, the sum giving W) already computed.  Where a result depends on
the basis and not just on the space, the basis is canonical: the
moment-curve walk in ``generic_avoiding_extension`` reads the ``int_rref``
rows of U_{i-1} ∩ B_i and B_i, each a primitive integer multiple of a
reduced row echelon row, and keeps the rational vectors it derives from
them as an integer row over one positive denominator, so it picks the same
t and the same kernel as exact rational elimination would.  The report
prints the ``int_rref`` rows of Y, and the restrictions are integer dot
products with them.  So every U_i is the same space, and the witness the
same bytes, however U_i is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence

from .arrangement import Arrangement
from .dimension_search import Blocks, validate_partition
from .exact_linalg import (
    DimensionMismatchError,
    IntRows,
    InternalError,
    int_echelon,
    int_intersect,
    int_nullspace,
    int_rank,
    int_residual,
    int_rref,
    primitive_vector,
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
    """A projective subspace Y parametrized by an echelon point basis.

    ``point_basis`` holds the ``int_rref`` rows of Y's points: row q stands
    for the canonical RREF row q / q[pivot], and ``restrictions`` gives each
    form on those RREF rows, all scaled by one positive integer.
    """

    point_basis: tuple[tuple[int, ...], ...]
    dim: int
    restrictions: tuple[tuple[int, ...], ...]
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


def _restrictions(points: IntRows, coeffs: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Each form as a covector on the parameter space of the point basis.

    The parameters are the coordinates in the canonical RREF rows q / q[pivot].
    Row q is scaled by L / q[pivot], with L the lcm of the pivot entries, so
    every covector comes out as integer dot products, L times the exact one.
    """
    scale = lcm(*(q[p] for p, q in points))
    scaled = [[x * (scale // q[p]) for x in q] for p, q in points]
    return [tuple(sum(x * y for x, y in zip(f, row)) for row in scaled) for f in coeffs]


def _cond_check(restrictions: Sequence[Sequence[int]]) -> CondCheck:
    vanishing = next((i for i, rho in enumerate(restrictions) if not any(rho)), None)
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
    """Verify the span of exact rational point rows as a witness."""
    if any(len(row) != a.n + 1 for row in point_rows):
        raise DimensionMismatchError(f"point row not of length {a.n + 1}")
    return _witness(a, [primitive_vector(row) for row in point_rows if any(row)])


def _witness(a: Arrangement, point_rows: Sequence[Sequence[int]]) -> WitnessSubspace:
    """Normalize an integer point parametrization and attach its verification record."""
    points = int_rref(point_rows)
    restrictions = tuple(_restrictions(points, a.forms))
    return WitnessSubspace(
        point_basis=tuple(_plain(points)),
        dim=len(points) - 1,
        restrictions=restrictions,
        verification=_cond_check(restrictions),
    )


# A rational row R / D, D > 0, with the pivot it is reduced at: (pivot, R, D).
_RationalRow = tuple[int, Sequence[int], int]


def _reduce(
    rows: Sequence[_RationalRow], num: Sequence[int], den: int
) -> tuple[Sequence[int], int, list[tuple[int, int]]]:
    """Residual of the rational vector num / den, and the multiple of each row.

    The rows are echelon in insertion order: each row's pivot is its first
    nonzero entry, where every later row is zero.  Reducing num / den by
    R / D at pivot p gives (R[p] num - num[p] R) / (den R[p]), divided by
    the gcd of its entries and denominator, and the multiple subtracted is
    num[p] D / (den R[p]), returned as a (numerator, positive denominator)
    pair.  A zero residual means num / den is in the span, with the
    multiples as its coordinates.
    """
    multiples = []
    for p, row, d in rows:
        c = num[p]
        if not c:
            multiples.append((0, 1))
            continue
        rp = row[p]
        if rp < 0:
            rp, c = -rp, -c
        multiples.append((c * d, den * rp))
        num = [rp * x - c * y for x, y in zip(num, row)]
        den *= rp
        g = gcd(den, *num)
        if g > 1:
            num, den = [x // g for x in num], den // g
    return num, den, multiples


def generic_avoiding_extension(
    container: IntRows, inside: IntRows, avoid: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Kernel rows of a hyperplane of ``container`` containing ``inside``, missing ``avoid``.

    ``container`` and ``inside`` are ``int_rref`` rows, each standing for
    its canonical RREF row q / q[pivot].  Works in the quotient
    container/inside: completes the inside basis to a basis of the
    container by rational vectors ext_f = R_f / D_f, expresses each avoid
    vector there, and picks the first moment-curve functional
    phi = (1, t, t^2, ...) nonzero on every avoid image.  The hyperplane is
    the inside plus the kernel of phi; as phi_0 = 1, that kernel is spanned
    by ext_f - t^f ext_0 for f >= 1, and the rows returned are their
    positive multiples D_0 R_f - t^f D_f R_0.  An avoid vector lies in the
    container iff it has coordinates in that basis, and in the inside iff
    its coordinates past the inside basis vanish.
    """
    if len(inside) >= len(container):
        raise ValueError("inside must be a proper subspace of container")
    width = len(container[0][1])
    # Complete the inside basis to a basis of the container.
    basis: list[_RationalRow] = [(p, q, q[p]) for p, q in inside]
    for p, q in container:
        num, den, _ = _reduce(basis, q, q[p])
        if any(num):
            basis.append((next(i for i, x in enumerate(num) if x), num, den))
    j = len(inside)
    tails = []
    for v in avoid:
        if len(v) != width:
            raise DimensionMismatchError("avoid vector of the wrong length")
        res, _, coords = _reduce(basis, v, 1)
        if any(res):
            raise ValueError("avoid vector outside the container")
        tail = coords[j:]
        if not any(c for c, _ in tail):
            raise ValueError("avoid vector lies inside the forced subspace")
        scale = lcm(*(d for _, d in tail))
        tails.append([c * (scale // d) for c, d in tail])
    phi = _generic_point(tails, len(basis) - j)
    _, r_0, d_0 = basis[j]
    return [
        tuple(d_0 * x - t_f * d_f * y for x, y in zip(r_f, r_0))
        for t_f, (_, r_f, d_f) in zip(phi[1:], basis[j + 1:])
    ]


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
    meets = block_overlaps(coeffs, partition)
    u = int_echelon(row for meet in meets for row in _plain(meet))
    violating = next((i for i, v in enumerate(coeffs) if _in(u, v)), None)
    if violating is not None:
        raise ValueError(f"partition fails the separation criterion (form {violating})")
    block_rows = [int_rref(coeffs[i] for i in block) for block in partition]
    chain = [u]
    for i, block in enumerate(partition, start=1):
        # The walk reads canonical bases, so U_i depends on the spaces alone.
        # U_{i-1} holds the inside, so adding the kernel adds the hyperplane.
        inside = int_rref(_plain(meets[i - 1]))
        kernel = generic_avoiding_extension(
            block_rows[i - 1], inside, [coeffs[idx] for idx in block]
        )
        u_next = int_echelon(_plain(u) + kernel)
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
    w = _witness(a, _plain(points))
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
    w = _witness(a, rows)
    _assert(w.dim == m + 1, f"baseline witness has dimension {w.dim}, expected {m + 1}")
    _assert(w.verification.ok, f"baseline witness failed: {w.verification.diagnostics}")
    return w
