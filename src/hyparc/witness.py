"""Certified witness subspaces for the achievable dimensions.

For a valid partition of the forms into blocks B_1, ..., B_p, a covector
space U is built so that Y = Z(U) is a projective subspace of dimension
d = m + p: Y is not contained in the arrangement, and the restricted forms
fall into exactly p projectively distinct classes that are linearly
independent on Y.

Write V_j for the span of block j and V_-j for the span of the other
forms.  The separation space W is the sum of the overlaps V_j ∩ V_-j, and
no form lies in W.  The overlaps are block sums of relations: x lies in
V_j ∩ V_-j iff x = sum over i in B_j of lambda_i f_i for a linear relation
lambda among the forms (sum_i lambda_i f_i = 0), so ``Arrangement.relations``
gives every overlap.  Block j adds a hyperplane H_j of V_j that contains
its overlap and misses every form of the block, and U = W + H_1 + ... + H_p.
Adding the H_j one at a time is the chain U_0 = W ⊆ ... ⊆ U_p = U, whose
step i extends U_{i-1} ∩ V_i; that meet is always the overlap V_i ∩ V_-i,
so each block's step reads only its own overlap:

- W ⊆ V_-i: overlap i lies in V_-i, and overlap j ≠ i in V_j ⊆ V_-i;
- each earlier H_k lies in V_k ⊆ V_-i, so U_{i-1} ⊆ V_-i;
- V_i ∩ V_-i ⊆ W ⊆ U_{i-1}.

Invariants, asserted once on U for every block j:

1. W ⊆ U;
2. U ∩ V_j is a hyperplane of V_j;
3. no form of the arrangement lies in U;
4. U equals the sum over blocks j of U ∩ V_j.

They are read off the witness Y = Z(U) itself, on the restrictions the
report prints; nothing is reduced against U.  U is the annihilator of Y,
so restriction to Y is linear with kernel U, and it maps V_j onto a space
of dimension dim V_j - dim(U ∩ V_j), spanned by the restrictions of
block j's forms.  So invariant 1 holds iff W's rows vanish on Y,
invariant 2 iff block j's nonzero restrictions form one projective class,
and invariant 3 iff no restriction is zero.  Given 1 and 2, invariant 4 is
rank U = rank(forms) - p, that is, dim Y = n - rank(forms) + p.  Summing
maps the direct sum of the V_j onto F = span(forms), with a kernel K of
dimension sum_j dim V_j - dim F.  For (v_j) in K, each
v_j = -sum_{i != j} v_i lies in V_j ∩ V_-j ⊆ W ⊆ U, so K lies in the
direct sum of the U ∩ V_j, of dimension sum_j dim V_j - p; so
sum_j (U ∩ V_j) has dimension dim F - p, and it lies in U.

Genericity (choosing hyperplanes or points that avoid finitely many bad
loci) is realized deterministically by walking the integer moment curve
(1, t, t^2, ...) for t = 0, 1, 2, ...; each constraint excludes only
finitely many t, so the walk terminates and the output is reproducible.

Arithmetic.  Everything here is integer; every function takes integer
rows, and rational input ends at ``arrangement.load``.  The forms are
the arrangement's primitive integer rows, and W is integer echelon rows
of ``exact_linalg``.  U is never eliminated: Y is one ``int_nullspace`` of
W's rows and the block kernel rows, put in ``int_rref`` form once, and
the invariants are checked with dot products on its rows, the
restrictions' classes, which the certificate reads too, and one rank.
Where a result depends on the basis and not just on the space, the basis
is canonical: the moment-curve walk in
``generic_avoiding_extension`` reads the ``int_rref`` rows of the overlap
and of V_j, each a primitive integer multiple of a reduced row echelon
row, and keeps the rational vectors it derives from them as an integer row
over one positive denominator, so it picks the same t and the same kernel
as exact rational elimination would.  The report prints the ``int_rref``
rows of Y, and the restrictions are integer dot products with them.  So U
is the same space, and the witness the same bytes, however U is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .arrangement import Arrangement
from .dimension_search import Blocks, validate_partition
from .exact_linalg import (
    DimensionMismatchError,
    IntRows,
    InternalError,
    int_echelon,
    int_nullspace,
    int_rank,
    int_residual,
    int_rref,
    primitive_vector,
)


@dataclass(frozen=True)
class UChain:
    """The covector space U = W + H_1 + ... + H_p for one valid partition.

    ``rows`` spans U as plain integer vectors: W's rows, then each block's
    kernel rows.  ``w`` holds W's echelon rows, which ``witness_subspace``
    checks U against.
    """

    arrangement: Arrangement
    partition: Blocks
    rows: list[tuple[int, ...]]
    w: IntRows


@dataclass(frozen=True)
class CondCheck:
    """Verification record for a candidate witness subspace."""

    ok: bool
    not_contained: bool  # no form restricts to zero on Y
    independent: bool  # distinct restriction classes are independent
    classes: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    diagnostics: str


@dataclass(frozen=True)
class WitnessSubspace:
    """A projective subspace Y parametrized by an echelon point basis.

    ``point_basis`` holds the ``int_rref`` rows of Y's points: row q stands
    for the canonical RREF row q / q[pivot].  ``form_classes`` gives each
    form's restriction class, the ``primitive_vector`` of its restriction
    to those RREF rows, or None where the form vanishes on Y; the
    verification and ``_check_u`` both read it.
    """

    point_basis: tuple[tuple[int, ...], ...]
    dim: int
    form_classes: tuple[Optional[tuple[int, ...]], ...]
    verification: CondCheck


def _assert(condition: bool, message: str) -> None:
    if not condition:
        raise InternalError(message)


def _plain(rows: IntRows) -> list[tuple[int, ...]]:
    """The integer vectors of echelon rows, without their pivots."""
    return [row for _, row in rows]


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


def _cond_check(form_classes: Sequence[Optional[tuple[int, ...]]]) -> CondCheck:
    vanishing = next((i for i, cls in enumerate(form_classes) if cls is None), None)
    if vanishing is not None:
        return CondCheck(
            ok=False,
            not_contained=False,
            independent=False,
            classes=(),
            diagnostics=f"contained in arrangement: form {vanishing} vanishes on Y",
        )
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, cls in enumerate(form_classes):
        groups.setdefault(cls, []).append(i)
    classes = tuple(
        sorted(((cls, tuple(idxs)) for cls, idxs in groups.items()), key=lambda c: c[1])
    )
    independent = int_rank(cls for cls, _ in classes) == len(classes)
    return CondCheck(
        ok=independent,
        not_contained=True,
        independent=independent,
        classes=classes,
        diagnostics="" if independent else "restriction classes are dependent",
    )


def _witness(a: Arrangement, point_rows: Sequence[Sequence[int]]) -> WitnessSubspace:
    """Normalize an integer point parametrization and attach its verification record."""
    points = int_rref(point_rows)
    rhos = _restrictions(points, a.forms)
    form_classes = tuple(primitive_vector(rho) if any(rho) else None for rho in rhos)
    return WitnessSubspace(
        point_basis=tuple(_plain(points)),
        dim=len(points) - 1,
        form_classes=form_classes,
        verification=_cond_check(form_classes),
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


def block_overlaps(a: Arrangement, partition: Blocks) -> list[IntRows]:
    """For each block, span(block) ∩ span(other forms), as ``int_rref`` rows.

    A vector x lies in V_j ∩ V_-j iff x = sum over i in B_j of lambda_i f_i
    for a relation lambda (sum_i lambda_i f_i = 0), so overlap j is spanned
    by these block sums over a basis of the relations.  Their sum is the
    separation space W, and overlap j is the meet U_{j-1} ∩ V_j that block
    j's step extends (module docstring).
    """
    return [
        int_rref(
            [sum(lam[i] * a.forms[i][k] for i in block) for k in range(a.n + 1)]
            for _, lam in a.relations
        )
        for block in partition
    ]


def _check_u(a: Arrangement, partition: Blocks, w: IntRows, y: WitnessSubspace) -> None:
    """Assert the four invariants (module docstring) on U, read off Y = Z(U), for every block."""
    _assert(
        not any(sum(map(mul, b, q)) for _, b in w for q in y.point_basis),
        "separation space W not contained in U",
    )
    classes = y.form_classes
    for j, block in enumerate(partition):
        _assert(
            len({classes[i] for i in block} - {None}) == 1,
            f"block {j}: U ∩ span(block) is not a hyperplane of the block span",
        )
    _assert(None not in classes, "a form of the arrangement lies in U")
    _assert(
        y.dim == a.n - int_rank(a.forms) + len(partition),
        "U is not the sum of its block intersections",
    )


def build_u_chain(a: Arrangement, partition: Blocks) -> UChain:
    """U = W + H_1 + ... + H_p for a valid partition, one block step each.

    W is the sum of the block overlaps; a partition with a form in W is
    rejected.  Block j's step extends its overlap to a hyperplane H_j of the
    block span V_j missing every form of the block, so the steps do not
    depend on each other.  W is kept on the chain for ``witness_subspace``,
    which asserts the four invariants and Y's dimension.
    """
    validate_partition(a, partition)
    coeffs = a.forms
    overlaps = block_overlaps(a, partition)
    w = int_echelon(row for overlap in overlaps for row in _plain(overlap))
    violating = next((i for i, v in enumerate(coeffs) if not any(int_residual(w, v))), None)
    if violating is not None:
        raise ValueError(f"partition fails the separation criterion (form {violating})")
    # The walk reads canonical bases, so each H_j depends on the spaces alone.
    # W holds each overlap, so adding the kernels adds the hyperplanes.
    rows = _plain(w)
    for block, overlap in zip(partition, overlaps):
        block_forms = [coeffs[i] for i in block]
        rows += generic_avoiding_extension(int_rref(block_forms), overlap, block_forms)
    return UChain(arrangement=a, partition=partition, rows=rows, w=w)


def witness_subspace(chain: UChain) -> WitnessSubspace:
    """Y = zero set of U, verified.

    Y's ``int_rref`` rows, the restrictions to them and their classes are
    computed once.  The four invariants on U are asserted on them, and then
    Y's dimension n - rank U = m + p, which ties m, read off the relations,
    to this elimination, and the certificate ``_cond_check`` records.  Any
    failure is an internal error: the construction provably succeeds.
    """
    a = chain.arrangement
    y = _witness(a, _plain(int_nullspace(chain.rows, a.n + 1)))
    _check_u(a, chain.partition, chain.w, y)
    d = a.m + len(chain.partition)
    _assert(y.dim == d, f"witness has dimension {y.dim}, expected {d}")
    _assert(y.verification.ok, f"witness verification failed: {y.verification.diagnostics}")
    return y


def _generic_point(covectors: Sequence[Sequence], dim: int) -> tuple[int, ...]:
    """First moment-curve point of the given dimension off every covector.

    A nonzero covector c vanishes at (1, t, ..., t^(dim-1)) only at the
    roots of the polynomial sum c_k t^k, at most dim - 1 values of t, so
    one of t = 0, ..., len(covectors) * (dim - 1) is off every nonzero one.
    """
    for t in range(len(covectors) * (dim - 1) + 1):
        pt = _moment_vector(dim, t)
        if all(sum(c * p for c, p in zip(cov, pt)) != 0 for cov in covectors):
            return pt
    raise InternalError("no generic point found; this cannot happen")


def build_witness_for_mplus1(a: Arrangement) -> WitnessSubspace:
    """The always-achievable witness of dimension m + 1.

    Y is the common intersection of the arrangement, empty when m = -1,
    extended by one generic point, so all restrictions collapse to a single
    projective class.
    """
    m = a.m
    point = _generic_point(a.forms, a.n + 1)
    w = _witness(a, _plain(int_nullspace(a.forms, a.n + 1)) + [point])
    _assert(w.dim == m + 1, f"baseline witness has dimension {w.dim}, expected {m + 1}")
    _assert(w.verification.ok, f"baseline witness failed: {w.verification.diagnostics}")
    return w
