"""Exact linear algebra over the rationals.

Two representations, both exact; no floating point is used anywhere.

* Integer echelon rows are all that ``analyze`` uses.  They answer rank
  questions (rank, span membership, flats) and carry the witness:
  ``int_nullspace`` and ``int_rref`` run on the same ``int_echelon``, and
  membership and the witness's invariants read ``int_residual``.  The
  forms are primitive integer vectors already (``primitive_vector`` of
  ``int`` or ``Fraction`` rows), so elimination is fraction-free: each
  ``int_residual`` step cross-multiplies and divides by the gcd, keeping
  every row a primitive integer vector.  ``int_rref`` rows are canonical:
  divided by their pivot entries they are the reduced row echelon basis.
* ``Subspace``, a canonical reduced row-echelon basis of ``Fraction``
  vectors (every pivot 1, pivots strictly increasing, zeros above and below
  each pivot): two subspaces are equal iff their basis tuples are equal.
  It and the ``Fraction`` kernels (``span``, ``intersect``, ``contains``,
  ``nullspace``, ``solve_coordinates``, ``reduce_against``) serve the test
  oracles and the benchmark's tracing hooks; ``analyze`` never runs them.

Covector spaces (linear forms) and point spaces share this machinery; the
semantic split is maintained by the callers (``nullspace`` and
``int_nullspace`` map forms to the point space they annihilate).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class InternalError(RuntimeError):
    """A state the underlying theory rules out. Indicates a bug, not bad input."""


def vector(coords: Iterable) -> Vector:
    """Coerce an iterable of exact scalars (int/Fraction/str) to a Vector."""
    return tuple(Fraction(c) for c in coords)


def primitive_vector(coords: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Canonical integer representative of a projective class.

    Entries are ``int`` or ``Fraction``, which both have a ``numerator`` and
    a ``denominator``: clears denominators, divides by the gcd, and makes
    the first nonzero entry positive.  Raises on the zero vector.
    """
    denom_lcm = lcm(*(c.denominator for c in coords))
    ints = [c.numerator * (denom_lcm // c.denominator) for c in coords]
    if not any(ints):
        raise ValueError("zero vector has no primitive representative")
    g = gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def _rref(rows: Iterable[Sequence[Fraction]], width: int) -> list[list[Fraction]]:
    """Reduced row echelon form; returns only the nonzero rows."""
    mat = [list(r) for r in rows]
    row = 0
    for col in range(width):
        pivot = next((i for i in range(row, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = mat[row][col]
        if inv != 1:
            mat[row] = [x / inv for x in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[row])]
        row += 1
        if row == len(mat):
            break
    return mat[:row]


# Integer echelon rows: (pivot column, primitive row) in insertion order.
# Each row is zero at the pivot column of every earlier row, so eliminating
# in insertion order clears every pivot column.
IntRows = list[tuple[int, tuple[int, ...]]]


def int_residual(rows: IntRows, v: Sequence[int]) -> tuple[int, ...]:
    """Fraction-free residual of the integer vector v against echelon rows.

    Each step clears its row's pivot column for good, as every later row is
    zero there, and multiplies by a nonzero pivot entry.  So the residual
    is a nonzero multiple of P(v), the one vector of v + span(rows) that is
    zero at every pivot column; P is linear with kernel span(rows), and the
    residual is zero iff v lies in the span.  A step divides by the gcd, so
    a residual is primitive whenever v is.
    """
    res = v
    for pivot, row in rows:
        c = res[pivot]
        if c:
            p = row[pivot]
            res = [p * x - c * y for x, y in zip(res, row)]
            g = gcd(*res)
            if g > 1:
                res = [x // g for x in res]
    return tuple(res)


def int_echelon(vectors: Iterable[Sequence[int]]) -> IntRows:
    """Integer echelon rows spanning the same space as the integer vectors."""
    rows: IntRows = []
    for v in vectors:
        res = int_residual(rows, v)
        pivot = next((i for i, x in enumerate(res) if x), None)
        if pivot is not None:
            g = gcd(*res)
            rows.append((pivot, tuple(x // g for x in res) if g > 1 else res))
    return rows


def int_rref(vectors: Iterable[Sequence[int]]) -> IntRows:
    """Integer rows of the reduced row echelon form of the vectors' span.

    The rows are sorted by pivot, primitive, positive at their pivot and
    zero at every other row's pivot, so row q divided by q[pivot] is the
    canonical RREF row that ``span`` returns.  Each pivot column is cleared
    from the earlier rows by one ``int_residual`` step against its row;
    every later row is zero there already.  The step multiplies by the
    positive pivot entry, so every pivot entry stays positive.
    """
    rows = [
        [p, row if row[p] > 0 else tuple(-x for x in row)]
        for p, row in sorted(int_echelon(vectors))
    ]
    for k in range(len(rows) - 1, 0, -1):
        for entry in rows[:k]:
            entry[1] = int_residual(rows[k:k + 1], entry[1])
    return [(p, row) for p, row in rows]


def int_rank(vectors: Iterable[Sequence[int]]) -> int:
    """Rank of a list of integer vectors."""
    return len(int_echelon(vectors))


def int_nullspace(rows: Sequence[Sequence[int]], width: int) -> IntRows:
    """Integer echelon rows of {x : Rx = 0} for the integer row matrix R.

    Echelon [column c of R | unit vector e_c] over the columns.  The pivots
    are distinct first-nonzero columns, so a combination of the rows whose
    left half vanishes uses only rows with pivot >= len(R), and their right
    halves are a basis of the kernel.  At most one such row is made at each
    column c, in column order.  It is supported on columns 0..c, nonzero
    at c, and, like every ``int_echelon`` row, zero at the pivot of every
    earlier row.
    """
    k = len(rows)
    augmented = [
        tuple(row[c] for row in rows) + tuple(int(i == c) for i in range(width))
        for c in range(width)
    ]
    return [(p - k, row[k:]) for p, row in int_echelon(augmented) if p >= k]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace in canonical (reduced row-echelon) basis form."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    def __post_init__(self):
        for b in self.basis:
            if len(b) != self.ambient_dim:
                raise DimensionMismatchError(
                    f"basis vector of length {len(b)} in ambient dimension "
                    f"{self.ambient_dim}"
                )


def span(vectors: Iterable[Sequence[Fraction]], ambient_dim: Optional[int] = None) -> Subspace:
    """Canonical subspace spanned by the given vectors.

    ``ambient_dim`` is required when ``vectors`` is empty (the zero space has
    no vector to infer it from).
    """
    vecs = [vector(v) for v in vectors]
    if ambient_dim is None:
        if not vecs:
            raise ValueError("ambient_dim is required for an empty span")
        ambient_dim = len(vecs[0])
    for v in vecs:
        if len(v) != ambient_dim:
            raise DimensionMismatchError(
                f"vector of length {len(v)} in ambient dimension {ambient_dim}"
            )
    reduced = _rref(vecs, ambient_dim)
    return Subspace(ambient_dim, tuple(tuple(r) for r in reduced))


def _check_same_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}"
        )


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection via the Zassenhaus block construction.

    Row-reduce the block matrix [[U | U], [V | 0]]; rows whose left half
    vanished carry a basis of the intersection in their right half.
    """
    _check_same_ambient(u, v)
    n = u.ambient_dim
    rows: list[list[Fraction]] = []
    for b in u.basis:
        rows.append(list(b) + list(b))
    for b in v.basis:
        rows.append(list(b) + [_ZERO] * n)
    reduced = _rref(rows, 2 * n)
    inter = [row[n:] for row in reduced if all(x == 0 for x in row[:n])]
    return span(inter, n)


def contains(u: Subspace, x: Sequence[Fraction]) -> bool:
    """Exact membership test: is x in u?"""
    vec = vector(x)
    if len(vec) != u.ambient_dim:
        raise DimensionMismatchError(
            f"vector of length {len(vec)} in ambient dimension {u.ambient_dim}"
        )
    return not any(reduce_against(u.basis, vec)[0])


def reduce_against(
    rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Residual of vec after elimination, and the multiple of each row subtracted.

    Rows are echelon in insertion order: each row's pivot is its first nonzero
    entry, where every later row is zero (an RREF basis is one case).  A zero
    residual means vec is in the span, with the multiples as its coordinates.
    """
    res = list(vec)
    multiples: list[Fraction] = []
    for row in rows:
        pivot = next(i for i, x in enumerate(row) if x != 0)
        factor = res[pivot]
        if factor != 0:
            if row[pivot] != 1:
                factor = factor / row[pivot]
            res = [a - factor * b for a, b in zip(res, row)]
        multiples.append(factor)
    return res, multiples


def nullspace(rows: Iterable[Sequence[Fraction]], width: int) -> Subspace:
    """Canonical basis of {x : Rx = 0} for the given row matrix."""
    reduced = _rref([vector(r) for r in rows], width)
    pivots = [next(i for i, x in enumerate(row) if x != 0) for row in reduced]
    free = [j for j in range(width) if j not in pivots]
    basis = []
    for f in free:
        vec = [_ZERO] * width
        vec[f] = _ONE
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return span(basis, width)


def solve_coordinates(rows: Sequence[Vector], target: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Coordinates of target in the (independent) row list, or None.

    Solves sum_i x_i rows[i] = target by elimination on the transpose.
    """
    if not rows:
        return [] if all(Fraction(c) == 0 for c in target) else None
    width = len(rows[0])
    tgt = vector(target)
    if len(tgt) != width:
        raise DimensionMismatchError("target length differs from row length")
    k = len(rows)
    # Augmented system: columns are the rows, last column is the target.
    aug = [[rows[j][i] for j in range(k)] + [tgt[i]] for i in range(width)]
    reduced = _rref(aug, k + 1)
    coords: list[Fraction] = [_ZERO] * k
    for row in reduced:
        pivot = next(i for i, x in enumerate(row) if x != 0)
        if pivot == k:
            return None  # inconsistent: target outside the span
        coords[pivot] = row[k]
    return coords
