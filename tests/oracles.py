"""Test oracles that ``analyze`` never runs.

``is_flat`` is the plain definition of a flat of the forms' matroid, which
the clopen tests compare the search's criteria against.
``generic_avoiding_extension`` and ``restrictions`` are the ``Fraction``
moment-curve walk and witness restrictions, on canonical RREF bases, that
the integer ones in ``hyparc.witness`` are checked against, and
``sequential_u_chain`` is the paper's chain of block steps built from them.
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
from hyparc.dimension_search import Blocks
from hyparc.exact_linalg import (
    DimensionMismatchError,
    Subspace,
    Vector,
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
