"""Test oracles that ``analyze`` never runs.

``is_flat`` is the plain definition of a flat of the forms' matroid, which
the clopen tests compare the search's criteria against.  ``shrink_witness``
and ``induced_partition`` are the constructive proof behind the report's
``achievable`` list: every dimension below d_max has a verified witness, and
a verified witness of dimension d > m + 1 induces a valid partition into
d - m blocks.
"""

from typing import Iterable, Optional, Sequence

from hyparc.arrangement import Arrangement
from hyparc.dimension_search import Blocks
from hyparc.exact_linalg import Vector, int_echelon, int_residual, nullspace, vector
from hyparc.witness import WitnessSubspace, _generic_point, make_witness


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
            sum(prow[i] * y.point_basis[i][c] for i in range(param_dim))
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
