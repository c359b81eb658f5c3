"""Hyperplane arrangements in projective n-space.

An arrangement is a deduplicated set of nonzero linear forms in n+1
variables, one per hyperplane, each canonicalized to a primitive integer
vector.  Profiling computes the key combinatorial statistics:

* ``relations`` -- a basis of the linear relations among the forms, the
  integer vectors lambda with sum_i lambda_i f_i = 0,
* ``m``  -- projective dimension of the common intersection of all
  hyperplanes (the empty set counts as dimension -1), so the forms have
  rank n - m = r - #relations,
* ``s``  -- the largest number of hyperplanes with nonempty common
  intersection, i.e. the largest set of forms of rank at most n,
* general position -- every subset of min(r, n+1) forms is independent.

``Arrangement`` is also the per-arrangement context: its forms are the
integer rows every stage reads, and m and s are computed on first use and
kept, so every stage of an analysis reads the same values.

General position follows from rank and s.  When r <= n+1 it says that all
r forms are independent, i.e. rank = r.  When r > n+1 it holds iff s = n.
Any n forms have rank at most n, so s >= n.  If every n+1 forms are
independent, every set of more than n forms contains n+1 independent ones
and has rank n+1, so s = n.  Conversely, if s = n, no n+1 forms lie in a
space of rank n, so every n+1 of them are independent.

The same fact decides whether the general-position bound of
``corollaries`` is achieved: the bound exists when r > s, and then general
position holds iff s = n.  For r > n+1 that is the rule above.  For
r <= n+1 and r > s, the rank is n+1 (at rank <= n all r forms would meet,
so s = r), hence rank = r = n+1, which is general position, and n <= s < r
gives s = n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .exact_linalg import IntRows, int_nullspace, int_residual, primitive_vector


BIPARTITION_SCAN_LIMIT = 22  # largest r the partition search and the finiteness verdict accept


class ArrangementError(ValueError):
    """Invalid arrangement input (zero form, wrong arity, empty list...)."""


class RefusedError(ValueError):
    """Valid input beyond what the exact analysis will attempt."""


@dataclass(frozen=True)
class Arrangement:
    """The set of defining forms plus the ambient projective dimension n.

    Each form is a primitive integer vector (``primitive_vector``).
    ``relations``, ``m`` and ``s`` are computed once, on first use.
    """

    n: int
    forms: tuple[tuple[int, ...], ...]
    warnings: tuple[str, ...] = ()

    @property
    def r(self) -> int:
        return len(self.forms)

    @cached_property
    def relations(self) -> IntRows:
        """Echelon rows (pivot, lambda) spanning {lambda : sum_i lambda_i f_i = 0}.

        The ``int_nullspace`` of the transposed forms, so its rows come in
        form order, one made at each form in the span of the earlier forms
        (see there).
        """
        return int_nullspace(list(zip(*self.forms)), self.r)

    @cached_property
    def m(self) -> int:
        return compute_m(self)

    @cached_property
    def s(self) -> int:
        return compute_s(self)


@dataclass(frozen=True)
class ArrangementProfile:
    m: int
    r: int
    s: int
    general_position: bool


def load(n: int, raw_forms: Sequence[Sequence[int | Fraction]]) -> Arrangement:
    """Canonicalize, deduplicate and sort the input forms.

    Coefficients must be ``int`` (not ``bool``) or ``Fraction``; ``load``
    converts none.
    Forms are deduplicated by projective class (proportional forms collapse,
    with a warning) and sorted lexicographically on their canonical integer
    coefficients, so every downstream enumeration order is deterministic.
    """
    if n < 1:
        raise ArrangementError(f"ambient projective dimension must be >= 1, got {n}")
    if not raw_forms:
        raise ArrangementError("empty form list")
    canonical: list[tuple[int, ...]] = []
    warnings: list[str] = []
    seen: dict[tuple[int, ...], int] = {}
    for idx, raw in enumerate(raw_forms):
        if len(raw) != n + 1:
            raise ArrangementError(f"form {idx} has {len(raw)} coefficients, expected {n + 1}")
        for j, c in enumerate(raw):
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise ArrangementError(f"form {idx}, entry {j}: {c!r} is not an int or Fraction")
        if not any(raw):
            raise ArrangementError(f"form {idx} is the zero form")
        form = primitive_vector(raw)
        if form in seen:
            warnings.append(f"form {idx} is proportional to form {seen[form]}; deduplicated")
            continue
        seen[form] = idx
        canonical.append(form)
    canonical.sort()
    return Arrangement(n=n, forms=tuple(canonical), warnings=tuple(warnings))


def refuse_above_scan_limit(a: Arrangement, what: str) -> None:
    """Raise ``RefusedError`` when ``a`` has more than ``BIPARTITION_SCAN_LIMIT`` forms."""
    if a.r > BIPARTITION_SCAN_LIMIT:
        raise RefusedError(
            f"refused: the {what} accepts at most r = {BIPARTITION_SCAN_LIMIT} "
            f"forms, and this input has r = {a.r}"
        )


def compute_m(a: Arrangement) -> int:
    """Projective dimension of the common intersection of all hyperplanes.

    The forms have rank r minus the number of independent relations.
    """
    return a.n - a.r + len(a.relations)


def compute_s(a: Arrangement) -> int:
    """Largest subset size with nonempty common projective intersection.

    Maximizes |T| subject to rank(span T) <= n.  Rank is monotone in the
    subset, so the search grows subsets incrementally and prunes any branch
    whose rank reaches n+1; a dependent form is always taken (it enlarges the
    subset without changing the rank).
    """
    forms, r, cap = a.forms, a.r, a.n
    best = 0

    def dfs(i: int, rows: IntRows, count: int) -> None:
        nonlocal best
        if count + (r - i) <= best:
            return
        if i == r:
            best = max(best, count)
            return
        res = int_residual(rows, forms[i])
        pivot = next((j for j, x in enumerate(res) if x), None)
        if pivot is None:
            dfs(i + 1, rows, count + 1)  # free: rank unchanged
        else:
            if len(rows) < cap:
                dfs(i + 1, rows + [(pivot, res)], count + 1)
            dfs(i + 1, rows, count)

    dfs(0, [], 0)
    del dfs  # break the function <-> cell cycle, so no garbage is left for gc
    return best


def is_general_position(a: Arrangement) -> bool:
    """Every subset of min(r, n+1) forms is independent: rank = r or s = n.

    The module docstring proves the rule.
    """
    if a.r <= a.n + 1:
        return a.n - a.m == a.r
    return a.s == a.n


def profile(a: Arrangement) -> ArrangementProfile:
    return ArrangementProfile(m=a.m, r=a.r, s=a.s, general_position=is_general_position(a))
