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

s from the shallower side.  When the forms have rank at most n they all
meet, and s = r.  Otherwise the rank is n+1, the largest sets of rank n
are the hyperplanes of the forms' matroid (flats of rank n), and s is r
minus the smallest cocircuit, the complement of a hyperplane (Oxley,
*Matroid Theory*, ch. 2).  The cocircuits of the forms are the circuits of
the dual matroid, which the columns of ``relations`` represent: column i
holds the i-th coefficient of every relation, the k = r - rank columns
span a space of rank k, and a set of columns is dependent iff its
complement does not span the forms.  So s comes from either side:

* ``_largest_hyperplane`` takes forms into a flat down to rank - 2, where
  the hyperplanes over it are read off the classes of the residuals;
* ``_smallest_circuit`` takes relation columns into an independent set up
  to rank k - 1, where any column it pulls in closes a circuit.

Both run on ``_closed_with``, the closure step of the finiteness verdict,
not on the partition search's ``_close``.  ``_smallest_circuit`` tests a
take against the best bound and the columns left undecided before it pays
for the closure;
``_largest_hyperplane`` has nothing to test, as a take leaves its reach,
the flat plus the undecided vectors, as it was.  ``dual_is_shallower``
searches the columns when k <= rank - 4.  The rule follows these
in-process seconds for s, the best of six runs (2 vCPUs, Python 3.11.7),
on ``hyparc generate`` inputs:

=====================================  ====  ==  ======  =====
input                                  rank  k   primal  dual
=====================================  ====  ==  ======  =====
``general_position -n 8 -r 16``        9     7   0.17    0.19
``random -n 7 -r 16 --seed 3``         8     8   0.071   0.093
``random -n 7 -r 15``                  8     7   0.076   0.13
``general_position -n 9 -r 17``        10    7   0.53    0.42
``random -n 9 -r 17 --seed 1``         10    7   0.18    0.29
``general_position -n 9 -r 16``        10    6   0.14    0.070
``random -n 8 -r 14 --seed 2``         9     5   0.024   0.006
``random -n 10 -r 16``                 11    5   0.13    0.028
``general_position -n 12 -r 19``       13    6   0.95    0.18
``random -n 12 -r 20``                 13    7   2.7     1.0
=====================================  ====  ==  ======  =====

At k = rank - 3 (the rows with rank 10 and k 7 are two of ten such
inputs, best of three) the columns won on eight and lost on two, among
them the slowest, ``random -n 10 -r 19`` (1.6 s primal, 1.7 s dual), so
the rule stays at rank - 4.

The partition search applies the same rule to each matroid component,
with that component's rank and relation count, for its bound c(i).

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


def _closed_with(side: int, outside: dict, u: int, other: int):
    """Closure of the flat ``side`` plus form ``u``; None when it meets ``other``.

    Sets of forms are bitmasks.  ``outside`` maps each form not in ``side``
    to its residual against span(side).  Reducing each residual by the one
    row of ``u`` gives the residuals against the grown span; a zero residual
    puts its form into the closure.  Returns the closed side and its new
    ``outside`` map.  This step serves ``s`` and the finiteness verdict of
    ``corollaries``; the partition search has its own (``_close``), so the
    exit-3 cross-check compares computations that share no closure code.
    """
    row = outside[u]
    step = [(next(j for j, x in enumerate(row) if x), row)]
    side |= 1 << u
    still_outside = {}
    for e, res in outside.items():
        if e == u:
            continue
        res = int_residual(step, res)
        if any(res):
            still_outside[e] = res
        elif other >> e & 1:
            return None
        else:
            side |= 1 << e
    return side, still_outside


def dual_is_shallower(rank: int, corank: int) -> bool:
    """The side rule: search the relation columns' circuits, not the hyperplanes.

    The hyperplane search goes down to rank - 2, the circuit search up to
    corank - 1 (module docstring).  This one comparison picks the side for
    ``s`` and, per matroid component, for the partition search's c(i).
    """
    return corank <= rank - 4


def _largest_hyperplane(vecs: Sequence[Sequence[int]], rank: int) -> int:
    """Size of the largest flat of rank ``rank`` - 1 of the primitive vectors.

    ``rank`` is the rank of all the vectors, at least 2.  The lowest
    undecided vector is taken into the flat, which is closed again, or
    skipped, and a branch dies when the closure takes in a skipped vector;
    each take raises the rank by one.  Over a flat F of rank ``rank`` - 2
    the vectors outside reduce to a plane, so the hyperplanes through F are
    F plus one projective class of those residuals each.  A branch stops
    once F plus its undecided vectors is no larger than the best found: the
    branch that takes exactly the members of a hyperplane H skips none of
    them, so it reaches H as long as |H| is larger.
    """
    full = (1 << len(vecs)) - 1
    zero = (0,) * len(vecs[0])
    best = 0

    def dfs(flat: int, outside: dict, skipped: int, level: int) -> None:
        nonlocal best
        size = flat.bit_count()
        undecided = full & ~(flat | skipped)
        if size + undecided.bit_count() <= best:
            return
        if level == rank - 2:
            classes: dict[tuple[int, ...], int] = {}
            for res in outside.values():  # residuals are primitive up to sign
                key = res if res > zero else tuple(-x for x in res)
                classes[key] = classes.get(key, 0) + 1
            best = max(best, size + max(classes.values()))
            return
        if not undecided:
            return
        u = (undecided & -undecided).bit_length() - 1
        grown = _closed_with(flat, outside, u, skipped)
        if grown:
            dfs(*grown, skipped, level + 1)
        dfs(flat, outside, skipped | 1 << u, level)

    dfs(0, dict(enumerate(vecs)), 0, 0)
    del dfs  # break the function <-> cell cycle, so no garbage is left for gc
    return best


def _smallest_circuit(relations: Sequence[Sequence[int]], size: int) -> int:
    """Size of the smallest circuit of the ``size`` columns of the relation rows.

    The rows are independent, so their columns have rank ``corank`` =
    len(relations), and any corank + 1 columns are dependent.  A zero
    column is a circuit by itself.  Otherwise the search takes the lowest
    undecided column into an independent set T or skips it.  When taking u
    pulls another column e into the closure, e lies in span(T + u) but not
    in span(T), so the one circuit inside T + u + e has at most |T| + 2
    columns: that is recorded, and supersets of T + u can only record more.
    The smallest circuit C = {c_1 < ... < c_g} is reached: the branch that
    takes c_1 .. c_g-1 pulls c_g in at the last take, from |T| = g - 2,
    unless an earlier take already recorded as little.  A branch stops when
    |T| + 2 is no smaller than the best found.

    Both steps are decided before the closure.  The residuals are
    primitive up to sign (``primitive_vector``, ``int_residual``), and e's
    residual reduces to zero by u's exactly when it is ± u's, so comparing
    them is the test "u pulls e in".  Otherwise the child's first tests are
    an undecided column and |T| + 3 < best, and u is closed only to descend
    when both hold.
    """
    columns = [tuple(lam[i] for lam in relations) for i in range(size)]
    if not all(any(col) for col in columns):
        return 1
    best = len(relations) + 1

    def dfs(outside: dict, undecided: int, level: int) -> None:
        nonlocal best
        while undecided and level + 2 < best:
            u = (undecided & -undecided).bit_length() - 1
            undecided ^= 1 << u  # taken below, then skipped by the loop
            row = outside[u]
            neg = tuple(-x for x in row)
            if any(res == row or res == neg for e, res in outside.items() if e != u):
                best = level + 2  # u pulls another column in
            elif undecided and level + 3 < best:
                _, grown = _closed_with(0, outside, u, 0)
                dfs(grown, undecided, level + 1)

    dfs({e: primitive_vector(col) for e, col in enumerate(columns)}, (1 << size) - 1, 0)
    del dfs  # break the function <-> cell cycle, so no garbage is left for gc
    return best


def compute_s(a: Arrangement) -> int:
    """Largest subset size with nonempty common projective intersection.

    r when the forms have rank at most n; otherwise the size of the largest
    hyperplane of the forms, that is r minus the smallest cocircuit, which
    is the smallest circuit of the relation columns.  ``dual_is_shallower``
    picks the side to search (module docstring).
    """
    corank = len(a.relations)
    rank = a.r - corank
    if rank <= a.n:
        return a.r
    if dual_is_shallower(rank, corank):
        return a.r - _smallest_circuit([lam for _, lam in a.relations], a.r)
    return _largest_hyperplane(a.forms, rank)


def is_general_position(a: Arrangement) -> bool:
    """Every subset of min(r, n+1) forms is independent: rank = r or s = n.

    The module docstring proves the rule.
    """
    if a.r <= a.n + 1:
        return a.n - a.m == a.r
    return a.s == a.n


def profile(a: Arrangement) -> ArrangementProfile:
    return ArrangementProfile(m=a.m, r=a.r, s=a.s, general_position=is_general_position(a))
