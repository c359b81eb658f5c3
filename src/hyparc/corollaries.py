"""Independent verdicts used as cross-checks against the partition search.

* Finiteness / hyperbolicity (Evertse–Győry): the common intersection is
  empty and no set of forms other than the empty set and the whole set E
  is clopen, i.e. a flat whose complement is a flat too (the bipartition
  rule of ``dimension_search``).  This is decided by a two-sided closure
  search of its own, separate from the search module's, and runs once per
  analysis.  Its closure step, ``_closed_with``, lives in ``arrangement``,
  where the search for s runs on it too; the partition search has its own.
* General-position bound: when more hyperplanes than can meet at a point,
  the maximal dimension is at most floor(s / (r - s)), with equality for
  arrangements in general position.  When r > s, general position is the
  same fact as s = n (see ``arrangement``).

``verdict(a)`` computes both once, reading m and s from the arrangement;
``cross_check`` receives that verdict and compares it with the search
result, without recomputing either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .arrangement import (
    Arrangement,
    _closed_with,
    is_general_position,
    refuse_above_scan_limit,
)
from .dimension_search import DimensionReport


@dataclass(frozen=True)
class Verdict:
    finiteness: bool
    gp_bound: Optional[int]
    gp_bound_achieved: Optional[bool]


def _clopen_split(
    full: int, cap: int, a_side: int, a_out: dict, b_side: int, b_out: dict
) -> bool:
    """True iff the flats A and B grow into a split of ``full`` with B nonempty.

    The highest undecided form joins A or B, and that side is closed again;
    a branch dies when the closure reaches the other side, or when a side
    holds more than ``cap`` forms.  A side is closed only while it holds
    fewer than ``cap`` forms: its closure with u holds it and u, so from
    ``cap`` forms on the child would die on its first test.
    """
    if a_side.bit_count() > cap or b_side.bit_count() > cap:
        return False
    undecided = full & ~(a_side | b_side)
    if not undecided:
        return b_side != 0
    u = undecided.bit_length() - 1
    grown = a_side.bit_count() < cap and _closed_with(a_side, a_out, u, b_side)
    if grown and _clopen_split(full, cap, *grown, b_side, b_out):
        return True
    grown = b_side.bit_count() < cap and _closed_with(b_side, b_out, u, a_side)
    return bool(grown) and _clopen_split(full, cap, a_side, a_out, *grown)


def finiteness_verdict(a: Arrangement) -> bool:
    """True iff every point set on the complement is finite.

    Equivalently the complement is Brody hyperbolic: m = -1 and no proper
    nonempty subset of the set E of forms is clopen.  The search starts
    with the highest form on side A and an empty side B, puts the highest
    undecided form on one side, closes that side, and stops at the first
    leaf with B nonempty.

    * Soundness: both sides stay flats, because each is closed after every
      form it receives, and a branch whose closures meet dies.  So every
      leaf is a bipartition of E into two disjoint flats, and one with B
      nonempty is a clopen split.
    * Completeness: let (S, E∖S) be a clopen split with the highest form in
      S.  The branch that puts each form on its side of the split keeps A
      inside S and B inside E∖S, because the closure of a subset of a flat
      stays inside that flat.  So it never dies and ends at the leaf
      (S, E∖S), where B is nonempty.
    * The s rule: with m = -1 the forms have rank n + 1, so a flat other
      than E has rank at most n and, by the definition of s, at most s
      forms.  Both sides of a clopen split are such flats, so r > 2s rules
      every split out at once, and a branch with more than s forms on one
      side, which lies inside a side of any split it leads to, can die.
      The partition search does not read s, so the exit-3 cross-check
      still compares two computations that do not share it.
    """
    refuse_above_scan_limit(a, "finiteness verdict")
    if a.m != -1:
        return False
    if a.r > 2 * a.s:
        return True
    residuals = dict(enumerate(a.forms))
    start = _closed_with(0, residuals, a.r - 1, 0)
    return not _clopen_split((1 << a.r) - 1, a.s, *start, 0, residuals)


def general_position_bound(a: Arrangement) -> Optional[int]:
    """floor(s / (r - s)) when r > s, else None."""
    return a.s // (a.r - a.s) if a.r > a.s else None


def verdict(a: Arrangement) -> Verdict:
    """Finiteness and general-position verdicts."""
    bound = general_position_bound(a)
    return Verdict(
        finiteness=finiteness_verdict(a),
        gp_bound=bound,
        gp_bound_achieved=is_general_position(a) if bound is not None else None,
    )


def cross_check(a: Arrangement, report: DimensionReport, verdicts: Verdict) -> list[str]:
    """Consistency checks between the search result and the corollaries.

    Returns a list of discrepancy descriptions; an empty list means the two
    independent code paths agree.
    """
    discrepancies: list[str] = []
    if verdicts.finiteness != (report.d_max <= 0):
        discrepancies.append(
            f"finiteness verdict {verdicts.finiteness} disagrees with d_max={report.d_max}"
        )
    bound = verdicts.gp_bound
    if bound is not None:
        if report.d_max > bound:
            discrepancies.append(
                f"d_max={report.d_max} exceeds the bound {bound} (r={a.r})"
            )
        if verdicts.gp_bound_achieved and report.d_max != bound:
            discrepancies.append(
                f"general position: d_max={report.d_max} should equal the bound {bound}"
            )
    return discrepancies
