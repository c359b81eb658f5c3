"""Independent verdicts used as cross-checks against the partition search.

* Finiteness / hyperbolicity: the common intersection is empty and, for
  every proper nonempty subset of the forms, some form lies in the span of
  the subset intersected with the span of its complement.  Equivalently, no
  bipartition has two flats as its sides (see ``dimension_search``).  This
  is decided by a direct bipartition scan of its own, independent of the
  search module, and runs once per analysis.
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

from .arrangement import Arrangement, is_general_position, refuse_above_scan_limit
from .dimension_search import DimensionReport
from .exact_linalg import is_flat


@dataclass(frozen=True)
class Verdict:
    finiteness: bool
    gp_bound: Optional[int]
    gp_bound_achieved: Optional[bool]


def finiteness_verdict(a: Arrangement) -> bool:
    """True iff every point set on the complement is finite.

    Equivalently the complement is Brody hyperbolic.  Scans every proper
    nonempty subset (up to complement symmetry) with early exit on the first
    subset whose span/complement-span overlap misses all forms, i.e. the
    first subset that is a flat with a flat complement.
    """
    refuse_above_scan_limit(a, "finiteness scan")
    if a.m != -1:
        return False
    coeffs = [f.coeffs for f in a.forms]
    r = a.r
    for mask in range(2 ** (r - 1) - 1):
        side = {0} | {k + 1 for k in range(r - 1) if mask >> k & 1}
        comp = [i for i in range(r) if i not in side]
        if is_flat(coeffs, side) and is_flat(coeffs, comp):
            return False
    return True


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
