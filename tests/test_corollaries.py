"""Finiteness verdicts and general-position bounds as cross-checks."""

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyparc import corollaries
from hyparc.arrangement import Arrangement, load
from hyparc.corollaries import (
    cross_check,
    finiteness_verdict,
    general_position_bound,
    verdict,
)
from hyparc.dimension_search import achievable_dimensions
from hyparc.exact_linalg import contains, intersect, span

from .corpus import (
    arrangements,
    direct_sum,
    moment_curve_arrangement,
    random_arrangement,
    sparse_arrangements,
)


def zassenhaus_finiteness(a: Arrangement) -> bool:
    """Oracle: the finiteness scan by Fraction spans and Zassenhaus intersections."""
    vecs = a.forms
    if span(vecs, a.n + 1).rank != a.n + 1:
        return False
    r = a.r
    others = list(range(1, r))
    for mask in range(2 ** (r - 1) - 1):
        side = [0] + [others[k] for k in range(r - 1) if mask >> k & 1]
        comp = [i for i in range(r) if i not in set(side)]
        overlap = intersect(
            span([vecs[i] for i in side], a.n + 1),
            span([vecs[i] for i in comp], a.n + 1),
        )
        if overlap.is_zero or not any(contains(overlap, v) for v in vecs):
            return False
    return True


class TestFinitenessVerdict:
    def test_five_general_position_lines(self):
        assert finiteness_verdict(moment_curve_arrangement(2, 5))

    def test_coordinate_triple_not_finite(self):
        assert not finiteness_verdict(load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))

    def test_four_lines_not_finite(self):
        a = load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        assert not finiteness_verdict(a)

    def test_nonempty_intersection_never_finite(self):
        assert not finiteness_verdict(load(2, [[1, 0, 0], [0, 1, 0]]))

    def test_scan_limit(self):
        with pytest.raises(ValueError, match="refused"):
            finiteness_verdict(moment_curve_arrangement(2, 23))

    def test_direct_sum_of_finite_arrangements_is_not_finite(self):
        # Each summand is finite, so its forms admit no clopen split; the
        # forms of one summand are a clopen set of the sum.
        part = moment_curve_arrangement(2, 5)
        rows = [f + (0,) * 3 for f in part.forms]
        rows += [(0,) * 3 + f for f in part.forms]
        a = load(5, rows)
        assert finiteness_verdict(part)
        assert a.m == -1
        assert not finiteness_verdict(a)
        assert not zassenhaus_finiteness(a)

    def test_answers_at_the_form_limit(self):
        # r >= 2n + 1 forms in general position are finite.  The verdict must
        # answer here without walking all 2^21 bipartitions.
        assert finiteness_verdict(moment_curve_arrangement(2, 22))

    def test_agrees_with_search(self):
        rng = random.Random(17)
        for _ in range(30):
            a = random_arrangement(rng, rng.randint(1, 4), rng.randint(2, 6))
            rep = achievable_dimensions(a)
            assert finiteness_verdict(a) == (rep.d_max <= 0)


@settings(max_examples=60, deadline=None)
@given(arrangements(max_r=9))
def test_finiteness_matches_zassenhaus_scan(a):
    assert finiteness_verdict(a) == zassenhaus_finiteness(a)


@settings(max_examples=60, deadline=None)
@given(sparse_arrangements(max_r=9))
def test_finiteness_matches_zassenhaus_scan_on_split_matroids(a):
    assert finiteness_verdict(a) == zassenhaus_finiteness(a)


def test_finiteness_matches_zassenhaus_on_general_position():
    for n, r in [(1, 3), (2, 4), (2, 5), (3, 7), (3, 8), (4, 9)]:
        a = moment_curve_arrangement(n, r)
        assert finiteness_verdict(a) == zassenhaus_finiteness(a) == (r >= 2 * n + 1)


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    arrangements(max_r=9),
    sparse_arrangements(max_r=9),
    st.builds(direct_sum, arrangements(max_r=5), arrangements(max_r=5)),
))
def test_side_cap_matches_zassenhaus_scan(a):
    """Where r <= 2s the search runs, and the cap of s forms a side only prunes."""
    assume(a.m == -1 and a.r <= 2 * a.s)
    assert finiteness_verdict(a) == zassenhaus_finiteness(a)


def test_more_than_twice_s_forms_are_finite_without_a_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("the search ran although r > 2s")

    monkeypatch.setattr(corollaries, "_clopen_split", no_search)
    a = moment_curve_arrangement(4, 9)  # s = 4
    assert finiteness_verdict(a)
    with pytest.raises(AssertionError, match="the search ran"):
        finiteness_verdict(moment_curve_arrangement(4, 8))


class TestGeneralPositionBound:
    def test_four_lines(self):
        assert general_position_bound(moment_curve_arrangement(2, 4)) == 1

    def test_four_planes_in_p3(self):
        assert general_position_bound(moment_curve_arrangement(3, 4)) == 3

    def test_six_lines(self):
        assert general_position_bound(moment_curve_arrangement(2, 6)) == 0

    def test_absent_when_r_le_s(self):
        assert general_position_bound(load(2, [[1, 0, 0], [0, 1, 0]])) is None


class TestCrossCheck:
    def test_general_position_corpus_is_clean(self):
        for n in (2, 3):
            for r in range(n + 1, n + 4):
                a = moment_curve_arrangement(n, r)
                assert cross_check(a, achievable_dimensions(a), verdict(a)) == []

    def test_fabricated_wrong_report(self):
        a = moment_curve_arrangement(2, 4)
        rep = achievable_dimensions(a)
        wrong = replace(rep, d_max=2)
        assert cross_check(a, wrong, verdict(a))

    def test_flipped_finiteness_verdict(self):
        a = moment_curve_arrangement(2, 4)
        v = verdict(a)
        flipped = replace(v, finiteness=not v.finiteness)
        assert cross_check(a, achievable_dimensions(a), flipped)

    def test_r_le_s_only_finiteness_applies(self):
        a = load(3, [[1, 0, 0, 0], [0, 1, 0, 0]])  # r = s = 2
        assert cross_check(a, achievable_dimensions(a), verdict(a)) == []


class TestVerdict:
    def test_fields(self):
        v = verdict(moment_curve_arrangement(2, 5))
        assert v == type(v)(finiteness=True, gp_bound=0, gp_bound_achieved=True)

    def test_no_bound_fields_when_r_le_s(self):
        v = verdict(load(2, [[1, 0, 0], [0, 1, 0]]))
        assert v.gp_bound is None and v.gp_bound_achieved is None
