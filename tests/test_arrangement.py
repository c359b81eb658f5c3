"""Arrangement loading, canonicalization, and profiling."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyparc.arrangement import (
    Arrangement,
    ArrangementError,
    _largest_hyperplane,
    _smallest_circuit,
    compute_m,
    compute_s,
    dual_is_shallower,
    is_general_position,
    load,
    profile,
)
from hyparc.corollaries import verdict
from hyparc.exact_linalg import int_rank, span

from .corpus import (
    arrangements,
    both_sides,
    direct_sum,
    garbage_left_by,
    moment_curve_arrangement,
    random_arrangement,
    sparse_arrangements,
)
from .oracles import largest_subset_of_rank


def subset_general_position(a: Arrangement) -> bool:
    """Oracle: rank every subset of min(r, n+1) forms."""
    k = min(a.r, a.n + 1)
    return all(int_rank(combo) == k for combo in combinations(a.forms, k))


class TestLoad:
    def test_proportional_dedupe(self):
        a = load(2, [[1, 0, 0], [2, 0, 0], [0, 1, 0]])
        assert a.r == 2
        assert set(a.forms) == {(1, 0, 0), (0, 1, 0)}
        assert len(a.warnings) == 1

    def test_zero_form_rejected(self):
        with pytest.raises(ArrangementError, match="form 0 is the zero form"):
            load(2, [[0, 0, 0]])

    def test_fraction_canonicalization(self):
        a = load(2, [[Fraction(1, 2), 0, 0]])
        assert a.forms[0] == (1, 0, 0)

    @pytest.mark.parametrize("entry", [0.5, "1/2", True], ids=["float", "str", "bool"])
    def test_non_exact_coefficient_rejected(self, entry):
        with pytest.raises(ArrangementError, match=r"form 1, entry 2: .* is not an int or Fraction"):
            load(2, [[1, 0, 0], [0, 1, entry]])

    def test_empty_list_rejected(self):
        with pytest.raises(ArrangementError, match="empty"):
            load(2, [])

    def test_wrong_arity_rejected(self):
        with pytest.raises(ArrangementError, match="form 1 has 2 coefficients"):
            load(2, [[1, 0, 0], [1, 0]])

    def test_deterministic_order(self):
        a = load(2, [[1, 1, 1], [0, 0, 1], [1, 0, 0]])
        b = load(2, [[1, 0, 0], [1, 1, 1], [0, 0, 1]])
        assert a.forms == b.forms


class TestComputeM:
    def test_coordinate_forms_full_rank(self):
        a = load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert compute_m(a) == -1

    def test_two_forms_in_p3(self):
        a = load(3, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert compute_m(a) == 1

    def test_four_forms_rank_three(self):
        a = load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        assert compute_m(a) == -1

    def test_rescaling_invariance(self):
        a = load(2, [[1, 1, 0], [0, 1, 1]])
        b = load(2, [[Fraction(-3, 2), Fraction(-3, 2), 0], [0, 7, 7]])
        assert compute_m(a) == compute_m(b)
        assert a.forms == b.forms


class TestComputeS:
    def test_coordinate_triple(self):
        a = load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert compute_s(a) == 2

    def test_two_lines_meet_in_a_point(self):
        a = load(2, [[1, 0, 0], [0, 1, 0]])
        assert compute_s(a) == 2

    def test_five_general_position_lines(self):
        a = moment_curve_arrangement(2, 5)
        # Every 3-subset has rank 3 (Vandermonde), so no 3 lines meet.
        for combo in combinations(a.forms, 3):
            assert span(combo, 3).rank == 3
        assert compute_s(a) == 2

    def test_single_form(self):
        a = load(2, [[1, 2, 3]])
        assert compute_s(a) == 1

    def test_brute_force_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            a = random_arrangement(rng, rng.randint(1, 3), rng.randint(1, 6))
            vecs = a.forms
            oracle = max(
                len(combo)
                for k in range(1, a.r + 1)
                for combo in combinations(range(a.r), k)
                if span([vecs[i] for i in combo], a.n + 1).rank <= a.n
            )
            assert compute_s(a) == oracle

    @settings(max_examples=300, deadline=None)
    @given(both_sides())
    def test_both_sides_match_the_subset_oracle(self, a):
        """s, and the largest hyperplane from each side, against subset search.

        ``compute_s`` runs one side, picked by ``dual_is_shallower``; both
        enumerations are called directly too, whichever side it picks.
        """
        assert compute_s(a) == largest_subset_of_rank(a.forms, a.n)
        corank = len(a.relations)
        rank = a.r - corank
        if rank >= 2:
            hyperplane = largest_subset_of_rank(a.forms, rank - 1)
            assert _largest_hyperplane(a.forms, rank) == hyperplane
            relations = [lam for _, lam in a.relations]
            assert a.r - _smallest_circuit(relations, a.r) == hyperplane


class TestGeneralPosition:
    def test_four_lines(self):
        a = load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        assert is_general_position(a)

    def test_dependent_triple(self):
        a = load(2, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert not is_general_position(a)

    def test_independent_pair_in_p3(self):
        a = load(3, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert is_general_position(a)

    def test_equivalent_characterization(self):
        rng = random.Random(11)
        for _ in range(30):
            a = random_arrangement(rng, rng.randint(1, 3), rng.randint(1, 6))
            gp = is_general_position(a)
            if a.r <= a.n + 1:
                expected = span(a.forms, a.n + 1).rank == a.r
            else:
                expected = compute_s(a) == a.n and all(
                    span(combo, a.n + 1).rank == a.n + 1
                    for combo in combinations(a.forms, a.n + 1)
                )
            assert gp == expected

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(arrangements(), sparse_arrangements()))
    def test_rank_and_s_rule_matches_subset_oracle(self, a):
        gp = is_general_position(a)
        assert gp == subset_general_position(a)
        v = verdict(a)
        if v.gp_bound is not None:  # r > s: general position is s = n
            assert v.gp_bound_achieved == profile(a).general_position == (a.s == a.n)


class TestProfile:
    def test_empty_intersection_when_r_exceeds_s(self):
        rng = random.Random(3)
        for _ in range(30):
            a = random_arrangement(rng, rng.randint(1, 3), rng.randint(2, 6))
            p = profile(a)
            if p.r > p.s:
                assert p.m == -1

    def test_moment_curve_profile(self):
        p = profile(moment_curve_arrangement(3, 6))
        assert (p.m, p.r, p.s, p.general_position) == (-1, 6, 3, True)


def test_compute_s_leaves_no_reference_cycles():
    rng = random.Random(7)
    primal = [random_arrangement(rng, 3, 6), moment_curve_arrangement(4, 7)]
    dual = [
        moment_curve_arrangement(6, 9),
        direct_sum(moment_curve_arrangement(2, 4), moment_curve_arrangement(3, 5)),
    ]
    for a in primal + dual:
        corank = len(a.relations)
        assert a.m == -1 and dual_is_shallower(a.r - corank, corank) == (a in dual)
        assert garbage_left_by(compute_s, a) == 0
