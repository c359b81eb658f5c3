"""Kernel tests: canonical spans, sums, intersections, zero sets.

The Zassenhaus intersection is cross-checked against an independent
annihilator-based implementation kept local to this file.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyparc.exact_linalg import (
    DimensionMismatchError,
    Subspace,
    contains,
    int_echelon,
    int_nullspace,
    int_rank,
    int_residual,
    int_rref,
    intersect,
    nullspace,
    primitive_vector,
    reduce_against,
    solve_coordinates,
    span,
    vector,
)

from .oracles import is_flat


def intersect_via_annihilator(u: Subspace, v: Subspace) -> Subspace:
    # Independent oracle: U ∩ V = Ann(Ann(U) ∪ Ann(V)).
    ann_u = nullspace(u.basis, u.ambient_dim)
    ann_v = nullspace(v.basis, v.ambient_dim)
    return nullspace(list(ann_u.basis) + list(ann_v.basis), u.ambient_dim)


small_entries = st.integers(min_value=-4, max_value=4)


def matrix_strategy(width):
    return st.lists(
        st.lists(small_entries, min_size=width, max_size=width), min_size=0, max_size=5
    )


class TestSpan:
    def test_already_canonical(self):
        s = span([(1, 0, 0), (0, 1, 0)])
        assert s.rank == 2
        assert s.basis == (vector((1, 0, 0)), vector((0, 1, 0)))

    def test_empty_span_is_zero_space(self):
        s = span([], ambient_dim=3)
        assert s == Subspace(3, ())
        assert s.rank == 0

    def test_proportional_rows_collapse(self):
        s = span([(1, 1, 1), (2, 2, 2)])
        assert s.rank == 1
        assert s.basis == (vector((1, 1, 1)),)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            span([(1, 0), (1, 0, 0)])


class TestSumIntersect:
    def test_sum_of_independent_lines(self):
        u, v = span([(1, 0, 0)]), span([(0, 1, 0)])
        s = span(u.basis + v.basis, 3)
        assert s.rank == 2

    def test_sum_with_zero_is_identity(self):
        # The zero space adds no rows, and a zero row in the stack is dropped.
        u = span([(1, 2, 3), (0, 1, 1)])
        assert span(u.basis, 3) == u
        assert span(u.basis + (vector((0, 0, 0)),), 3) == u

    def test_sum_rank_three(self):
        # Rank of the stacked 4x3 matrix by row reduction.
        u, v = span([(1, 0, 0), (0, 1, 0)]), span([(0, 1, 0), (0, 0, 1)])
        s = span(u.basis + v.basis, 3)
        assert s.rank == 3

    def test_intersect_shared_basis_vector(self):
        inter = intersect(span([(1, 0, 0), (0, 1, 0)]), span([(0, 1, 0), (0, 0, 1)]))
        assert inter == span([(0, 1, 0)])

    def test_intersect_self(self):
        u = span([(1, 2, 0), (0, 0, 1)])
        assert intersect(u, u) == u

    def test_intersect_derived(self):
        # a(1,0,0)+b(0,1,0) = c(0,0,1)+d(1,1,1) forces a=b=d, c=-d.
        inter = intersect(span([(1, 0, 0), (0, 1, 0)]), span([(0, 0, 1), (1, 1, 1)]))
        assert inter == span([(1, 1, 0)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            intersect(span([(1, 0)]), span([(1, 0, 0)]))


class TestContains:
    def test_plane_contains_combination(self):
        assert contains(span([(1, 0, 0), (0, 1, 0)]), (3, -2, 0))

    def test_line_misses_other_axis(self):
        assert not contains(span([(1, 0, 0)]), (0, 1, 0))

    def test_last_coordinate_obstructs(self):
        assert not contains(span([(1, 1, 0)]), (1, 1, 1))


class TestZeroSet:
    def test_coordinate_form(self):
        z = nullspace(span([(1, 0, 0)]).basis, 3)
        assert z == span([(0, 1, 0), (0, 0, 1)])

    def test_full_space_has_empty_zero_set(self):
        full = span([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert nullspace(full.basis, 3) == span([], 3)

    def test_sum_form_kernel(self):
        z = nullspace(span([(1, 1, 1)]).basis, 3)
        assert z.rank == 2
        assert contains(z, (1, -1, 0))
        assert contains(z, (1, 0, -1))


class TestSolveCoordinates:
    def test_roundtrip(self):
        rows = [vector((1, 0, 2)), vector((0, 1, 1))]
        coords = solve_coordinates(rows, (3, -1, 5))
        assert coords == [Fraction(3), Fraction(-1)]

    def test_outside_span(self):
        assert solve_coordinates([vector((1, 0, 0))], (0, 1, 0)) is None


@settings(max_examples=200, deadline=None)
@given(matrix_strategy(4), st.lists(small_entries, min_size=5, max_size=5),
       st.lists(small_entries, min_size=4, max_size=4))
def test_reduce_against_multiples_are_coordinates(vectors, coeffs, outside):
    # Independent rows, echelon in insertion order with pivots other than 1,
    # built the way the witness completes a basis.
    rows: list = []
    for v in vectors:
        res, _ = reduce_against(rows, vector(v))
        if any(res):
            rows.append(tuple(res))
    combo = [sum(Fraction(c) * row[i] for c, row in zip(coeffs, rows)) for i in range(4)]
    res, multiples = reduce_against(rows, combo)
    assert not any(res)
    assert multiples == solve_coordinates(rows, combo) == [Fraction(c) for c in coeffs[: len(rows)]]
    res, multiples = reduce_against(rows, vector(outside))
    coords = solve_coordinates(rows, outside)
    assert (coords is None) == any(res)
    if coords is not None:
        assert multiples == coords


class TestPrimitiveVector:
    def test_clears_denominators(self):
        assert primitive_vector([Fraction(1, 2), Fraction(0), Fraction(0)]) == (1, 0, 0)

    def test_sign_normalization(self):
        assert primitive_vector([Fraction(0), Fraction(-2), Fraction(4)]) == (0, 1, -2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive_vector([Fraction(0), Fraction(0)])


nonzero_rows = st.lists(small_entries, min_size=1, max_size=6).filter(any)
nonzero_rationals = st.fractions(max_denominator=12).filter(bool)


@settings(max_examples=200, deadline=None)
@given(nonzero_rows, nonzero_rationals)
def test_primitive_vector_sees_only_the_projective_class(row, q):
    """An int row, the same row as Fractions, and any nonzero rational
    multiple of it give the same primitive vector."""
    expected = primitive_vector(row)
    assert primitive_vector([Fraction(c) for c in row]) == expected
    assert primitive_vector([q * c for c in row]) == expected
    k = next(i for i, c in enumerate(row) if c)
    assert all(e * row[k] == c * expected[k] for e, c in zip(expected, row))
    assert gcd(*expected) == 1 and expected[k] > 0


@settings(max_examples=200, deadline=None)
@given(matrix_strategy(4))
def test_canonical_form_uniqueness(rows):
    rng = random.Random(42)
    base = span(rows, 4)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    scales = [Fraction(rng.choice([1, 2, 3, -1, -5])) for _ in shuffled]
    scaled = [[s * c for c in row] for s, row in zip(scales, shuffled)]
    assert span(scaled, 4) == base


@settings(max_examples=200, deadline=None)
@given(matrix_strategy(4), matrix_strategy(4))
def test_grassmann_identity(rows_u, rows_v):
    u, v = span(rows_u, 4), span(rows_v, 4)
    assert span(u.basis + v.basis, 4).rank + intersect(u, v).rank == u.rank + v.rank


@settings(max_examples=200, deadline=None)
@given(matrix_strategy(4))
def test_contains_basis_and_rank_agreement(rows):
    u = span(rows, 4)
    for row in rows:
        inside = contains(u, row)
        assert inside == (span(list(u.basis) + [vector(row)], 4).rank == u.rank)
        assert inside  # every generator lies in its own span


@settings(max_examples=200, deadline=None)
@given(matrix_strategy(5))
def test_zero_set_rank_complement(rows):
    forms = span(rows, 5)
    z = nullspace(forms.basis, 5)
    assert z.rank == 5 - forms.rank
    for form in forms.basis:
        for point in z.basis:
            assert sum(f * p for f, p in zip(form, point)) == 0


@settings(max_examples=200, deadline=None)
@given(matrix_strategy(4), matrix_strategy(4))
def test_zassenhaus_agrees_with_annihilator(rows_u, rows_v):
    u, v = span(rows_u, 4), span(rows_v, 4)
    assert intersect(u, v) == intersect_via_annihilator(u, v)


# Integer echelon kernel against the canonical Fraction RREF.  Entries mix
# small values (many dependencies), zero rows and coefficients >= 10^6.
int_entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(10**9), max_value=10**9),
)


def int_matrix_strategy(width):
    row = st.one_of(
        st.just([0] * width),
        st.lists(int_entries, min_size=width, max_size=width),
    )
    return st.lists(row, min_size=0, max_size=6)


@settings(max_examples=300, deadline=None)
@given(int_matrix_strategy(4), st.lists(int_entries, min_size=6, max_size=6),
       st.lists(int_entries, min_size=4, max_size=4))
def test_int_kernel_agrees_with_span(rows, coeffs, outside):
    u = span(rows, 4)
    echelon = int_echelon(rows)
    assert int_rank(rows) == len(echelon) == u.rank
    combo = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(4)]
    for x in (combo, outside):
        assert (not any(int_residual(echelon, x))) == contains(u, x)


@settings(max_examples=200, deadline=None)
@given(int_matrix_strategy(3), st.sets(st.integers(min_value=0, max_value=5)))
def test_is_flat_agrees_with_contains(rows, side):
    side = {i for i in side if i < len(rows)}
    u = span([rows[i] for i in side], 3)
    expected = not any(
        contains(u, v) for i, v in enumerate(rows) if i not in side
    )
    assert is_flat(rows, side) == expected


def assert_echelon(rows, width):
    """Each pivot is its row's first nonzero entry, where every later row is zero."""
    for k, (pivot, row) in enumerate(rows):
        assert len(row) == width
        assert next(i for i, x in enumerate(row) if x) == pivot
        assert all(later[pivot] == 0 for _, later in rows[k + 1:])


@settings(max_examples=300, deadline=None)
@given(int_matrix_strategy(4))
def test_int_nullspace_agrees_with_nullspace(rows):
    kernel = int_nullspace(rows, 4)
    assert_echelon(kernel, 4)
    assert span([row for _, row in kernel], 4) == nullspace(rows, 4)


class TestIntegerKernel:
    def test_large_coefficients(self):
        big = 10**6 + 3
        rows = [(big, -big, 1), (1, 1, -(10**7))]
        echelon = int_echelon(rows)
        assert len(echelon) == 2
        assert not any(int_residual(echelon, (big + 2, 2 - big, 1 - 2 * 10**7)))
        assert any(int_residual(echelon, (0, 0, 1)))

    def test_rows_are_primitive(self):
        for _pivot, row in int_echelon([(2, 4, 6), (3, 5, 7), (0, 0, 9)]):
            assert gcd(*row) == 1

    def test_zero_rows_add_no_rank(self):
        assert int_rank([(0, 0, 0), (0, 0, 0)]) == 0
        assert int_rank([(0, 0), (1, -2), (0, 0), (-3, 6)]) == 1


@settings(max_examples=300, deadline=None)
@given(int_matrix_strategy(4))
def test_int_rref_rows_over_their_pivots_are_the_rref(rows):
    reduced = int_rref(rows)
    assert_echelon(reduced, 4)
    assert all(gcd(*row) == 1 and row[p] > 0 for p, row in reduced)
    canonical = tuple(tuple(Fraction(x, row[p]) for x in row) for p, row in reduced)
    assert canonical == span(rows, 4).basis
