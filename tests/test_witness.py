"""Witness construction: chain invariants, verification, shrinking."""

import random

import pytest

from hyparc.arrangement import compute_m, load
from hyparc.dimension_search import (
    achievable_dimensions,
    blocks_of,
    check_partition,
    partitions_rgs,
)
from hyparc.exact_linalg import contains, span, vector, zero_space, zero_set
from hyparc.witness import (
    build_u_chain,
    build_witness_for_mplus1,
    generic_avoiding_extension,
    induced_partition,
    make_witness,
    shrink_witness,
    verify_cond,
    witness_subspace,
)

from .corpus import moment_curve_arrangement, random_arrangement

FOUR_LINES = load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
VALID_BIPARTITION = ((0, 3), (1, 2))  # {x2, x0+x1+x2} vs {x1, x0}


class TestGenericAvoidingExtension:
    def test_avoids_both_generators(self):
        container = span([(1, 0, 0), (0, 1, 0)])
        v = generic_avoiding_extension(
            container, zero_space(3), [vector((1, 0, 0)), vector((0, 1, 0))]
        )
        assert v.rank == 1
        assert not contains(v, (1, 0, 0))
        assert not contains(v, (0, 1, 0))
        # Deterministic: same call, same hyperplane.
        again = generic_avoiding_extension(
            container, zero_space(3), [vector((1, 0, 0)), vector((0, 1, 0))]
        )
        assert again == v

    def test_line_container_gives_zero_space(self):
        v = generic_avoiding_extension(span([(1, 2, 3)]), zero_space(3), [vector((1, 2, 3))])
        assert v == zero_space(3)

    def test_empty_avoid_list(self):
        container = span([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        inside = span([(1, 0, 0)])
        v = generic_avoiding_extension(container, inside, [])
        assert v.rank == 2
        assert contains(v, (1, 0, 0))

    def test_avoid_vector_inside_forced_subspace(self):
        with pytest.raises(ValueError, match="inside"):
            generic_avoiding_extension(
                span([(1, 0, 0), (0, 1, 0)]), span([(1, 0, 0)]), [vector((1, 0, 0))]
            )

    def test_improper_inside(self):
        u = span([(1, 0, 0)])
        with pytest.raises(ValueError, match="proper"):
            generic_avoiding_extension(u, u, [])


def assert_chain_invariants(a, chain):
    vecs = a.vectors
    spans = [span([vecs[i] for i in b], a.n + 1) for b in chain.partition]
    for i, u in enumerate(chain.spaces):
        if i > 0:
            prev = chain.spaces[i - 1]
            assert all(contains(u, b) for b in prev.basis)
            from hyparc.exact_linalg import intersect

            assert intersect(u, spans[i - 1]).rank == spans[i - 1].rank - 1
        assert not any(contains(u, v) for v in vecs)


class TestUChain:
    def test_four_lines_chain(self):
        chain = build_u_chain(FOUR_LINES, VALID_BIPARTITION)
        assert chain.spaces[0] == span([(1, 1, 0)])
        assert chain.spaces[-1].rank == 1  # n - d = 2 - 1
        assert_chain_invariants(FOUR_LINES, chain)

    def test_independent_forms_singletons(self):
        a = load(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        chain = build_u_chain(a, ((0,), (1,), (2,), (3,)))
        assert all(u == zero_space(4) for u in chain.spaces)

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError, match="criterion"):
            build_u_chain(FOUR_LINES, ((0, 3), (1,), (2,)))

    def test_random_valid_partitions(self):
        rng = random.Random(13)
        built = 0
        while built < 20:
            a = random_arrangement(rng, rng.randint(2, 4), rng.randint(2, 6))
            for rgs in partitions_rgs(a.r):
                blocks = blocks_of(rgs)
                if len(blocks) < 2 or not check_partition(a, blocks).valid:
                    continue
                chain = build_u_chain(a, blocks)
                assert_chain_invariants(a, chain)
                d = compute_m(a) + len(blocks)
                assert chain.spaces[-1].rank == a.n - d
                built += 1
                break


class TestWitnessSubspace:
    def test_four_lines_witness(self):
        chain = build_u_chain(FOUR_LINES, VALID_BIPARTITION)
        w = witness_subspace(chain)
        assert w.dim == 1
        assert len(w.verification.classes) == 2
        assert w.verification.ok
        # Y = Z(span{x0+x1}).
        assert span(w.point_basis, 3) == zero_set(span([(1, 1, 0)]))

    def test_independent_forms_full_space(self):
        a = load(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        chain = build_u_chain(a, ((0,), (1,), (2,), (3,)))
        w = witness_subspace(chain)
        assert w.dim == 3
        assert [cls for cls, _ in w.verification.classes] == [
            f.coeffs for f in a.forms
        ]


class TestVerifyCond:
    def test_full_space_with_independent_forms(self):
        a = load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        w = make_witness(a, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert verify_cond(a, w).ok

    def test_contained_in_hyperplane(self):
        a = load(2, [[1, 0, 0], [0, 1, 0]])
        w = make_witness(a, [(0, 1, 0), (0, 0, 1)])  # Y = {x0 = 0}
        check = verify_cond(a, w)
        assert not check.ok
        assert "contained in arrangement" in check.diagnostics

    def test_dependent_restrictions(self):
        # Restricting three concurrent lines to P^2 keeps them dependent.
        a = load(2, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        w = make_witness(a, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        check = verify_cond(a, w)
        assert not check.ok and check.not_contained and not check.independent


class TestBaselineWitness:
    def test_single_form_in_p2(self):
        a = load(2, [[1, 0, 0]])
        w = build_witness_for_mplus1(a)
        assert w.dim == 2  # m + 1 = 2, all of P^2
        assert len(w.verification.classes) == 1

    def test_empty_intersection_gives_point(self):
        a = load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        w = build_witness_for_mplus1(a)
        assert w.dim == 0
        point = w.point_basis[0]
        assert all(c != 0 for c in point)

    def test_two_forms_in_p3(self):
        a = load(3, [[1, 0, 0, 0], [0, 1, 0, 0]])
        w = build_witness_for_mplus1(a)
        assert w.dim == 2
        assert len(w.verification.classes) == 1
        core = zero_set(span(a.vectors, 4))
        y = span(w.point_basis, 4)
        assert all(contains(y, b) for b in core.basis)


class TestShrinkWitness:
    def test_identity_shrink(self):
        chain = build_u_chain(FOUR_LINES, VALID_BIPARTITION)
        w = witness_subspace(chain)
        assert shrink_witness(FOUR_LINES, w, w.dim) is w

    def test_line_to_point(self):
        chain = build_u_chain(FOUR_LINES, VALID_BIPARTITION)
        w = witness_subspace(chain)
        point_w = shrink_witness(FOUR_LINES, w, 0)
        assert point_w.dim == 0
        point = point_w.point_basis[0]
        for f in FOUR_LINES.vectors:
            assert sum(a * b for a, b in zip(f, point)) != 0

    def test_full_space_to_line(self):
        a = load(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        w = witness_subspace(build_u_chain(a, ((0,), (1,), (2,), (3,))))
        line = shrink_witness(a, w, 1)
        assert line.dim == 1 and line.verification.ok

    def test_all_intermediate_dimensions(self):
        rng = random.Random(29)
        for _ in range(10):
            a = random_arrangement(rng, rng.randint(2, 4), rng.randint(2, 5))
            rep = achievable_dimensions(a)
            if rep.best_partition is not None:
                w = witness_subspace(build_u_chain(a, rep.best_partition))
            else:
                w = build_witness_for_mplus1(a)
            for d in range(w.dim + 1):
                shrunk = shrink_witness(a, w, d)
                assert shrunk.dim == d and shrunk.verification.ok

    def test_bad_target_rejected(self):
        w = build_witness_for_mplus1(FOUR_LINES)
        with pytest.raises(ValueError):
            shrink_witness(FOUR_LINES, w, w.dim + 1)


class TestInducedPartition:
    def test_round_trip_four_lines(self):
        chain = build_u_chain(FOUR_LINES, VALID_BIPARTITION)
        w = witness_subspace(chain)
        blocks = induced_partition(FOUR_LINES, w)
        assert blocks is not None
        assert check_partition(FOUR_LINES, blocks).valid
        assert len(blocks) == w.dim - compute_m(FOUR_LINES)

    def test_baseline_witness_has_no_partition(self):
        a = load(2, [[1, 0, 0]])
        w = build_witness_for_mplus1(a)
        assert induced_partition(a, w) is None
