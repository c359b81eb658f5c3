"""Witness construction: the block steps, the invariants on U, verification, shrinking.

U is checked against the ``Fraction`` oracles (``intersect``, ``contains``)
for every block, and against the paper's sequential chain built in
``Fraction`` (``oracles.sequential_u_chain``) on every valid partition.
"""

import random
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyparc import witness
from hyparc.arrangement import compute_m, load
from hyparc.dimension_search import (
    achievable_dimensions,
    blocks_of,
    check_partition,
    partitions_rgs,
)
from hyparc.exact_linalg import (
    DimensionMismatchError,
    InternalError,
    contains,
    int_echelon,
    int_nullspace,
    int_rref,
    intersect,
    nullspace,
    primitive_vector,
    span,
)
from hyparc.witness import (
    UChain,
    _check_u,
    _generic_point,
    _restrictions,
    _witness,
    block_overlaps,
    build_u_chain,
    build_witness_for_mplus1,
    generic_avoiding_extension,
    witness_subspace,
)

from . import oracles
from .corpus import (
    arrangements,
    random_arrangement,
    sparse_arrangements,
)
from .oracles import induced_partition, is_flat, make_witness, shrink_witness

FOUR_LINES = load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
VALID_BIPARTITION = ((0, 3), (1, 2))  # {x2, x0+x1+x2} vs {x1, x0}


def walk(container, inside, avoid):
    """The integer walk on integer rows: (t it picked, kernel rows).

    t is read from the moment-curve point the walk asks for; a quotient of
    dimension 1 has only phi = (1), picked at t = 0.
    """
    picked = []

    def spy(covectors, dim):
        phi = _generic_point(covectors, dim)
        picked.append(phi[1] if dim > 1 else 0)
        return phi

    with mock.patch.object(witness, "_generic_point", spy):
        kernel = generic_avoiding_extension(int_rref(container), int_rref(inside), avoid)
    return picked[0], kernel


def extension(container, inside, avoid):
    """The walk's hyperplane: the inside plus its kernel rows, canonical."""
    _, kernel = walk(container, inside, avoid)
    return span(list(inside) + kernel, len(container[0]))


class TestGenericAvoidingExtension:
    def test_avoids_both_generators(self):
        container = [(1, 0, 0), (0, 1, 0)]
        v = extension(container, [], [(1, 0, 0), (0, 1, 0)])
        assert v.rank == 1
        assert not contains(v, (1, 0, 0))
        assert not contains(v, (0, 1, 0))
        # Deterministic: same call, same hyperplane.
        assert extension(container, [], [(1, 0, 0), (0, 1, 0)]) == v

    def test_line_container_gives_zero_space(self):
        assert walk([(1, 2, 3)], [], [(1, 2, 3)]) == (0, [])
        assert extension([(1, 2, 3)], [], [(1, 2, 3)]) == span([], 3)

    def test_empty_avoid_list(self):
        v = extension([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 0, 0)], [])
        assert v.rank == 2
        assert contains(v, (1, 0, 0))

    def test_avoid_vector_inside_forced_subspace(self):
        with pytest.raises(ValueError, match="inside"):
            walk([(1, 0, 0), (0, 1, 0)], [(1, 0, 0)], [(1, 0, 0)])

    def test_improper_inside(self):
        with pytest.raises(ValueError, match="proper"):
            walk([(1, 0, 0)], [(1, 0, 0)], [])

    def test_avoid_vector_outside_container(self):
        with pytest.raises(ValueError, match="outside the container"):
            walk([(1, 0, 0), (0, 1, 0)], [], [(0, 0, 1)])

    def test_avoid_vector_of_wrong_length(self):
        with pytest.raises(DimensionMismatchError, match="wrong length"):
            walk([(1, 0, 0), (0, 1, 0)], [], [(1, 0)])

    def test_forced_t_keeps_the_scale_of_the_extension_rows(self):
        # With no inside, ext is the RREF basis (1, 0, 1/2), (0, 1, 1/3); the
        # avoid vectors have tails (0, 1) and (1, -1) there, which rule out
        # t = 0 and t = 1, so the kernel is ext_1 - 2 ext_0.  On the rescaled
        # basis (2, 0, 1), (0, 3, 1) the tails would be (0, 1) and (3, -2),
        # giving t = 1 and another kernel.
        t, kernel = walk([(2, 0, 1), (0, 3, 1)], [], [(0, 3, 1), (6, -6, 1)])
        assert t == 2
        assert span(kernel, 3) == span([(6, -3, 2)])


class TestGenericPoint:
    def test_last_t_of_the_bound_is_reached(self):
        # (-s, 1) vanishes at t = s alone, so k of them rule out t = 0, ..., k - 1
        # and the point is t = k = len(covectors) * (dim - 1).
        assert _generic_point([(-s, 1) for s in range(4)], 2) == (1, 4)
        assert _generic_point([(-s, 1, 0) for s in range(3)], 3) == (1, 3, 9)

    def test_zero_covector_is_an_internal_error(self):
        with pytest.raises(InternalError, match="no generic point"):
            _generic_point([(1, 1), (0, 0)], 2)


@st.composite
def extension_inputs(draw):
    """Integer rows of a container, of a proper subspace inside it, and
    integer vectors of the container outside that subspace.

    Besides random avoid vectors, ``forced`` of them have tails (0, 1, 0, ...)
    and (s, -1, 0, ...) for s = 1, ..., forced - 1 on the oracle's quotient
    basis, where phi = (1, t, ...) vanishes at t = 0 and at t = s, so the
    walk must pick t >= forced.
    """
    width = draw(st.integers(min_value=1, max_value=5))
    entries = st.lists(st.integers(min_value=-3, max_value=3), min_size=width, max_size=width)
    container = span(draw(st.lists(entries, min_size=1, max_size=width)), width)
    assume(not container.is_zero)
    k = container.rank
    weights = st.lists(st.integers(min_value=-3, max_value=3), min_size=k, max_size=k)

    def combine(w, rows):
        return [sum(c * b[i] for c, b in zip(w, rows)) for i in range(width)]

    inside = span([combine(w, container.basis) for w in draw(st.lists(weights, max_size=k - 1))], width)
    avoid = [
        primitive_vector(v)
        for v in (combine(w, container.basis) for w in draw(st.lists(weights, max_size=6)))
        if not contains(inside, v)
    ]
    ext = oracles.quotient_basis(container, inside)
    forced = draw(st.integers(min_value=0, max_value=3)) if len(ext) >= 2 else 0
    for s in range(forced):
        tail = (s, -1) if s else (0, 1)
        avoid.append(primitive_vector(combine(tail, ext)))
    assume(avoid)
    rows = [primitive_vector(b) for b in container.basis]
    inside_rows = [primitive_vector(b) for b in inside.basis]
    return container, inside, rows, inside_rows, avoid, forced


@settings(max_examples=300, deadline=None)
@given(extension_inputs())
def test_generic_avoiding_extension_on_random_inputs(case):
    container, inside, rows, inside_rows, avoid, forced = case
    t, kernel = walk(rows, inside_rows, avoid)
    oracle_t, oracle_space = oracles.generic_avoiding_extension(container, inside, avoid)
    assert t == oracle_t >= forced
    v = span(inside_rows + kernel, container.ambient_dim)
    assert v == oracle_space
    assert all(contains(v, b) for b in inside.basis)
    assert all(contains(container, b) for b in v.basis)
    assert v.rank == container.rank - 1
    assert not any(contains(v, x) for x in avoid)


def u_space(chain):
    """U as a canonical ``Fraction`` subspace."""
    return span(chain.rows, chain.arrangement.n + 1)


def assert_chain_invariants(a, chain):
    """The four invariants on U by the ``Fraction`` oracle, with W from ``check_partition``."""
    coeffs = a.forms
    block_rows = [int_rref(coeffs[i] for i in b) for b in chain.partition]
    w = int_echelon(primitive_vector(b) for b in check_partition(a, chain.partition).w_space.basis)
    assert oracles.u_invariant_failure(coeffs, block_rows, w, chain.rows) is None


class TestUChain:
    def test_four_lines_chain(self):
        chain = build_u_chain(FOUR_LINES, VALID_BIPARTITION)
        # n - d = 2 - 1, so U is W = span{x0+x1}.
        assert u_space(chain) == span([(1, 1, 0)])
        assert_chain_invariants(FOUR_LINES, chain)

    def test_independent_forms_singletons(self):
        a = load(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        chain = build_u_chain(a, ((0,), (1,), (2,), (3,)))
        assert chain.rows == []

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
                assert len(chain.rows) == a.n - d
                built += 1
                break


def separation_space(a, blocks):
    """W as a canonical subspace, summed from the integer block overlaps."""
    return span([row for meet in block_overlaps(a, blocks) for _, row in meet], a.n + 1)


def partitions_of(a):
    """Every partition of the forms of ``a`` into at least two blocks."""
    for rgs in partitions_rgs(a.r):
        blocks = blocks_of(rgs)
        if len(blocks) >= 2:
            yield blocks


@settings(max_examples=30, deadline=None)
@given(st.one_of(arrangements(max_r=8), sparse_arrangements(max_r=8)))
def test_separation_space_matches_check_partition(a):
    # The valid partitions come from the block rule (every block clopen),
    # not from the integer W under test.
    coeffs = a.forms
    for blocks in partitions_of(a):
        if all(is_flat(coeffs, b) and is_flat(coeffs, set(range(a.r)) - set(b)) for b in blocks):
            chk = check_partition(a, blocks)
            assert chk.valid
            assert separation_space(a, blocks) == chk.w_space


@settings(max_examples=15, deadline=None)
@given(arrangements(max_r=6))
def test_every_partition_matches_check_partition(a):
    # W and its block meets on every partition, and the form an invalid one
    # is rejected for.
    coeffs = a.forms
    for blocks in partitions_of(a):
        chk = check_partition(a, blocks)
        assert separation_space(a, blocks) == chk.w_space
        # Each overlap, the last block's too, is W ∩ span(block), the meet
        # that block's step extends.
        for b, meet in zip(blocks, block_overlaps(a, blocks), strict=True):
            block_span = span([coeffs[i] for i in b], a.n + 1)
            assert span([row for _, row in meet], a.n + 1) == intersect(chk.w_space, block_span)
        if not chk.valid:
            with pytest.raises(ValueError, match=rf"criterion \(form {chk.violating_form}\)"):
                build_u_chain(a, blocks)


@settings(max_examples=15, deadline=None)
@given(arrangements(max_r=6))
def test_u_matches_the_sequential_fraction_chain(a):
    for blocks in partitions_of(a):
        if check_partition(a, blocks).valid:
            assert u_space(build_u_chain(a, blocks)) == oracles.sequential_u_chain(a, blocks)


def zero_set(a, u):
    """Y = Z(U) for the rows ``u`` spanning U, built as ``witness_subspace`` builds it."""
    return _witness(a, [row for _, row in int_nullspace(u, a.n + 1)])


INVARIANT_OF = {
    "separation space W not contained in U": 1,
    "U ∩ span(block) is not a hyperplane of the block span": 2,
    "a form of the arrangement lies in U": 3,
    "U is not the sum of its block intersections": 4,
}


def check_u_outcomes(a, rng):
    """Run ``_check_u`` on Y = Z(U) of trial spaces U for every valid partition of ``a``.

    The trials are the real U, a random subset of its rows, the real U plus
    one or two small random rows, and random rows, half of them forms, which
    can put a form in U while every block meet stays a hyperplane.  Each
    must raise exactly the oracle's message, or pass where the oracle finds
    no failure.  Returns the number of the invariant each trial failed, 0
    for a pass.
    """
    coeffs = a.forms
    width = a.n + 1

    def small_row():
        if rng.random() < 0.5:
            return rng.choice(coeffs)
        return [rng.randint(-1, 1) for _ in range(width)]

    outcomes = []
    for blocks in partitions_of(a):
        if not check_partition(a, blocks).valid:
            continue
        real = build_u_chain(a, blocks).rows
        block_rows = [int_rref(coeffs[i] for i in b) for b in blocks]
        w = int_echelon(row for meet in block_overlaps(a, blocks) for _, row in meet)
        trials = [
            real,
            rng.sample(real, rng.randint(0, len(real))),
            real + [small_row() for _ in range(rng.randint(1, 2))],
            [small_row() for _ in range(rng.randint(0, width))],
        ]
        for u in trials:
            expected = oracles.u_invariant_failure(coeffs, block_rows, w, u)
            try:
                _check_u(a, blocks, w, zero_set(a, u))
                got = None
            except InternalError as e:
                got = str(e)
            assert got == expected
            outcomes.append(0 if got is None else INVARIANT_OF[got.split(": ")[-1]])
    return outcomes


@settings(max_examples=60, deadline=None)
@given(arrangements(max_r=6), st.randoms(use_true_random=False))
def test_check_u_agrees_with_the_oracle(a, rng):
    check_u_outcomes(a, rng)


def test_check_u_trials_reach_every_outcome():
    rng = random.Random(0)
    outcomes = set()
    for _ in range(12):
        a = random_arrangement(rng, rng.randint(1, 4), rng.randint(2, 6))
        outcomes.update(check_u_outcomes(a, rng))
    assert outcomes == {0, 1, 2, 3, 4}


class TestChainStepCheck:
    """Each invariant is asserted on U: a wrong U fails its own check."""

    # e3, e2, e1, e0, e0+e1 after load's sorting.  W = 0, and U is a line in
    # span(e0, e1): the blocks {e3} and {e2} add nothing.
    A = load(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]])
    PARTITION = ((2, 3, 4), (0,), (1,))

    @staticmethod
    def check(a, partition, u_vectors):
        """Check U = span(u_vectors) for the partition; its real U passes."""
        w = int_echelon(row for meet in block_overlaps(a, partition) for _, row in meet)
        _check_u(a, partition, w, zero_set(a, build_u_chain(a, partition).rows))
        _check_u(a, partition, w, zero_set(a, u_vectors))

    def check_line_plus(self, extra):
        """Check U = the real line of ``A`` plus ``extra``."""
        line = build_u_chain(self.A, self.PARTITION).rows
        assert len(line) == 1
        self.check(self.A, self.PARTITION, line + [extra])

    def test_separation_space_must_be_contained(self):
        # W = span{x0+x1} for the four lines, and U = 0.
        with pytest.raises(InternalError, match="separation space W not contained in U"):
            self.check(FOUR_LINES, VALID_BIPARTITION, [])

    def test_block_meet_must_be_a_hyperplane(self):
        with pytest.raises(InternalError, match="block 1: .* not a hyperplane"):
            self.check_line_plus((0, 0, 0, 1))

    def test_no_form_may_enter(self):
        # U = span{e0} meets span(e0, e1) in a hyperplane, but holds form 3.
        with pytest.raises(InternalError, match="a form of the arrangement lies in U"):
            self.check(self.A, self.PARTITION, [(1, 0, 0, 0)])

    def test_space_must_be_the_sum_of_its_block_meets(self):
        with pytest.raises(InternalError, match="not the sum of its block intersections"):
            self.check_line_plus((0, 0, 1, 1))


class TestWitnessSubspaceChecksU:
    """``witness_subspace`` asserts the four invariants on the chain it is given."""

    def test_real_u_plus_a_form(self):
        # U meets V_0 = span(forms 0, 3) in a hyperplane missing form 3, so
        # U + form 3 holds all of V_0: block 0 fails before invariant 3, in
        # the oracle's order as in ``_check_u``'s.
        chain = build_u_chain(FOUR_LINES, VALID_BIPARTITION)
        rows = chain.rows + [FOUR_LINES.forms[3]]
        block_rows = [int_rref(FOUR_LINES.forms[i] for i in b) for b in VALID_BIPARTITION]
        expected = oracles.u_invariant_failure(FOUR_LINES.forms, block_rows, chain.w, rows)
        assert expected == "block 0: U ∩ span(block) is not a hyperplane of the block span"
        with pytest.raises(InternalError, match="block 0: .* not a hyperplane"):
            witness_subspace(UChain(FOUR_LINES, VALID_BIPARTITION, rows, chain.w))

    def test_a_form_in_u_of_the_real_rank(self):
        # U = span{e0} has the real U's rank, so Y has dimension m + p, and
        # every block meet is a hyperplane, but form 3 lies in U.
        a, partition = TestChainStepCheck.A, TestChainStepCheck.PARTITION
        chain = build_u_chain(a, partition)
        rows = [(1, 0, 0, 0)]
        assert len(rows) == len(chain.rows)
        with pytest.raises(InternalError, match="a form of the arrangement lies in U"):
            witness_subspace(UChain(a, partition, rows, chain.w))


class TestWitnessSubspace:
    def test_four_lines_witness(self):
        chain = build_u_chain(FOUR_LINES, VALID_BIPARTITION)
        w = witness_subspace(chain)
        assert w.dim == 1
        assert len(w.verification.classes) == 2
        assert w.verification.ok
        # Y = Z(span{x0+x1}).
        assert span(w.point_basis, 3) == nullspace(span([(1, 1, 0)]).basis, 3)

    def test_independent_forms_full_space(self):
        a = load(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        chain = build_u_chain(a, ((0,), (1,), (2,), (3,)))
        w = witness_subspace(chain)
        assert w.dim == 3
        assert [cls for cls, _ in w.verification.classes] == list(a.forms)

    def test_dimension_must_match_m(self):
        # U is the real one, so its invariants hold; m alone is wrong.
        a = load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        a.__dict__["m"] = 0  # one above the true m = -1, so d = m + p = 2
        with pytest.raises(InternalError, match="witness has dimension 1, expected 2"):
            witness_subspace(build_u_chain(a, VALID_BIPARTITION))


@settings(max_examples=100, deadline=None)
@given(arrangements(max_r=6), st.data())
def test_restrictions_are_one_scale_of_the_fraction_ones(a, data):
    width = a.n + 1
    entries = st.lists(st.integers(min_value=-4, max_value=4), min_size=width, max_size=width)
    rows = data.draw(st.lists(entries, min_size=1, max_size=width))
    assume(any(any(row) for row in rows))
    points = int_rref(rows)
    expected = oracles.restrictions(span(rows, width).basis, a.forms)
    got = _restrictions(points, a.forms)
    scale = lcm(*(q[p] for p, q in points))
    assert [[Fraction(x, scale) for x in rho] for rho in got] == [list(rho) for rho in expected]


class TestVerifyCond:
    def test_full_space_with_independent_forms(self):
        a = load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        w = make_witness(a, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert w.verification.ok

    def test_contained_in_hyperplane(self):
        a = load(2, [[1, 0, 0], [0, 1, 0]])
        w = make_witness(a, [(0, 1, 0), (0, 0, 1)])  # Y = {x0 = 0}
        check = w.verification
        assert not check.ok
        assert "contained in arrangement" in check.diagnostics

    def test_dependent_restrictions(self):
        # Restricting three concurrent lines to P^2 keeps them dependent.
        a = load(2, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        w = make_witness(a, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        check = w.verification
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
        core = nullspace(span(a.forms, 4).basis, 4)
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
        for f in FOUR_LINES.forms:
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
