"""Partition criterion checks and the lattice search for maximal parts."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyparc import arrangement, cli, corollaries, dimension_search
from hyparc.arrangement import (
    BIPARTITION_SCAN_LIMIT,
    RefusedError,
    _closed_with,
    _smallest_circuit,
    is_general_position,
    load,
)
from hyparc.dimension_search import (
    SpanCache,
    _close,
    _components,
    _max_cover,
    _smallest_cocircuits,
    _smallest_dual_circuits,
    achievable_dimensions,
    blocks_of,
    brute_force_max_parts,
    check_partition,
    max_valid_parts,
    partitions_rgs,
)
from hyparc.exact_linalg import int_echelon, int_rank, int_residual, span

from .corpus import (
    arrangements,
    both_sides,
    direct_sum,
    garbage_left_by,
    moment_curve_arrangement,
    random_arrangement,
    sparse_arrangements,
)
from .oracles import clopen_sets, eager_max_cover, is_flat

FOUR_LINES = load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
# canonical order: 0:(0,0,1)  1:(0,1,0)  2:(1,0,0)  3:(1,1,1)


class TestPartitionEnumeration:
    def test_bell_counts(self):
        assert sum(1 for _ in partitions_rgs(5)) == 52
        assert sum(1 for _ in partitions_rgs(6)) == 203

    def test_exact_block_counts(self):
        # Stirling numbers of the second kind for r=5.
        assert sum(1 for rgs in partitions_rgs(5) if max(rgs) == 1) == 15
        assert sum(1 for rgs in partitions_rgs(5) if max(rgs) == 2) == 25

    def test_lexicographic_order(self):
        seen = list(partitions_rgs(4))
        assert seen == sorted(seen)
        assert seen[0] == (0, 0, 0, 0)
        assert seen[-1] == (0, 1, 2, 3)

    def test_blocks_are_canonical(self):
        assert blocks_of((0, 1, 0, 2)) == ((0, 2), (1,), (3,))


class TestCheckPartition:
    def test_valid_bipartition(self):
        # {x0, x1} vs {x2, x0+x1+x2}: both overlaps are span{x0+x1}.
        chk = check_partition(FOUR_LINES, ((0, 3), (1, 2)))
        assert chk.valid
        assert chk.w_space == span([(1, 1, 0)])
        assert chk.violating_form is None

    def test_invalid_tripartition(self):
        # Separating two independent forms as singletons puts both in W.
        chk = check_partition(FOUR_LINES, ((0, 3), (1,), (2,)))
        assert not chk.valid
        assert chk.w_space == span([(1, 0, 0), (0, 1, 0)])
        assert chk.violating_form == 1  # first form in canonical order inside W

    def test_independent_singletons(self):
        a = load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        chk = check_partition(a, ((0,), (1,), (2,)))
        assert chk.valid
        assert chk.w_space == span([], 3)

    @pytest.mark.parametrize(
        "blocks",
        [((0, 1, 2, 3),), ((0, 1), (1, 2, 3)), ((0, 1), (2,)), ((0, 1), (), (2, 3))],
    )
    def test_malformed_partitions(self, blocks):
        with pytest.raises(ValueError):
            check_partition(FOUR_LINES, blocks)

    def test_block_order_irrelevant(self):
        rng = random.Random(23)
        for _ in range(20):
            a = random_arrangement(rng, rng.randint(2, 3), rng.randint(3, 6))
            for rgs in (g for g in partitions_rgs(a.r) if max(g) + 1 == min(3, a.r)):
                blocks = blocks_of(rgs)
                chk = check_partition(a, blocks)
                flipped = check_partition(a, tuple(reversed(blocks)))
                assert chk.valid == flipped.valid
                assert chk.w_space == flipped.w_space
                break

    def test_scaling_invariance(self):
        scaled = load(2, [[3, 0, 0], [0, Fraction(-1, 2), 0], [0, 0, 5], [-2, -2, -2]])
        assert scaled.forms == FOUR_LINES.forms
        chk = check_partition(scaled, ((0, 3), (1, 2)))
        assert chk.valid and chk.w_space == span([(1, 1, 0)])


class TestMaxValidParts:
    def test_independent_triple_all_singletons(self):
        a = load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert max_valid_parts(a) == (3, ((0,), (1,), (2,)))

    def test_four_lines_two_parts(self):
        parts, witness = max_valid_parts(FOUR_LINES)
        assert parts == 2
        assert check_partition(FOUR_LINES, witness).valid

    def test_five_general_position_lines(self):
        assert max_valid_parts(moment_curve_arrangement(2, 5)) == (None, None)

    def test_single_form(self):
        assert max_valid_parts(load(2, [[1, 0, 0]])) == (None, None)

    def test_refused_above_scan_limit(self):
        a = moment_curve_arrangement(2, BIPARTITION_SCAN_LIMIT + 1)
        with pytest.raises(RefusedError, match="refused: the partition search"):
            max_valid_parts(a)


class TestBruteForce:
    def test_matches_pruned_search_on_examples(self):
        for a in [
            FOUR_LINES,
            load(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            moment_curve_arrangement(2, 5),
            moment_curve_arrangement(3, 5),
        ]:
            assert brute_force_max_parts(a) == max_valid_parts(a)

    def test_dependent_triple_has_no_valid_partition(self):
        a = load(2, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert brute_force_max_parts(a) == (None, None)

    def test_single_form(self):
        assert brute_force_max_parts(load(3, [[1, 1, 1, 1]])) == (None, None)

    def test_limit_refused(self):
        a = moment_curve_arrangement(2, 10)
        with pytest.raises(ValueError, match="refused"):
            brute_force_max_parts(a)

    def test_oracle_equivalence_random(self):
        rng = random.Random(101)
        for _ in range(40):
            a = random_arrangement(rng, rng.randint(1, 4), rng.randint(2, 6))
            assert brute_force_max_parts(a) == max_valid_parts(a)


@settings(max_examples=60, deadline=None)
@given(arrangements())
def test_flat_bipartitions_match_check_partition(a):
    """Both sides flats <=> the Zassenhaus criterion, on every bipartition."""
    coeffs = a.forms
    for mask in range(2 ** (a.r - 1) - 1):
        side = (0,) + tuple(i for i in range(1, a.r) if mask >> (i - 1) & 1)
        comp = tuple(i for i in range(a.r) if i not in side)
        flats = is_flat(coeffs, side) and is_flat(coeffs, comp)
        assert flats == check_partition(a, (side, comp)).valid


def _clopen(coeffs, block):
    comp = [i for i in range(len(coeffs)) if i not in block]
    return is_flat(coeffs, block) and is_flat(coeffs, comp)


@settings(max_examples=10, deadline=None)
@given(arrangements())
def test_clopen_blocks_match_check_partition(a):
    """Every block clopen <=> the Zassenhaus criterion, on every partition."""
    coeffs = a.forms
    cache = SpanCache(a)
    for rgs in partitions_rgs(a.r):
        blocks = blocks_of(rgs)
        if len(blocks) < 2:
            continue
        clopen = all(_clopen(coeffs, b) for b in blocks)
        assert clopen == check_partition(a, blocks, cache).valid


@settings(max_examples=10, deadline=None)
@given(sparse_arrangements())
def test_search_matches_brute_force_on_sparse_forms(a):
    assert max_valid_parts(a) == brute_force_max_parts(a)


@settings(max_examples=40, deadline=None)
@given(arrangements(max_r=6), arrangements(max_r=6))
def test_direct_sum_adds_parts(a, b):
    """A summand with no valid partition contributes one block."""
    s = direct_sum(a, b)
    parts, witness = max_valid_parts(s)
    assert parts == (max_valid_parts(a)[0] or 1) + (max_valid_parts(b)[0] or 1)
    assert check_partition(s, witness).valid


def _closure(vecs, members):
    """Oracle: the forms whose vector adds nothing to the rank of ``members``."""
    base = [vecs[i] for i in members]
    rank = int_rank(base)
    return {i for i, v in enumerate(vecs) if int_rank(base + [v]) == rank}


@pytest.mark.parametrize("close", [_close, _closed_with], ids=["_close", "_closed_with"])
def test_close_matches_closure_from_scratch(close):
    """One closure step against the closure recomputed by rank.

    ``_close`` serves the search and ``_closed_with`` the finiteness verdict
    that the exit-3 cross-check compares with it.  The vectors are sparse,
    so many residuals are zero at the pivot of the new row and take the
    path that keeps them unchanged in ``_close``.
    """
    rng = random.Random(31)
    unchanged = 0
    for _ in range(400):
        width, k = rng.randint(2, 6), rng.randint(2, 9)
        vecs = []
        while len(vecs) < k:
            v = tuple(rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(width))
            if any(v):
                vecs.append(v)
        side = _closure(vecs, [i for i in range(k) if rng.random() < 0.3])
        rows = int_echelon(vecs[i] for i in sorted(side))
        outside = {e: int_residual(rows, v) for e, v in enumerate(vecs) if e not in side}
        if not outside:
            continue
        u = rng.choice(sorted(outside))
        other = sum(1 << e for e in outside if e != u and rng.random() < 0.3)
        pivot = next(j for j, x in enumerate(outside[u]) if x)
        unchanged += sum(1 for e, res in outside.items() if not res[pivot])
        got = close(sum(1 << i for i in side), outside, u, other)
        grown = _closure(vecs, side | {u})
        if any(other >> e & 1 for e in grown):
            assert got is None
            continue
        grown_mask, grown_outside = got
        assert grown_mask == sum(1 << i for i in grown)
        assert is_flat(vecs, grown)
        assert set(grown_outside) == set(range(k)) - grown
        base = [vecs[i] for i in grown]
        for e, res in grown_outside.items():
            # res is a nonzero multiple of vecs[e] modulo span(grown)
            assert (
                int_rank(base + [res])
                == int_rank(base + [vecs[e]])
                == int_rank(base + [res, vecs[e]])
                == int_rank(base) + 1
            )
    assert unchanged > 100


def _random_general_position(rng, n, r):
    while True:
        a = random_arrangement(rng, n, r)
        if a.r == r and is_general_position(a):
            return a


def test_search_matches_brute_force_on_general_position():
    """Inputs where the clopen-set size bound is what prunes the cover.

    In general position with n + 1 < r <= 2n the smallest clopen sets have
    r - n forms, so the bound of r / (r - n) blocks is p_max itself; a
    direct sum adds the parts of its summands.
    """
    rng = random.Random(12)
    cases = [moment_curve_arrangement(n, r) for r in range(2, 8) for n in range(1, r)]
    cases += [_random_general_position(rng, rng.randint(2, 5), rng.randint(4, 7))
              for _ in range(8)]
    cases += [
        direct_sum(moment_curve_arrangement(1, 3), moment_curve_arrangement(2, 4)),
        direct_sum(moment_curve_arrangement(3, 5), moment_curve_arrangement(1, 2)),
        direct_sum(_random_general_position(rng, 3, 5), moment_curve_arrangement(1, 3)),
    ]
    for a in cases:
        assert max_valid_parts(a) == brute_force_max_parts(a)


def _circuit_components(forms):
    """Oracle: components joined from every circuit, found by rank."""
    r = len(forms)
    circuits = []
    for mask in range(1, 1 << r):
        subset = [forms[i] for i in range(r) if mask >> i & 1]
        k = len(subset)
        if int_rank(subset) == k - 1 and all(
            int_rank(subset[:j] + subset[j + 1:]) == k - 1 for j in range(k)
        ):
            circuits.append(mask)
    comps = []
    for i in range(r):
        if any(c >> i & 1 for c in comps):
            continue
        comp, grown = 0, 1 << i
        while grown != comp:
            comp = grown
            for c in circuits:
                if c & comp:
                    grown |= c
        comps.append(comp)
    return comps


SEPARABLE = st.one_of(
    sparse_arrangements(max_r=8),
    st.builds(direct_sum, arrangements(max_r=4), arrangements(max_r=4)),
)


@settings(max_examples=60, deadline=None)
@given(SEPARABLE)
def test_components_match_circuit_oracle(a):
    comps = _components(a)
    assert comps == _circuit_components(a.forms)
    rank = int_rank(a.forms)
    for i in range(a.r):
        if int_rank(a.forms[:i] + a.forms[i + 1:]) < rank:  # a coloop
            assert 1 << i in comps


@settings(max_examples=60, deadline=None)
@given(SEPARABLE)
def test_relations_are_a_basis_inside_the_components(a):
    relations = [lam for _, lam in a.relations]
    for lam in relations:
        assert not any(sum(x * f[k] for x, f in zip(lam, a.forms)) for k in range(a.n + 1))
    assert int_rank(relations) == len(relations) == a.r - int_rank(a.forms)
    assert a.m == a.n - int_rank(a.forms)
    comps = _circuit_components(a.forms)
    for lam in relations:
        support = sum(1 << i for i, x in enumerate(lam) if x)
        assert any(support & ~comp == 0 for comp in comps)


class TestFormerHardCases:
    def test_coordinate_forms_plus_one(self):
        # P^19: e_0..e_19 are coloops except e_0, e_1, which join e_0 + e_1
        # in one component without a valid partition.
        rows = [[int(i == j) for j in range(20)] for i in range(20)]
        a = load(19, rows + [[1, 1] + [0] * 18])
        assert max_valid_parts(a)[0] == 19

    def test_general_position_9_12(self):
        doc = cli.generate_document("general_position", 9, 12)
        assert achievable_dimensions(load(doc["n"], doc["forms"])).d_max == 3

    def test_cocircuit_bound_per_form(self):
        # One component of 15 forms in P^11: 13 moment-curve forms in the
        # first 11 coordinates and two forms off them.  The cover's bound
        # must read c(i) per form: with the component's smallest
        # cocircuit, 2, as the c of every form the search ran over a minute.
        forms = [[t**k for k in range(11)] + [0] for t in range(1, 14)]
        forms += [[(7 * t + 1) ** j % 97 + 1 for j in range(12)] for t in (1, 2)]
        a = load(11, forms)
        # rank 12 and 3 relations: the search reads c from the dual side
        [(vecs, relations)] = _component_parts(a)
        assert len(relations) == 3
        assert _smallest_cocircuits(vecs, 12) == [4] * 13 + [2] * 2
        assert _smallest_dual_circuits(relations, 15) == [4] * 13 + [2] * 2
        assert max_valid_parts(a)[0] == 4


class TestCoarsening:
    def test_merging_blocks_preserves_validity(self):
        rng = random.Random(55)
        checked = 0
        while checked < 25:
            a = random_arrangement(rng, rng.randint(2, 4), rng.randint(3, 6))
            for rgs in partitions_rgs(a.r):
                blocks = blocks_of(rgs)
                if len(blocks) < 3 or not check_partition(a, blocks).valid:
                    continue
                for i, j in combinations(range(len(blocks)), 2):
                    merged = tuple(sorted(blocks[i] + blocks[j]))
                    coarser = tuple(
                        sorted(
                            [merged] + [b for k, b in enumerate(blocks) if k not in (i, j)],
                            key=min,
                        )
                    )
                    assert check_partition(a, coarser).valid
                checked += 1
                break


class TestAchievableDimensions:
    def test_single_form_in_p2(self):
        rep = achievable_dimensions(load(2, [[1, 0, 0]]))
        assert (rep.m, rep.d_max, rep.parts_max) == (1, 2, None)
        assert rep.achievable == (0, 1, 2)

    def test_four_general_position_lines(self):
        rep = achievable_dimensions(moment_curve_arrangement(2, 4))
        assert rep.d_max == 1  # floor(s / (r - s)) with s = 2, r = 4

    def test_coordinate_forms_in_p3(self):
        rep = achievable_dimensions(load(3, [list(row) for row in
                                             ([1, 0, 0, 0], [0, 1, 0, 0],
                                              [0, 0, 1, 0], [0, 0, 0, 1])]))
        assert (rep.m, rep.parts_max, rep.d_max) == (-1, 4, 3)

    def test_range_consistency_random(self):
        rng = random.Random(77)
        for _ in range(30):
            a = random_arrangement(rng, rng.randint(1, 4), rng.randint(1, 6))
            rep = achievable_dimensions(a)
            assert rep.m + 1 <= rep.d_max <= min(a.n, rep.m + a.r)
            assert rep.achievable == tuple(range(rep.d_max + 1))


def _component_parts(a):
    """Each component's vectors and its relation rows, cut down to its forms."""
    parts = []
    for comp in _components(a):
        forms = [i for i in range(a.r) if comp >> i & 1]
        relations = [tuple(lam[i] for i in forms) for _, lam in a.relations
                     if any(lam[i] for i in forms)]
        parts.append(([a.forms[i] for i in forms], relations))
    return parts


def _brute_smallest_cocircuits(vecs):
    """Oracle: r minus the largest flat other than E avoiding each form."""
    k = len(vecs)
    flats = [m for m in range((1 << k) - 1)
             if is_flat(vecs, [j for j in range(k) if m >> j & 1])]
    return [k - max(m.bit_count() for m in flats if not m >> i & 1) for i in range(k)]


def _check_cover_and_bound(vecs, relations):
    """The cover against the eager one, and c(i) against the clopen sizes."""
    assert _max_cover(vecs, relations) == eager_max_cover(vecs)
    bound = _smallest_cocircuits(vecs, len(vecs) - len(relations))
    assert _smallest_dual_circuits(relations, len(vecs)) == bound
    clopen = clopen_sets(vecs)
    for i, c in enumerate(bound):
        assert c <= min(s.bit_count() for s in clopen if s >> i & 1)
    if len(vecs) <= 9:
        assert bound == _brute_smallest_cocircuits(vecs)
    return bound


@settings(max_examples=60, deadline=None)
@given(st.one_of(arrangements(), sparse_arrangements()))
def test_cover_and_cocircuit_bound_match_the_eager_oracle(a):
    for vecs, relations in _component_parts(a):
        _check_cover_and_bound(vecs, relations)


@settings(max_examples=200, deadline=None)
@given(both_sides())
def test_dual_cocircuits_match_the_primal_search(a):
    """c(i) from the relation columns equals c(i) from the flats, on every
    component, whichever side ``dual_is_shallower`` picks for it."""
    for vecs, relations in _component_parts(a):
        bound = _smallest_cocircuits(vecs, len(vecs) - len(relations))
        assert _smallest_dual_circuits(relations, len(vecs)) == bound
        if len(vecs) <= 9:
            assert bound == _brute_smallest_cocircuits(vecs)


def test_cover_and_cocircuit_bound_on_moment_curves():
    """General position: c(i) = r - n when n + 1 < r <= 2n."""
    for n in range(1, 8):
        for r in range(1, 13):
            a = moment_curve_arrangement(n, r)
            for vecs, relations in _component_parts(a):
                bound = _check_cover_and_bound(vecs, relations)
                if n + 1 < r <= 2 * n:
                    assert bound == [r - n] * r


def test_hyperbolic_search_needs_no_cocircuit_bound(monkeypatch):
    """A component with no clopen set besides E never computes c."""
    def unneeded(*args):
        raise AssertionError("the cover computed c")

    monkeypatch.setattr(dimension_search, "_smallest_cocircuits", unneeded)
    monkeypatch.setattr(dimension_search, "_smallest_dual_circuits", unneeded)
    for n in range(2, 6):
        assert max_valid_parts(moment_curve_arrangement(n, 2 * n + 1)) == (None, None)


def count_closures(monkeypatch) -> dict[str, list]:
    """Record the side each closure kernel is called on, per kernel.

    Wraps ``dimension_search._close`` and ``arrangement._closed_with``;
    ``corollaries`` imports ``_closed_with`` by name, so it is wrapped there
    too.
    """
    sides: dict[str, list] = {"_close": [], "_closed_with": []}

    def counted(name, kernel):
        def wrapper(side, *args):
            sides[name].append(side)
            return kernel(side, *args)
        return wrapper

    closed_with = counted("_closed_with", _closed_with)
    monkeypatch.setattr(dimension_search, "_close", counted("_close", _close))
    monkeypatch.setattr(arrangement, "_closed_with", closed_with)
    monkeypatch.setattr(corollaries, "_closed_with", closed_with)
    return sides


@pytest.mark.parametrize("n, r", [(4, 7), (6, 10), (7, 12), (8, 14)])
def test_dual_searches_close_no_branch_their_bound_decides(monkeypatch, n, r):
    """Both dual searches close exactly the sets of 1 to k - 2 columns
    that leave a column undecided.

    The k = r - n - 1 relation columns of a moment curve are in general
    position, so every circuit has k + 1 columns and no take pulls a column
    in below rank k.  Every bound stays k + 1, which a set T of k - 2
    columns or more cannot beat, since its child records |T| + 3 or more:
    the children of those sets return at once, and their closures are
    skipped.  So is the closure of a set that holds the last column, whose
    child has no column left to take; the sets of j columns without it
    number C(r - 1, j).
    """
    sides = count_closures(monkeypatch)
    a = moment_curve_arrangement(n, r)
    k = len(a.relations)
    assert k == r - n - 1
    relations = [lam for _, lam in a.relations]
    closures = sum(comb(r - 1, j) for j in range(1, k - 1))
    assert _smallest_circuit(relations, r) == k + 1
    assert len(sides["_closed_with"]) == closures
    assert _smallest_dual_circuits(relations, r) == [k + 1] * r
    assert len(sides["_close"]) == closures


def test_splits_close_no_side_once_keep_rejects_a(monkeypatch):
    """A yield that tightens ``keep`` against A stops the closures below A.

    Here ``keep`` rejects every side once the first is yielded, so each
    child from then on would return at once, and no side is closed for it.
    """
    sides = count_closures(monkeypatch)
    vecs = moment_curve_arrangement(3, 6).forms
    everything = dict(enumerate(vecs))
    stopped = []
    splits = dimension_search._splits(
        (1 << len(vecs)) - 1, 0, everything, 0, everything, lambda a: not stopped
    )
    stopped.append(next(splits))
    closed = len(sides["_close"])
    assert list(splits) == []
    assert len(sides["_close"]) == closed


@pytest.mark.parametrize("n, r", [(3, 6), (4, 7), (4, 8), (5, 9), (5, 10)])
def test_verdict_closes_no_side_at_its_cap(monkeypatch, n, r):
    """The finiteness search never closes a side that holds s forms already.

    Its closure would hold s + 1 forms, more than the cap, and the child
    would die on its first test.  The moment curves here have r <= 2s, so
    the search runs and fills a side up to the cap.
    """
    sides = count_closures(monkeypatch)
    a = moment_curve_arrangement(n, r)
    assert a.m == -1 and a.r <= 2 * a.s
    assert not corollaries.finiteness_verdict(a)
    assert sides["_closed_with"]
    assert max(side.bit_count() for side in sides["_closed_with"]) < a.s


def test_search_leaves_no_reference_cycles():
    # The recursive closures of the cover and of both cocircuit bounds are
    # deleted after the root call, and the candidate generators end with
    # their loops, so a search leaves nothing for gc.
    rng = random.Random(5)
    inputs = [random_arrangement(rng, 3, 6), moment_curve_arrangement(4, 7), FOUR_LINES]
    inputs.append(direct_sum(inputs[0], inputs[2]))
    inputs.append(moment_curve_arrangement(6, 9))  # c from the relation columns
    for a in inputs:
        assert garbage_left_by(max_valid_parts, a) == 0
