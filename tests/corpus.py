"""Shared random-corpus helpers for the test suite."""

import gc

from hypothesis import strategies as st

from hyparc.arrangement import Arrangement, load
from hyparc.exact_linalg import primitive_vector


def random_arrangement(rng, n: int, r: int) -> Arrangement:
    """r distinct projective form classes in P^n with small integer entries."""
    classes: dict[tuple[int, ...], list[int]] = {}
    while len(classes) < r:
        row = [rng.randint(-3, 3) for _ in range(n + 1)]
        if any(row):
            classes.setdefault(primitive_vector(row), row)
    return load(n, list(classes.values()))


def moment_curve_arrangement(n: int, r: int) -> Arrangement:
    """r general-position forms (1, t, t^2, ..., t^n) at t = 1..r."""
    return load(n, [[t**k for k in range(n + 1)] for t in range(1, r + 1)])


def direct_sum(a: Arrangement, b: Arrangement) -> Arrangement:
    """The forms of ``a`` and of ``b`` on disjoint coordinates."""
    pad_a, pad_b = [0] * (b.n + 1), [0] * (a.n + 1)
    rows = [list(f) + pad_a for f in a.forms]
    rows += [pad_b + list(f) for f in b.forms]
    return load(a.n + b.n + 1, rows)


@st.composite
def arrangements(draw, max_r=8):
    """Arrangements with small entries, so many forms are dependent."""
    n = draw(st.integers(min_value=1, max_value=4))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=n + 1, max_size=n + 1)
            .filter(any),
            min_size=1,
            max_size=max_r,
        )
    )
    return load(n, rows)


@st.composite
def sparse_arrangements(draw, max_r=9, max_n=5):
    """Arrangements of mostly-zero forms, so the matroid often splits into
    several connected components."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.sampled_from([0, 0, 0, 1, 1, -1, 2])
    rows = draw(
        st.lists(
            st.lists(entry, min_size=n + 1, max_size=n + 1).filter(any),
            min_size=1,
            max_size=max_r,
        )
    )
    return load(n, rows)


def both_sides():
    """Arrangements on either side of ``arrangement.dual_is_shallower``.

    Small dense and sparse forms and direct sums have few relations for
    their rank or many; sparse forms in up to P^8 and general position with
    r - n - 1 <= 3 relations add shapes of high rank and few relations.
    """
    near_independent = st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.builds(moment_curve_arrangement, st.just(n), st.integers(n + 2, n + 4))
    )
    return st.one_of(
        arrangements(),
        sparse_arrangements(),
        sparse_arrangements(max_r=11, max_n=8),
        st.builds(direct_sum, arrangements(max_r=4), arrangements(max_r=4)),
        near_independent,
    )


def garbage_left_by(call, *args) -> int:
    """Unreachable objects that only the cycle collector frees after call(*args)."""
    gc.collect()
    gc.disable()
    try:
        call(*args)
        return gc.collect()
    finally:
        gc.enable()
