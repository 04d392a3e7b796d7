"""Tests for the breadth-first orbit engine behind every closure and H¹."""

import itertools

import pytest

from artifact._orbits import orbit, orbit_classes, regular_tables


def compose(p, q):
    """The permutation p∘q (apply q first), permutations as tuples."""
    return tuple(p[i] for i in q)


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def conjugate(x, g):
    return compose(compose(g, x), inverse(g))


#: S4 from a transposition and a 4-cycle.
S4_GENS = [(1, 0, 2, 3), (1, 2, 3, 0)]


def add_mod(n):
    return lambda x, g: (x + g) % n


def test_orbit_is_breadth_first_in_generator_order():
    assert list(orbit(0, [1, -1], add_mod(6))) == [0, 1, 5, 2, 4, 3]


def test_limit_is_the_largest_order_allowed():
    assert len(orbit(0, [1], add_mod(6), limit=6)) == 6
    with pytest.raises(ArithmeticError, match="too big"):
        orbit(0, [1], add_mod(7), limit=6, what="too big")


def test_closure_of_generators_is_the_whole_group():
    group = orbit(tuple(range(4)), S4_GENS, compose)
    assert sorted(group) == sorted(itertools.permutations(range(4)))


def test_key_identifies_elements():
    # integers identified modulo 3: the first element reaching a key stays
    found = orbit(0, [1], lambda x, g: x + g, key=lambda x: x % 3)
    assert found == {0: 0, 1: 1, 2: 2}


def test_conjugacy_classes_match_brute_force():
    group = sorted(itertools.permutations(range(4)))
    brute = {}
    for x in group:
        cls = frozenset(conjugate(x, h) for h in group)
        brute[cls] = (min(cls), len(cls))
    expected = sorted(brute.values())
    assert orbit_classes(group, S4_GENS, conjugate) == expected
    assert [n for _, n in expected] == [1, 6, 8, 3, 6]


def test_classes_of_a_subset_closed_under_the_action():
    involutions = sorted(
        p for p in itertools.permutations(range(4)) if compose(p, p) == (0, 1, 2, 3)
    )
    assert orbit_classes(involutions, S4_GENS, conjugate) == [
        ((0, 1, 2, 3), 1), ((0, 1, 3, 2), 6), ((1, 0, 3, 2), 3),
    ]


def test_orbit_classes_raise_when_the_action_leaves_the_set():
    # every orbit is smaller than the set, but 2 is outside it
    with pytest.raises(ArithmeticError, match="left the set"):
        orbit_classes([0, 1, 7, 8], [1], add_mod(3))
    # an orbit larger than the set
    with pytest.raises(ArithmeticError, match="left the set"):
        orbit_classes([0], [1], add_mod(5))


def test_regular_tables_match_composition():
    # S4 numbered in sorted order, from the left-regular rows of its generators
    group = sorted(itertools.permutations(range(4)))
    number = {p: n for n, p in enumerate(group)}
    rows = [tuple(number[compose(g, x)] for x in group) for g in S4_GENS]
    identity = number[(0, 1, 2, 3)]
    mul, inv = regular_tables(rows, identity)
    for a, x in enumerate(group):
        assert group[inv[a]] == inverse(x)
        for b, y in enumerate(group):
            assert group[mul[a][b]] == compose(x, y)


def test_regular_tables_raise_when_the_rows_do_not_generate():
    group = sorted(itertools.permutations(range(4)))
    number = {p: n for n, p in enumerate(group)}
    rows = [tuple(number[compose(S4_GENS[1], x)] for x in group)]
    with pytest.raises(ArithmeticError, match="generate 4 of 24"):
        regular_tables(rows, number[(0, 1, 2, 3)])
