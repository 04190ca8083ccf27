"""Tests for root data tables, lattice pairings, and Weyl word machinery."""

from __future__ import annotations

import random
from math import gcd

import pytest

from qcells.cartan import (
    RootDatum,
    RootVector,
    Weight,
    build_root_datum,
    is_reduced,
    length,
    reduced_words,
    weyl_act,
    weyl_act_root,
    weyl_dim,
    weyl_elements,
    walk_word,
)

ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "G2"]


def test_cartan_tables():
    a2 = build_root_datum("A2")
    assert a2.a == ((2, -1), (-1, 2)) and a2.d == (1, 1)
    b2 = build_root_datum("B2")
    assert b2.a == ((2, -1), (-2, 2)) and b2.d == (2, 1)
    c2 = build_root_datum("C2")
    assert c2.a == ((2, -2), (-1, 2)) and c2.d == (1, 2)
    g2 = build_root_datum("G2")
    assert g2.a == ((2, -3), (-1, 2)) and g2.d == (1, 3)
    b3 = build_root_datum("B3")
    assert b3.a == ((2, -1, 0), (-1, 2, -1), (0, -2, 2)) and b3.d == (2, 2, 1)
    c3 = build_root_datum("C3")
    assert c3.a == ((2, -1, 0), (-1, 2, -2), (0, -1, 2)) and c3.d == (1, 1, 2)
    d4 = build_root_datum("D4")
    assert d4.a[1] == (-1, 2, -1, -1) and d4.d == (1, 1, 1, 1)


def test_symmetrizability_everywhere():
    for name in ALL_TYPES:
        dat = build_root_datum(name)
        for i in dat.index_set:
            for j in dat.index_set:
                assert dat.di(i) * dat.aij(i, j) == dat.di(j) * dat.aij(j, i)


def test_validate_rejects_infinite_and_unsymmetrized_types():
    for a in (
        ((2, -2), (-2, 2)),  # affine A1
        ((2, -3), (-3, 2)),  # hyperbolic
        ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),  # the 3-cycle, affine A2
    ):
        with pytest.raises(ValueError, match="not of finite type"):
            RootDatum("X", len(a), a, (1,) * len(a))
    b2 = build_root_datum("B2")
    with pytest.raises(ValueError, match="not symmetrized"):
        RootDatum("B", 2, b2.a, (1, 1))


def test_inverse_cartan_tables():
    for name in ALL_TYPES:
        dat = build_root_datum(name)
        n = dat.rank
        for i in range(n):
            for j in range(n):
                got = sum(dat.a[i][k] * dat._inv_num[k][j] for k in range(n))
                assert got == (dat._inv_den if i == j else 0)
        # the least common denominator, which pins den and num uniquely
        assert gcd(dat._inv_den, *(x for row in dat._inv_num for x in row)) == 1


@pytest.mark.parametrize("cls", [Weight, RootVector])
def test_lattice_value_semantics(cls):
    other = RootVector if cls is Weight else Weight
    v = cls((1, 0))
    assert v == cls((1, 0)) and not v != cls((1, 0))
    assert hash(v) == hash(cls((1, 0)))
    assert v != cls((0, 1)) and not v == cls((0, 1))
    for stranger in (other((1, 0)), (1, 0), [1, 0]):
        assert v != stranger and not v == stranger
        assert stranger != v and not stranger == v
    assert {v: 1}.get(cls((1, 0))) == 1 and {v: 1}.get((1, 0)) is None
    assert repr(v) == f"{cls.__name__}(coords=(1, 0))" == str(v)
    assert type(v.coords) is tuple and v.coords == (1, 0)
    with pytest.raises(AttributeError):
        v.coords = (0, 0)
    w = cls((2, -3))
    assert -w == cls((-2, 3)) and type(-w) is cls
    assert w - v == cls((1, -3)) and type(w - v) is cls
    assert w + v == cls((3, -3)) and type(w + v) is cls


def test_lattice_methods():
    assert Weight((2, -3)).scaled(-2) == Weight((-4, 6))
    assert Weight((0, 2)).is_dominant() and not Weight((1, -1)).is_dominant()
    assert RootVector((2, -3, 1)).height() == 0
    assert RootVector((0, 1)).is_positive()
    assert not RootVector((0, 0)).is_positive()
    assert not RootVector((1, -1)).is_positive()


@pytest.mark.parametrize("cls", [Weight, RootVector])
@pytest.mark.parametrize("op", ["+", "-"])
def test_lattice_arithmetic_rejects_a_rank_mismatch(cls, op):
    long, short = cls((1, 2)), cls((1,))
    for left, right in ((long, short), (short, long)):
        with pytest.raises(ValueError, match="rank mismatch"):
            left + right if op == "+" else left - right


def test_parse_and_interning():
    assert build_root_datum("a2") is build_root_datum(" A2 ") is build_root_datum("A2")
    for bad in ["E8", "A5", "B4", "D5", "F4", "X1", "A", "2A"]:
        with pytest.raises(ValueError):
            build_root_datum(bad)


def test_positive_root_counts():
    expect = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "B3": 9,
              "C2": 4, "C3": 9, "D4": 12, "G2": 6}
    for name, n in expect.items():
        assert len(build_root_datum(name).positive_roots()) == n


def test_pairing_examples():
    a2 = build_root_datum("A2")
    assert a2.sym_pair(a2.fundamental(2), RootVector((1, 1))) == 1
    # (w_i, alpha_j) = d_j delta_ij in every type
    for name in ALL_TYPES:
        dat = build_root_datum(name)
        for i in dat.index_set:
            for j in dat.index_set:
                got = dat.sym_pair(dat.fundamental(i), dat.alpha(j))
                assert got == (dat.di(j) if i == j else 0)


# the fundamental weights that lie in the root lattice; every type but G2
# has Cartan determinant > 1 and so at least one that does not
ROOT_LATTICE_FUNDAMENTALS = {
    "A1": set(), "A2": set(), "A3": set(), "A4": set(), "B2": {1}, "B3": {1, 2},
    "C2": {2}, "C3": {2}, "D4": {2}, "G2": {1, 2},
}


def test_lattice_conversions():
    a2 = build_root_datum("A2")
    assert a2.root_to_weight(RootVector((1, 0))) == Weight((2, -1))
    assert a2.weight_to_root(Weight((1, 1))) == RootVector((1, 1))
    for name, inside in ROOT_LATTICE_FUNDAMENTALS.items():
        dat = build_root_datum(name)
        for i in dat.index_set:
            lam = dat.fundamental(i)
            if i in inside:
                assert dat.root_to_weight(dat.weight_to_root(lam)) == lam
            else:
                with pytest.raises(ValueError):
                    dat.weight_to_root(lam)
    rng = random.Random(7)
    for name in ALL_TYPES:
        dat = build_root_datum(name)
        for _ in range(20):
            nu = RootVector(tuple(rng.randrange(-4, 5) for _ in dat.index_set))
            assert dat.weight_to_root(dat.root_to_weight(nu)) == nu


def test_reflection_examples():
    a2 = build_root_datum("A2")
    assert a2.reflect_root(1, a2.alpha(1)) == -a2.alpha(1)
    assert a2.reflect_root(2, a2.alpha(1)) == RootVector((1, 1))
    assert a2.reflect_weight(1, a2.fundamental(1)) == Weight((-1, 1))


def test_weyl_act_examples():
    a2 = build_root_datum("A2")
    assert weyl_act(a2, (1, 2, 1), a2.fundamental(1)) == Weight((0, -1))
    # rightmost letter first: word (1,2) applies s_2 then s_1
    lam = Weight((2, -3))
    assert weyl_act(a2, (1, 2), lam) == a2.reflect_weight(1, a2.reflect_weight(2, lam))


def test_form_is_weyl_invariant():
    rng = random.Random(11)
    for _ in range(200):
        dat = build_root_datum(rng.choice(ALL_TYPES))
        lam = Weight(tuple(rng.randrange(-3, 4) for _ in dat.index_set))
        nu = RootVector(tuple(rng.randrange(-3, 4) for _ in dat.index_set))
        word = tuple(rng.choice(list(dat.index_set)) for _ in range(rng.randrange(6)))
        lhs = dat.sym_pair(weyl_act(dat, word, lam), weyl_act_root(dat, word, nu))
        assert lhs == dat.sym_pair(lam, nu)


def test_reduced_and_length():
    a2 = build_root_datum("A2")
    assert is_reduced(a2, (1, 2, 1))
    assert not is_reduced(a2, (1, 2, 1, 2))
    assert length(a2, (1, 2, 1, 2)) == 2
    assert length(a2, ()) == 0
    rng = random.Random(3)
    for _ in range(120):
        dat = build_root_datum(rng.choice(["A2", "A3", "B2", "G2"]))
        word = tuple(rng.choice(list(dat.index_set)) for _ in range(rng.randrange(8)))
        assert is_reduced(dat, word) == (length(dat, word) == len(word))


def test_letters_outside_index_set_rejected():
    for name in ["A1", "A2", "G2", "D4"]:
        dat = build_root_datum(name)
        for bad in (0, -1, dat.rank + 1):
            # (1, 1, bad) is not reduced before the bad letter is reached
            for word in [(bad,), (1, bad), (bad, 1), (1, 1, bad)]:
                with pytest.raises(ValueError):
                    is_reduced(dat, word)
                with pytest.raises(ValueError):
                    reduced_words(dat, word)
                # reflect_weight reads coords[i - 1], so the Weyl walks check
                # their letters first
                with pytest.raises(ValueError, match="outside the index set"):
                    weyl_act(dat, word, dat.rho())
                with pytest.raises(ValueError, match="outside the index set"):
                    walk_word(dat, word, dat.rho())


def test_walk_word_ends_at_the_weyl_image():
    rng = random.Random(23)
    for _ in range(200):
        dat = build_root_datum(rng.choice(ALL_TYPES))
        lam = Weight(tuple(rng.randrange(-3, 4) for _ in dat.index_set))
        word = tuple(rng.choice(list(dat.index_set)) for _ in range(rng.randrange(8)))
        exps, end = walk_word(dat, word, lam)
        direct = lam
        for i in reversed(word):
            direct = dat.reflect_weight(i, direct)
        assert end == weyl_act(dat, word, lam) == direct
        # w lam = lam - sum_m c_m alpha_{i_m}
        for i, c in zip(word, exps):
            lam = lam - dat.alpha_weight(i).scaled(c)
        assert end == lam


def test_descent_word_of_non_reduced_words():
    # a non-reduced word resolves to the reduced words of its element
    rng = random.Random(13)
    for _ in range(150):
        dat = build_root_datum(rng.choice(ALL_TYPES))
        word = tuple(rng.choice(list(dat.index_set)) for _ in range(rng.randrange(2, 10)))
        if is_reduced(dat, word):
            continue
        target = weyl_act(dat, word, dat.rho())
        for got in reduced_words(dat, word):
            assert len(got) == length(dat, word)
            assert length(dat, got) == len(got)
            assert weyl_act(dat, got, dat.rho()) == target


def test_reduced_words_enumeration():
    a2 = build_root_datum("A2")
    assert reduced_words(a2, (1, 2, 1)) == ((1, 2, 1), (2, 1, 2))
    # non-reduced input is allowed and resolved to its element
    assert reduced_words(a2, (1, 2, 1, 2)) == ((2, 1),)
    a3 = build_root_datum("A3")
    words = reduced_words(a3, (1, 2, 1, 3, 2, 1))
    assert len(words) == 16
    mu = weyl_act(a3, (1, 2, 1, 3, 2, 1), a3.rho())
    for w in words:
        assert is_reduced(a3, w)
        assert weyl_act(a3, w, a3.rho()) == mu


# longest word length enumerated by brute force, per rank
BRUTE_LENGTH = {1: 6, 2: 6, 3: 5, 4: 4}


def test_reduced_words_and_elements_by_brute_force():
    # every reduced word up to a length, grouped by its element w.rho: each
    # group is the reduced_words of any member, and its minimum is the
    # weyl_elements representative
    for name in ALL_TYPES:
        dat = build_root_datum(name)
        top = BRUTE_LENGTH[dat.rank]
        groups: dict[Weight, list[tuple[int, ...]]] = {}
        layer = [()]
        for _ in range(top + 1):
            for w in layer:
                groups.setdefault(weyl_act(dat, w, dat.rho()), []).append(w)
            layer = [w + (i,) for w in layer for i in dat.index_set if is_reduced(dat, w + (i,))]
        reps = set(weyl_elements(dat, top))
        # a reduced word of w has length l(w), so every group is complete
        for words in groups.values():
            expect = tuple(sorted(words))
            assert reduced_words(dat, words[0]) == expect
            assert reduced_words(dat, words[-1]) == expect
            assert min(words) in reps
        assert len(reps) == len(groups)


def test_weyl_element_counts():
    expect = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48,
              "C2": 8, "C3": 48, "D4": 192, "G2": 12}
    for name, n in expect.items():
        assert len(weyl_elements(build_root_datum(name))) == n


def test_weyl_elements_max_length():
    g2 = build_root_datum("G2")
    short = weyl_elements(g2, max_length=4)
    assert len(short) == 9
    assert all(len(w) <= 4 for w in short)
    # sorted by (length, word) and words are lex-minimal representatives
    assert short == sorted(short, key=lambda w: (len(w), w))
    assert weyl_elements(build_root_datum("A2"))[-1] == (1, 2, 1)


def test_weyl_dim_values():
    a1 = build_root_datum("A1")
    a2 = build_root_datum("A2")
    assert weyl_dim(a1, Weight((1,))) == 2
    assert weyl_dim(a1, Weight((4,))) == 5
    assert weyl_dim(a2, a2.fundamental(1)) == 3
    assert weyl_dim(a2, Weight((1, 1))) == 8
    b2 = build_root_datum("B2")
    assert weyl_dim(b2, b2.fundamental(1)) == 5
    assert weyl_dim(b2, b2.fundamental(2)) == 4
    assert weyl_dim(build_root_datum("G2"), Weight((1, 0))) == 7
    assert weyl_dim(build_root_datum("D4"), Weight((1, 0, 0, 0))) == 8
    with pytest.raises(ValueError):
        weyl_dim(a2, Weight((-1, 0)))


def test_weyl_dim_of_rho_counts_positive_roots():
    for name in ALL_TYPES:
        dat = build_root_datum(name)
        assert weyl_dim(dat, dat.rho()) == 2 ** len(dat.positive_roots())
