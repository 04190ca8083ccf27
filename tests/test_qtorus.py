"""Tests for the quantum torus attached to a reduced word: commutation,
normal ordering, inversion, weights, and text forms."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcells.cartan import build_root_datum
from qcells.qtorus import TorusPresentation, torus_str
from qcells.scalars import LaurentQ, ScalarQ

A2 = build_root_datum("A2")
B2 = build_root_datum("B2")
G2 = build_root_datum("G2")
C3 = build_root_datum("C3")
D4 = build_root_datum("D4")

P121 = TorusPresentation(A2, (1, 2, 1))


def test_kappa_is_symmetrized_cartan_pairing():
    assert P121.kappa == ((2, -1, 2), (-1, 2, -1), (2, -1, 2))
    b = TorusPresentation(B2, (2, 1, 2, 1))
    assert b.kappa == (
        (2, -2, 2, -2),
        (-2, 4, -2, 4),
        (2, -2, 2, -2),
        (-2, 4, -2, 4),
    )


def test_generator_commutation():
    t1, t2, t3 = P121.generator(1), P121.generator(2), P121.generator(3)
    assert torus_str(t1 * t2) == "t1 t2"
    assert torus_str(t2 * t1) == "q^1 · t1 t2"
    assert torus_str(t3 * t1) == "q^-2 · t1 t3"
    # defining relation t_j t_k = q^{kappa_jk} t_k t_j for j < k
    assert t1 * t2 == (t2 * t1).scaled(ScalarQ.q_power(P121.kappa[0][1]))


def test_reorder_power_matches_product():
    rng = random.Random(9)
    for _ in range(20):
        e = tuple(rng.randrange(-2, 3) for _ in range(3))
        f = tuple(rng.randrange(-2, 3) for _ in range(3))
        x, y = P121.monomial(e), P121.monomial(f)
        prod = x * y
        [(exps, coeff)] = prod.terms.items()
        assert exps == tuple(a + b for a, b in zip(e, f))
        assert coeff.as_q_power() == P121.reorder_power(e, f)


def pair_element(pres, x):
    e, a = x
    return pres.monomial(e, ScalarQ.q_power(a))


def test_invert_monomial():
    x = ((1, -2, 0), 3)
    inv = P121.pair_inverse(x)
    assert inv == ((-1, 2, 0), -5)
    assert torus_str(pair_element(P121, inv)) == "q^-5 · t1^-1 t2^2"
    unit = ((0, 0, 0), 0)
    assert P121.pair_product(x, inv) == unit
    assert P121.pair_product(inv, x) == unit


@st.composite
def torus_pairs(draw):
    """A presentation of a random G2, C3 or D4 word, not necessarily
    reduced, and two monomial pairs over it."""
    datum = draw(st.sampled_from([G2, C3, D4]))
    word = tuple(draw(st.lists(st.sampled_from(datum.index_set), min_size=1, max_size=7)))
    pres = TorusPresentation(datum, word)
    exps = st.tuples(*[st.integers(-3, 3)] * len(word))
    qexp = st.integers(-6, 6)
    return pres, (draw(exps), draw(qexp)), (draw(exps), draw(qexp))


@settings(max_examples=150, deadline=None)
@given(torus_pairs())
def test_pair_arithmetic_agrees_with_torus_elements(case):
    pres, x, y = case
    ex, ey = pair_element(pres, x), pair_element(pres, y)
    assert pair_element(pres, pres.pair_product(x, y)) == ex * ey
    inv = pres.pair_inverse(x)
    unit = pres.monomial((0,) * pres.nvars)
    assert pair_element(pres, inv) * ex == unit
    assert ex * pair_element(pres, inv) == unit
    assert pres.pair_product(x, inv) == pres.pair_product(inv, x) == ((0,) * pres.nvars, 0)


def test_arithmetic_and_zero():
    t1, t2 = P121.generator(1), P121.generator(2)
    assert (t1 - t1).is_zero()
    assert t1 + P121.zero() == t1
    assert (t1 + t2) - t2 == t1
    assert torus_str(P121.zero()) == "0"
    assert len((t1 + t2).terms) == 2


def test_cancellation_leaves_no_terms():
    t1, t2, t3 = P121.generator(1), P121.generator(2), P121.generator(3)
    q = ScalarQ.q_power(1)
    x = t1 + t2.scaled(q) + t3.scaled(ScalarQ(1, LaurentQ({0: 1, 1: 1})))
    assert (x - x).terms == {}
    # t2 t1 = q t1 t2, so the t1 t2 terms of this product cancel
    prod = (t1 + t2) * (t2 - t1.scaled(q.inverse()))
    assert prod == t2 * t2 - (t1 * t1).scaled(q.inverse())
    assert (1, 1, 0) not in prod.terms
    assert all(c.num.c for c in prod.terms.values())


def test_presentation_equality():
    assert P121 == TorusPresentation(A2, (1, 2, 1))
    assert P121 != TorusPresentation(A2, (2, 1, 2))
    with pytest.raises(ValueError):
        t = TorusPresentation(A2, (2, 1, 2)).generator(1)
        _ = P121.generator(1) + t


def test_torus_str_forms():
    assert torus_str(P121.monomial((0, 0, 0))) == "1"
    assert torus_str(P121.generator(2)) == "t2"
    assert torus_str(P121.monomial((0, 1, 1))) == "t2 t3"
    assert torus_str(P121.monomial((-1, 0, 0), ScalarQ.q_power(1))) == "q^1 · t1^-1"
    coeff = ScalarQ(LaurentQ({1: 1, -1: 1}))
    assert torus_str(P121.generator(1).scaled(coeff)) == "(q^1+q^-1) · t1"


def test_torus_requires_letters_in_index_set():
    with pytest.raises(ValueError):
        TorusPresentation(A2, (1, 3))


def test_g2_commutation_strength():
    p = TorusPresentation(G2, (1, 2))
    # (alpha_1, alpha_2) = d_1 a_12 = -3
    assert p.kappa[0][1] == -3
    t1, t2 = p.generator(1), p.generator(2)
    assert t2 * t1 == (t1 * t2).scaled(ScalarQ.q_power(3))
