"""Tests for the free negative half: words, the bilinear form, divided
powers, Serre elements, and images in the quantum torus."""

from __future__ import annotations

import random

from qcells.cartan import build_root_datum
from qcells.freeuq import (
    FreeNegElement,
    divided_monomial,
    feigin_on_element,
    lusztig_form,
    serre_element,
    word_weight,
    words_of_weight,
)
from qcells.qtorus import TorusPresentation, torus_str
from qcells.scalars import LaurentQ, ScalarQ

A1 = build_root_datum("A1")
A2 = build_root_datum("A2")
B2 = build_root_datum("B2")
G2 = build_root_datum("G2")

ONE = ScalarQ(1)


def gen(datum, i):
    return FreeNegElement.generator(datum, i)


def word_elt(datum, *letters):
    out = FreeNegElement.one(datum)
    for i in letters:
        out = out * gen(datum, i)
    return out


# ------------------------------------------------------------------ words

def test_word_weight_is_minus_content():
    nu = word_weight(A2, (1, 2, 1))
    assert nu.coords == (-2, -1)
    assert word_weight(A2, ()).coords == (0, 0)


def test_words_of_weight_enumeration():
    nu = word_weight(A2, (1, 1, 2))
    assert words_of_weight(A2, nu) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert words_of_weight(A2, word_weight(A2, ())) == [()]


def test_words_of_positive_weight_empty():
    nu = word_weight(A2, (1,))
    assert words_of_weight(A2, -nu) == []


# ------------------------------------------------------------------ arithmetic

def test_cancellation_leaves_no_terms():
    x = gen(A2, 1) + word_elt(A2, 1, 2).scaled(ScalarQ.q_power(2))
    assert (x - x).terms == {}
    # (f1 + f1 f1)(f1 - f1 f1): the two f1 f1 f1 terms cancel
    y = gen(A2, 1) + word_elt(A2, 1, 1)
    z = gen(A2, 1) - word_elt(A2, 1, 1)
    assert (y * z).terms == {(1, 1): ONE, (1, 1, 1, 1): -ONE}


# ------------------------------------------------------------------ the form

def test_form_on_generators():
    # (f_i, f_j) = delta_ij / (1 - q_i^2)
    d11 = lusztig_form(gen(A2, 1), gen(A2, 1))
    assert d11 == ScalarQ(1, LaurentQ({0: 1, 2: -1}))
    assert lusztig_form(gen(A2, 1), gen(A2, 2)).is_zero()
    # short root in B2 has d_i = 1, long has d_i = 2
    assert lusztig_form(gen(B2, 2), gen(B2, 2)) == ScalarQ(1, LaurentQ({0: 1, 2: -1}))
    assert lusztig_form(gen(B2, 1), gen(B2, 1)) == ScalarQ(1, LaurentQ({0: 1, 4: -1}))


def test_form_weight_orthogonality():
    assert lusztig_form(word_elt(A2, 1, 2), word_elt(A2, 2, 2)).is_zero()


def test_form_divided_power_norm():
    # (f_i^{(n)}, f_i^{(n)}) = 1 / prod_{k<=n} (1 - q_i^{2k})
    for n in (1, 2, 3):
        x = divided_monomial(A1, (1,) * n, (0,) * (n - 1) + (n,))
        den = LaurentQ({0: 1})
        for k in range(1, n + 1):
            den = den * LaurentQ({0: 1, 2 * k: -1})
        assert lusztig_form(x, x) == ScalarQ(1, den)


def test_divided_monomial_rescales_by_qfactorial():
    # f^{(2)} = f f / [2], with [2] taken in the balanced convention
    x2 = divided_monomial(A1, (1,), (2,))
    (w1, c1), = x2.terms.items()
    assert w1 == (1, 1)
    assert c1 == ScalarQ(LaurentQ({1: 1}), LaurentQ({2: 1, 0: 1}))
    # unit powers multiply out to the plain word
    plain = divided_monomial(A1, (1, 1), (1, 1))
    assert plain == word_elt(A1, 1, 1)


# ------------------------------------------------------------------ Serre

def test_serre_element_text():
    s = serre_element(A2, 1, 2)
    assert s.terms == {
        (1, 1, 2): ONE,
        (1, 2, 1): ScalarQ(LaurentQ({1: -1, -1: -1})),
        (2, 1, 1): ONE,
    }


def test_serre_elements_in_form_radical():
    # quantum Serre elements pair to zero with every word of their weight
    for (i, j) in ((1, 2), (2, 1)):
        s = serre_element(A2, i, j)
        nu = word_weight(A2, (i, i, j))
        for w in words_of_weight(A2, nu):
            assert lusztig_form(s, word_elt(A2, *w)).is_zero()
    for (i, j) in ((1, 2), (2, 1)):
        s = serre_element(G2, i, j)
        parts = s.homogeneous_parts()
        assert len(parts) == 1
        (nu,) = parts
        for w in words_of_weight(G2, nu):
            assert lusztig_form(s, word_elt(G2, *w)).is_zero()


# ----------------------------------------------------------------- images

def test_image_of_generator_single_letter_word():
    pres = TorusPresentation(A1, (1,))
    x = gen(A1, 1).scaled(ScalarQ(LaurentQ({0: 1, 2: -1})))
    assert torus_str(feigin_on_element(pres, x)) == "t1"


def test_image_of_generator_longer_word():
    pres = TorusPresentation(A2, (1, 2, 1))
    x = gen(A2, 1).scaled(ScalarQ(LaurentQ({0: 1, 2: -1})))
    assert torus_str(feigin_on_element(pres, x)) == "t1 + t3"


def test_image_kills_serre_elements():
    pres = TorusPresentation(A2, (1, 2, 1))
    for (i, j) in ((1, 2), (2, 1)):
        assert feigin_on_element(pres, serre_element(A2, i, j)).is_zero()


def test_image_is_multiplicative():
    rng = random.Random(17)
    for datum, word in ((A2, (1, 2, 1)), (B2, (2, 1, 2, 1)), (G2, (1, 2, 1, 2))):
        pres = TorusPresentation(datum, word)
        for _ in range(6):
            wa = tuple(rng.choice(datum.index_set) for _ in range(rng.randrange(1, 4)))
            wb = tuple(rng.choice(datum.index_set) for _ in range(rng.randrange(1, 4)))
            x, y = word_elt(datum, *wa), word_elt(datum, *wb)
            lhs = feigin_on_element(pres, x * y)
            rhs = feigin_on_element(pres, x) * feigin_on_element(pres, y)
            assert lhs.terms == rhs.terms

