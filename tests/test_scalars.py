"""Tests for exact arithmetic in Q(q): Laurent polynomials, reduced
fractions, balanced q-combinatorics, and the text form."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import qcells.scalars as qscalars
from qcells.scalars import (
    LaurentQ,
    ScalarQ,
    _dgcd,
    _gcd_cofactors,
    _heu_gcd,
    add_term,
    gauss_product,
    laurent_str,
    qbinom,
    qfact,
    qint,
    scalar_str,
)


def lau(d):
    return LaurentQ(d)


laurents = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5).map(
    LaurentQ
)
nonzero_laurents = laurents.filter(lambda x: not x.is_zero())
scalars = st.builds(ScalarQ, laurents, nonzero_laurents)
nonzero_scalars = scalars.filter(lambda x: not x.is_zero())


# ----------------------------------------------------------------- q-integers

def test_qint_small_values():
    assert qint(0).is_zero()
    assert qint(1).is_one()
    assert qint(2) == lau({1: 1, -1: 1})
    assert qint(3) == lau({2: 1, 0: 1, -2: 1})
    assert qint(-1) == lau({0: -1})
    assert qint(-3) == -qint(3)


def test_qint_defining_ratio():
    # [n] * (q - q^{-1}) = q^n - q^{-n}
    denom = lau({1: 1, -1: -1})
    assert (qint(0) * denom).is_zero()
    for n in list(range(-6, 0)) + list(range(1, 7)):
        assert qint(n) * denom == lau({n: 1, -n: -1})


def test_qfact_values():
    assert qfact(0).is_one()
    assert qfact(1).is_one()
    assert qfact(2) == qint(2)
    assert qfact(3) == lau({3: 1, 1: 2, -1: 2, -3: 1})
    with pytest.raises(ValueError):
        qfact(-1)


def test_qbinom_nonnegative_cases():
    assert qbinom(5, 0).is_one()
    assert qbinom(2, 1) == qint(2)
    for n in range(0, 7):
        for k in range(0, n + 1):
            assert qbinom(n, k) * qfact(k) * qfact(n - k) == qfact(n)
            assert qbinom(n, k) == qbinom(n, n - k)
            # bar symmetry q -> q^{-1} of balanced q-binomials
            x = qbinom(n, k)
            assert sorted((-e, c) for e, c in x.items()) == x.items()


def test_qbinom_negative_upper_argument():
    # [-1][-2]/[2]! = 1,  [-2][-3]/[2]! = [3]; stays a Laurent polynomial
    assert qbinom(-1, 1) == lau({0: -1})
    assert qbinom(-1, 2).is_one()
    assert qbinom(-2, 2) == qint(3)
    assert qbinom(0, 3).is_zero()


def test_gauss_product_small_degrees():
    for a in range(0, 9):
        lhs, rhs = gauss_product(a)
        assert len(lhs) == len(rhs) == a + 1
        assert lhs == rhs


def test_gauss_product_degree_two_explicit():
    # (1 + z)(1 + q^2 z) = 1 + (q^2 + 1) z + q^2 z^2
    lhs, rhs = gauss_product(2)
    assert rhs == [lau({0: 1}), lau({2: 1, 0: 1}), lau({2: 1})]
    assert lhs == rhs


# --------------------------------------------------------------- Laurent ring

def test_laurent_basics():
    x = lau({2: 3, -1: -1})
    assert x + (-x) == lau({})
    assert x * LaurentQ.q_power(5) == x.shift(5)
    assert x.subst(3) == lau({6: 3, -3: -1})


def test_subst_needs_a_positive_power():
    # q -> q^0 would collapse q + q^-1 to 2, and a dict keyed by exponent
    # kept only one of the colliding terms
    x = lau({1: 1, -1: 1})
    for d in (0, -1, -2):
        with pytest.raises(ValueError):
            x.subst(d)
    with pytest.raises(ValueError):
        lau({}).subst(0)
    assert x.subst(1) == x
    assert x.subst(2) == lau({2: 1, -2: 1})


def test_laurent_exact_division():
    assert qfact(5).exact_div(qfact(3)) * qfact(3) == qfact(5)
    with pytest.raises(ArithmeticError):
        qint(2).exact_div(qint(3))


@given(laurents, laurents, laurents)
@settings(max_examples=60)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def sparse_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Reference: the term-by-term convolution of two exponent dicts."""
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def test_large_products_match_sparse_convolution():
    rng = random.Random(37)

    def operand(n: int, bits: int) -> dict[int, int]:
        # n coefficients from a random q-shift on, both ends nonzero, about
        # one in six inner ones zero, signs mixed, and |c| < 2^bits
        lo = rng.randrange(-50, 51)
        c = {lo + k: rng.choice((-1, 1)) * rng.getrandbits(bits) for k in range(n)}
        for k in range(1, n - 1):
            if rng.randrange(6) == 0:
                c[lo + k] = 0
        c[lo], c[lo + n - 1] = 1, -rng.getrandbits(bits) - 1
        return c

    # operand lengths on both sides of the size products 256 and 1024
    sizes = [(16, 16), (15, 17), (16, 18), (31, 33), (32, 32), (16, 64),
             (33, 32), (20, 60), (47, 53), (100, 100), (16, 100), (100, 17)]
    for bits in (2, 64, 200):
        for na, nb in sizes:
            a, b = operand(na, bits), operand(nb, bits)
            want = sorted(sparse_product(a, b).items())
            for got in (LaurentQ(a) * LaurentQ(b), LaurentQ(b) * LaurentQ(a)):
                assert got.items() == want
                _assert_dense(got)
    # the extreme coefficients +-2^200 and a product that cancels to zero
    top = {0: 2**200, 17: -(2**200), 40: 3}
    wide = operand(90, 200)
    assert (LaurentQ(top) * LaurentQ(wide)).items() == sorted(sparse_product(top, wide).items())
    neg = {e: -c for e, c in wide.items()}
    zero = LaurentQ(top) * LaurentQ(wide) + LaurentQ(top) * LaurentQ(neg)
    assert (zero.lo, zero.c) == (0, ())


def live(a: dict[int, int]) -> dict[int, int]:
    return {e: c for e, c in a.items() if c}


def sparse_sum(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Reference: the termwise sum of two exponent dicts."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return live(out)


def sparse_div(a: dict[int, int], b: dict[int, int]) -> "dict[int, int] | None":
    """Reference: a / b in Z[q, q^-1] by long division from the top term,
    or None when b does not divide a.  Units are +-q^k, so b divides a
    exactly when no quotient term falls below min(a) - min(b) and every
    leading coefficient divides."""
    a, b = live(a), live(b)
    if not a:
        return {}
    top, low = max(b), min(a) - min(b)
    quo: dict[int, int] = {}
    while a:
        e = max(a)
        k = e - top
        c, r = divmod(a[e], b[top])
        if k < low or r:
            return None
        quo[k] = c
        a = sparse_sum(a, {k + eb: -c * cb for eb, cb in b.items()})
    return quo


exponent_dicts = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5)


@given(exponent_dicts, exponent_dicts, st.integers(-5, 5), st.integers(1, 3))
@settings(max_examples=300)
def test_laurent_arithmetic_matches_dict_reference(a, b, k, d):
    """Products, sums, differences, shifts, substitutions and exact
    quotients of the dense form agree with term-by-term dict arithmetic,
    on inputs with zero coefficients and on cancelling sums."""
    A, B = LaurentQ(a), LaurentQ(b)
    assert A.items() == sorted(live(a).items())
    assert (A * B).items() == sorted(sparse_product(a, b).items())
    assert (A + B).items() == sorted(sparse_sum(a, b).items())
    assert (A - B).items() == sorted(sparse_sum(a, {e: -c for e, c in b.items()}).items())
    assert (A + (-A)).items() == []
    assert A.shift(k).items() == sorted((e + k, c) for e, c in live(a).items())
    assert A.subst(d).items() == sorted((e * d, c) for e, c in live(a).items())
    if B:
        prod = sparse_product(a, b)
        assert LaurentQ(prod).exact_div(B).items() == sorted(live(a).items())
        want = sparse_div(a, b)
        if want is None:
            with pytest.raises(ArithmeticError):
                A.exact_div(B)
        else:
            assert A.exact_div(B).items() == sorted(want.items())


def test_dict_reference_division_examples():
    """The reference division itself, on a few hand-checked quotients."""
    assert sparse_div({2: 1, -2: -1}, {1: 1, -1: -1}) == {1: 1, -1: 1}
    assert sparse_div({3: 2, 0: 2}, {1: 1, 0: 1}) == {2: 2, 1: -2, 0: 2}
    assert sparse_div({0: 1}, {1: 1, 0: 1}) is None
    assert sparse_div({0: 3}, {0: 2}) is None
    assert sparse_div({}, {5: 1}) == {}


@given(exponent_dicts, exponent_dicts, st.integers(-9, 9), st.integers(-5, 5), st.integers(1, 3))
@settings(max_examples=200)
def test_laurent_results_are_dense_canonical(a, b, n, k, d):
    """Every LaurentQ result is a tuple of ints trimmed at both ends, with
    zero as lo = 0, c = ()."""
    A, B = LaurentQ(a), LaurentQ(b)
    made = [A, B, LaurentQ(n), LaurentQ(), A + B, A - B, B - A, A + (-A), -A,
            A * B, A * n, n * A, A * 0, A.shift(k), A.subst(d),
            qint(n), qbinom(n, 2), qfact(abs(n) % 5), LaurentQ.q_power(k)]
    if B:
        made += [(A * B).exact_div(B), B.exact_div(B)]
    for x in made:
        _assert_dense(x)


@given(scalars, scalars, st.integers(-5, 5), exponent_dicts)
@settings(max_examples=200)
def test_scalar_results_are_canonical(x, y, k, a):
    """Every ScalarQ result is a canonical fraction of dense forms."""
    made = [x, y, x + y, x - y, x - x, x * y, -x, x.mul_qpow(k), ScalarQ(LaurentQ(a)),
            LaurentQ(a).to_scalar(), ScalarQ(LaurentQ(a), LaurentQ.q_power(k)),
            ScalarQ.q_power(k), ScalarQ(k)]
    if y:
        made += [y.inverse(), x / y, (-y).inverse()]
    for z in made:
        _assert_canonical(z)


# ------------------------------------------------------------------ the field

def _assert_dense(x: LaurentQ):
    """x is in canonical dense form: a tuple of ints with nonzero ends, and
    zero as lo = 0, c = ()."""
    assert type(x.c) is tuple and all(type(k) is int for k in x.c)
    assert type(x.lo) is int
    if x.c:
        assert x.c[0] and x.c[-1]
    else:
        assert x.lo == 0


def _assert_canonical(x: ScalarQ):
    den = x.den
    _assert_dense(x.num)
    _assert_dense(den)
    assert den.c, "denominator must be nonzero"
    assert den.lo == 0
    assert den.c[-1] > 0
    if x.num.c:
        assert _dgcd(list(x.num.c), list(den.c)) == [1]
    else:
        assert den.is_one()


def _dmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# nonzero dense Z[q] polynomials (index = exponent, top coefficient nonzero),
# constants among them; the sign of the top coefficient is free
dense = st.lists(st.integers(-9, 9), min_size=0, max_size=5).flatmap(
    lambda low: st.integers(1, 9).flatmap(
        lambda top: st.sampled_from([1, -1]).map(lambda sign: low + [sign * top])
    )
)


@given(dense, dense, dense, st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=300)
def test_gcd_with_cofactors_equals_euclidean_gcd(f, g, shared, ka, kb):
    """Pairs with a shared factor and integer content: the evaluation gcd is
    the Euclidean one, and its cofactors multiply back to the inputs."""
    a = [ka * x for x in _dmul(f, shared)]
    b = [kb * x for x in _dmul(g, shared)]
    h, qa, qb = _gcd_cofactors(a, b)
    assert h == _dgcd(a, b)
    assert _dmul(h, qa) == a and _dmul(h, qb) == b


@given(dense, dense, dense)
@settings(max_examples=200)
def test_cached_cofactors_equal_the_kernel(f, g, shared):
    """The gcd cache returns _gcd_cofactors's gcd and cofactors as tuples,
    on a first call and on a second one, which may be served from it."""
    a, b = tuple(_dmul(f, shared)), tuple(_dmul(g, shared))
    want = tuple(map(tuple, _gcd_cofactors(list(a), list(b))))
    for _ in range(2):
        got = qscalars._cofactors(a, b)
        assert got == want
        assert type(got) is tuple and all(type(x) is tuple for x in got)


def test_fixed_divisor_pair():
    """q^2 + q and q^2 + q + 2 are coprime, yet both values at every
    integer are even, so the integer gcd at the point is c = 2, not 1.
    So are q^2 + q + 2 and q^2 + q + 4, a fraction _make leaves as it is."""
    a, b = [0, 1, 1], [2, 1, 1]
    assert _dgcd(a, b) == [1]
    assert _heu_gcd(a, b) == ([1], a, b)
    x = ScalarQ(lau({2: 1, 1: 1, 0: 2}), lau({2: 1, 1: 1, 0: 4}))
    assert (x.num, x.den) == (lau({2: 1, 1: 1, 0: 2}), lau({2: 1, 1: 1, 0: 4}))


def test_rejected_candidate_moves_to_the_next_point(monkeypatch):
    """At the first point, 31, q^2 + 1 and q^2 + q - 30 both take the value
    962, whose digits read q^2 + 1.  That does not divide q^2 + q - 30, so
    the next point decides: the gcd is 1."""
    a, b = [1, 0, 1], [-30, 1, 1]
    points = []
    evaluate = qscalars._eval
    monkeypatch.setattr(qscalars, "_eval", lambda p, x: points.append(x) or evaluate(p, x))
    assert _heu_gcd(a, b) == ([1], a, b)
    assert points[:2] == [31, 31] and len(points) == 4 and points[2] > 31


@pytest.mark.parametrize(
    "digits",
    [lambda v, x: [1] * 12, lambda v, x: [x]],
    ids=["candidate-never-divides", "content-fails-the-bound"],
)
def test_gcd_falls_back_to_euclid_when_no_candidate_passes(monkeypatch, digits):
    """With candidate digits that never divide, or a constant candidate whose
    content c = xi breaks the bound xi >= c + 2 + min |cofactor|, every
    point fails, and the Euclidean gcd decides the same canonical forms.  The
    gcd cache starts empty, so ScalarQ runs the gcd whatever ran before."""
    qscalars._cofactors.cache_clear()
    monkeypatch.setattr(qscalars, "_digits", digits)
    euclid = []
    monkeypatch.setattr(qscalars, "_dgcd", lambda a, b: euclid.append(1) or _dgcd(a, b))
    a = _dmul(_dmul([1, 1], [2, 0, -3]), [5, 1])
    b = _dmul(_dmul([1, 1], [-1, 4]), [5, 1])
    assert _heu_gcd(a, b) is None
    h, qa, qb = _gcd_cofactors(a, b)
    assert euclid and h == _dgcd(a, b) == [5, 6, 1]
    assert qa == [2, 0, -3] and qb == [-1, 4]
    # 2 (1 + q) / (4 q^2 - 4) = 1 / (2 q - 2)
    euclid.clear()
    x = ScalarQ(LaurentQ({0: 2, 1: 2}), LaurentQ({0: -4, 2: 4}))
    assert euclid
    assert (x.num, x.den) == (LaurentQ({0: 1}), LaurentQ({0: -2, 1: 2}))
    _assert_canonical(x)


@given(scalars, scalars, nonzero_laurents, st.booleans())
@settings(max_examples=200)
def test_sum_is_the_reduced_sum_fraction(x, y, shared, cancel):
    """Henrici's sum equals the fraction (n1 d2 + n2 d1) / (d1 d2) reduced
    in one step, on denominators with a shared factor and on sums that
    cancel."""
    x = x * ScalarQ(1, shared)
    y = -x if cancel else y * ScalarQ(1, shared)
    want = ScalarQ._make(x.num * y.den + y.num * x.den, x.den * y.den)
    assert x + y == want
    _assert_canonical(x + y)


def test_sum_reduces_over_the_shared_denominator_factor():
    """Sums whose t = n1 (d2/g) + n2 (d1/g) shares a factor with g: the
    content 2 in 1/2 + 1/6, and q - 1 in 2/(q^2 - 1) - 3/((q - 1)(q + 2))
    = -1/((q + 1)(q + 2))."""
    assert ScalarQ(1, 2) + ScalarQ(1, 6) == ScalarQ(2, 3)
    x = ScalarQ(2, lau({2: 1, 0: -1}))
    y = ScalarQ(-3, lau({2: 1, 1: 1, 0: -2}))
    assert x + y == ScalarQ(-1, lau({2: 1, 1: 3, 0: 2}))
    assert (x + y).num == lau({0: -1})
    _assert_canonical(x + y)


def test_canonical_form_examples():
    x = ScalarQ(lau({1: 2, -1: 2}), lau({2: -4}))
    # 2(q + q^-1) / (-4 q^2) = -(q^2 + 1) / (2 q^3) as a reduced fraction
    assert x.num == lau({-1: -1, -3: -1})
    assert x.den == lau({0: 2})
    _assert_canonical(x)
    assert ScalarQ(lau({0: 6}), lau({0: 4})) == ScalarQ(lau({0: 3}), lau({0: 2}))


@given(scalars, scalars, scalars)
@settings(max_examples=60)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    _assert_canonical(a + b)
    _assert_canonical(a * b)


@given(scalars, nonzero_scalars)
@settings(max_examples=60)
def test_division_cancels(a, b):
    assert (a * b) / b == a
    assert b * b.inverse() == ScalarQ(1)
    _assert_canonical(a / b)


# a Laurent polynomial (denominator 1) or a fraction, negated or not and
# shifted by a power of q
factors = st.builds(
    lambda x, neg, k: (-x if neg else x).mul_qpow(k),
    st.one_of(laurents.map(ScalarQ), scalars),
    st.booleans(),
    st.integers(-5, 5),
)


@given(factors, factors)
@settings(max_examples=200)
def test_product_is_the_reduced_product_fraction(a, b):
    assert a * b == ScalarQ(a.num * b.num, a.den * b.den)
    _assert_canonical(a * b)


@given(laurents, laurents)
@settings(max_examples=40)
def test_subst_is_a_homomorphism(a, b):
    for d in (2, 3):
        assert (a + b).subst(d) == a.subst(d) + b.subst(d)
        assert (a * b).subst(d) == a.subst(d) * b.subst(d)


def test_powers():
    assert ScalarQ.q_power(-4) == ScalarQ(1) / ScalarQ.q_power(4)


def test_q_power_detection():
    assert ScalarQ.q_power(3).as_q_power() == 3
    assert ScalarQ(1).as_q_power() == 0
    assert ScalarQ(lau({3: 2})).as_q_power() is None
    assert (ScalarQ(qint(2)) / ScalarQ(qint(2))).as_q_power() == 0
    y = ScalarQ(qint(2))
    assert y.mul_qpow(2) == y * ScalarQ.q_power(2)


def test_subst_qi_dispatch():
    # q -> q_i = q^d, as the module actions and the Serre elements use it
    assert qint(2).subst(2) == lau({2: 1, -2: 1})
    assert qint(2).subst(3).to_scalar() == ScalarQ(lau({3: 1, -3: 1}))


# ------------------------------------------------------------------ text form

def test_text_form_examples():
    assert laurent_str(qfact(3)) == "q^3+2*q^1+2*q^-1+q^-3"
    assert laurent_str(lau({})) == "0"
    assert scalar_str(ScalarQ.q_power(1)) == "q^1"
    assert scalar_str(ScalarQ(1) / ScalarQ(lau({0: 1, 2: -1}))) == "(-1)/(q^2-1)"
    assert scalar_str(ScalarQ(-2)) == "-2"


def test_add_term_never_stores_zero():
    q = ScalarQ.q_power(1)
    terms = {}
    add_term(terms, "a", ScalarQ(0))
    assert terms == {}
    add_term(terms, "a", q)
    add_term(terms, "b", ScalarQ(2))
    add_term(terms, "a", q)
    assert terms == {"a": q + q, "b": ScalarQ(2)}
    add_term(terms, "b", ScalarQ(0))
    assert terms == {"a": q + q, "b": ScalarQ(2)}
    # a sum that cancels removes its key
    add_term(terms, "a", -(q + q))
    assert terms == {"b": ScalarQ(2)}
    add_term(terms, "b", ScalarQ(-2))
    assert terms == {}

