"""Tests for flag minor images, presentations, the inverse twist, the
predicted monomials, and generator recovery."""

from __future__ import annotations

import gc
import itertools
import json
import random
import subprocess
import sys
import time

import pytest

import qcells.scalars as qscalars
from qcells import cells, cli, hwmod
from qcells.cartan import (
    Weight,
    build_root_datum,
    dominant_conjugate,
    reduced_words,
    walk_word,
    weyl_act,
    weyl_act_root,
    weyl_dim,
    weyl_elements,
)
from qcells.cells import (
    PresentationError,
    VerificationReport,
    chamber_ansatz,
    class_equal,
    feigin_matrix_coeff,
    feigin_minor,
    find_presentation,
    minor_representative,
    ore_commutation_check,
    theorem_instance,
    theorem_monomial,
    twist_inverse_image,
    verify_theorem,
)
from qcells.freeuq import FreeNegElement, lusztig_form
from qcells.hwmod import (
    act_f,
    act_f_divided,
    build_module,
    contravariant_form,
    extremal_vector,
    get_module,
    shadow_module,
)
from qcells.linalg import RationalFunctions, column_dependencies, solve_linear
from qcells.qtorus import TorusPresentation, torus_str
from qcells.scalars import S_ZERO, ScalarQ

A1 = build_root_datum("A1")
A2 = build_root_datum("A2")
B2 = build_root_datum("B2")
B3 = build_root_datum("B3")
C3 = build_root_datum("C3")
G2 = build_root_datum("G2")

P1 = TorusPresentation(A1, (1,))
P121 = TorusPresentation(A2, (1, 2, 1))
PB = TorusPresentation(B2, (2, 1, 2, 1))


def completed(mod):
    """mod with every weight space built: asking for the lowest weight
    w0 lam extends a cached module to the bottom."""
    mod.dim_of(-dominant_conjugate(mod.datum, -mod.lam)[1])
    return mod


def act_word(word, vec):
    for i in reversed(word):
        vec = act_f(i, vec)
    return vec


# ------------------------------------------------------------- minor images

def test_minor_image_rank_one():
    assert torus_str(feigin_minor(P1, Weight((1,)))) == "t1"
    assert torus_str(feigin_minor(P1, Weight((0,)))) == "1"


def test_minor_image_a2():
    assert torus_str(feigin_minor(P121, Weight((1, 0)))) == "t2 t3"
    assert torus_str(feigin_minor(P121, Weight((0, 0)))) == "1"


def test_minor_images_are_monomials():
    for pres, coords in ((P121, (0, 1)), (P121, (1, 1)), (PB, (1, 0)), (PB, (1, 1))):
        x = feigin_minor(pres, Weight(coords))
        assert len(x.terms) == 1


def test_minor_image_multiplicative_in_lambda():
    # D_{w lam, lam} D_{w lam', lam'} and D_{w(lam+lam'), lam+lam'} agree
    # up to the commutation q-power, so exponents add
    a = feigin_minor(P121, Weight((1, 0)))
    b = feigin_minor(P121, Weight((0, 1)))
    c = feigin_minor(P121, Weight((1, 1)))
    [(ea, _)] = a.terms.items()
    [(eb, _)] = b.terms.items()
    [(ec, _)] = c.terms.items()
    assert tuple(x + y for x, y in zip(ea, eb)) == ec


def test_matrix_coeff_highest_is_unit():
    mod = get_module(A2, Weight((1, 0)))
    assert torus_str(feigin_matrix_coeff(P121, mod.highest(), mod.highest())) == "1"


def test_matrix_coeff_vectors_from_two_modules_rejected():
    mod = get_module(A2, Weight((1, 0)))
    other = get_module(A2, Weight((0, 1)))
    # a vector lies in one weight space, so no vector mixes two weights
    with pytest.raises(ValueError, match="different weights"):
        mod.highest() + act_f(1, mod.highest())
    for fn in (lambda l, r: feigin_matrix_coeff(P121, l, r), minor_representative):
        with pytest.raises(ValueError, match="different modules"):
            fn(other.highest(), mod.highest())
        with pytest.raises(ValueError, match="different modules"):
            fn(mod.highest(), other.highest())
        with pytest.raises(ValueError, match="no weight"):
            fn(mod.zero(), mod.highest())
        with pytest.raises(ValueError, match="no weight"):
            fn(mod.highest(), mod.zero())


def test_matrix_coeff_needs_an_exact_module():
    """The Feigin image is a torus element over Q(q): vectors of a GF(p)
    shadow, whose coefficients are ints, are rejected before any descent."""
    shadow = hwmod._build(A2, Weight((1, 1)), hwmod._Shadow())
    low = extremal_vector(shadow, (1, 2, 1))
    for left, right in ((shadow.highest(), shadow.highest()), (low, shadow.highest())):
        with pytest.raises(ValueError, match="exact module"):
            feigin_matrix_coeff(P121, left, right)


# ------------------------------------------------------ the Feigin descent

def brute_descent(pres, left, right):
    """The terms of feigin_matrix_coeff by a sum over every exponent vector a
    at most the content, f_{i_k}^{(a_k)} applied rightmost letter first and
    each term times q^{sum_k d_{i_k} a_k(a_k-1)/2}; also the distinct paths
    (letter, a_k > 0), in the order applied, whose vector is nonzero and of
    the weight of left."""
    datum = pres.datum
    field = left.mod.field
    word = pres.letters
    need = datum.weight_to_root(right.weight() - left.weight()).coords
    terms, paths = {}, set()
    for a in itertools.product(*(range(max(need[i - 1], 0) + 1) for i in word)):
        vec = right
        for i, x in zip(reversed(word), reversed(a)):
            vec = act_f_divided(i, x, vec)
        if vec.is_zero() or vec.weight() != left.weight():
            continue
        paths.add(tuple((i, x) for i, x in zip(reversed(word), reversed(a)) if x))
        val = contravariant_form(left, vec)
        if not field.is_zero(val):
            tw = sum(datum.di(i) * (x * (x - 1) // 2) for i, x in zip(word, a))
            terms[a] = field.mul(val, field.of(ScalarQ.q_power(tw)))
    return terms, paths


def image_terms(pres, left, right):
    """The terms of feigin_matrix_coeff, over the field of the vectors'
    module: the Feigin image itself on an exact module, and on a shadow,
    which has no image over Q(q), its specialization at q0 from the descent,
    each path value of basis vector s times right's coordinate s, written
    under every embedding of the path."""
    field = right.mod.field
    if not isinstance(field, hwmod._Shadow):
        return feigin_matrix_coeff(pres, left, right).terms
    n = len(pres.letters)
    terms = {}
    for s, c in enumerate(right.coeffs):
        if not c:
            continue
        for path, v in cells._coeff_terms(pres, left, right.weight(), s).items():
            for a in cells._embeddings(pres.letters, path, 0, n, [0] * n):
                terms[a] = field.plus(terms.get(a, 0), field.mul(c, v))
    return {a: v for a, v in terms.items() if v}


def descent_pairs(mod, word):
    """(left, right) pairs: every basis vector, extremal or not, against the
    highest vector, and the extremal vectors of word's prefixes against every
    basis vector of the weights they reach down from."""
    basis = [mod.basis_vector(mu, s) for mu in mod.basis for s in range(mod.dim_of(mu))]
    pairs = [(v, mod.highest()) for v in basis]
    for k in range(len(word) + 1):
        uw = extremal_vector(mod, word[:k])
        pairs += [(uw, v) for v in basis if cells._content(uw, v) is not None]
    return pairs


@pytest.mark.parametrize(
    "cartan, word, coords",
    [
        ("A2", (1, 2, 1), (1, 1)),
        ("B2", (1, 2, 1, 2), (1, 1)),
        ("G2", (1, 2, 1, 2, 1, 2), (1, 0)),
        ("C3", (2, 3, 2, 1, 2, 3), (0, 1, 0)),
    ],
)
def test_descent_matches_sum_over_exponent_vectors(monkeypatch, cartan, word, coords):
    datum = build_root_datum(cartan)
    pres = TorusPresentation(datum, word)
    mod = completed(get_module(datum, Weight(coords)))
    calls, own = [], [None]
    real_dot = RationalFunctions.dot

    def counted(u, coeffs):
        # the covector pairs Gram rows with left's own coefficient list
        if coeffs is not own[0]:
            calls.append(1)
        return real_dot(u, coeffs)

    # the descent's leaf pairing; brute_descent pairs through the Gram matrix
    monkeypatch.setattr(RationalFunctions, "dot", staticmethod(counted))
    shared = paired = 0
    for left, right in descent_pairs(mod, word):
        want, paths = brute_descent(pres, left, right)
        own[0] = left.coeffs
        calls.clear()
        assert feigin_matrix_coeff(pres, left, right).terms == want
        # one pairing per distinct path, however many a's embed it
        assert len(calls) <= len(paths)
        shared += len(want) > len(paths)
        paired += len(calls)
    assert shared  # some path has several embeddings
    assert paired  # the counter sees the descent's pairings


def test_descent_climbs_plain_powers(monkeypatch):
    """The descent divides no vector: it walks plain f-powers and puts the
    1/[a]_{q_i}! of its divided powers into one factor per path."""
    datum = build_root_datum("G2")
    pres = TorusPresentation(datum, (1, 2, 1, 2, 1, 2))
    mod = get_module(datum, Weight((1, 0)))
    pairs = [(extremal_vector(mod, pres.letters[:k]), mod.highest()) for k in range(7)]
    want = [brute_descent(pres, left, right)[0] for left, right in pairs]
    assert any(max(key) > 1 for terms in want for key in terms)

    def forbidden(*args):
        raise AssertionError("the descent divides a vector")

    monkeypatch.setattr(hwmod.ModuleVector, "scaled", forbidden)
    monkeypatch.setattr(hwmod, "divided_powers", forbidden)
    assert [feigin_matrix_coeff(pres, left, right).terms for left, right in pairs] == want


def test_descent_zero_content_and_empty_word():
    mod = get_module(A2, Weight((1, 1)))
    low = extremal_vector(mod, (1, 2, 1))
    for v in (mod.highest(), low, mod.basis_vector(Weight((0, 0)), 1)):
        assert feigin_matrix_coeff(P121, v, v).terms == brute_descent(P121, v, v)[0]
        # content off the cone: no exponent vector fits
        if v is not low:
            assert not feigin_matrix_coeff(P121, v, low).terms
    empty = TorusPresentation(A2, ())
    assert torus_str(feigin_matrix_coeff(empty, mod.highest(), mod.highest())) == "1"
    assert not feigin_matrix_coeff(empty, low, mod.highest()).terms


def test_descent_over_the_shadow():
    datum = build_root_datum("B2")
    pres = TorusPresentation(datum, (1, 2, 1, 2))
    shadow = hwmod._build(datum, Weight((1, 1)), hwmod._Shadow())
    for left, right in descent_pairs(shadow, pres.letters):
        want = brute_descent(pres, left, right)[0]
        assert image_terms(pres, left, right) == want


@pytest.mark.parametrize(
    "cartan, word, coords, images",
    [("B2", (1, 2, 1, 2), (1, 1), 9), ("C3", (2, 3, 2, 1, 2, 3), (0, 1, 0), 2)],
)
@pytest.mark.parametrize("field", ["exact", "shadow"])
def test_descent_sums_over_right_coordinates(cartan, word, coords, images, field):
    """A right vector that is no basis vector, sum_s q^s b_s over a weight
    space of dimension >= 2, has the image of the sum over exponent vectors
    against every prefix's extremal vector, over either field."""
    datum = build_root_datum(cartan)
    pres = TorusPresentation(datum, word)
    lam = Weight(coords)
    if field == "exact":
        mod = completed(get_module(datum, lam))
    else:
        mod = hwmod._build(datum, lam, hwmod._Shadow())
    of = mod.field.of
    nonzero = 0
    for mu in mod.basis:
        if mod.dim_of(mu) < 2:
            continue
        coeffs = [of(ScalarQ.q_power(s)) for s in range(mod.dim_of(mu))]
        right = hwmod.ModuleVector(mod, mu, coeffs)
        for k in range(len(word) + 1):
            left = extremal_vector(mod, word[:k])
            got = image_terms(pres, left, right)
            assert got == brute_descent(pres, left, right)[0]
            nonzero += bool(got)
    assert nonzero == images


# ------------------------------------------------ the descent's memos


def call_shapes(pres, mod):
    """Every call shape of the search and the twist on one word, each as a
    thunk of a term dict (or of a system's rows and right-hand side): the
    _system of every weight space the extremal vector reaches down from,
    the target of every prefix, and the twist's pairing of a vector that is
    not extremal with the highest vector."""
    word = pres.letters
    uw = extremal_vector(mod, word)
    shapes = []
    for mup in mod.basis:
        if cells._content(uw, mod.basis_vector(mup, 0)) is not None:
            shapes.append(lambda mup=mup: cells._system(pres, uw, mup, {}))
    for k in range(len(word) + 1):
        shapes.append(
            lambda k=k: cells._coeff_terms(pres, extremal_vector(mod, word[:k]), mod.lam, 0)
        )
    for mu in mod.basis:
        # the sum of a weight space's basis vectors is a fresh vector, never
        # the extremal one, even where it equals it
        coeffs = [mod.field.one] * mod.dim_of(mu)
        left = hwmod.ModuleVector(mod, mu, coeffs)
        shapes.append(lambda left=left: cells._coeff_terms(pres, left, mod.lam, 0))
    return shapes


MEMO_CASES = [
    ("B2", (1, 1), 4),
    ("C3", (0, 1, 0), 5),
    ("G2", (1, 0), 6),
]


@pytest.mark.parametrize("cartan, coords, max_length", MEMO_CASES)
@pytest.mark.parametrize("field", ["exact", "shadow"])
def test_memoized_terms_equal_fresh_ones(monkeypatch, cartan, coords, max_length, field):
    """On every reduced word of every element of the longest lengths, each
    call shape gives the same terms on a module whose memos every earlier
    word filled as on a twin module whose memos are emptied before each
    call; and a second pass over the words climbs no vector, the twist's
    pairing included, as its leaf memo is keyed by the left vector's
    value."""
    datum = build_root_datum(cartan)
    lam = Weight(coords)

    def build():
        over = RationalFunctions() if field == "exact" else hwmod._Shadow()
        return hwmod._build(datum, lam, over)

    warm, fresh = build(), build()
    elements = [w for w in weyl_elements(datum, max_length) if len(w) >= max_length - 1]
    words = [word for w in elements for word in reduced_words(datum, w)]
    assert len(words) > len(elements)
    for word in words:
        pres = TorusPresentation(datum, word)
        for got, want in zip(call_shapes(pres, warm), call_shapes(pres, fresh)):
            fresh._node_memo.clear()
            fresh._leaf_memo.clear()
            fresh._leaf_values.clear()
            fresh._solve_memo.clear()
            assert got() == want()
    assert warm._leaf_memo and warm._node_memo
    # one key form: the right key, then the left vector's weight and value
    for nu, s, mu, value in warm._leaf_memo:
        assert nu in warm.basis and 0 <= s < warm.dim_of(nu)
        assert mu in warm.basis and len(value) == warm.dim_of(mu)

    climbs = []
    real_act_f = cells.act_f
    monkeypatch.setattr(cells, "act_f", lambda i, v: climbs.append(i) or real_act_f(i, v))
    for word in words:
        pres = TorusPresentation(datum, word)
        for shape in call_shapes(pres, warm):
            shape()
    assert not climbs


@pytest.mark.parametrize("cartan, coords, max_length", MEMO_CASES)
@pytest.mark.parametrize("field", ["exact", "shadow"])
def test_cold_descent_climbs_each_vector_once(monkeypatch, cartan, coords, max_length, field):
    """On a freshly built module, each descent from a basis vector calls
    act_f once per node-memo entry it adds: every vector the walk reaches is
    climbed once, and none is climbed again for a leaf."""
    datum = build_root_datum(cartan)
    over = RationalFunctions() if field == "exact" else hwmod._Shadow()
    mod = hwmod._build(datum, Weight(coords), over)
    word = reduced_words(datum, weyl_elements(datum, max_length)[-1])[0]
    pres = TorusPresentation(datum, word)
    left = extremal_vector(mod, word)
    climbs = []
    real_act_f = cells.act_f
    monkeypatch.setattr(cells, "act_f", lambda i, v: climbs.append(i) or real_act_f(i, v))
    total = 0
    for mu in mod.basis:
        for s in range(mod.dim_of(mu)):
            climbs.clear()
            cells._coeff_terms(pres, left, mu, s)
            assert len(climbs) == len(mod._node_memo.get((mu, s), ()))
            total += len(climbs)
    assert total > len(word)


@pytest.mark.parametrize("cartan, coords, max_length", MEMO_CASES)
@pytest.mark.parametrize("field", ["exact", "shadow"])
def test_path_codes_do_not_depend_on_how_much_is_built(monkeypatch, cartan, coords, max_length, field):
    """The descents of a word's prefixes extend a cached module a little
    deeper each time, and fill its memos under the same path codes as on a
    complete module: a code's base is fixed when the module is created."""
    datum = build_root_datum(cartan)
    lam = Weight(coords)
    fresh_caches(monkeypatch, datum)
    lazy = get_module(datum, lam) if field == "exact" else shadow_module(datum, lam)
    whole = hwmod._build(datum, lam, lazy.field)
    word = reduced_words(datum, weyl_elements(datum, max_length)[-1])[0]
    pres = TorusPresentation(datum, word)
    sizes = []
    for k in range(len(word) + 1):
        for mod in (lazy, whole):
            cells._coeff_terms(pres, extremal_vector(mod, word[:k]), lam, 0)
        sizes.append(len(lazy.basis))
    assert sizes[0] < sizes[-1] and sizes[0] < len(whole.basis)
    assert lazy._node_memo == whole._node_memo
    assert lazy._leaf_memo == whole._leaf_memo


MODULE_MEMOS = (
    "_extremal_memo",
    "_node_memo",
    "_leaf_memo",
    "_leaf_values",
    "_target_memo",
    "_solve_memo",
)


def held(obj):
    """obj and everything reachable from it through dicts, lists and tuples."""
    stack = [obj]
    while stack:
        o = stack.pop()
        yield o
        if isinstance(o, dict):
            stack += [*o.keys(), *o.values()]
        elif isinstance(o, (list, tuple)):
            stack += o


def test_descent_memos_hold_no_vectors(monkeypatch, capsys):
    """After a short sweep no module memo holds a ModuleVector or a module,
    so no memo points back at a module, and every memo is filled on some
    module.  The descent memos map right keys to dicts of int path codes,
    with bools in the node memo and field scalars in the leaf memo; the
    extremal memo maps a weight to a coefficient list of that weight
    space."""
    assert set(MODULE_MEMOS) == {
        name for name in hwmod.HWModule.__slots__ if name.endswith(("_memo", "_values"))
    }
    datum = build_root_datum("B2")
    fresh_caches(monkeypatch, datum)
    assert cli.main(["sweep", "--cartan", "B2"]) == 0
    capsys.readouterr()
    mods = [m for m in datum._module_cache.values() if m is not None]
    # a shadow the screen built stays in the cache, its memos filled
    assert any(isinstance(m.field, hwmod._Shadow) and m._node_memo for m in mods)
    for name in MODULE_MEMOS:
        assert any(getattr(mod, name) for mod in mods), name
        for mod in mods:
            kinds = {type(x) for x in held(getattr(mod, name))}
            assert not kinds & {hwmod.ModuleVector, hwmod.HWModule}, (name, mod)
    scalars = (ScalarQ, int)
    for mod in mods:
        for memo, kind in ((mod._node_memo, bool), (mod._leaf_memo, scalars)):
            for rkey, inner in memo.items():
                mu, s = rkey[:2]
                assert isinstance(mu, Weight) and 0 <= s < mod.dim_of(mu)
                assert all(type(code) is int for code in inner)
                assert all(isinstance(v, kind) for v in inner.values())
        for mu, coeffs in mod._extremal_memo.items():
            assert isinstance(mu, Weight) and len(coeffs) == mod.dim_of(mu)
            assert all(isinstance(c, scalars) for c in coeffs)


# ------------------------------------------------------- predicted monomials

def test_theorem_instance_exponents():
    assert theorem_instance(A2, (1, 2, 1), 1) == (1,)
    assert theorem_instance(A2, (1, 2, 1), 2) == (1, 1)
    assert theorem_instance(A2, (1, 2, 1), 3) == (0, 1, 1)


def test_exponents_match_root_side_pairings():
    # <w h_i, mu> = (mu, w alpha_i) / d_i, evaluated on the root side
    rng = random.Random(21)
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "G2"]:
        dat = build_root_datum(name)
        elements = weyl_elements(dat)
        for _ in range(10):
            word = rng.choice(reduced_words(dat, rng.choice(elements)))

            def pairing(j, mu):
                beta = weyl_act_root(dat, word[:j], dat.alpha(word[j - 1]))
                got = dat.sym_pair(mu, beta)
                assert got % dat.di(word[j - 1]) == 0
                return got // dat.di(word[j - 1])

            for k in range(1, len(word) + 1):
                target = weyl_act(dat, word[:k], dat.fundamental(word[k - 1]))
                want = tuple(pairing(j, target) for j in range(1, k + 1))
                assert theorem_instance(dat, word, k) == want
            if len(word) <= 5:
                lam = dat.fundamental(rng.choice(list(dat.index_set)))
                wlam = weyl_act(dat, word, lam)
                want = tuple(pairing(j, wlam) for j in range(1, len(word) + 1))
                [(exps, _c)] = feigin_minor(TorusPresentation(dat, word), lam).terms.items()
                assert exps == want


def test_theorem_instance_rejects_bad_input():
    with pytest.raises(ValueError):
        theorem_instance(A2, (1, 1), 1)
    with pytest.raises(ValueError):
        theorem_instance(A2, (1, 2), 3)


def test_theorem_instance_check_survives_optimized_mode(child_env):
    # under -O an assert would vanish; a wrong final exponent must still raise
    script = (
        "import qcells.cells as c\n"
        "from qcells.cartan import build_root_datum, walk_word\n"
        "def doubled(*args):\n"
        "    exps, end = walk_word(*args)\n"
        "    return tuple(2 * x for x in exps), end\n"
        "c.walk_word = doubled\n"
        "try:\n"
        "    c.theorem_instance(build_root_datum('A2'), (1, 2, 1), 2)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr


def test_theorem_monomial_strings():
    assert torus_str(theorem_monomial(P1, 1)) == "q^1 · t1^-1"
    got = [torus_str(theorem_monomial(P121, k)) for k in (1, 2, 3)]
    assert got == ["q^1 · t1^-1", "q^2 · t1^-1 t2^-1", "q^2 · t2^-1 t3^-1"]


# ------------------------------------------------------------- presentations

def test_presentations_found_and_unique():
    # the presenting vector is unique on these ranges: the minors of the
    # basis of its weight space have independent images
    expect = {1: (0, 1), 2: (0, 2), 3: (0, 1), 4: (1, 0)}
    for k, coords in expect.items():
        p = find_presentation(PB, k)
        assert p.lam.coords == coords
        assert not p.is_zero()
        mod = p.mod
        mup = p.weight()
        uw = extremal_vector(mod, PB.letters)
        cols = [
            feigin_matrix_coeff(PB, uw, mod.basis_vector(mup, s))
            for s in range(mod.dim_of(mup))
        ]
        support = sorted({e for col in cols for e in col.terms})
        rows = [[col.terms.get(e, S_ZERO) for col in cols] for e in support]
        assert column_dependencies(rows, RationalFunctions)[0] == list(range(len(cols)))


# instances whose exact search rejects candidates before a winner with a
# weight space of dimension r >= 2
SYSTEM_CASES = [
    ("B2", (1, 2, 1, 2), 2),
    ("G2", (2, 1, 2, 1, 2), 3),
    ("C3", (2, 3, 2, 1, 3), 2),
]


def path_of(word, a):
    """The path of an exponent vector: its nonzero (letter, a_k) pairs, the
    rightmost position first."""
    return tuple((word[k], a[k]) for k in reversed(range(len(a))) if a[k])


def distinct_rows(rows, rhs):
    return {tuple(str(x) for x in row + [b]) for row, b in zip(rows, rhs)}


def split(system):
    """The rows A and right-hand side b of a _system, as lists."""
    return [row for row, _ in system.values()], [b for _, b in system.values()]


@pytest.mark.parametrize("cartan, word, k", SYSTEM_CASES)
def test_path_keyed_system_solves_like_exponent_keyed(cartan, word, k):
    """On every candidate the exact search solves, the system of _system,
    each distinct row once, has the distinct rows of the system with one row
    per exponent vector built from feigin_matrix_coeff images, and no more
    rows than there are distinct paths; solve_linear gives the same
    coordinates, or None, on both; None exactly where b's column is in the
    profile of the exponent-keyed [A | b]."""
    datum = build_root_datum(cartan)
    pres = TorusPresentation(datum, word)
    varpi = datum.fundamental(word[k - 1])
    mod_k = get_module(datum, varpi)
    target_left = extremal_vector(mod_k, word[:k])
    target = feigin_matrix_coeff(pres, target_left, mod_k.highest()).terms
    target_paths = cells._coeff_terms(pres, target_left, varpi, 0)
    shift = weyl_act(datum, word[:k], varpi) - varpi
    outcomes = []
    for lamp in cells._candidate_weights(datum.rank, word[k - 1], 3):
        mup = weyl_act(datum, word, lamp) - shift
        mod = get_module(datum, lamp)
        r = mod.dim_of(mup)
        if not r:
            continue
        uw = extremal_vector(mod, word)
        cols = [feigin_matrix_coeff(pres, uw, mod.basis_vector(mup, s)).terms for s in range(r)]
        keys = sorted(set(target).union(*cols))
        rows = [[col.get(a, S_ZERO) for col in cols] for a in keys]
        rhs = [target.get(a, S_ZERO) for a in keys]
        new_rows, new_rhs = split(cells._system(pres, uw, mup, target_paths))
        assert len(new_rows) <= len({path_of(word, a) for a in keys})
        assert len(new_rows) == len(distinct_rows(rows, rhs))
        assert distinct_rows(new_rows, new_rhs) == distinct_rows(rows, rhs)
        got = solve_linear(new_rows, new_rhs)
        assert got == solve_linear(rows, rhs)
        aug = [row + [b] for row, b in zip(rows, rhs)]
        profile = column_dependencies(aug, RationalFunctions)[0]
        assert (got is None) == (r in profile)
        outcomes.append((got is not None, r, len(rows) > len(new_rows)))
        if got is not None:
            break
    won, r, _ = outcomes[-1]
    assert won and r >= 2
    assert not all(solved for solved, _, _ in outcomes)
    assert any(fewer for _, _, fewer in outcomes)


@pytest.mark.parametrize("cartan, max_length", [("B2", 4), ("G2", 6), ("C3", 5)])
def test_target_row_check_rejects_where_the_solve_does(monkeypatch, cartan, max_length):
    """On every candidate of every instance that reaches the exact system,
    the target-row check rejects exactly where solve_linear of the full
    _system returns None; the searches with and without the check reach the
    same candidates, in the same order, and find the same winners.  Some
    rejection falls on a weight space of dimension > 1, where the check
    rests on the form being nondegenerate beyond a 1 x 1 Gram block."""
    datum = build_root_datum(cartan)
    real_check, real_solve = cells._target_row_zero, cells._solve
    real_instance = cells._check_instance
    reached = [], []
    current, wide = [], []

    def instance(pres, k):
        current[:] = [pres]
        return real_instance(pres, k)

    def checked(uw, target):
        rejected = real_check(uw, target)
        pres = current[0]
        # the columns' weight space is uw's weight plus a target path's content
        mup = uw.weight()
        for i, a in next(iter(target)):
            mup = mup + datum.alpha_weight(i).scaled(a)
        rows, rhs = split(cells._system(pres, uw, mup, target))
        assert rejected == (solve_linear(rows, rhs) is None), (pres.letters, uw.mod.lam)
        reached[0].append((pres.letters, uw.mod.lam, mup, rejected))
        if rejected and uw.mod.dim_of(mup) > 1:
            wide.append(mup)
        return rejected

    def solved(pres, uw, mup, target):
        x = real_solve(pres, uw, mup, target)
        reached[1].append((pres.letters, uw.mod.lam, mup, x is None))
        return x

    runs = []
    for check, solve in ((checked, real_solve), (lambda *args: False, solved)):
        with monkeypatch.context() as m:
            m.setattr(cells, "_check_instance", instance)
            m.setattr(cells, "_target_row_zero", check)
            m.setattr(cells, "_solve", solve)
            fresh_caches(m, datum)
            runs.append(search_all(datum, max_length))
    assert runs[0] == runs[1]
    assert reached[0] == reached[1]
    assert any(rejected for *_, rejected in reached[0])
    assert wide


def as_system(rows, rhs):
    """The distinct augmented rows of A x = b over Q(q) in the form _system
    returns them, whose key set is the _solve_memo key of the system."""
    key = RationalFunctions.key
    return {(*map(key, row), key(b)): (row, b) for row, b in zip(rows, rhs)}


def test_memoized_solve_equals_a_fresh_one(monkeypatch):
    """Warming the modules over C3 words of length 5 runs solve_linear once
    per distinct row set of a module.  Then the search solves no system
    again, and each memo entry equals solve_linear of that word's own rows;
    the same rows shuffled hit, and a system with one changed
    right-hand side misses and is solved once, unless an earlier instance's
    changed system had its row set, which some do."""
    datum = build_root_datum("C3")
    fresh_caches(monkeypatch, datum)
    elements = [w for w in weyl_elements(datum, 5) if len(w) == 5]
    words = [word for w in elements for word in reduced_words(datum, w)]
    instances = [(word, k) for word in words for k in range(1, len(word) + 1)]
    calls = []
    real_solve = cells._solve

    def solve(pres, uw, mup, target):
        calls.append([uw.mod])
        return real_solve(pres, uw, mup, target)

    def counted(rows, rhs):
        calls[-1].append(frozenset(as_system(rows, rhs)))
        return solve_linear(rows, rhs)

    with monkeypatch.context() as m:
        m.setattr(cells, "_solve", solve)
        m.setattr(cells, "solve_linear", counted)
        for word, k in instances:
            find_presentation(TorusPresentation(datum, word), k)
    # each _solve call runs solve_linear at most once, and never on a row
    # set that its module has solved
    assert all(len(call) <= 2 for call in calls)
    solved = [(id(call[0]), call[1]) for call in calls if len(call) == 2]
    assert len(solved) == len(set(solved)) < len(calls)

    calls = []
    monkeypatch.setattr(
        cells, "solve_linear", lambda rows, rhs: calls.append(1) or solve_linear(rows, rhs)
    )
    rng = random.Random(5)
    real_system = cells._system
    misses = 0
    for word, k in instances:
        pres = TorusPresentation(datum, word)
        p = find_presentation(pres, k)
        assert not calls
        varpi = datum.fundamental(word[k - 1])
        mod_k, mod = get_module(datum, varpi), p.mod
        target = cells._coeff_terms(pres, extremal_vector(mod_k, word[:k]), varpi, 0)
        uw, mup = extremal_vector(mod, word), p.weight()
        system = real_system(pres, uw, mup, target)
        rows, rhs = split(system)
        assert mod._solve_memo[frozenset(system)] == solve_linear(rows, rhs) == p.coeffs
        # the same rows in another order
        items = list(system.items())
        rng.shuffle(items)
        again = dict(items)
        with monkeypatch.context() as m:
            m.setattr(cells, "_system", lambda *args: again)
            assert cells._solve(pres, uw, mup, target) == p.coeffs
        assert not calls
        # one right-hand side changed: another row set, which misses unless
        # an earlier instance's changed system had it, and is solved once
        changed = as_system(rows, [rhs[0] + ScalarQ.q_power(1)] + rhs[1:])
        assert frozenset(changed) != frozenset(system)
        miss = frozenset(changed) not in mod._solve_memo
        misses += miss
        with monkeypatch.context() as m:
            m.setattr(cells, "_system", lambda *args: changed)
            assert cells._solve(pres, uw, mup, target) == solve_linear(*split(changed))
        assert len(calls) == miss
        calls.clear()
    # some changed systems repeat an earlier instance's row set, and hit
    hits = len(instances) - misses
    assert hits > 0 and misses > 0


@pytest.mark.parametrize("cartan, max_length", [("G2", None), ("C3", 6)])
def test_shared_solves_equal_fresh_ones(monkeypatch, cartan, max_length):
    """Over full G2 and C3 <= 6, every find_presentation result on modules
    whose _solve_memo the earlier instances filled equals the one found with
    every _solve_memo emptied before that instance; some warm solves are
    answered by a row set that another instance solved."""
    datum = build_root_datum(cartan)
    fresh_caches(monkeypatch, datum)
    calls = []
    monkeypatch.setattr(
        cells, "solve_linear", lambda rows, rhs: calls.append(1) or solve_linear(rows, rhs)
    )
    warm_calls = fresh_calls = 0
    for w in weyl_elements(datum, max_length):
        for word in reduced_words(datum, w) if w else ():
            for k in range(1, len(word) + 1):
                calls.clear()
                warm = find_presentation(TorusPresentation(datum, word), k)
                warm_calls += len(calls)
                mods = [mod for mod in datum._module_cache.values() if mod is not None]
                saved = [mod._solve_memo for mod in mods]
                for mod in mods:
                    mod._solve_memo = {}
                calls.clear()
                fresh = find_presentation(TorusPresentation(datum, word), k)
                fresh_calls += len(calls)
                assert [mod for mod in datum._module_cache.values() if mod is not None] == mods
                for mod, memo in zip(mods, saved):
                    mod._solve_memo = memo
                assert fresh.lam == warm.lam and fresh.mod is warm.mod
                assert fresh.weight() == warm.weight()
                assert fresh.coeffs == warm.coeffs
    assert 0 < warm_calls < fresh_calls


@pytest.mark.parametrize("cartan, max_length", [("C3", 5), ("G2", None)])
def test_both_stages_eliminate_distinct_rows(monkeypatch, cartan, max_length):
    """Over the C3 <= 5 and full G2 searches, every matrix the screen
    eliminates over GF(p) and every system the exact stage solves over Q(q)
    has no repeated row, and both stages eliminate some system with several
    rows.  Full G2 has screens whose paths repeat a row."""
    datum = build_root_datum(cartan)
    fresh_caches(monkeypatch, datum)
    key = RationalFunctions.key
    screened, solved = [], []

    def screen(rows, field):
        screened.append(len(rows))
        assert len({tuple(row) for row in rows}) == len(rows)
        return column_dependencies(rows, field)

    def solve(rows, rhs):
        solved.append(len(rows))
        aug = {(*map(key, row), key(b)) for row, b in zip(rows, rhs)}
        assert len(aug) == len(rows)
        return solve_linear(rows, rhs)

    monkeypatch.setattr(cells, "column_dependencies", screen)
    monkeypatch.setattr(cells, "solve_linear", solve)
    search_all(datum, max_length)
    assert max(screened) > 1 and max(solved) > 1


def test_target_row_check_rejects_every_empty_weight_space(monkeypatch, capsys):
    """The exact stage of the search has no exit for an empty weight space
    mu' of V(lam'): over the C3 <= 6 sweep _target_row_zero rejects every
    such candidate, as no e-power of u_{w lam'} lands on a weight that
    V(lam') lacks, and the target, the image of a nonzero minor, is never
    empty.  Emptiness is read from complete modules, so the sweep's own
    modules are not extended."""
    datum = build_root_datum("C3")
    fresh_caches(monkeypatch, datum)
    real_screen, real_check = cells._screened_out, cells._target_row_zero
    screened, whole, empty = [], {}, []

    def screen(pres, lamp, mup, target):
        screened.append((lamp, mup, target))
        return real_screen(pres, lamp, mup, target)

    def check(uw, target):
        # the screen runs for every candidate, just before its exact stage
        lamp, mup, screened_target = screened[-1]
        assert uw.mod.lam == lamp and target is screened_target and target
        if lamp not in whole:
            whole[lamp] = build_module(datum, lamp)
        rejected = real_check(uw, target)
        if whole[lamp].dim_of(mup) == 0:
            assert rejected, (lamp, mup)
            empty.append(mup)
        return rejected

    monkeypatch.setattr(cells, "_screened_out", screen)
    monkeypatch.setattr(cells, "_target_row_zero", check)
    assert cli.main(["sweep", "--cartan", "C3", "--max-length", "6"]) == 0
    capsys.readouterr()
    assert empty


def test_target_row_memo_equals_fresh_e_powers(monkeypatch, capsys):
    """After C3 <= 6 sweeps every target-row memo entry, a bool under u_{w
    lam'}'s weight and value and then a path, is whether e^{P*} u_{w lam'}
    is zero, recomputed; a sweep that repeats the last one's route applies
    no e-power in the check; and the gcd cache holds at most its bound.

    The second sweep searches exactly some candidates that the first
    screened while their module was not built yet, so it is the third that
    repeats the second's route."""
    datum = build_root_datum("C3")
    fresh_caches(monkeypatch, datum)
    argv = ["sweep", "--cartan", "C3", "--max-length", "6", "--format", "json"]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    entries = 0
    for mod in filter(None, datum._module_cache.values()):
        for (mu, value), inner in mod._target_memo.items():
            uw = hwmod.ModuleVector(mod, mu, mod._extremal_memo[mu])
            assert tuple(map(mod.field.key, uw.coeffs)) == value
            for path, zero in inner.items():
                v = uw
                for i, a in reversed(path):
                    for _ in range(a):
                        v = hwmod.act_e(i, v)
                assert type(zero) is bool and zero == v.is_zero()
                entries += 1
    assert entries
    calls = []
    monkeypatch.setattr(cells, "act_e", lambda i, v: calls.append(i) or hwmod.act_e(i, v))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == outs[0]
    assert not calls
    info = qscalars._cofactors.cache_info()
    assert info.maxsize == qscalars._COFACTORS_MAX and 0 < info.currsize <= info.maxsize


def test_presentation_error_reports_candidates():
    err = PresentationError([(1, 0), (0, 1)])
    assert err.tried == [(1, 0), (0, 1)]
    assert "candidates tried" in str(err)


def product_candidates(rank, ik, cap):
    """The lam' candidates by filtering every (t+1)^rank tuple by its sum t."""
    varpi = [Weight(tuple(int(i == j) for i in range(rank))) for j in range(rank)]
    out = [varpi[ik - 1]] + [varpi[ik - 1] + v for v in varpi]
    for total in range(1, cap + 1):
        for coords in itertools.product(range(total + 1), repeat=rank):
            if sum(coords) == total:
                out.append(Weight(coords))
    return list(dict.fromkeys(out))


def test_candidates_are_generated_lazily_in_product_order():
    """The lam' candidates come in the product-and-filter order, repeats
    dropped, and are generated as the search asks for them: a cap of 40 on
    rank 4, whose product order filters 41^4 tuples for its last sum alone,
    yields its first candidate at once."""
    for rank in range(1, 5):
        for ik in range(1, rank + 1):
            for cap in range(5):
                got = list(cells._candidate_weights(rank, ik, cap))
                assert got == product_candidates(rank, ik, cap)
    start = time.process_time()
    first = next(iter(cells._candidate_weights(4, 2, 40)))
    assert time.process_time() - start < 0.5
    assert first == Weight((0, 1, 0, 0))


def test_capped_candidate_is_tried_and_skipped(monkeypatch):
    # V(0,2) (dim 10) presents k = 2; over a cap of 5 it is listed and skipped
    monkeypatch.setattr(hwmod, "DIM_CAP", 5)
    monkeypatch.setattr(cells, "get_module", build_module)
    with pytest.raises(PresentationError) as err:
        find_presentation(PB, 2)
    assert err.value.tried == [
        (1, 0), (2, 0), (1, 1), (0, 1), (0, 2), (0, 3), (1, 2), (2, 1), (3, 0)
    ]


def test_build_failure_propagates_from_search(monkeypatch):
    def broken(datum, lam):
        if lam == Weight((1, 0)):
            return get_module(datum, lam)
        raise ValueError("matrix is singular")

    monkeypatch.setattr(cells, "get_module", broken)
    with pytest.raises(ValueError, match="singular"):
        find_presentation(PB, 2)


# ---------------------------------------------------------- the GF(p) screen
def fresh_caches(monkeypatch, datum):
    monkeypatch.setattr(datum, "_module_cache", {})


def search_all(datum, max_length):
    found = []
    for w in weyl_elements(datum, max_length):
        for word in reduced_words(datum, w) if w else ():
            pres = TorusPresentation(datum, word)
            for k in range(1, len(word) + 1):
                p = find_presentation(pres, k)
                found.append((word, k, p.lam.coords, [str(c) for c in p.coeffs]))
    return found


def test_screen_matches_exact_search(monkeypatch, capsys):
    """With the screen on and off, the A3 and G2 (length <= 4) searches find
    the same lam' and coefficients and the sweeps print the same stdout; the
    screen rejects candidates, but never an exact winner."""
    real = cells._screened_out
    verdicts = []

    def spy(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    for name, max_length in (("A3", None), ("G2", 4)):
        datum = build_root_datum(name)
        argv = ["sweep", "--cartan", name, "--format", "json"]
        if max_length:
            argv += ["--max-length", str(max_length)]
        runs = []
        for screen in (spy, lambda *args: False):
            monkeypatch.setattr(cells, "_screened_out", screen)
            fresh_caches(monkeypatch, datum)
            found = search_all(datum, max_length)
            fresh_caches(monkeypatch, datum)
            code = cli.main(argv)
            runs.append((found, code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        assert runs[0][1] == 0

        for word, k, coords, _coeffs in runs[0][0]:
            pres = TorusPresentation(datum, word)
            varpi = datum.fundamental(word[k - 1])
            mod_k = get_module(datum, varpi)
            target = cells._coeff_terms(pres, extremal_vector(mod_k, word[:k]), varpi, 0)
            lamp = Weight(coords)
            mup = weyl_act(datum, word, lamp) - weyl_act(datum, word[:k], varpi) + varpi
            assert not real(pres, lamp, mup, target), (name, word, k)
    # G2 up to length 4 needs no second candidate; A3 rejects some
    assert True in verdicts


def test_modular_point_changes_no_output(monkeypatch, capsys):
    """The GF(p) point only screens.  With p = 5 and q0 = 2, where many
    shadows give up or lose rank, the A3 sweep prints the same JSON and the
    exact modules have the same bases as at the default point."""
    cases = (("A2", (1, 1)), ("A3", (1, 1, 1)), ("C3", (1, 1, 0)))
    runs = []
    for p, q0 in ((hwmod._PROFILE_P, hwmod._PROFILE_Q0), (5, 2)):
        monkeypatch.setattr(hwmod, "_PROFILE_P", p)
        monkeypatch.setattr(hwmod, "_PROFILE_Q0", q0)
        bases = []
        for name, coords in cases:
            datum = build_root_datum(name)
            fresh_caches(monkeypatch, datum)
            bases.append(completed(get_module(datum, Weight(coords))).basis)
        fresh_caches(monkeypatch, build_root_datum("A3"))
        code = cli.main(["sweep", "--cartan", "A3", "--format", "json"])
        runs.append((bases, code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][1] == 0


def test_certificate_needs_full_column_rank(monkeypatch):
    """The screen certifies a system over GF(p) exactly when its column rank
    profile of [A|b] is all of its columns, for systems of any width fed to
    a screen that reaches its system: B2 word 2,1,2 at k = 2 on V(0,1)."""
    pres, k, lamp, mup = TorusPresentation(B2, (2, 1, 2)), 2, Weight((0, 1)), Weight((0, 1))
    mod_k = get_module(B2, B2.fundamental(pres.letters[k - 1]))
    target = cells._coeff_terms(pres, extremal_vector(mod_k, pres.letters[:k]), mod_k.lam, 0)
    reached = []

    def cert(rows, rhs):
        system = {(*row, b): (row, b) for row, b in zip(rows, rhs)}
        with monkeypatch.context() as m:
            fresh_caches(m, B2)
            m.setattr(cells, "_system", lambda *args: reached.append(1) or system)
            return cells._screened_out(pres, lamp, mup, target)

    assert cert([[1], [0]], [0, 1])
    assert cert([[1, 0], [0, 3], [0, 0]], [1, 3, 1])
    # consistent at q0
    assert not cert([[1]], [5])
    assert not cert([[1, 0], [0, 1]], [3, 4])
    # rank A(q0) < r: the target is outside the columns, but an exact
    # solution may still exist, so nothing is proved
    assert not cert([[1, 2], [0, 0]], [0, 1])
    assert not cert([[0]], [1])
    assert len(reached) == 6


def test_screen_without_certificate_keeps_exact_search(monkeypatch):
    """Shadow columns that lose rank at q0, or a target undefined there,
    prove nothing: every candidate goes to the exact search, which ends
    where it does without the screen."""
    real_terms = cells._coeff_terms

    def collapsed(pres, left, nu, s):
        if isinstance(left.mod.field, hwmod._Shadow):
            return {}
        return real_terms(pres, left, nu, s)

    # the search computes its target path values by _coeff_terms from the
    # highest vector of an exact module; the shadow fails to take exactly
    # those values
    targets, raised = [], []
    real_of = hwmod._Shadow.of

    def recorded(pres, left, nu, s):
        terms = real_terms(pres, left, nu, s)
        if isinstance(left.mod.field, RationalFunctions) and (nu, s) == (left.mod.lam, 0):
            targets.append(terms)
        return terms

    def undefined(field, c):
        if any(c is x for t in targets for x in t.values()):
            raised.append(c)
            raise ZeroDivisionError("target coefficient undefined at q0")
        return real_of(field, c)

    expect = [(P121, 1, (1, 1)), (PB, 1, (0, 1)), (PB, 2, (0, 2)), (PB, 4, (1, 0))]
    for patches in (
        [(cells, "_coeff_terms", collapsed)],
        [(cells, "_coeff_terms", recorded), (hwmod._Shadow, "of", undefined)],
    ):
        with monkeypatch.context() as m:
            for owner, name, patch in patches:
                m.setattr(owner, name, patch)
            for pres, k, coords in expect:
                fresh_caches(m, pres.datum)
                assert find_presentation(pres, k).lam.coords == coords
    assert raised


def test_screen_gives_up_where_a_divided_power_would(monkeypatch):
    """A shadow whose [2]_{q_i} is not invertible at q0 certifies nothing for
    a column of content 2 in letter i, although its plain f-powers are
    defined there: the screen keeps the candidate, and the search ends where
    it does by default."""
    datum = B2
    pres = TorusPresentation(datum, (2, 1, 2))
    k, lamp, mup = 2, Weight((0, 1)), Weight((0, 1))
    mod_k = get_module(datum, datum.fundamental(pres.letters[k - 1]))
    target = cells._coeff_terms(pres, extremal_vector(mod_k, pres.letters[:k]), mod_k.lam, 0)
    # the extremal vector needs no f^{(2)}, while the columns' content does
    assert max(walk_word(datum, pres.letters, lamp)[0]) == 1
    assert datum.weight_to_root(mup - weyl_act(datum, pres.letters, lamp)).coords == (1, 2)
    fresh_caches(monkeypatch, datum)
    assert cells._screened_out(pres, lamp, mup, target)
    default = find_presentation(pres, k)

    real = hwmod._Shadow.of
    inv2 = [hwmod.inv_qint(2, datum.di(i)) for i in datum.index_set]

    def vanishing(self, c):
        if c in inv2:
            raise ZeroDivisionError("[2] vanishes at q0")
        return real(self, c)

    monkeypatch.setattr(hwmod._Shadow, "of", vanishing)
    fresh_caches(monkeypatch, datum)
    assert not cells._screened_out(pres, lamp, mup, target)
    fresh_caches(monkeypatch, datum)
    got = find_presentation(pres, k)
    assert (got.lam, got.coeffs) == (default.lam, default.coeffs)


def test_shadow_that_gives_up_below_its_first_floor_never_certifies(monkeypatch):
    """A screen reads the upper part of a shadow; a later screen needs a
    weight below it, where the shadow gives up.  That screen proves nothing,
    the shadow gives up with no weight decided and unbuilt, the exact module
    replaces it in the cache, and the search ends where the exact search
    does."""
    A3 = build_root_datum("A3")
    lamp, low = Weight((2, 0, 0)), Weight((1, 0, -1))
    first, second = TorusPresentation(A3, (1, 2, 1)), TorusPresentation(A3, (1, 3, 2, 1))
    with monkeypatch.context() as m:
        m.setattr(cells, "_screened_out", lambda *args: False)
        fresh_caches(m, A3)
        want = find_presentation(second, 1)
    fresh_caches(monkeypatch, A3)
    real_screen = cells._screened_out
    verdicts = []

    def spy(pres, lam, mup, target):
        verdicts.append((lam, real_screen(pres, lam, mup, target)))
        return verdicts[-1][1]

    monkeypatch.setattr(cells, "_screened_out", spy)
    # word 1,2,1 at k = 1: the screen rejects V(2,0,0) on its upper weights
    assert find_presentation(first, 1).lam.coords == (1, 1, 0)
    assert (lamp, True) in verdicts
    shadow = A3._module_cache[lamp.coords]
    assert isinstance(shadow.field, hwmod._Shadow)
    assert not shadow.complete and low not in shadow.basis
    real_mult = hwmod._multiplicity
    monkeypatch.setattr(
        hwmod,
        "_multiplicity",
        lambda mod, mu: real_mult(mod, mu) + (mod is shadow and mu == low),
    )
    verdicts.clear()
    # word 1,3,2,1 at k = 1: the screen of V(2,0,0) needs the weight low
    got = find_presentation(second, 1)
    assert (lamp, False) in verdicts
    assert isinstance(A3._module_cache[lamp.coords].field, RationalFunctions)
    assert (got.lam, got.coeffs) == (want.lam, want.coeffs)
    # low is not decided: asking for it extends again, and gives up again
    assert low not in shadow.basis
    with pytest.raises(ZeroDivisionError, match="multiplicity"):
        shadow.dim_of(low)


def test_search_builds_weight_spaces_on_demand(monkeypatch, capsys):
    """The search reads each module only down to the weights its pairings
    reach: after verify on B3 3,2,3,2 the screened shadows and one exact
    module hold fewer weights than their complete modules."""
    datum = build_root_datum("B3")
    fresh_caches(monkeypatch, datum)
    assert cli.main(["verify", "--cartan", "B3", "--word", "3,2,3,2"]) == 0
    capsys.readouterr()
    for c, field in (
        ((1, 1, 0), hwmod._Shadow),
        ((0, 2, 0), hwmod._Shadow),
        ((0, 1, 1), hwmod._Shadow),
        ((0, 0, 2), RationalFunctions),
    ):
        mod = datum._module_cache[c]
        assert isinstance(mod.field, field)
        assert not mod.complete
        assert sum(map(len, mod.basis.values())) < mod.dim == weyl_dim(datum, mod.lam)


# ------------------------------------------------------------------- twist

def test_twist_inverse_image_rank_one():
    mod = get_module(A1, Weight((1,)))
    got = twist_inverse_image(P1, mod.highest())
    assert torus_str(got) == "q^1 · t1^-1"
    low = extremal_vector(mod, (1,))
    assert torus_str(twist_inverse_image(P1, low)) == "1"


# ------------------------------------------------------------ verification

def test_verify_theorem_rank_one():
    rep = verify_theorem(P1, 1)
    assert rep.equal
    assert torus_str(rep.lhs) == "q^1 · t1^-1"
    assert rep.uprime.lam.coords == (1,)


def test_verify_theorem_a2_all_positions():
    lams = {}
    for k in (1, 2, 3):
        rep = verify_theorem(P121, k)
        assert rep.equal
        assert len(rep.lhs.terms) == 1
        lams[k] = rep.uprime.lam.coords
    assert lams == {1: (1, 1), 2: (0, 1), 3: (1, 0)}


def test_verify_theorem_b2_all_positions():
    for k in (1, 2, 3, 4):
        rep = verify_theorem(PB, k)
        assert rep.equal, k


def test_verify_rejects_non_reduced():
    with pytest.raises(ValueError):
        verify_theorem(TorusPresentation(A2, (1, 1)), 1)


def test_report_and_presentation_fields():
    """Positional and keyword construction with the defaults, and equality
    by identity only; a verify_theorem report keeps the search's u'."""
    uprime = verify_theorem(P1, 1).uprime
    assert uprime == find_presentation(P1, 1) and uprime.lam == uprime.mod.lam == Weight((1,))
    lhs, rhs = P1.monomial((0,)), P1.generator(1)
    rep = VerificationReport(lhs, rhs, False)
    assert (rep.lhs, rep.rhs, rep.equal) == (lhs, rhs, False)
    assert (rep.uprime, rep.exponent_match, rep.residual_q_power) == (None,) * 3
    full = VerificationReport(
        lhs=lhs,
        rhs=rhs,
        equal=True,
        uprime=uprime,
        exponent_match=True,
        residual_q_power=-2,
    )
    assert full.uprime is uprime and full.exponent_match and full.residual_q_power == -2
    assert VerificationReport(lhs, rhs, False, uprime, False, 3).residual_q_power == 3
    assert rep == rep and rep != VerificationReport(lhs, rhs, False)


# ------------------------------------------------- word data shared across k

def reduced_proofs(monkeypatch):
    """The words cells proves reduced, one entry per is_reduced call."""
    calls = []
    real = cells.is_reduced
    monkeypatch.setattr(
        cells, "is_reduced", lambda datum, word: calls.append(word) or real(datum, word)
    )
    return calls


def minor_pairings(monkeypatch):
    """The (word, lam coordinates) of each pairing cross-check of a minor,
    the image of (u_{w lam}, x . u_lam); the twist's pairing starts at u',
    whose weight lies above w lam' by w_{<=k} varpi_{i_k} - varpi_{i_k},
    which is not zero."""
    pairs = []
    real = cells.feigin_matrix_coeff

    def counted(pres, left, right):
        lam = right.mod.lam
        if right.weight() == lam and left.weight() == weyl_act(pres.datum, pres.letters, lam):
            pairs.append((pres.letters, lam.coords))
        return real(pres, left, right)

    monkeypatch.setattr(cells, "feigin_matrix_coeff", counted)
    return pairs


def json_records(out):
    return [json.loads(line) for line in out.splitlines() if '"summary"' not in line]


def test_each_presentation_proves_its_word_reduced_once(monkeypatch):
    """A presentation proves its word reduced once, on first use, and every
    position's search, twist, minor and chamber check reads that proof; the
    public theorem_monomial, twist_inverse_image and feigin_minor keep their
    own checks, and reject a word that is not reduced."""
    calls = reduced_proofs(monkeypatch)
    pres = TorusPresentation(B2, PB.letters)
    for k in (1, 2, 3, 4):
        assert chamber_ansatz(pres, k).equal
        rep = verify_theorem(pres, k)
        assert rep.equal
        assert theorem_monomial(pres, k) == rep.rhs
    assert calls == [PB.letters]
    mod = get_module(A2, Weight((1, 0)))
    checks = (
        lambda bad: theorem_monomial(bad, 1),
        lambda bad: twist_inverse_image(bad, mod.highest()),
        lambda bad: feigin_minor(bad, mod.lam),
    )
    for check in checks:
        calls.clear()
        bad = TorusPresentation(A2, (1, 1))
        for _ in range(2):
            with pytest.raises(ValueError, match="reduced"):
                check(bad)
        assert calls == [bad.letters]



def test_word_data_is_computed_once_per_presentation(monkeypatch, capsys):
    """verify --k all and a sweep prove each word reduced once, and pair the
    minor of each distinct (word, lam') of their presentations once; a new
    presentation of the same word computes both again, so no cache outside
    the presentation holds them."""
    proofs = reduced_proofs(monkeypatch)
    pairs = minor_pairings(monkeypatch)
    runs = (
        ["verify", "--cartan", "B3", "--word", "3,2,3,2"],
        ["sweep", "--cartan", "C3", "--max-length", "6"],
    )
    for argv in runs:
        proofs.clear()
        pairs.clear()
        assert cli.main(argv + ["--format", "json"]) == 0
        recs = json_records(capsys.readouterr().out)
        words = list(dict.fromkeys(tuple(rec["word"]) for rec in recs))
        presented = {(tuple(rec["word"]), tuple(rec["presentation"]["lambda"])) for rec in recs}
        assert proofs == words
        assert sorted(pairs) == sorted(presented)
        # some lam' repeats across the positions of a word
        assert len(presented) < len(recs)
    # the sweep proved every reduced word of length <= 6
    assert len(words) == sum(len(reduced_words(C3, w)) for w in weyl_elements(C3, 6) if w)

    proofs.clear()
    pairs.clear()
    word = (3, 2, 3, 2)
    for _ in range(2):
        pres = TorusPresentation(B3, word)
        for k in (1, 2, 3, 4):
            assert verify_theorem(pres, k).equal
    assert proofs == [word, word]
    assert len(pairs) == 2 * 3


def test_dropped_presentation_is_freed_by_refcounting():
    """Nothing a presentation keeps points back at it: with the cycle
    collector off, a presentation that ran every position is freed when its
    last reference goes, as a sweep drops each word's."""

    def live():
        return {id(o) for o in gc.get_objects() if isinstance(o, TorusPresentation)}

    gc.collect()
    before = live()
    gc.disable()
    try:
        pres = TorusPresentation(B3, (3, 2, 3, 2))
        for k in (1, 2, 3, 4):
            assert verify_theorem(pres, k).equal
            assert chamber_ansatz(pres, k).equal
        assert feigin_minor(pres, Weight((0, 1, 0))).pres is pres
        assert pres._memo
        del pres
        left = live() - before
    finally:
        gc.enable()
    assert left == set()


@pytest.mark.parametrize("cartan, word", [("G2", "1,2,1,2,1,2"), ("B3", "3,2,3,2")])
def test_all_positions_print_the_single_position_records(capsys, cartan, word):
    """verify --k all, on one presentation, prints the records of one --k j
    run per position, each on its own presentation, concatenated."""

    def verify(k):
        argv = ["verify", "--cartan", cartan, "--word", word, "--k", k, "--format", "json"]
        return cli.main(argv), capsys.readouterr().out

    code, shared = verify("all")
    assert code == 0
    singles = [verify(str(k)) for k in range(1, word.count(",") + 2)]
    assert [c for c, _ in singles] == [0] * len(singles)
    assert shared == "".join(out for _, out in singles)


@pytest.mark.parametrize("datum, word", [(G2, (1, 2, 1, 2, 1, 2)), (B3, (3, 2, 3, 2))])
def test_shared_presentation_in_reverse_order_equals_fresh_ones(datum, word):
    """verify_theorem and chamber_ansatz give one presentation's positions,
    last first, the reports they give on a fresh presentation each."""
    shared = TorusPresentation(datum, word)
    for k in range(len(word), 0, -1):
        for check in (verify_theorem, chamber_ansatz):
            got = check(shared, k)
            want = check(TorusPresentation(datum, word), k)
            assert got.equal == want.equal
            assert got.lhs == want.lhs and got.rhs == want.rhs
            assert (got.exponent_match, got.residual_q_power) == (
                want.exponent_match,
                want.residual_q_power,
            )
            if check is verify_theorem:
                assert got.uprime.lam == want.uprime.lam
                assert got.uprime.coeffs == want.uprime.coeffs


# --------------------------------------------------------- generator recovery

def test_chamber_ansatz_recovers_generators():
    residuals = {}
    for k in (1, 2, 3):
        rep = chamber_ansatz(P121, k)
        assert rep.equal
        assert rep.exponent_match
        residuals[k] = rep.residual_q_power
    assert residuals == {1: -1, 2: -1, 3: 0}


def test_chamber_ansatz_b2_residuals():
    got = {k: chamber_ansatz(PB, k).residual_q_power for k in (1, 2, 3, 4)}
    assert got == {1: -1, 2: -3, 3: 0, 4: -2}
    assert all(chamber_ansatz(PB, k).exponent_match for k in (1, 2, 3, 4))


def test_chamber_ansatz_rank_one_residual():
    rep = chamber_ansatz(P1, 1)
    assert rep.equal and rep.exponent_match
    assert rep.residual_q_power == -1


def torus_inverse(x):
    """The inverse of a monomial torus element by TorusElement products
    alone: t^-e x is a scalar c, so x^-1 = c^-1 t^-e."""
    [(e, _)] = x.terms.items()
    neg = x.pres.monomial(tuple(-u for u in e))
    [(_, c)] = (neg * x).terms.items()
    return neg.scaled(c.inverse())


@pytest.mark.parametrize("datum, max_len", [(G2, 6), (C3, 6)], ids=["G2", "C3"])
def test_pair_route_matches_torus_element_route(datum, max_len):
    """chamber_ansatz and twist_inverse_image, which multiply monomials as
    (exponents, q-exponent) pairs, give the reports and images of the same
    products formed from TorusElement monomials, on every instance of full
    G2 and C3 <= 6."""
    count = 0
    for w in weyl_elements(datum, max_len):
        for word in reduced_words(datum, w) if w else ():
            pres = TorusPresentation(datum, word)
            n = len(word)
            for k in range(1, n + 1):
                ik = word[k - 1]

                def dprime(upto, j):
                    for m in range(upto, 0, -1):
                        if word[m - 1] == j:
                            return theorem_monomial(pres, m)
                    return pres.monomial((0,) * pres.nvars)

                prod = torus_inverse(dprime(k - 1, ik)) * torus_inverse(dprime(k, ik))
                for j in datum.index_set:
                    if j != ik and datum.aij(j, ik) < 0:
                        for _ in range(-datum.aij(j, ik)):
                            prod = prod * dprime(k, j)
                [(exps, coeff)] = prod.terms.items()
                residual = coeff.as_q_power()
                rhs = pres.generator(k).scaled(ScalarQ.q_power(residual))
                rep = chamber_ansatz(pres, k)
                assert rep.lhs == prod and rep.rhs == rhs
                assert rep.equal == class_equal(prod, rhs)
                assert rep.exponent_match == (exps == tuple(int(m == k - 1) for m in range(n)))
                assert rep.residual_q_power == residual

                p = find_presentation(pres, k)
                wlamp = weyl_act(datum, word, p.lam)
                nu = datum.weight_to_root(p.weight() - wlamp)
                part = feigin_matrix_coeff(pres, p, p.mod.highest())
                want = (torus_inverse(feigin_minor(pres, p.lam)) * part).scaled(
                    ScalarQ.q_power(datum.sym_pair(p.lam, nu))
                )
                assert twist_inverse_image(pres, p) == want
                count += 1
    assert count == {"G2": 42, "C3": 399}[datum.name]


# ----------------------------------------------------------- multiplication

def test_ore_commutation_small():
    assert ore_commutation_check(P1, Weight((1,)), Weight((1,)))
    assert ore_commutation_check(P121, Weight((1, 0)), Weight((0, 1)))
    assert ore_commutation_check(P121, Weight((1, 1)), Weight((1, 0)), samples=4)
    assert ore_commutation_check(PB, Weight((1, 0)), Weight((0, 1)), samples=4)


# ------------------------------------------------------------ representatives

def test_minor_representative_realizes_functional():
    for pres, coords in ((P121, (1, 0)), (PB, (0, 1))):
        datum = pres.datum
        lam = Weight(coords)
        mod = get_module(datum, lam)
        left = extremal_vector(mod, pres.letters)
        rep = minor_representative(left, mod.highest())
        from qcells.freeuq import words_of_weight

        diff = datum.weight_to_root(mod.highest().weight() - left.weight())
        for z in words_of_weight(datum, -diff):
            lhs = lusztig_form(rep, FreeNegElement.word(datum, z))
            rhs = contravariant_form(left, act_word(z, mod.highest()))
            assert lhs == rhs


def test_minor_representative_zero_off_lattice():
    mod = get_module(A2, Weight((1, 0)))
    # left weight above right weight: no word can connect them
    low = extremal_vector(mod, (1, 2))
    assert minor_representative(mod.highest(), low).is_zero()
    assert not minor_representative(low, mod.highest()).is_zero()
