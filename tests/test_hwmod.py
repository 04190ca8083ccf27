"""Tests for integrable highest weight modules: dimensions, the
contravariant form, divided powers, extremal vectors, and braid operators."""

from __future__ import annotations

import gc
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcells import cells, hwmod
from qcells.cartan import (
    RootDatum,
    RootVector,
    Weight,
    build_root_datum,
    dominant_conjugate,
    reduced_words,
    weyl_dim,
    weyl_elements,
    word_exponents,
)
from qcells.hwmod import (
    act_e,
    act_f,
    act_f_divided,
    braid_T,
    braid_T_inv,
    build_module,
    contravariant_form,
    divided_powers,
    extremal_by_braid,
    extremal_vector,
    get_module,
    gram_block,
    shadow_module,
)
from qcells.cells import find_presentation
from qcells.linalg import RationalFunctions, column_dependencies, solve_linear
from qcells.qtorus import TorusPresentation
from qcells.scalars import LaurentQ, ScalarQ

A1 = build_root_datum("A1")
A2 = build_root_datum("A2")
B2 = build_root_datum("B2")
G2 = build_root_datum("G2")

ONE = ScalarQ(1)


def exact_dependencies(rows):
    """The elimination over Q(q)."""
    return column_dependencies(rows, RationalFunctions)


def shadow_dependencies(rows):
    """The elimination over the shadow's field GF(p)."""
    return column_dependencies(rows, hwmod._Shadow())


def completed(mod):
    """mod with every weight space built: asking for the lowest weight
    w0 lam extends a cached module to the bottom."""
    mod.dim_of(-dominant_conjugate(mod.datum, -mod.lam)[1])
    return mod


def grams(mod):
    """Every Gram block of mod's built weight spaces, in their order, read
    through gram_block."""
    return {mu: gram_block(mod, mu) for mu in mod.basis}


def rand_vector(mod, mu, rng):
    """A random vector of weight mu: each basis coordinate q^c for a random
    c in -2..2, or zero for c = 0."""
    out = mod.zero()
    for s in range(mod.dim_of(mu)):
        c = rng.randrange(-2, 3)
        if c:
            out = out + mod.basis_vector(mu, s).scaled(ScalarQ.q_power(c))
    return out


def test_dimensions_match_weyl_formula():
    cases = [
        (A1, (4,), 5),
        (A2, (1, 0), 3),
        (A2, (1, 1), 8),
        (A2, (2, 1), 15),
        (B2, (1, 0), 5),
        (B2, (0, 1), 4),
        (B2, (1, 1), 16),
        (G2, (1, 0), 7),
        (G2, (0, 1), 14),
    ]
    for datum, coords, dim in cases:
        lam = Weight(coords)
        mod = completed(get_module(datum, lam))
        assert mod.dim == dim == weyl_dim(datum, lam)
        assert sum(mod.dim_of(mu) for mu in mod.basis) == dim


def test_highest_vector_is_normalized():
    for datum, coords in ((A2, (1, 1)), (B2, (0, 1)), (G2, (1, 0))):
        mod = get_module(datum, Weight(coords))
        u = mod.highest()
        assert u.weight() == Weight(coords)
        assert contravariant_form(u, u) == ONE
        for i in datum.index_set:
            assert act_e(i, u).is_zero()


def test_gram_adjoint_zero_weight_space():
    mod = completed(get_module(A2, Weight((1, 1))))
    g = gram_block(mod, Weight((0, 0)))
    two = ScalarQ(LaurentQ({1: 1, -1: 1}))
    assert g == [[two, ONE], [ONE, two]]


def test_gram_inverse_is_exact():
    """Every Gram matrix is invertible over Q(q): G x = e_j has an exact
    solution x for each j, and G x is e_j again."""
    mod = completed(get_module(B2, Weight((1, 1))))
    for mu in mod.basis:
        n = mod.dim_of(mu)
        g = gram_block(mod, mu)
        for j in range(n):
            e_j = [ONE if i == j else ScalarQ(0) for i in range(n)]
            x = solve_linear(g, e_j)
            assert x is not None
            assert [RationalFunctions.dot(row, x) for row in g] == e_j


def test_form_is_contravariant_and_symmetric():
    rng = random.Random(2)
    for datum, coords in ((A2, (1, 1)), (B2, (1, 0)), (G2, (1, 0))):
        mod = completed(get_module(datum, Weight(coords)))
        # every operator is weight-graded, so each weight space is checked
        # on its own: x, y of weight mu, z of weight mu - alpha_i
        for mu in mod.basis:
            x, y = rand_vector(mod, mu, rng), rand_vector(mod, mu, rng)
            assert contravariant_form(x, y) == contravariant_form(y, x)
            for i in datum.index_set:
                z = rand_vector(mod, mu - datum.alpha_weight(i), rng)
                lhs = contravariant_form(act_f(i, x), z)
                rhs = contravariant_form(x, act_e(i, z))
                assert lhs == rhs


def test_ef_on_highest_gives_q_integer():
    # e_i f_i u = [<h_i, lam>]_{q_i} u
    mod = get_module(G2, Weight((0, 2)))
    u = mod.highest()
    got = act_e(2, act_f(2, u))
    # q_2 = q^3, so [2]_{q_2} = q^3 + q^-3
    assert got == u.scaled(ScalarQ(LaurentQ({3: 1, -3: 1})))
    assert act_e(1, act_f(1, u)).is_zero()  # [<h_1, (0,2)>] = [0]


def test_divided_powers_rescale_plain_powers():
    mod = get_module(A1, Weight((4,)))
    u = mod.highest()
    v2 = act_f(1, act_f(1, u))
    two = ScalarQ(LaurentQ({1: 1, -1: 1}))
    assert v2 == act_f_divided(1, 2, u).scaled(two)
    # e^{(2)}, the third rung of the e-ladder, brings it back to a
    # q-binomial multiple of u
    back = list(divided_powers(act_e, 1, act_f_divided(1, 2, u)))[2]
    # [4 choose 2] = q^4 + q^2 + 2 + q^-2 + q^-4
    binom = ScalarQ(LaurentQ({4: 1, 2: 1, 0: 2, -2: 1, -4: 1}))
    assert back == u.scaled(binom)
    # the ladder yields f^a u / [a]! for a = 0..4 and stops at the first zero
    fact = ScalarQ(1)
    plain = u
    ladder = list(divided_powers(act_f, 1, u))
    assert len(ladder) == 5
    for a, term in enumerate(ladder):
        if a:
            fact = fact * ScalarQ(LaurentQ({a - 1 - 2 * j: 1 for j in range(a)}))
            plain = act_f(1, plain)
        assert term.scaled(fact) == plain
        assert term == act_f_divided(1, a, u)
    assert act_f(1, plain).is_zero()
    assert act_f_divided(1, 5, u).is_zero()
    assert list(divided_powers(act_e, 1, u)) == [u]
    assert list(divided_powers(act_f, 1, mod.zero())) == []
    with pytest.raises(ValueError):
        act_f_divided(1, -1, u)


def test_extremal_vectors_have_norm_one():
    for datum, coords in ((A2, (1, 1)), (B2, (1, 0)), (B2, (0, 1))):
        mod = get_module(datum, Weight(coords))
        for w in weyl_elements(datum):
            uw = extremal_vector(mod, w)
            assert contravariant_form(uw, uw) == ONE


def test_extremal_weight_is_weyl_image():
    from qcells.cartan import weyl_act

    mod = get_module(B2, Weight((1, 1)))
    for w in weyl_elements(B2):
        uw = extremal_vector(mod, w)
        assert uw.weight() == weyl_act(B2, w, Weight((1, 1)))


def test_braid_operators_are_inverse():
    rng = random.Random(7)
    mod = completed(get_module(A2, Weight((1, 1))))
    for mu in mod.basis:
        v = rand_vector(mod, mu, rng)
        for i in (1, 2):
            assert braid_T_inv(mod, i, braid_T(mod, i, v)) == v
            assert braid_T(mod, i, braid_T_inv(mod, i, v)) == v
    # d_i > 1 in B2 and G2, where q_i and q differ
    for datum, coords in ((B2, (1, 1)), (G2, (1, 0))):
        mod = completed(get_module(datum, Weight(coords)))
        for mu in mod.basis:
            for s in range(mod.dim_of(mu)):
                b = mod.basis_vector(mu, s)
                for i in datum.index_set:
                    assert braid_T_inv(mod, i, braid_T(mod, i, b)) == b
                    assert braid_T(mod, i, braid_T_inv(mod, i, b)) == b


def test_braid_route_matches_divided_power_route():
    mod = get_module(A2, Weight((1, 1)))
    for w in weyl_elements(A2):
        assert extremal_by_braid(mod, w) == extremal_vector(mod, w)


def divided_monomial(mod, word):
    """f_{i_1}^{(c_1)} ... f_{i_l}^{(c_l)} u_lam with the word's own
    exponents, climbed afresh with no memo."""
    vec = mod.highest()
    exps = word_exponents(mod.datum, word, mod.lam)
    for i, c in zip(reversed(word), reversed(exps)):
        vec = act_f_divided(i, c, vec)
    return vec


def weyl_orbit(datum, lam):
    orbit, frontier = {lam}, [lam]
    while frontier:
        frontier = [
            nu
            for mu in frontier
            for nu in {datum.reflect_weight(i, mu) for i in datum.index_set}
            if nu not in orbit
        ]
        orbit.update(frontier)
    return orbit


@pytest.mark.parametrize(
    "cartan, coords", [("B3", (1, 0, 1)), ("C3", (0, 1, 1)), ("G2", (1, 1))]
)
def test_extremal_vectors_agree_across_reduced_words(cartan, coords):
    """u_{w lam} does not depend on the reduced word of w, so the memo keyed
    by the weight w lam returns every word's own divided monomial, and it
    holds at most one vector per weight of the Weyl orbit of lam."""
    datum = build_root_datum(cartan)
    lam = Weight(coords)
    mod = build_module(datum, lam)
    words = 0
    for w in weyl_elements(datum, 6):
        first = divided_monomial(mod, w)
        for word in reduced_words(datum, w) if w else ((),):
            assert divided_monomial(mod, word) == first
            assert extremal_vector(mod, word) == first
            words += 1
    for w in weyl_elements(datum, 3):
        assert extremal_by_braid(mod, w) == extremal_vector(mod, w)
    orbit = weyl_orbit(datum, lam)
    assert words > len(mod._extremal_memo)
    assert set(mod._extremal_memo) <= orbit
    # each entry is the coefficient list of a nonzero vector of its weight
    assert all(
        len(c) == mod.dim_of(mu) and mod.field.nonzero(c) for mu, c in mod._extremal_memo.items()
    )


def test_extremal_vector_rejects_letters_outside_index_set():
    """Letter 0 would read the last coordinate of a weight, and -1 would give
    the weight of the word (1,): neither may reach the weight-keyed memo."""
    mod = build_module(A2, Weight((1, 0)))
    for bad in (0, -1, 3):
        for word in [(bad,), (1, bad), (bad, 1)]:
            with pytest.raises(ValueError, match="outside the index set"):
                extremal_vector(mod, word)
    assert not mod._extremal_memo
    assert extremal_vector(mod, (1,)) == act_f(1, mod.highest())
    assert set(mod._extremal_memo) == {Weight((-1, 1))}


def test_extremal_vector_walks_its_word_once(monkeypatch):
    """The exponents and the memo key w lam come from one walk through the
    word, and a word that is not reduced for lam raises before the memo is
    read or filled."""
    mod = build_module(A2, Weight((1, 1)))
    calls = []
    reflect = RootDatum.reflect_weight
    monkeypatch.setattr(
        RootDatum, "reflect_weight", lambda self, i, lam: calls.append(i) or reflect(self, i, lam)
    )
    for word in [(1, 2, 1), (2, 1, 2), (1,), ()]:
        calls.clear()
        extremal_vector(mod, word)
        assert calls == list(reversed(word))
    memo = dict(mod._extremal_memo)
    for word in [(1, 1), (2, 1, 2, 1)]:
        with pytest.raises(ValueError, match="not reduced"):
            extremal_vector(mod, word)
    assert mod._extremal_memo == memo


def test_shadow_give_up_falls_back_to_exact_profile(monkeypatch):
    """An empty or short modular profile makes the shadow give up.  The
    exact build never reads a shadow, so its module is unchanged, and the
    presentation search takes the exact path to the same lam' and
    coefficients."""
    real_deps = hwmod.column_dependencies

    # each force changes the shadow build's elimination only
    def empty(rows, field):
        if not isinstance(field, hwmod._Shadow):
            return real_deps(rows, field)
        return [], {}

    def short(rows, field):
        sel, deps = real_deps(rows, field)
        if not isinstance(field, hwmod._Shadow):
            return sel, deps
        return sel[:-1], deps

    forces = (empty, short)
    for datum, coords in ((A2, (1, 1)), (B2, (1, 1)), (G2, (1, 1))):
        lam = Weight(coords)
        default = build_module(datum, lam)
        for force in forces:
            monkeypatch.setattr(hwmod, "column_dependencies", force)
            forced = build_module(datum, lam)
            with pytest.raises(ZeroDivisionError, match=r"picked \d+ vectors at"):
                hwmod._build(datum, lam, hwmod._Shadow())
            monkeypatch.setattr(hwmod, "column_dependencies", real_deps)
            assert forced.basis == default.basis
            assert grams(forced) == grams(default)
            assert forced.fmat == default.fmat
            assert forced.emat == default.emat

    # A2 word 1,2,1 at k = 1: the screen rejects V(2,0) before the winner
    # V(1,1); with every shadow given up both are built exactly
    pres = TorusPresentation(A2, (1, 2, 1))
    results = []
    for force in (real_deps, *forces):
        monkeypatch.setattr(A2, "_module_cache", {})
        monkeypatch.setattr(hwmod, "column_dependencies", force)
        p = find_presentation(pres, 1)
        results.append((p.lam.coords, p.coeffs))
        fields = {c: type(m.field) for c, m in A2._module_cache.items()}
        # both shadows gave up under a force, and exact builds replaced them;
        # the winner's exact module replaces its shadow in any case
        screened = hwmod._Shadow if force is real_deps else RationalFunctions
        assert fields[(2, 0)] is screened
        assert fields[(1, 1)] is RationalFunctions
    monkeypatch.setattr(hwmod, "column_dependencies", real_deps)
    assert results[0][0] == (1, 1)
    assert results == [results[0]] * 3


def test_screened_winner_reuses_its_shadow(monkeypatch):
    """Only the screen builds shadows.  The exact build of a screened winner
    builds none and reads none, and get_module replaces the screened shadow
    in the cache's one entry for its highest weight.  The screen of a
    candidate cached exactly gets no shadow."""
    real_build = hwmod._new_module
    builds = []

    def counted(datum, lam, field):
        builds.append((lam.coords, type(field).__name__))
        return real_build(datum, lam, field)

    monkeypatch.setattr(A2, "_module_cache", {})
    monkeypatch.setattr(hwmod, "_new_module", counted)
    # A2 word 1,2,1 at k = 1: the target V(1,0) is built exactly first, so
    # its screen gets no shadow; V(2,0) is screened out and V(1,1) is
    # screened and wins
    shadows = []
    real_shadow = hwmod.shadow_module

    def kept(datum, lam):
        shadows.append(real_shadow(datum, lam))
        return shadows[-1]

    monkeypatch.setattr(cells, "shadow_module", kept)
    assert find_presentation(TorusPresentation(A2, (1, 2, 1)), 1).lam.coords == (1, 1)
    assert builds == [
        ((1, 0), "RationalFunctions"),
        ((2, 0), "_Shadow"),
        ((1, 1), "_Shadow"),
        ((1, 1), "RationalFunctions"),
    ]
    fields = {c: type(m.field).__name__ for c, m in A2._module_cache.items()}
    assert fields == {(1, 0): "RationalFunctions", (2, 0): "_Shadow", (1, 1): "RationalFunctions"}
    assert shadows[0] is None
    assert [s.lam.coords for s in shadows[1:]] == [(2, 0), (1, 1)]
    builds.clear()
    build_module(A2, Weight((1, 1)))
    assert builds == [((1, 1), "RationalFunctions")]


def test_dropped_shadow_is_freed_by_refcounting(monkeypatch):
    """A shadow dropped once its exact module is built is in no reference
    cycle: with the cycle collector off, no shadow that left the cache is
    still alive after the search."""

    def live_shadows():
        return [
            o
            for o in gc.get_objects()
            if isinstance(o, hwmod.HWModule) and isinstance(o.field, hwmod._Shadow)
        ]

    monkeypatch.setattr(A2, "_module_cache", {})
    gc.collect()
    before = {id(o) for o in live_shadows()}
    gc.disable()
    try:
        # the screen builds the shadows of V(2,0) and V(1,1); get_module
        # replaces that of V(1,1) with its exact module
        assert find_presentation(TorusPresentation(A2, (1, 2, 1)), 1).lam.coords == (1, 1)
        new = [o for o in live_shadows() if id(o) not in before]
        kept = set(map(id, A2._module_cache.values()))
        dropped = [o.lam.coords for o in new if id(o) not in kept]
    finally:
        gc.enable()
    assert [o.lam.coords for o in new] == [(2, 0)]
    assert dropped == []


def test_both_fields_define_the_same_members():
    """Q(q) and its GF(p) shadow define one field interface: the same
    non-dunder members, so no member serves only one field's callers."""

    def members(cls):
        return {n for n in vars(cls) if not (n.startswith("__") and n.endswith("__"))}

    assert members(RationalFunctions) == members(hwmod._Shadow)
    assert "add_term" not in members(RationalFunctions)


laurents = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=4).map(LaurentQ)
scalars = st.builds(ScalarQ, laurents, laurents.filter(bool))


@given(scalars, scalars, scalars.filter(bool))
@settings(max_examples=200)
def test_exact_key_is_the_value(x, y, z):
    """RationalFunctions.key(x) == RationalFunctions.key(y) exactly when x == y, also for values
    reached by different routes, and a key is hashable."""
    key = RationalFunctions.key
    assert (key(x) == key(y)) == (x == y)
    assert key(x * z / z) == key(x)
    assert key(x + y - y) == key(x)
    # the same coefficients at another power of q
    assert (key(x.mul_qpow(1)) == key(x)) == (not x)
    assert len({key(x), key(y)}) == (1 if x == y else 2)


@given(scalars)
@settings(max_examples=200)
def test_eval_mod_is_the_value_at_the_profile_point(x):
    """_eval_mod evaluates num and den term by term at q0 in GF(p)."""
    p, q0 = hwmod._PROFILE_P, hwmod._PROFILE_Q0
    num, den = (sum(c * pow(q0, e, p) for e, c in part.items()) % p for part in (x.num, x.den))
    assert hwmod._eval_mod(x) == num * pow(den, -1, p) % p


def test_mod_solve_full_column_rank():
    """The shadow's column dependencies solve square and tall systems of
    full column rank: the unknowns' columns are the profile and the
    solutions are the right-hand sides' coordinates; an inconsistent column
    joins the profile, and a rank deficit shortens it."""
    p = hwmod._PROFILE_P
    rows = [[1, 0], [2, 3], [0, 5]]
    x = [[7, p - 1], [0, 4]]
    rhs = [[sum(a * b for a, b in zip(row, col)) % p for row in rows] for col in x]

    def aug(rows, cols):
        return [row + [col[r] for col in cols] for r, row in enumerate(rows)]

    assert shadow_dependencies(aug(rows, rhs)) == ([0, 1], {2: x[0], 3: x[1]})
    square = aug(rows[:2], [col[:2] for col in rhs])
    assert shadow_dependencies(square) == ([0, 1], {2: x[0], 3: x[1]})
    assert shadow_dependencies(aug(rows, [rhs[0], [1, 0, 0]])) == ([0, 1, 3], {2: x[0] + [0]})
    assert shadow_dependencies([[1, 2], [2, 4], [3, 6]]) == ([0], {1: [2]})
    assert shadow_dependencies([[0, 0], [0, 0]]) == ([], {0: [], 1: []})
    assert shadow_dependencies([]) == ([], {})


def test_mod_dependencies_match_exact_ones():
    """On integer matrices, square, tall, rank-deficient or zero, the mod-p
    profile is the exact one and each coordinate is the exact one mod p;
    every dependent column is the profile columns times its coordinates."""
    p = hwmod._PROFILE_P
    rng = random.Random(31)
    for _ in range(30):
        nr, nc, r = rng.randrange(1, 5), rng.randrange(1, 6), rng.randrange(0, 4)
        # a product of nr x r and r x nc factors has rank at most r
        left = [[rng.randrange(-3, 4) for _ in range(r)] for _ in range(nr)]
        right = [[rng.randrange(-3, 4) for _ in range(r)] for _ in range(nc)]
        rows = [[sum(a * b for a, b in zip(lrow, rcol)) for rcol in right] for lrow in left]
        got = shadow_dependencies([[x % p for x in row] for row in rows])
        want = exact_dependencies([[ScalarQ(x) for x in row] for row in rows])
        assert got[0] == want[0]
        assert got[1].keys() == want[1].keys()
        for c, xs in want[1].items():
            specialized = [hwmod._eval_mod(x) for x in xs]
            assert got[1][c] == specialized
            for row in rows:
                picked = sum(row[k] * y for k, y in zip(got[0], specialized))
                assert (picked - row[c]) % p == 0


def test_f_columns_solve_the_gram_block():
    """Every stored f-column x of a candidate f_j b_w at weight mu solves the
    Gram-block system gram[mu] x = R, where R_k = (e_j b_k, b_w) comes from
    the raising action and the Gram matrix of the parent weight."""
    A3 = build_root_datum("A3")
    for datum, coords in ((A3, (1, 1, 1)), (B2, (1, 1)), (G2, (1, 1))):
        mod = completed(get_module(datum, Weight(coords)))
        unpicked = 0
        for (j, parent), cols in mod.fmat.items():
            mu = parent - datum.alpha_weight(j)
            tags = mod.basis[mu]
            for widx, x in enumerate(cols):
                b_w = mod.basis_vector(parent, widx)
                rhs = [
                    contravariant_form(act_e(j, mod.basis_vector(mu, k)), b_w)
                    for k in range(len(tags))
                ]
                assert [RationalFunctions.dot(row, x) for row in gram_block(mod, mu)] == rhs
                unpicked += (j,) + mod.basis[parent][widx] not in tags
        assert unpicked > 0


def test_dependent_pick_is_refused():
    """The pick of each weight space is the column rank profile of its
    candidates' e-images, over either field: a candidate that depends on
    earlier ones, a repeat of a picked one included, is refused, and its
    coordinates over the pick are its stored f-column."""
    lam = Weight((1, 1))
    refused = 0
    for mod, dependencies in (
        (build_module(B2, lam), exact_dependencies),
        (hwmod._build(B2, lam, hwmod._Shadow()), shadow_dependencies),
    ):
        field = mod.field
        for mu in list(mod.basis)[1:]:
            parents = {i: mu + B2.alpha_weight(i) for i in (1, 2)}
            cands = sorted(
                ((i,) + tag, i, w)
                for i, parent in parents.items()
                for w, tag in enumerate(mod.basis.get(parent, ()))
            )
            vecs = [act_f(i, mod.basis_vector(parents[i], w)) for _tag, i, w in cands]
            # the first candidate, which is picked, comes again at the end
            vecs.append(vecs[0])

            def e_images(v):
                out = []
                for i, parent in parents.items():
                    out += act_e(i, v).coeffs or [field.zero] * mod.dim_of(parent)
                return out

            sel, deps = dependencies([list(row) for row in zip(*map(e_images, vecs))])
            assert [cands[c][0] for c in sel] == list(mod.basis[mu])
            assert sel[0] == 0
            assert deps[len(cands)] == [field.one] + [field.zero] * (len(sel) - 1)
            for c, (_tag, i, w) in enumerate(cands):
                if c not in sel:
                    assert deps[c] == list(mod.fmat[(i, parents[i])][w])
                    refused += 1
    assert refused > 0


def test_shadow_specializes_exact_module():
    """The shadow has the exact basis tags, and each of its Gram and action
    entries is the exact entry at the modular point.  Every Gram block, exact
    or shadow, is symmetric, and the shadow's form is the exact form at the
    modular point."""
    B3 = build_root_datum("B3")
    for datum, coords in ((A2, (1, 1)), (B2, (1, 1)), (G2, (1, 1)), (B3, (0, 2, 0))):
        lam = Weight(coords)
        shadow = hwmod._build(datum, lam, hwmod._Shadow())
        exact = completed(get_module(datum, lam))
        assert shadow.dim == exact.dim
        assert shadow.basis == exact.basis
        assert list(shadow.basis) == list(exact.basis)
        for name in ("gram", "fmat", "emat"):
            want, got = (grams(m) if name == "gram" else getattr(m, name) for m in (exact, shadow))
            assert want.keys() == got.keys(), name
            for key, block in want.items():
                spec = [[hwmod._eval_mod(x) for x in line] for line in block]
                assert [list(line) for line in got[key]] == spec, (name, key)
        for mod in (exact, shadow):
            for block in grams(mod).values():
                assert block == [list(col) for col in zip(*block)]

        def pairs(mod):
            """Every pair of basis vectors of one weight, and the sum of each
            weight space's basis vectors with itself."""
            out = []
            for mu in mod.basis:
                vecs = [mod.basis_vector(mu, s) for s in range(mod.dim_of(mu))]
                total = mod.zero()
                for v in vecs:
                    total = total + v
                out += [(v, w) for v in vecs for w in vecs] + [(total, total)]
            return out

        want = [hwmod._eval_mod(contravariant_form(v, w)) for v, w in pairs(exact)]
        assert [contravariant_form(v, w) for v, w in pairs(shadow)] == want


def test_wrong_multiplicity_fails_loudly(monkeypatch):
    real = hwmod._multiplicity
    monkeypatch.setattr(hwmod, "_multiplicity", lambda mod, mu: real(mod, mu) + 1)
    with pytest.raises(AssertionError, match="multiplicity"):
        build_module(B2, Weight((1, 1)))
    monkeypatch.setattr(hwmod, "_multiplicity", lambda mod, mu: 0)
    with pytest.raises(AssertionError, match="Weyl dimension"):
        build_module(B2, Weight((1, 1)))


ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "G2"]


def test_weight_multiplicities_are_weyl_invariant():
    for name in ALL_TYPES:
        datum = build_root_datum(name)
        # the adjoint module: its highest weight is the highest root
        theta = datum.root_to_weight(datum.positive_roots()[-1])
        ends = datum.fundamental(1) + datum.fundamental(datum.rank)
        for lam in (theta, ends):
            mod = completed(get_module(datum, lam))
            for mu in mod.basis:
                for i in datum.index_set:
                    assert mod.dim_of(datum.reflect_weight(i, mu)) == mod.dim_of(mu)
        assert get_module(datum, theta).dim_of(Weight((0,) * datum.rank)) == datum.rank


def test_gram_lower_triangle_matches_its_own_pairing():
    """gram_block pairs only the entries on and above the diagonal of a Gram
    block and mirrors them.  Each entry below it is the pairing it mirrors:
    (b_b, b_a) = (b'_b, e_i b_a) for the basis vector b_b = f_i b'_b, with
    e_i b_a the stored raising column, over either field."""
    checked = 0
    for datum, coords in ((A2, (2, 1)), (B2, (1, 1)), (G2, (1, 1))):
        for field in (RationalFunctions(), hwmod._Shadow()):
            mod = hwmod._build(datum, Weight(coords), field)
            for mu, g in grams(mod).items():
                for b, tag in enumerate(mod.basis[mu][1:], 1):
                    i, parent = tag[0], mu + datum.alpha_weight(tag[0])
                    grow = gram_block(mod, parent)[mod.basis[parent].index(tag[1:])]
                    for a in range(b):
                        assert g[b][a] == field.dot(grow, list(mod.emat[(i, mu)][a]))
                        checked += 1
    assert checked > 20


def tables(mod):
    """What a module stores, its weight spaces in their order, and the Gram
    blocks read through gram_block."""
    return list(mod.basis.items()), list(grams(mod).items()), mod.fmat, mod.emat


@pytest.mark.parametrize(
    "cartan, coords", [("A3", (1, 1, 1)), ("B3", (0, 2, 0)), ("C3", (1, 1, 0)), ("G2", (2, 1))]
)
def test_modules_extended_in_any_order_equal_whole_builds(monkeypatch, cartan, coords):
    """A cached module and a cached shadow, queried at seeded random weights
    in random order and then completed, store what the whole build stores:
    a weight space reads only the weights above it.  After every query the
    built weights are an up-set of the weights."""
    datum = build_root_datum(cartan)
    lam = Weight(coords)
    whole = [build_module(datum, lam), hwmod._build(datum, lam, hwmod._Shadow())]
    # the cache keeps one module per highest weight, so each gets a fresh one
    monkeypatch.setattr(datum, "_module_cache", {})
    shadow = shadow_module(datum, lam)
    monkeypatch.setattr(datum, "_module_cache", {})
    lazy = [get_module(datum, lam), shadow]
    rng = random.Random(f"{cartan} {coords}")
    for mod, ref in zip(lazy, whole):
        # the depth of the lowest weight w0 lam = -(dominant conjugate of -lam)
        bottom = datum.weight_to_root(lam + dominant_conjugate(datum, -lam)[1]).coords
        floors = [tuple(rng.randint(0, b) for b in bottom) for _ in range(6)]
        rng.shuffle(floors)
        for depth in floors:
            mu = lam - datum.root_to_weight(RootVector(depth))
            assert mod.dim_of(mu) == ref.dim_of(mu)
            for nu in mod.basis:
                for i in datum.index_set:
                    up = nu + datum.alpha_weight(i)
                    assert up in mod.basis or up not in ref.basis
        assert tables(completed(mod)) == tables(ref)
        assert mod.complete and mod.dim == ref.dim


def test_completion_checks_the_weyl_dimension(monkeypatch):
    """A module that misses a weight space builds every other one, and the
    Weyl-dimension check fails once the lowest weight is decided."""
    lam = Weight((1, 1))
    lowest = -dominant_conjugate(B2, -lam)[1]
    real = hwmod._multiplicity
    monkeypatch.setattr(
        hwmod, "_multiplicity", lambda mod, mu: 0 if mu == lowest else real(mod, mu)
    )
    monkeypatch.setattr(B2, "_module_cache", {})
    mod = get_module(B2, lam)
    # every weight above the lowest is above one of these
    for i in B2.index_set:
        mod.dim_of(lowest + B2.alpha_weight(i))
    assert not mod.complete
    assert sum(map(len, mod.basis.values())) == mod.dim - 1
    with pytest.raises(AssertionError, match="Weyl dimension"):
        mod.dim_of(lowest)


def test_tall_shadow_completes(monkeypatch):
    """The walk keeps its own stack: the shadow of A1 V(1200), taller than
    the recursion limit, completes from a query for its lowest weight."""
    lam = Weight((1200,))
    assert 1200 > sys.getrecursionlimit()
    monkeypatch.setattr(A1, "_module_cache", {})
    mod = shadow_module(A1, lam)
    assert mod.dim_of(-lam) == 1
    assert mod.complete
    assert sum(map(len, mod.basis.values())) == mod.dim == 1201


def test_tall_shadow_reads_a_gram_block(monkeypatch):
    """gram_block keeps its own stack: on the shadow of A1 V(1200), the block
    at the weight just above the lowest reads the blocks of all 1199 weights
    above it, the zero weight's among them, with no RecursionError."""
    lam = Weight((1200,))
    monkeypatch.setattr(A1, "_module_cache", {})
    mod = shadow_module(A1, lam)
    mod.dim_of(-lam)
    (g,) = gram_block(mod, Weight((-1198,)))
    assert len(g) == 1 and g[0]
    assert Weight((0,)) in mod.gram
    assert len(mod.gram) == 1200 and -lam not in mod.gram


def test_minor_reads_gram_blocks_at_extremal_weights_only(monkeypatch):
    """The minor's pairing route pairs u_{w lam} with u_lam, so after
    feigin_minor on G2 1,2,1,2,1,2 the exact V(2,1) holds Gram blocks at
    extremal weights w lam only, though it is built to its lowest weight."""
    lam = Weight((2, 1))
    monkeypatch.setattr(G2, "_module_cache", {})
    cells.feigin_minor(TorusPresentation(G2, (1, 2, 1, 2, 1, 2)), lam)
    mod = G2._module_cache[lam.coords]
    assert isinstance(mod.field, RationalFunctions) and mod.complete
    assert mod.gram
    assert all(dominant_conjugate(G2, mu)[1] == lam for mu in mod.gram)
    assert any(dominant_conjugate(G2, mu)[1] != lam for mu in mod.basis)


def test_dimension_cap(monkeypatch):
    monkeypatch.setattr(hwmod, "DIM_CAP", 10)
    with pytest.raises(ValueError):
        build_module(A2, Weight((3, 3)))


def test_get_module_caches():
    assert get_module(A2, Weight((1, 0))) is get_module(A2, Weight((1, 0)))
