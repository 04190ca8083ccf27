"""Quantum minors on unipotent cells and the chamber monomial law.

Everything here lives on the image side of the Feigin map attached to a
reduced letter sequence: quantum minors become explicit monomials in a
quantum torus, the twist automorphism becomes a q-power times a ratio of
such images, and each twisted flag minor is checked against its predicted
monomial.  A matrix coefficient x -> (left, x . right) is passed as its two
vectors, which must live in one module.  Its image climbs plain f-powers
from right: as f_i^{(a)} = f_i^a / [a]_{q_i}!, each distinct path's term is
its plain-power pairing times one factor of its (d_i, a) steps.  Every path
ends at the weight of left, so each pairing is one covector of left times
the path's vector.  The descent returns one value per path, and
feigin_matrix_coeff writes it under every embedding of the path's letters in
the word.  Only those embeddings depend on the word: whether a path's vector
is nonzero and the path's term, for a left vector given by its exact value,
are memoized on the module, keyed by right's basis index and the path (see
hwmod), so the reduced words of one element, and the elements sharing a
module, climb each vector and pair each leaf once.  The search for a
presentation D_{u_{w lam'}, u'} never expands the embeddings: its linear
system has one row per path, where one row per exponent vector would repeat
each path's row once per embedding, and _system keeps each distinct
augmented row once, which both stages eliminate.  It screens a candidate
lam' by the GF(p) shadow of V(lam') and skips it only on a rank certificate
that no exact u' exists.  On the exact module it skips the candidate where a
target path is zero in every column, which adjointness decides from e-powers
of u_{w lam'} with no column walked (_target_row_zero), and memoizes on the
module whether each path's e-power vanishes.  The system's solution is
memoized on the module under the set of its distinct rows, which fixes the
solution whatever the rows' order or repetition, so the systems that share a
row set, on any word, weight space or target, are eliminated once.  What
depends on the word alone, and not on the position k, is computed once per
TorusPresentation and kept on it (_per_word): the proof that the word is
reduced, the Weyl walks of its prefixes, the predicted monomials and the
minors with their pairing cross-check, each as an (exponents, q-exponent)
pair, and the descent's successor table of letters, positions and letter
masks.  The per-word checks multiply and invert those pairs in integers
(TorusPresentation.pair_product and pair_inverse) and build a TorusElement
only for a report.  The localized algebra itself is never materialized; all
identities are verified between normal-ordered torus elements.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from functools import wraps

from .cartan import (
    RootDatum,
    RootVector,
    Weight,
    is_reduced,
    walk_word,
    weyl_act,
)
from .freeuq import FreeNegElement, _compositions, lusztig_form, words_of_weight
from .hwmod import (
    ModuleTooLarge,
    ModuleVector,
    act_e,
    act_f,
    contravariant_form,
    extremal_from_walk,
    get_module,
    gram_block,
    inv_qint,
    path_factor,
    shadow_module,
)
from .linalg import RationalFunctions, column_dependencies, solve_linear
from .qtorus import TorusElement, TorusPresentation, torus_str
from .scalars import ScalarQ, add_term

__all__ = [
    "Presentation",
    "PresentationError",
    "VerificationReport",
    "feigin_matrix_coeff",
    "feigin_minor",
    "MinorRoutesDisagree",
    "class_equal",
    "find_presentation",
    "twist_inverse_image",
    "theorem_instance",
    "theorem_monomial",
    "verify_theorem",
    "chamber_ansatz",
    "ore_commutation_check",
    "minor_representative",
]


class Presentation:
    """A minor class written as D_{extremal, uprime} on the module V(lam)."""

    __slots__ = ("lam", "uprime")

    def __init__(self, lam: Weight, uprime: ModuleVector):
        self.lam = lam
        self.uprime = uprime

    @property
    def coeffs(self) -> list[ScalarQ]:
        """The search's solution: uprime's own coefficient list."""
        return self.uprime.coeffs


class PresentationError(RuntimeError):
    """No candidate highest weight admitted the requested presentation."""

    def __init__(self, tried: list[tuple[int, ...]]):
        self.tried = list(tried)
        shown = ", ".join(str(t) for t in self.tried)
        super().__init__(f"no presentation found; candidates tried: {shown}")


class VerificationReport:
    """Outcome of one identity check between torus elements."""

    __slots__ = (
        "description",
        "lhs",
        "rhs",
        "equal",
        "presentation",
        "exponent_match",
        "residual_q_power",
    )

    def __init__(
        self,
        description: str,
        lhs: TorusElement,
        rhs: TorusElement,
        equal: bool,
        presentation: Presentation | None = None,
        exponent_match: bool | None = None,
        residual_q_power: int | None = None,
    ):
        self.description = description
        self.lhs = lhs
        self.rhs = rhs
        self.equal = equal
        self.presentation = presentation
        self.exponent_match = exponent_match
        self.residual_q_power = residual_q_power


def _per_word(f: Callable) -> Callable:
    """f(pres, *args) computed once per presentation and args, on first use,
    and kept on pres (TorusPresentation._memo) for as long as it lives.  A
    call that raises keeps nothing.  Every caller gets the one kept value,
    so none may change it, and no kept value may point back at pres: the
    cycle would keep a dropped presentation alive until the cycle collector
    runs, so monomials are kept as (exponents, q-exponent) pairs (see
    TorusPresentation.pair_product)."""
    name = f.__name__

    @wraps(f)
    def kept(pres: TorusPresentation, *args):
        key = (name, *args)
        memo = pres._memo
        try:
            return memo[key]
        except KeyError:
            val = memo[key] = f(pres, *args)
            return val

    return kept


@_per_word
def _walk(pres: TorusPresentation, m: int, lam: Weight) -> tuple[tuple[int, ...], Weight]:
    """walk_word of the first m letters of pres's word and lam: the prefix
    walk of position m for lam = varpi_{i_m}, and for m = len(word) the
    walk that gives w lam and u_{w lam}."""
    return walk_word(pres.datum, pres.letters[:m], lam)


@_per_word
def _reduced(pres: TorusPresentation) -> bool:
    return is_reduced(pres.datum, pres.letters)


@_per_word
def _successors(pres: TorusPresentation) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """succ[k]: for each letter i below position k, in the order of first
    occurrence in the word, the triple (i, p, below): p is the rightmost
    position of i below k, and below the mask of the letters below p, with
    bit i for letter i."""
    last: list[dict[int, int]] = [{}]
    masks = [0]
    for k, i in enumerate(pres.letters):
        last.append({**last[k], i: k})
        masks.append(masks[k] | 1 << i)
    return tuple(tuple((i, p, masks[p]) for i, p in lk.items()) for lk in last)


def class_equal(x: TorusElement, y: TorusElement) -> bool:
    """Structural equality of torus elements over the same presentation."""
    if x.pres != y.pres:
        raise ValueError("presentation mismatch")
    return x.terms == y.terms


def _content(left: ModuleVector, right: ModuleVector) -> RootVector | None:
    """Content of the words x with (left, x . right) possibly nonzero: the
    root vector wt right - wt left, or None when it is not a nonnegative
    combination of simple roots.

    Both vectors must live in one module and be nonzero."""
    if left.mod is not right.mod:
        raise ValueError("vectors live in different modules")
    diff = right.weight() - left.weight()
    try:
        need = left.mod.datum.weight_to_root(diff)
    except ValueError:
        return None
    if any(c < 0 for c in need):
        return None
    return need


def feigin_matrix_coeff(
    pres: TorusPresentation, left: ModuleVector, right: ModuleVector
) -> TorusElement:
    """Image of the matrix coefficient x -> (left, x . right) under the
    Feigin map, for nonzero vectors of one exact module: the image is a
    torus element over Q(q), so vectors of a GF(p) shadow raise ValueError.

    The image is the sum over exponent vectors a of matching content of
    q^{sum_k d_{i_k} a_k(a_k-1)/2} (left, f^{(a)} . right) t^a.  The divided
    powers are applied rightmost letter first; an empty sum gives zero.

    Each a is exactly one (path, embedding) pair: its path is its nonzero
    (letter, a_k) pairs in the order applied, and the positions of those
    letters are an embedding of the path as strictly decreasing positions of
    the word.  f^{(a)} . right and the q-power depend on the path only, so
    the term of a is its path's value.  The image is linear in right: each
    path's value is the sum of c_s times its value for basis vector s (see
    _coeff_terms) over the live coordinates c_s of right, and each nonzero
    path value is written under every embedding of its path.
    """
    if left.mod is not right.mod:
        raise ValueError("vectors live in different modules")
    if not isinstance(right.mod.field, RationalFunctions):
        raise ValueError("the Feigin image needs vectors of an exact module")
    nu = right.weight()
    paths: dict = {}
    for s, c in enumerate(right.coeffs):
        if c.num.c:
            for path, v in _coeff_terms(pres, left, nu, s).items():
                add_term(paths, path, v if c.is_one() else c * v)
    letters = pres.letters
    n = len(letters)
    terms = {
        a: v for path, v in paths.items() for a in _embeddings(letters, path, 0, n, [0] * n)
    }
    return TorusElement._raw(pres, terms)


def _coeff_terms(pres: TorusPresentation, left: ModuleVector, nu: Weight, s: int) -> dict:
    """The nonzero path values {path: value} of feigin_matrix_coeff for the
    right vector b, basis vector s of the weight space nu, in the field of
    left's module: Q(q), or GF(p) at q0 for a shadow.  A path is the tuple
    of (letter, a > 0) steps in the order they are applied, and its value is
    the term of every exponent vector that embeds it in the word.

    The walk visits each path that embeds in the word once: it places each
    next letter at its rightmost occurrence below the previous one, and
    skips a letter at once unless every other letter the content still
    needs occurs below it, a test of two letter masks (see _successors).
    The ladders climb plain powers f_i^a, and no vector is divided.  At a
    path that uses up the content the walk pairs left with the path's
    vector once, as cov . vec with the covector cov = left^T G of the Gram
    matrix G at the weight of left, read through hwmod.gram_block, and
    multiplies the value by the path factor hwmod.path_factor of its
    (d_i, a) steps.

    Neither whether f^path b is nonzero nor a path's term depends on the
    word, or on how much of the module is built, so both are memoized on
    the module (see hwmod): the first in _node_memo under the key (nu, s),
    which keeps the walk's zero pruning, and the second in _leaf_memo under
    (nu, s) and left's weight and exact value.  Vectors are climbed only
    where a memo misses: a path's int code fixes its vector, which is f_i
    of its parent's or, for a > 1, of the same ladder's one power lower,
    and the call keeps the vectors of the current path's ladders by code,
    so none is climbed twice."""
    datum = pres.datum
    mod = left.mod
    if mod.datum is not datum:
        raise ValueError("module and presentation use different root data")
    right = mod.basis_vector(nu, s)
    need = _content(left, right)
    if need is None:
        return {}
    field = mod.field
    mu = left.weight()
    node = mod._node_memo.setdefault((nu, s), {})
    leaf = mod._leaf_memo.setdefault((nu, s, mu, tuple(map(field.key, left.coeffs))), {})
    shared = mod._leaf_values
    n = len(pres.letters)
    succ = _successors(pres)
    terms: dict[tuple[tuple[int, int], ...], object] = {}
    rem = list(need)
    path: list[tuple[int, int]] = []
    # a path's code: each step (i, a) is one digit a * r1 + i in base
    # r1 * (dim V(lam) + 1).  The walk asks for f_i^a only where f_i^{a-1}
    # is nonzero, so the i-string has a weights, at most dim V(lam), and
    # every digit is below the base; no digit is 0, so distinct paths get
    # distinct codes.  The Weyl dimension is fixed when the module is
    # created, so the codes, and the memo keys, do not depend on how much
    # of the module is built
    r1 = datum.rank + 1
    base = r1 * (mod.dim + 1)
    # vecs: f^path right by path code, for the current path's ladders only;
    # code - r1 is the same ladder one power lower, code // base the parent
    vecs: dict[int, ModuleVector] = {0: right}
    cov: list = []

    def vector(code: int) -> ModuleVector:
        v = vecs.get(code)
        if v is None:
            parent, digit = divmod(code, base)
            a, i = divmod(digit, r1)
            v = vecs[code] = act_f(i, vector(code - r1 if a > 1 else parent))
        return v

    def walk(k: int, code: int, needed: int) -> None:
        # needed: the mask of the letters i with rem[i - 1] > 0
        if not needed:
            val = leaf.get(code)
            if val is None:
                if not cov:
                    # (left, v) = cov . v for every v of weight mu; G is
                    # symmetric, so cov is G left
                    cov.extend(field.dot(row, left.coeffs) for row in gram_block(mod, mu))
                val = field.dot(cov, vector(code).coeffs)
                steps = tuple((datum.di(i), a) for i, a in path if a > 1)
                if field.is_zero(val):
                    val = field.zero
                elif steps:
                    val = field.mul(val, field.of(path_factor(steps)))
                leaf[code] = val = shared.setdefault(field.key(val), val)
            if not field.is_zero(val):
                terms[tuple(path)] = val
            return
        for i, p, below in succ[k]:
            bit = 1 << i
            if not needed & bit or needed & ~(below | bit):
                continue
            cap = rem[i - 1]
            again = below & bit
            # f_i^a for a = 1..cap, up to the first zero
            for a in range(1, cap + 1):
                child = code * base + a * r1 + i
                nonzero = node.get(child)
                if nonzero is None:
                    nonzero = node[child] = not vector(child).is_zero()
                if not nonzero:
                    break
                if a == cap or again:
                    rem[i - 1] = cap - a
                    path.append((i, a))
                    walk(p, child, needed ^ bit if a == cap else needed)
                    path.pop()
            rem[i - 1] = cap
            # the ladder is done: vecs keeps the current path's ladders only.
            # A rung a > 1 is only climbed through rung 1, so a ladder whose
            # first rung is not held, as on memo hits, holds nothing
            first = code * base + r1 + i
            if first in vecs:
                for b in range(a):
                    vecs.pop(first + b * r1, None)

    try:
        walk(n, 0, sum(1 << i for i, c in enumerate(need, 1) if c))
    finally:
        # each function reaches itself through its closure; dropping the
        # names ends those cycles, so refcounting frees the vectors they hold
        del walk, vector
    return terms


def _embeddings(
    letters: tuple[int, ...], path: tuple[tuple[int, int], ...], j: int, hi: int, acc: list[int]
) -> Iterator[tuple[int, ...]]:
    """Every exponent vector that extends acc by the steps path[j:], each
    step's exponent at a position below the step before it (below hi for
    the first) that carries the step's letter; acc comes back unchanged."""
    if j == len(path):
        yield tuple(acc)
        return
    i, a = path[j]
    for k in range(hi - 1, len(path) - j - 2, -1):
        if letters[k] == i:
            acc[k] = a
            yield from _embeddings(letters, path, j + 1, k, acc)
            acc[k] = 0


class MinorRoutesDisagree(AssertionError):
    """The closed form of a flag minor differs from its module pairing."""

    def __init__(self, closed: TorusElement, paired: TorusElement):
        self.closed = closed
        self.paired = paired
        super().__init__(
            f"minor routes disagree: {torus_str(closed)} vs {torus_str(paired)}"
        )


def feigin_minor(pres: TorusPresentation, lam: Weight) -> TorusElement:
    """Image of the minor D_{w lam, lam} for the full letter sequence.

    Computed in closed form: exponent a_k is the divided-power exponent
    <h_{i_k}, s_{i_{k+1}} ... s_{i_l} lam> of the extremal vector u_{w lam},
    and the coefficient is the matching q-power.  The result is always
    cross-checked against the module pairing route, whose path values the
    module memoizes; a disagreement raises MinorRoutesDisagree.
    """
    if not lam.is_dominant():
        raise ValueError("minor weight must be dominant")
    _check_reduced(pres)
    e, tw = _checked_minor(pres, lam)
    return pres.monomial(e, ScalarQ.q_power(tw))


@_per_word
def _checked_minor(pres: TorusPresentation, lam: Weight) -> tuple[tuple[int, ...], int]:
    """The exponents and q-exponent of the minor's closed form, once it has
    been checked against the module pairing: once per presentation and
    lam."""
    datum = pres.datum
    word = pres.letters
    walk = _walk(pres, len(word), lam)
    a = walk[0]
    tw = sum(datum.di(i) * (x * (x - 1) // 2) for i, x in zip(word, a))
    closed = pres.monomial(a, ScalarQ.q_power(tw))

    mod = get_module(datum, lam)
    paired = feigin_matrix_coeff(pres, extremal_from_walk(mod, word, walk), mod.highest())
    if not class_equal(closed, paired):
        raise MinorRoutesDisagree(closed, paired)
    return a, tw


def _check_reduced(pres: TorusPresentation) -> None:
    """Raise ValueError unless pres's word is reduced, which is proven once
    per presentation."""
    if not _reduced(pres):
        raise ValueError("letter sequence must be reduced")


def _check_instance(pres: TorusPresentation, k: int) -> None:
    """Raise ValueError unless 1 <= k <= len(word) and pres's word is reduced."""
    if not 1 <= k <= pres.nvars:
        raise ValueError("position k out of range")
    _check_reduced(pres)


def theorem_instance(datum: RootDatum, word: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Exponent data d_j = <w_{<=j} h_{i_j}, w_{<=k} varpi_{i_k}> for j <= k,
    which equals <h_{i_j}, s_{i_{j+1}} ... s_{i_k} varpi_{i_k}>."""
    pres = TorusPresentation(datum, tuple(word))
    _check_instance(pres, k)
    return _exponents(pres, k)


def _exponents(pres: TorusPresentation, k: int) -> tuple[int, ...]:
    """theorem_instance for an instance that _check_instance has passed."""
    d = _walk(pres, k, pres.datum.fundamental(pres.letters[k - 1]))[0]
    if d[-1] != 1:
        raise AssertionError(f"exponent d_k = {d[-1]}, expected 1")
    return d


def theorem_monomial(pres: TorusPresentation, k: int) -> TorusElement:
    """Predicted image of the k-th twisted flag minor:
    q^{sum_j d_{i_j} d_j(d_j+1)/2} t_1^{-d_1} ... t_k^{-d_k}."""
    _check_instance(pres, k)
    e, tw = _predicted(pres, k)
    return pres.monomial(e, ScalarQ.q_power(tw))


@_per_word
def _predicted(pres: TorusPresentation, k: int) -> tuple[tuple[int, ...], int]:
    """The exponents and q-exponent of theorem_monomial, once per
    presentation and k."""
    d = _exponents(pres, k)
    exps = [0] * pres.nvars
    tw = 0
    for j, dj in enumerate(d):
        exps[j] = -dj
        tw += pres.datum.di(pres.letters[j]) * (dj * (dj + 1) // 2)
    return tuple(exps), tw


def _candidate_weights(rank: int, ik: int, cap: int) -> Iterator[Weight]:
    """The lam' candidates of find_presentation, in search order and without
    repeats: varpi_ik, then varpi_ik + varpi_j for each j, then the dominant
    weights of coordinate sum 1, 2, ..., cap, each sum's in lexicographic
    order.  Weights are in fundamental-weight coordinates, so the candidates
    depend on the rank only.  They are generated as the search asks for
    them, so it generates none past its winner."""
    varpi = [Weight(tuple(int(i == j) for i in range(rank))) for j in range(rank)]
    first = dict.fromkeys([varpi[ik - 1]] + [varpi[ik - 1] + v for v in varpi])
    yield from first
    for total in range(1, cap + 1):
        for coords in _compositions(total, rank):
            lamp = Weight(coords)
            if lamp not in first:
                yield lamp


def _system(
    pres: TorusPresentation, uw: ModuleVector, mup: Weight, target_paths: dict
) -> dict[tuple, tuple[list, object]]:
    """The distinct augmented rows [a | b] of A x = b, for the coordinates x
    of a u' in the weight space mup of uw's module V(lam') whose
    D_{u_{w lam'}, u'} image has the path values target_paths, over the
    module's field, for uw = u_{w lam'}.  There is one row per path in the
    supports of the target and of the columns, the _coeff_terms of uw
    against mup's basis vectors, and each distinct row is kept once, in no
    fixed order: keyed by the field keys of its entries, then of b, and
    mapped to the pair (a, b).

    The system with one row per exponent vector has, for each path, one
    copy of the path's row per embedding, and every path the walk reaches
    has one.  So both systems have the same distinct rows, the same row
    space, and the same reduced row echelon form, solution and rank
    profiles, over either field."""
    mod = uw.mod
    cols = [_coeff_terms(pres, uw, mup, s) for s in range(mod.dim_of(mup))]
    zero, key = mod.field.zero, mod.field.key
    system: dict = {}
    for e in set(target_paths).union(*cols):
        row = [col.get(e, zero) for col in cols]
        b = target_paths.get(e, zero)
        system.setdefault((*map(key, row), key(b)), (row, b))
    return system


def _target_row_zero(uw: ModuleVector, target: dict) -> bool:
    """True when some path of the target, whose values are all nonzero, is
    zero in every column of _system: a zero row of A with a nonzero b, on
    which solve_linear returns None.  No column is walked.  By adjointness,
    (u, f^P b) = (e^{P*} u, b), where e^{P*} applies the steps of the path P
    as e-powers, last step first.  P embeds in the word with the columns'
    content, so its value in the column of b is that pairing for u = uw
    times P's path factor, a unit.  The form is nondegenerate on the weight
    space mu' of the columns, where e^{P*} uw lives, so P is zero in every
    column exactly when e^{P*} uw is zero.  On a module still being built
    the e-powers read only weights above the built weight of uw, which are
    decided.

    Whether e^{P*} uw is zero depends on neither the word nor the target, so
    it is memoized on the module (see hwmod), in _target_memo under uw's
    weight and exact value, then the path."""
    mod = uw.mod
    memo = mod._target_memo.setdefault(
        (uw.weight(), tuple(map(mod.field.key, uw.coeffs))), {}
    )
    for path in target:
        zero = memo.get(path)
        if zero is None:
            v = uw
            for i, a in reversed(path):
                for _ in range(a):
                    v = act_e(i, v)
            zero = memo[path] = v.is_zero()
        if zero:
            return True
    return False


def _solve(pres: TorusPresentation, uw: ModuleVector, mup: Weight, target: dict) -> list | None:
    """solve_linear of the _system of uw in its exact module, memoized on
    the module under the set of its distinct augmented rows [a | b], each as
    the field keys of its entries.

    solve_linear answers from the reduced row echelon form of [A | b]: None
    when b's column is in its profile, else the solution whose free
    coordinates are zero.  That form is a function of the row space, which
    the set of distinct rows fixes whatever their order or repetition, and
    a row's length fixes the column count.  So the systems that share a row
    set, on the reduced words of one element or on another weight space or
    target, have one answer, and it is computed once.  (A target with a
    path never gives the empty set, which solve_linear answers with [].)"""
    system = _system(pres, uw, mup, target)
    memo = uw.mod._solve_memo
    rowset = frozenset(system)
    if rowset not in memo:
        pairs = system.values()
        memo[rowset] = solve_linear([row for row, _ in pairs], [b for _, b in pairs])
    x = memo[rowset]
    return None if x is None else list(x)


def _screened_out(pres: TorusPresentation, lamp: Weight, mup: Weight, target: dict) -> bool:
    """True only when the GF(p) shadow of V(lam') proves that no u' in
    V(lam')_{mu'} has the target path values: the weight space is empty, or
    the system of find_presentation has a certificate of inconsistency at q0.

    The columns climb plain powers f_i^a = [a]_{q_i}! f_i^{(a)}, which over
    GF(p) vanish with f_i^{(a)} only where [a]_{q_i}! is invertible at q0.
    So the screen first checks every [a]_{q_i} with 2 <= a <= need_i, for
    the columns' content need = mu' - w lam', and gives up at one that is
    not invertible, as a divided ladder reaching it would.

    The proof: the shadow is the specialization at q0 of V(lam') over the
    exact basis with the shadow's picks (see hwmod), so its system is the
    specialization of that basis's exact one.  If A(q0) has full column
    rank r, some r x r minor of A is nonzero at q0, so an exact solution x
    of A x = b would be defined there by Cramer's rule and give
    A(q0) x(q0) = b(q0), which rank [A|b](q0) = r + 1 rules out.  That
    certificate is a column rank profile of [A|b](q0) that is all of its
    columns, eliminated from the system's distinct rows: solve_linear asks
    of the exact system whether b's column is in the profile.  Whether
    some u' has the target image does not depend on the basis, so neither
    does the certificate, and the exact search, in the basis of the exact
    build, finds no u' either.  Every other outcome (no shadow, as V(lam')
    is cached exactly or its shadow gave up, a division by zero at q0,
    rank A(q0) < r, a consistent system) proves nothing and returns False,
    leaving the candidate to the exact search."""
    datum = pres.datum
    shadow = shadow_module(datum, lamp)
    if shadow is None:
        return False
    field = shadow.field
    try:
        # reading the weight space may build the shadow's, which can give up
        if shadow.dim_of(mup) == 0:
            return True
        walk = _walk(pres, pres.nvars, lamp)
        need = datum.weight_to_root(mup - walk[1])
        for i, c in enumerate(need, 1):
            for a in range(2, c + 1):
                field.of(inv_qint(a, datum.di(i)))
        uw = extremal_from_walk(shadow, pres.letters, walk)
        system = _system(pres, uw, mup, {path: field.of(c) for path, c in target.items()})
    except ZeroDivisionError:
        return False
    aug = [row + [b] for row, b in system.values()]
    return column_dependencies(aug, field)[0] == list(range(len(aug[0])))


def find_presentation(
    pres: TorusPresentation, k: int, search_cap: int = 3
) -> Presentation:
    """Present the k-th flag minor class as D_{u_{w lam'}, u'}.

    Searches dominant weights lam' in a fixed order (the fundamental weight
    at position k first, then its sums with one fundamental weight, then all
    dominant weights of coordinate sum up to search_cap).  For each candidate
    the matching weight space of V(lam') is scanned linearly for a vector u'
    whose minor has the required torus image, compared by path values (see
    _system).  A candidate whose exact module is not built yet is screened
    first by its GF(p) shadow, and skipped without an exact build only when
    the screen proves it cannot present the class (see _screened_out), so
    the result is the one of the exact search.  On the exact module a
    candidate is skipped before its columns are walked when a target path
    is zero in every column, where solve_linear would return None: by
    adjointness, when e-powers of u_{w lam'} along the path give zero
    (_target_row_zero).  That covers an empty weight space mu', as the
    target is the image of a nonzero minor and has a path.  The system is
    solved once per module and set of distinct rows (_solve).  Raises
    PresentationError when the cap is exhausted.
    """
    datum = pres.datum
    word = pres.letters
    _check_instance(pres, k)
    ik = word[k - 1]
    fund = datum.fundamental(ik)
    mod_k = get_module(datum, fund)
    walk_k = _walk(pres, k, fund)
    target = _coeff_terms(pres, extremal_from_walk(mod_k, word[:k], walk_k), fund, 0)
    shift = walk_k[1] - fund

    tried: list[tuple[int, ...]] = []
    for lamp in _candidate_weights(datum.rank, ik, search_cap):
        tried.append(lamp.coords)
        walk = _walk(pres, len(word), lamp)
        mup = walk[1] - shift
        try:
            if _screened_out(pres, lamp, mup, target):
                continue
            modp = get_module(datum, lamp)
        except ModuleTooLarge:
            continue
        uw = extremal_from_walk(modp, word, walk)
        if _target_row_zero(uw, target):
            continue
        coeffs = _solve(pres, uw, mup, target)
        if coeffs is None:
            continue
        return Presentation(lamp, ModuleVector(modp, mup, coeffs))
    raise PresentationError(tried)


def twist_inverse_image(pres: TorusPresentation, uprime: ModuleVector) -> TorusElement:
    """Torus image of the inverse twist of [D_{u_{w lam'}, u'}], for u' in
    V(lam'): q^{(lam', wt u' - w lam')} times minor^{-1} times the image of
    D_{u', highest}.  The pairing of u' with the highest vector reads the
    module's leaf memo under u''s exact value, so the words whose
    presentations share u' pair its leaves once.  The minor's checked closed
    form q^a t^m has the inverse q^b t^{-m} (pair_inverse), so each term
    c t^f of the pairing becomes
    c q^{b + reorder_power(-m, f) + (lam', wt u' - w lam')} t^{f - m},
    with no product of scalars."""
    datum = pres.datum
    modp = uprime.mod
    if modp.datum is not datum:
        raise ValueError("vector and presentation use different root data")
    lamp = modp.lam
    _check_reduced(pres)
    wlamp = _walk(pres, pres.nvars, lamp)[1]
    nu = datum.weight_to_root(uprime.weight() - wlamp)
    inv, b = pres.pair_inverse(_checked_minor(pres, lamp))
    b += datum.sym_pair(lamp, nu)
    part = feigin_matrix_coeff(pres, uprime, modp.highest())
    reorder = pres.reorder_power
    terms = {
        tuple([x + y for x, y in zip(inv, f)]): c.mul_qpow(b + reorder(inv, f))
        for f, c in part.terms.items()
    }
    return TorusElement._raw(pres, terms)


def verify_theorem(
    pres: TorusPresentation, k: int, search_cap: int = 3
) -> VerificationReport:
    """Check one twisted flag minor against its predicted monomial.

    Finds a presentation of the minor class, pushes it through the inverse
    twist, and compares with the closed-form monomial.
    """
    p = find_presentation(pres, k, search_cap)
    lhs = twist_inverse_image(pres, p.uprime)
    rhs = theorem_monomial(pres, k)
    desc = f"{pres.datum.name} word {','.join(map(str, pres.letters))} k={k}"
    return VerificationReport(desc, lhs, rhs, class_equal(lhs, rhs), presentation=p)


def chamber_ansatz(pres: TorusPresentation, k: int) -> VerificationReport:
    """Recover the generator t_k from twisted flag minors.

    The product D'_{k-1}(i_k)^{-1} D'_k(i_k)^{-1} prod_j D'_k(j)^{-a_{j,i_k}}
    is formed from predicted minor monomials as (exponents, q-exponent)
    pairs, where D'_m(j) is the minor at the last position <= m carrying
    letter j (or 1 when there is none).  The report records whether the
    exponent vector is exactly that of t_k, and the leftover q-power
    separately; equality is asserted against q^{residual} t_k.
    """
    datum = pres.datum
    word = pres.letters
    _check_instance(pres, k)
    ik = word[k - 1]

    def dprime(upto: int, j: int) -> tuple[tuple[int, ...], int]:
        for m in range(upto, 0, -1):
            if word[m - 1] == j:
                return _predicted(pres, m)
        return (0,) * pres.nvars, 0

    mul = pres.pair_product
    prod = mul(pres.pair_inverse(dprime(k - 1, ik)), pres.pair_inverse(dprime(k, ik)))
    for j in datum.index_set:
        if j != ik and datum.aij(j, ik) < 0:
            base = dprime(k, j)
            for _ in range(-datum.aij(j, ik)):
                prod = mul(prod, base)
    exps, residual = prod
    unit = tuple(1 if m == k - 1 else 0 for m in range(pres.nvars))
    lhs = pres.monomial(exps, ScalarQ.q_power(residual))
    rhs = pres.generator(k).scaled(ScalarQ.q_power(residual))
    desc = f"{datum.name} word {','.join(map(str, word))} t_{k} from minors"
    return VerificationReport(
        desc,
        lhs,
        rhs,
        class_equal(lhs, rhs),
        exponent_match=(exps == unit),
        residual_q_power=residual,
    )


def _sample_words(datum: RootDatum, count: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    length = 1
    while len(out) < count:
        for w in itertools.product(datum.index_set, repeat=length):
            out.append(w)
            if len(out) == count:
                break
        length += 1
    return out


def ore_commutation_check(
    pres: TorusPresentation, lam: Weight, lamp: Weight, samples: int = 8
) -> bool:
    """Check the two commutation laws that make the minors an Ore set.

    First q^{-(lam, w lam' - lam')} M_lam M_lam' = M_{lam+lam'} for the given
    pair, then M_lam Phi(x) = q^{(lam + w lam, wt x)} Phi(x) M_lam against
    the first `samples` words x in (length, lex) order.
    """
    from .freeuq import feigin_on_element, word_weight

    datum = pres.datum
    word = pres.letters
    wlamp = weyl_act(datum, word, lamp)
    nu = datum.weight_to_root(wlamp - lamp)
    lhs = (feigin_minor(pres, lam) * feigin_minor(pres, lamp)).scaled(
        ScalarQ.q_power(-datum.sym_pair(lam, nu))
    )
    if not class_equal(lhs, feigin_minor(pres, lam + lamp)):
        return False

    minor = feigin_minor(pres, lam)
    wlam = weyl_act(datum, word, lam)
    for w in _sample_words(datum, samples):
        fx = feigin_on_element(pres, FreeNegElement.word(datum, w))
        nux = word_weight(datum, w)
        qpow = datum.sym_pair(lam, nux) + datum.sym_pair(wlam, nux)
        if not class_equal(minor * fx, (fx * minor).scaled(ScalarQ.q_power(qpow))):
            return False
    return True


def _act_word(word: tuple[int, ...], vec: ModuleVector) -> ModuleVector:
    for i in reversed(word):
        vec = act_f(i, vec)
    return vec


def minor_representative(left: ModuleVector, right: ModuleVector) -> FreeNegElement:
    """A free element y with (y, x) = (left, x . right) for every word x, for
    nonzero vectors of one module.

    Solves the (possibly singular) Gram system on the words of the right
    content; the functional factors through the form's radical, so a
    solution always exists.
    """
    datum = left.mod.datum
    need = _content(left, right)
    if need is None:
        return FreeNegElement.zero(datum)
    zs = words_of_weight(datum, -need)
    elems = [FreeNegElement.word(datum, z) for z in zs]
    gram = [[lusztig_form(x, y) for y in elems] for x in elems]
    rhs = [contravariant_form(left, _act_word(z, right)) for z in zs]
    sol = solve_linear(gram, rhs)
    if sol is None:
        raise AssertionError("matrix-coefficient functional not realized by the form")
    return FreeNegElement(datum, dict(zip(zs, sol)))
