"""Integrable highest weight modules with exact bases over Q(q).

A module V(lam) is built weight space by weight space, descending by
height.  The basis of the weight space mu is picked from the candidates
f_i . (basis of V(mu + alpha_i)).  The multiplicity m(mu) comes first,
exactly, from the weight spaces above mu, and mu is skipped when it is 0.
As mu is below lam, a vector of weight mu is fixed by its images e_i v,
and the commutation

    e_i f_j b = f_j e_i b + delta_ij [<h_i, wt b>]_{q_i} b

gives those of the candidates from the weight spaces above.  Row (i, s) of
the e-image matrix Phi is coordinate s of e_i of each candidate.  The rows
of one e_i that is injective on V_mu have Phi's column dependencies, and
every weight that is not dominant has such a letter; a dominant weight
with none keeps every letter's rows (_build_weight).  One elimination of
those rows, linalg.column_dependencies over the build's field, gives the
pick, its column rank profile, and every other candidate's coordinates
over the pick, which are the f_i action.  By adjointness, (f_i x, v) =
(x, e_i v), the Gram matrix of the candidates under the contravariant
form is D Phi, with D block diagonal of the nonsingular Gram matrices
above; so the pick is the Gram matrix's profile and has m(mu) vectors,
which the build checks.  The build computes no Gram block: gram_block
computes the block on the pick when a pairing first reads it,
[[1/kappa^2]] at an extremal weight w lam from u_{w lam} = kappa b, and
elsewhere from the parents' blocks and the stored raising columns.

Stored per module: basis tags, the matrices of the Chevalley actions f_i,
e_i between adjacent weight spaces, and the Gram blocks read so far, which
are symmetric.  Missing action keys mean the zero map.

A ModuleVector is one weight mu and one coefficient list over the basis of
V(lam)_mu, as every vector formed here (basis, extremal and Chevalley images,
braid images T_i(V_mu) = V_{s_i mu}, the search's u') lies in one weight
space.  The zero vector has no weight.

The weight spaces are built on demand.  A weight space reads only weights
above it (its parents, the intermediate weights of Phi, Freudenthal's
strings, its dominant conjugate), so a query for mu decides mu by one walk
(_reach): first every undecided weight mu + alpha_i inside lam - Q_+, the
same way, then mu, built when its multiplicity is nonzero and recorded as a
zero weight otherwise.  Every entry, pick and basis tag is the one of the
whole build, and the decided weights are always an up-set: a vector of
weight mu has every weight above mu built, and so does any descent below
it down to a built weight, as cells._coeff_terms never leaves [left,
right].

The walk runs before a few reads: extremal_vector and extremal_from_walk
decide w lam before they climb, dim_of and basis_vector decide the weight
they read, and an action decides its target only where its matrix is
missing, which for e_i is a weight above a built one, decided already.
Once the lowest weight w0 lam is decided the module is complete: its
dimension must be the Weyl dimension (AssertionError otherwise), its weight
spaces are put in (height, coords) order, and the per-access walks stop.
HWModule.dim is the Weyl dimension from the start, and DIM_CAP is checked
against it when the module is created.  build_module returns a complete
module; get_module and shadow_module return modules that build on demand.

Each module also owns memos that live as long as it does and are filled
lazily: the coefficient lists of the extremal vectors u_{w lam} keyed by
their weight w lam, which is bounded by the Weyl orbit of lam, the two memos
of the Feigin descent (cells._coeff_terms), and on an exact module the
target-row and solve memos of the presentation search
(cells._target_row_zero, cells._solve).  No memo holds a vector, so none
points back at the module.  Both descent memos map a key that starts with
the right key the descent is given, the (weight, basis index) r of a basis
vector, to a dict keyed by one int path code, whose base the Weyl dimension
fixes, so a code does not depend on how much of the module is built:

    _node_memo[r][code]       whether f^path r is nonzero
    _leaf_memo[r + l][code]   the path's term, path factor applied, for the
                                left vector with l = (mu, key(c) of each
                                coordinate c at mu) its weight and exact
                                value; a zero term is the field's zero

Equal terms are stored once: each leaf value is the module's
_leaf_values[key(value)].  None of these values depends on a reduced word;
only the positions of a path's letters in a word do.  The descent returns
its terms keyed by path, (letter, a) steps, and the presentation search's
linear system has one row per path: a column's values depend only on the
module, the basis key and the path, and the target's only on its module
and the path.  The system's solution depends only on its set of distinct
rows (see cells._solve).  Whether a target path is zero in every
column depends only on the module, u_{w lam'} and the path (adjointness,
see cells._target_row_zero).

    _target_memo[u][path]              whether e^{path*} u is zero, with
                                         u = (mu, key(c) of each coordinate
                                         c at mu) the weight and exact value
                                         of u_{w lam'}, as in _leaf_memo
    _solve_memo[rows]                  solve_linear of a search system,
                                         under the frozenset of its distinct
                                         augmented rows [a | b], each the
                                         tuple of key(c) of its entries

One walk builds a module over either of two fields: Q(q) with ScalarQ
entries, linalg.RationalFunctions (build_module, get_module), or its GF(p)
shadow at q = q0, _Shadow (shadow_module), with int entries.  The field
interface, the same on both:

    zero, one                     the constants 0 and 1
    of(c)                         the field's value of a constant c of Q(q)
    key(c)                        a hashable key of the value c
    is_zero, inverse, scale,      the row operations of the one Gauss–Jordan
      sub_multiple, pivot_size      elimination, linalg.column_dependencies
    plus, mul                     scalar sum and product
    dot, add, nonzero, apply_cols coefficient lists: pairing, sum, a nonzero
                                    test, a column-major action matrix
    give_up                       the exception of a build that gives up

A field reads every constant c of Q(q) it uses as of(c):
RationalFunctions.of is the identity and _Shadow.of is _eval_mod at q0, so
every GF(p) name stays in this file.  A build over RationalFunctions that
gives up is a bug (AssertionError).  The shadow only screens; no exact build
reads it.  It gives up, raising ZeroDivisionError, when the profile of the
eliminated rows at q0, Phi_S(q0), is short of m(mu) or a constant is
undefined at q0.  A shadow's built part is the specialization at q0 of the
exact module with its picks: each of its Phi_S(q0) profiles has m(mu)
columns, so some m(mu) x m(mu) minor of the picked columns is nonzero at
q0, and by Cramer's rule every exact coordinate over the pick is defined
there; the shadow computes those entries by the same ring operations mod
p.  The weight a shadow gives up on stays
undecided, and its cache entry becomes None: what a screen proved on its
built part stands, and no later screen reads it.  The datum keeps one
module per highest weight: the exact one, or the shadow until get_module
replaces it.  Actions, divided powers, the form and extremal vectors work
over both fields; the braid operators and the Feigin image
(cells.feigin_matrix_coeff) are exact only.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import islice

from .cartan import RootDatum, Weight, dominant_conjugate, walk_word, weyl_dim
from .linalg import RationalFunctions, column_dependencies
from .scalars import ScalarQ, qint


__all__ = [
    "HWModule",
    "ModuleTooLarge",
    "ModuleVector",
    "build_module",
    "get_module",
    "shadow_module",
    "act_f",
    "act_e",
    "act_f_divided",
    "divided_powers",
    "inv_qint",
    "path_factor",
    "contravariant_form",
    "extremal_vector",
    "extremal_from_walk",
    "braid_T",
    "braid_T_inv",
    "extremal_by_braid",
]


class HWModule:
    """Simple module of dominant highest weight, with its linear data over
    field: Q(q) for an exact module, GF(p) for a shadow."""

    __slots__ = (
        "datum",
        "lam",
        "field",
        "basis",
        "gram",
        "fmat",
        "emat",
        "dim",
        "complete",
        "_lowest",
        "_absent",
        "_extremal_memo",
        "_node_memo",
        "_leaf_memo",
        "_leaf_values",
        "_target_memo",
        "_solve_memo",
    )

    def __init__(
        self, datum: RootDatum, lam: Weight, field: "RationalFunctions | _Shadow", dim: int
    ):
        self.datum = datum
        self.lam = lam
        self.field = field
        # the weight spaces built so far, an up-set of the weights
        self.basis: dict[Weight, tuple[tuple[int, ...], ...]] = {}
        # the Gram blocks gram_block has computed; entries are ScalarQ in an
        # exact module, ints mod p in a shadow
        self.gram: dict[Weight, list[list]] = {}
        self.fmat: dict[tuple[int, Weight], list[tuple]] = {}
        self.emat: dict[tuple[int, Weight], list[tuple]] = {}
        # the Weyl dimension, whether or not every weight space is built
        self.dim = dim
        self.complete = False
        # the lowest weight w0 lam, and the decided weights of multiplicity 0
        self._lowest = -dominant_conjugate(datum, -lam)[1]
        self._absent: set[Weight] = set()
        self._extremal_memo: dict[Weight, list] = {}
        self._node_memo: dict[tuple[Weight, int], dict[int, bool]] = {}
        self._leaf_memo: dict[tuple, dict[int, object]] = {}
        self._leaf_values: dict[object, object] = {}
        self._target_memo: dict[tuple, dict[tuple, bool]] = {}
        self._solve_memo: dict[frozenset, list | None] = {}

    def dim_of(self, mu: Weight) -> int:
        """dim V(lam)_mu, deciding mu first when it is not decided yet."""
        b = self.basis.get(mu)
        if b is None and not self.complete:
            _reach(self, mu)
            b = self.basis.get(mu)
        return len(b) if b else 0

    def basis_vector(self, mu: Weight, idx: int) -> "ModuleVector":
        n = self.dim_of(mu)
        if not 0 <= idx < n:
            raise ValueError("basis index out of range")
        coeffs = [self.field.zero] * n
        coeffs[idx] = self.field.one
        return ModuleVector(self, mu, coeffs)

    def highest(self) -> "ModuleVector":
        return self.basis_vector(self.lam, 0)

    def zero(self) -> "ModuleVector":
        return ModuleVector(self, None, [])

    def __repr__(self) -> str:
        return f"HWModule({self.datum.name}, {self.lam.coords}, dim={self.dim})"


class ModuleVector:
    """Element of one weight space: its weight mu and its coefficient list
    over the basis of V(lam)_mu.  The zero vector has no weight (mu None)."""

    __slots__ = ("mod", "mu", "coeffs")

    def __init__(self, mod: HWModule, mu: Weight | None, coeffs: list):
        self.mod = mod
        if mod.field.nonzero(coeffs):
            self.mu, self.coeffs = mu, coeffs
        else:
            self.mu, self.coeffs = None, []

    @property
    def lam(self) -> Weight:
        """The highest weight of the vector's module V(lam): lam' for the u'
        that find_presentation returns."""
        return self.mod.lam

    def is_zero(self) -> bool:
        return self.mu is None

    def weight(self) -> Weight:
        """Weight of a nonzero vector."""
        if self.mu is None:
            raise ValueError("the zero vector has no weight")
        return self.mu

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if self.mod is not other.mod:
            raise ValueError("vectors live in different modules")
        if other.mu is None:
            return self
        if self.mu is None:
            return other
        if self.mu != other.mu:
            raise ValueError("vectors of different weights")
        return ModuleVector(self.mod, self.mu, self.mod.field.add(self.coeffs, other.coeffs))

    def scaled(self, c) -> "ModuleVector":
        return ModuleVector(self.mod, self.mu, self.mod.field.scale(self.coeffs, c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self.mod is other.mod and self.mu == other.mu and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        return f"ModuleVector({self.mu!r}, [{', '.join(map(str, self.coeffs))}])"


# ---------------------------------------------------------------------------
# the two fields of a build


# The prime field and evaluation point of the shadow.  They only screen, and
# no exact build reads a shadow, so no output depends on them.  A built
# shadow's Phi_S(q0) profile has m(mu) columns at every weight, so by Cramer's
# rule the shadow is the specialization of the exact module with those
# picks.  A shorter profile, or a denominator that vanishes at the point,
# makes the shadow give up.
_PROFILE_P = (1 << 61) - 1
_PROFILE_Q0 = 1220703125


def _eval_mod(c: ScalarQ) -> int:
    """c at q = _PROFILE_Q0 in GF(_PROFILE_P), by Horner's rule on each
    coefficient tuple.

    Raises ZeroDivisionError when the denominator vanishes at the point."""
    p = _PROFILE_P
    vals = []
    for x in (c.num, c.den):
        acc = 0
        for k in reversed(x.c):
            acc = (acc * _PROFILE_Q0 + k) % p
        if x.lo:
            acc = acc * pow(_PROFILE_Q0, x.lo, p) % p
        vals.append(acc)
    num, den = vals
    if not den:
        raise ZeroDivisionError("denominator vanishes at the profile point")
    return num * pow(den, p - 2, p) % p


def inv_qint(a: int, d: int) -> ScalarQ:
    """1/[a]_{q^d} over Q(q)."""
    return qint(a).subst(d).to_scalar().inverse()


# A pure function of small ints, the same for every root datum, so one
# module-level cache serves all data and no datum needs to own it.
@lru_cache(maxsize=None)
def path_factor(steps: tuple[tuple[int, int], ...]) -> ScalarQ:
    """q^{sum d a(a-1)/2} / prod [a]_{q^d}! over the (d, a) steps of a path:
    as f_i^{(a)} = f_i^a / [a]_{q_i}!, it turns the pairing of a path's plain
    f-powers into its term of the Feigin image."""
    out = ScalarQ.q_power(sum(d * (a * (a - 1) // 2) for d, a in steps))
    for d, a in steps:
        for k in range(2, a + 1):
            out = out * inv_qint(k, d)
    return out


class _Shadow:
    """GF(p) at q = q0, with int entries in [0, p): the shadow build, its
    vectors, and the mod-p row operations of linalg's elimination.  Its
    constants are of(c) of the exact ones c: _eval_mod at q0, which raises
    ZeroDivisionError where c is undefined there, the exception a shadow
    build that gives up raises too."""

    zero = 0
    one = 1
    give_up = ZeroDivisionError
    nonzero = any

    def of(self, c: ScalarQ) -> int:
        return _eval_mod(c)

    @staticmethod
    def key(c: int) -> int:
        return c

    @staticmethod
    def is_zero(c: int) -> bool:
        return not c

    @staticmethod
    def plus(a: int, b: int) -> int:
        return (a + b) % _PROFILE_P

    @staticmethod
    def mul(a: int, b: int) -> int:
        return a * b % _PROFILE_P

    @staticmethod
    def add(u: list[int], v: list[int]) -> list[int]:
        p = _PROFILE_P
        return [(a + b) % p for a, b in zip(u, v)]

    @staticmethod
    def scale(u: list[int], c: int) -> list[int]:
        p = _PROFILE_P
        return [x * c % p for x in u]

    @staticmethod
    def inverse(c: int) -> int:
        return pow(c, _PROFILE_P - 2, _PROFILE_P)

    @staticmethod
    def sub_multiple(row: list[int], f: int, prow: list[int]) -> list[int]:
        """row - f * prow."""
        p = _PROFILE_P
        return [(a - f * b) % p if b else a for a, b in zip(row, prow)]

    @staticmethod
    def pivot_size(c: int) -> int:
        """Every live entry is the same size, so the first one is the pivot."""
        return 0

    @staticmethod
    def apply_cols(cols: list[tuple[int, ...]], vec: list[int], target_dim: int) -> list[int]:
        out = [0] * target_dim
        for c, col in zip(vec, cols):
            if c:
                for r, a in enumerate(col):
                    if a:
                        out[r] += a * c
        p = _PROFILE_P
        return [x % p for x in out]

    @staticmethod
    def dot(u: list[int], v: list[int]) -> int:
        return sum(a * b for a, b in zip(u, v)) % _PROFILE_P


# ---------------------------------------------------------------------------
# construction


def _multiplicity(mod: HWModule, mu: Weight) -> int:
    """dim V(lam)_mu from the weight spaces above mu, which are decided: that
    of the dominant conjugate, or for a dominant mu Freudenthal's formula

        ((lam+rho)^2 - (mu+rho)^2) m(mu) = 2 sum_{beta>0, k>=1} m(mu+k beta) (mu+k beta, beta),

    where each beta-string above mu ends at its first missing weight."""
    datum = mod.datum
    dom = dominant_conjugate(datum, mu)[1]
    if dom != mu:
        return len(mod.basis.get(dom, ()))
    total = 0
    for beta in datum.positive_roots():
        step = datum.root_to_weight(beta)
        nu = mu + step
        while nu in mod.basis:
            total += len(mod.basis[nu]) * datum.sym_pair(nu, beta)
            nu = nu + step
    lam = mod.lam
    gap = datum.sym_pair(
        lam + mu + datum.rho().scaled(2), datum.weight_to_root(lam - mu)
    )
    if gap <= 0 or 2 * total % gap:
        raise AssertionError(
            f"Freudenthal quotient {2 * total}/{gap} at {mu.coords} is not a multiplicity"
        )
    return 2 * total // gap


class ModuleTooLarge(ValueError):
    """The Weyl dimension of the requested module exceeds DIM_CAP."""


# The largest Weyl dimension a module is created with.
DIM_CAP = 5000


def _new_module(datum: RootDatum, lam: Weight, field: "RationalFunctions | _Shadow") -> HWModule:
    """V(lam) for dominant lam over field with its highest weight space
    built; _reach builds the others on demand.  Raises ModuleTooLarge when
    the Weyl dimension exceeds DIM_CAP."""
    if not lam.is_dominant():
        raise ValueError(f"highest weight {lam.coords} is not dominant")
    total = weyl_dim(datum, lam)
    if total > DIM_CAP:
        raise ModuleTooLarge(f"module dimension {total} exceeds cap {DIM_CAP}")
    mod = HWModule(datum, lam, field, total)
    mod.basis[lam] = ((),)
    if mod._lowest == lam:
        _complete(mod)
    return mod


def _reach(mod: HWModule, mu: Weight) -> None:
    """Decide mu, when it is in lam - Q_+ and not decided yet: first every
    undecided weight mu + alpha_i in lam - Q_+, then mu itself, built when
    _multiplicity is nonzero and added to _absent otherwise.  The walk keeps
    an explicit stack of weights with their depths lam - mu in root
    coordinates, so a module taller than the recursion limit is walked too.

    A shadow that gives up leaves None in its cache entry, and the weight
    it gave up on stays undecided.  Deciding the lowest weight completes
    the module."""
    basis, absent = mod.basis, mod._absent
    if mod.complete or mu in basis or mu in absent:
        return
    datum = mod.datum
    try:
        depth = datum.weight_to_root(mod.lam - mu).coords
    except ValueError:
        return
    if min(depth) < 0:
        return
    alpha = datum.alpha_weight
    stack = [(mu, depth)]
    try:
        while stack:
            nu, d = stack[-1]
            if nu in basis or nu in absent:
                stack.pop()
                continue
            # nu + alpha_i is in lam - Q_+ when depth coordinate i is positive
            undecided = len(stack)
            for i, di in enumerate(d, 1):
                if di:
                    up = nu + alpha(i)
                    if up not in basis and up not in absent:
                        stack.append((up, d[: i - 1] + (di - 1,) + d[i:]))
            if len(stack) == undecided:
                stack.pop()
                mult = _multiplicity(mod, nu)
                if mult:
                    _build_weight(mod, nu, mult)
                else:
                    absent.add(nu)
    except mod.field.give_up:
        if isinstance(mod.field, _Shadow) and datum._module_cache.get(mod.lam.coords) is mod:
            datum._module_cache[mod.lam.coords] = None
        raise
    if mu == mod._lowest:
        _complete(mod)


def _complete(mod: HWModule) -> None:
    """Mark mod complete once its lowest weight is decided: its dimension
    must be the Weyl dimension, and its weight spaces are put in (height,
    coords) order."""
    built = sum(len(b) for b in mod.basis.values())
    if built != mod.dim:
        raise AssertionError(f"built dimension {built}, Weyl dimension {mod.dim}")
    to_root = mod.datum.weight_to_root
    order = sorted(mod.basis, key=lambda mu: (to_root(mod.lam - mu).height(), mu.coords))
    items = [(mu, mod.basis[mu]) for mu in order]
    mod.basis.clear()
    mod.basis.update(items)
    mod.complete = True


def _phi_letters(mod: HWModule, mu: Weight, mult: int, letters: list[int]) -> list[int]:
    """The letters whose e-images are the rows of Phi at mu, of multiplicity
    mult, out of the letters with a parent: the one injective e_i on V_mu
    with the fewest rows m(mu + alpha_i), ties to the smaller letter, and
    every letter when none is injective (see _build_weight).  e_i is
    injective on V_mu when <h_i, mu> < 0 or m(mu + alpha_i) = m(mu)."""
    datum = mod.datum
    injective = []
    for i in letters:
        rows = len(mod.basis[mu + datum.alpha_weight(i)])
        if datum.h_weight(i, mu) < 0 or rows == mult:
            injective.append((rows, i))
    return [min(injective)[1]] if injective else letters


def _e_images(
    mod: HWModule, mu: Weight, i: int, cands: list[tuple[int, Weight, int, tuple[int, ...]]]
) -> list[list]:
    """e_i of each candidate f_j b_w of weight mu, over the basis of
    mu + alpha_i: the coordinates of f_j e_i b_w, plus the commutator term
    [<h_i, wt b_w>]_{q_i} b_w when i = j.  Every entry read is from a weight
    above mu and already final."""
    datum = mod.datum
    field = mod.field
    alpha_i = datum.alpha_weight(i)
    tdim = len(mod.basis[mu + alpha_i])
    out = []
    for (j, parent_j, widx, _tag) in cands:
        z = [field.zero] * tdim
        inter = parent_j + alpha_i
        ecols = mod.emat.get((i, parent_j))
        if ecols is not None and inter in mod.basis:
            fcols = mod.fmat.get((j, inter))
            if fcols is not None:
                z = field.apply_cols(fcols, list(ecols[widx]), tdim)
        if i == j:
            hval = datum.h_weight(i, parent_j)
            if hval:
                qn = qint(hval).subst(datum.di(i)).to_scalar()
                z[widx] = field.plus(z[widx], field.of(qn))
        out.append(z)
    return out


def _build_weight(mod: HWModule, mu: Weight, mult: int) -> None:
    """Build the weight space mu, of multiplicity mult > 0, from the weight
    spaces above it.  Phi_S is the candidates' e-image matrix Phi cut to the
    rows of the letters S that _phi_letters gives.  One elimination of
    Phi_S over the module's field gives the pick, its column rank profile,
    and every candidate's coordinates over it.  Phi_S has the column
    dependencies of Phi:

    - Phi = E F, with F the map from the candidates onto V_mu and E the
      stacked e_i on V_mu, which is injective as mu is below lam.  When E_S
      is injective on V_mu, ker Phi_S = ker E_S F = ker F = ker Phi, so
      Phi_S has Phi's column rank profile and the same coordinates of every
      other candidate over it.
    - By the string structure of U_{q_i}(sl_2)-modules (Jantzen, Lectures
      on Quantum Groups, ch. 2), e_i from V_mu to V_{mu + alpha_i} is onto
      when <h_i, mu> >= 0, so its kernel has dimension m(mu) -
      m(mu + alpha_i), and it is injective when <h_i, mu> < 0.  So e_i alone
      is injective exactly when <h_i, mu> < 0 or m(mu + alpha_i) = m(mu).
      A weight that is not dominant has a letter with <h_i, mu> < 0; a
      dominant one with no such letter keeps every letter's rows.
    - The shadow's argument holds for Phi_S: a Phi_S(q0) profile of m(mu)
      columns has a nonzero m(mu) x m(mu) minor at q0, a minor of Phi_S
      over Q(q), so the picked candidates are a basis of V_mu, and by
      Cramer's rule every exact coordinate over them is defined at q0.  A
      shorter profile, where the rows of Phi_S lose rank at q0, makes the
      shadow give up.

    The raising action of a letter outside S is its e-image of the picked
    candidates alone."""
    datum = mod.datum
    field = mod.field
    alpha = datum.alpha_weight
    # candidate vectors f_i . b_w, tagged (i,) + tag(b_w)
    cands: list[tuple[int, Weight, int, tuple[int, ...]]] = []
    for i in datum.index_set:
        parent = mu + alpha(i)
        tags = mod.basis.get(parent)
        if tags:
            for widx, w in enumerate(tags):
                cands.append((i, parent, widx, (i,) + w))
    cands.sort(key=lambda t: t[3])
    letters = sorted({t[0] for t in cands})

    # row (i, s) of phi is coordinate s of e_i of each candidate c, for the
    # letters i of Phi_S.  The Gram matrix is D Phi, with D block diagonal of
    # the nonsingular Gram matrices above, so phi has its column rank
    # profile, the pick, and the coordinates of the other candidates over it
    zvecs = {i: _e_images(mod, mu, i, cands) for i in _phi_letters(mod, mu, mult, letters)}
    phi = [list(row) for per_col in zvecs.values() for row in zip(*per_col)]
    sel, coords = column_dependencies(phi, field)
    # the pick is the Gram matrix's profile, so it has m(mu) vectors over
    # Q(q); a Phi_S(q0) profile is never longer, as a minor of Phi_S(q0) is
    # a minor of Phi_S at q0, and a shorter one makes the shadow give up
    if len(sel) != mult:
        raise field.give_up(f"picked {len(sel)} vectors at {mu.coords}, multiplicity {mult}")

    picked = [cands[c] for c in sel]
    mod.basis[mu] = tuple(t[3] for t in picked)
    # the e-images of the picked candidates are the raising action out of mu
    for i in letters:
        per_col = zvecs.get(i)
        if per_col is None:
            cols = _e_images(mod, mu, i, picked)
        else:
            cols = [per_col[c] for c in sel]
        mod.emat[(i, mu)] = [tuple(z) for z in cols]

    # express every candidate over the picked basis to get the f_i action
    # matrices out of the parents; each parent basis vector is exactly one
    # candidate, so every column gets filled
    for k, c in enumerate(sel):
        coords[c] = [field.one if r == k else field.zero for r in range(mult)]
    for cidx, (j, parent_j, widx, _tag) in enumerate(cands):
        store = mod.fmat.setdefault((j, parent_j), [None] * len(mod.basis[parent_j]))
        store[widx] = tuple(coords[cidx])


def _build(datum: RootDatum, lam: Weight, field: "RationalFunctions | _Shadow") -> HWModule:
    """V(lam) for dominant lam over field with every weight space built: a
    new module with its lowest weight w0 lam decided."""
    mod = _new_module(datum, lam, field)
    _reach(mod, mod._lowest)
    return mod


def build_module(datum: RootDatum, lam: Weight) -> HWModule:
    """Construct V(lam) over Q(q) for dominant lam, every weight space built."""
    return _build(datum, lam, RationalFunctions())


def get_module(datum: RootDatum, lam: Weight) -> HWModule:
    """V(lam) from the datum's module cache, created on the first request with
    its highest weight space only; it builds the weight spaces its callers
    reach as they need them, with the same entries build_module gives.  It
    replaces the entry's shadow, if any."""
    mod = datum._module_cache.get(lam.coords)
    if mod is None or isinstance(mod.field, _Shadow):
        mod = datum._module_cache[lam.coords] = _new_module(datum, lam, RationalFunctions())
    return mod


def shadow_module(datum: RootDatum, lam: Weight) -> HWModule | None:
    """The GF(p) shadow of V(lam) at q = q0 from the datum's module cache,
    created on the first request for an empty entry.  Like get_module's
    modules it builds its weight spaces on demand, each the specialization
    of the exact one with the shadow's picks.  None when there is nothing
    to screen with: V(lam) is cached exactly, or the shadow gave up on some
    weight (a short pick or a constant undefined at q0).  Raises
    ModuleTooLarge as build_module does."""
    cache = datum._module_cache
    if lam.coords not in cache:
        cache[lam.coords] = _new_module(datum, lam, _Shadow())
    mod = cache[lam.coords]
    return mod if mod is not None and isinstance(mod.field, _Shadow) else None


# ---------------------------------------------------------------------------
# Chevalley actions


def _act(mats: dict, step: Weight, i: int, vec: ModuleVector) -> ModuleVector:
    """Apply the action stored in mats, which moves weight mu to mu + step.
    On a module that is not complete, a missing matrix first decides the
    weight mu + step; for e_i that weight is above a built one, so it is
    decided already."""
    mod, mu = vec.mod, vec.mu
    if mu is None:
        return vec
    target = mu + step
    cols = mats.get((i, mu))
    if cols is None and not mod.complete:
        _reach(mod, target)
        cols = mats.get((i, mu))
    if cols is None:
        return mod.zero()
    coeffs = mod.field.apply_cols(cols, vec.coeffs, len(mod.basis[target]))
    return ModuleVector(mod, target, coeffs)


def act_f(i: int, vec: ModuleVector) -> ModuleVector:
    return _act(vec.mod.fmat, -vec.mod.datum.alpha_weight(i), i, vec)


def act_e(i: int, vec: ModuleVector) -> ModuleVector:
    return _act(vec.mod.emat, vec.mod.datum.alpha_weight(i), i, vec)


def divided_powers(act, i: int, vec: ModuleVector) -> Iterator[ModuleVector]:
    """The ladder act^{(a)} vec = act^a vec / [a]_{q_i}! for a = 0, 1, ...
    while it is nonzero, for act one of act_f, act_e: each term is act(i, .)
    of the one before, divided by [a]_{q_i}."""
    di = vec.mod.datum.di(i)
    of = vec.mod.field.of
    a = 0
    while not vec.is_zero():
        yield vec
        a += 1
        vec = act(i, vec)
        if a > 1:
            vec = vec.scaled(of(inv_qint(a, di)))


def _act_divided(act, i: int, a: int, vec: ModuleVector) -> ModuleVector:
    """The a-th term of the ladder, zero past its end."""
    if a < 0:
        raise ValueError("divided power needs a nonnegative exponent")
    return next(islice(divided_powers(act, i, vec), a, None), vec.mod.zero())


def act_f_divided(i: int, a: int, vec: ModuleVector) -> ModuleVector:
    """Divided power f_i^{(a)} = f_i^a / [a]_{q_i}!."""
    return _act_divided(act_f, i, a, vec)


def gram_block(mod: HWModule, mu: Weight) -> list[list]:
    """The Gram matrix of the basis of the built weight space mu under the
    contravariant form, computed on its first read and stored in mod.gram.

    At an extremal weight w lam the block is [[1/kappa^2]], with kappa the
    one coordinate of u_{w lam} (extremal_vector on dominant_conjugate's
    letters, memoized on the module), because (u_{w lam}, u_{w lam}) = 1:

    - for v with e_i v = 0 and n = <h_i, wt v>, e_i^{(n)} f_i^{(n)} v = v,
      so (f_i^{(n)} v, f_i^{(n)} v) = (v, e_i^{(n)} f_i^{(n)} v) = (v, v);
    - each step of the divided f-monomial of u_{w lam} is such an f_i^{(n)}
      on the extremal vector before it, which e_i kills, so along the walk
      (u_{w lam}, u_{w lam}) = (u_lam, u_lam) = 1;
    - a shadow inherits this by specialization: its u_{w lam} and its form
      are the exact ones at q0, so kappa(q0)^2 G(q0) = 1 and kappa(q0) is
      nonzero.

    Off the extremal weights, the entries come by adjointness from the
    blocks of the parents: for the basis vector b_a = f_i b' of mu and any
    b_b, (b_a, b_b) = (b', e_i b_b), with e_i b_b the stored raising column.
    The block is symmetric, so only the entries on and above the diagonal
    are paired.  The parents' blocks are read the same way, by an explicit
    stack of weights, so a module taller than the recursion limit works."""
    datum, field, basis, grams = mod.datum, mod.field, mod.basis, mod.gram
    stack = [mu]
    while stack:
        nu = stack[-1]
        if nu in grams:
            stack.pop()
            continue
        word, dom = dominant_conjugate(datum, nu)
        if dom == mod.lam:
            kappa = extremal_vector(mod, word).coeffs[0]
            grams[nu] = [[field.inverse(field.mul(kappa, kappa))]]
            stack.pop()
            continue
        tags = basis[nu]
        parents = [nu + datum.alpha_weight(tag[0]) for tag in tags]
        missing = [p for p in dict.fromkeys(parents) if p not in grams]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        m = len(tags)
        g: list[list] = [[field.zero] * m for _ in range(m)]
        for a, (tag, parent) in enumerate(zip(tags, parents)):
            grow = grams[parent][basis[parent].index(tag[1:])]
            ecols = mod.emat[(tag[0], nu)]
            for b in range(a, m):
                g[a][b] = g[b][a] = field.dot(grow, ecols[b])
        grams[nu] = g
    return grams[mu]


def contravariant_form(v: ModuleVector, w: ModuleVector):
    """The symmetric form with (u_lam, u_lam) = 1 and (f_i x, y) = (x, e_i y),
    valued in the field of the module: v^T G w with G the gram_block of
    their weight."""
    if v.mod is not w.mod:
        raise ValueError("vectors live in different modules")
    field = v.mod.field
    if v.mu is None or v.mu != w.mu:
        return field.zero
    g = gram_block(v.mod, v.mu)
    return field.dot(v.coeffs, [field.dot(row, w.coeffs) for row in g])


# ---------------------------------------------------------------------------
# extremal vectors and the braid action


def extremal_vector(mod: HWModule, word: tuple[int, ...]) -> ModuleVector:
    """u_{w lam} for a reduced word of w, by the divided f-monomial

    f_{i_1}^{(c_1)} ... f_{i_l}^{(c_l)} . u_lam,
    c_m = <h_{i_m}, s_{i_{m+1}} ... s_{i_l} lam>,

    applied rightmost factor first.  The vector depends on w lam only, not
    on the word, so its coefficients are memoized on the module by its
    weight w lam; the exponents are checked first, so a word that is not
    reduced for lam, or has a letter outside the index set, raises
    ValueError and never reads the memo."""
    word = tuple(word)
    return extremal_from_walk(mod, word, walk_word(mod.datum, word, mod.lam))


def extremal_from_walk(
    mod: HWModule, word: tuple[int, ...], walk: tuple[tuple[int, ...], Weight]
) -> ModuleVector:
    """extremal_vector for a word whose walk_word(mod.datum, word, mod.lam)
    the caller already holds, as a presentation keeps its word's walks."""
    exps, key = walk
    if any(c < 0 for c in exps):
        raise ValueError(f"word {word} is not reduced for weight {mod.lam.coords}")
    got = mod._extremal_memo.get(key)
    if got is not None:
        return ModuleVector(mod, key, got)
    # the divided monomial passes weights at or above w lam only
    _reach(mod, key)
    vec = mod.highest()
    for i, c in zip(reversed(word), reversed(exps)):
        vec = act_f_divided(i, c, vec)
    mod._extremal_memo[key] = vec.coeffs
    return vec


def _braid(mod: HWModule, i: int, vec: ModuleVector, x, y, sign: int) -> ModuleVector:
    """For vec of weight mu, the sum over a, b, c >= 0 with
    a = b - c - sign <h_i, mu> of (-1)^b q_i^{sign (b - ac)} x^{(a)} y^{(b)}
    x^{(c)} . vec, whose terms all have weight s_i mu: T_i for (x, y, sign)
    = (act_e, act_f, 1), T_i^{-1} for (act_f, act_e, -1)."""
    if vec.is_zero():
        return vec
    di = mod.datum.di(i)
    h = mod.datum.h_weight(i, vec.mu)
    out = mod.zero()
    for c, xc in enumerate(divided_powers(x, i, vec)):
        for b, yb in enumerate(divided_powers(y, i, xc)):
            a = b - c - sign * h
            if a >= 0:
                term = _act_divided(x, i, a, yb)
                if not term.is_zero():
                    coeff = ScalarQ.q_power(sign * di * (b - a * c))
                    if b % 2:
                        coeff = -coeff
                    out = out + term.scaled(coeff)
    return out


def braid_T(mod: HWModule, i: int, vec: ModuleVector) -> ModuleVector:
    """Lusztig symmetry T_i = T''_{i,1} on an exact module:

    T_i(u) = sum over a, b, c >= 0 with -a + b - c = <h_i, mu> of
             (-1)^b q_i^{-ac+b} e_i^{(a)} f_i^{(b)} e_i^{(c)} . u.
    """
    return _braid(mod, i, vec, act_e, act_f, 1)


def braid_T_inv(mod: HWModule, i: int, vec: ModuleVector) -> ModuleVector:
    """Inverse of T_i in Lusztig's closed form T'_{i,-1} = (T''_{i,1})^{-1}
    (Lusztig 1993, 5.2.3): the sum of braid_T with e_i and f_i swapped and
    q_i inverted."""
    return _braid(mod, i, vec, act_f, act_e, -1)


def extremal_by_braid(mod: HWModule, word: tuple[int, ...]) -> ModuleVector:
    """u_{w lam} as (T_{w^{-1}})^{-1}(u_lam): T_{i_l}^{-1} acts first."""
    vec = mod.highest()
    for i in reversed(word):
        vec = braid_T_inv(mod, i, vec)
    return vec
