"""Integrable highest weight modules with exact bases over Q(q).

A module V(lam) is built weight space by weight space, descending by
height.  The basis of the weight space mu is picked from the candidates
f_i . (basis of V(mu + alpha_i)) through their Gram matrix under the
contravariant form, computed by the commutation recursion

    (f_i x, f_j y) = (x, f_j e_i y) + delta_ij [<h_i, wt y>]_{q_i} (x, y).

The multiplicity m(mu) comes first, exactly, from the weight spaces above
mu, and mu is skipped when it is 0.  The pick is the column rank profile
of the Gram matrix at a fixed modular point, or the exact profile for that
weight space alone when the modular one is short.  Exact facts certify it:
it has m(mu) vectors, and the exact solve on their Gram block proves them
independent.

Stored per module: basis tags, Gram matrices, and the matrices of the
Chevalley actions f_i, e_i between adjacent weight spaces.  Missing action
keys mean the zero map.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import islice

from .cartan import RootDatum, Weight, dominant_conjugate, weyl_dim, word_exponents
from .linalg import column_rank_profile, invert_matrix, mat_vec, solve_square_multi
from .scalars import ScalarQ, S_ONE, S_ZERO, qint


__all__ = [
    "HWModule",
    "ModuleTooLarge",
    "ModuleVector",
    "build_module",
    "get_module",
    "act_f",
    "act_e",
    "act_f_divided",
    "act_e_divided",
    "divided_powers",
    "contravariant_form",
    "extremal_vector",
    "braid_T",
    "braid_T_inv",
    "extremal_by_braid",
]


class HWModule:
    """Simple module of dominant highest weight, with exact linear data."""

    __slots__ = (
        "datum",
        "lam",
        "weights",
        "basis",
        "gram",
        "fmat",
        "emat",
        "dim",
        "_extremal_memo",
        "_tinv_memo",
    )

    def __init__(self, datum: RootDatum, lam: Weight):
        self.datum = datum
        self.lam = lam
        self.weights: tuple[Weight, ...] = ()
        self.basis: dict[Weight, tuple[tuple[int, ...], ...]] = {}
        self.gram: dict[Weight, list[list[ScalarQ]]] = {}
        self.fmat: dict[tuple[int, Weight], list[tuple[ScalarQ, ...]]] = {}
        self.emat: dict[tuple[int, Weight], list[tuple[ScalarQ, ...]]] = {}
        self.dim = 0
        self._extremal_memo: dict[tuple[int, ...], "ModuleVector"] = {}
        self._tinv_memo: dict = {}

    def dim_of(self, mu: Weight) -> int:
        b = self.basis.get(mu)
        return len(b) if b else 0

    def basis_vector(self, mu: Weight, idx: int) -> "ModuleVector":
        n = self.dim_of(mu)
        if not 0 <= idx < n:
            raise ValueError("basis index out of range")
        coeffs = [S_ZERO] * n
        coeffs[idx] = S_ONE
        return ModuleVector(self, {mu: coeffs})

    def highest(self) -> "ModuleVector":
        return self.basis_vector(self.lam, 0)

    def zero(self) -> "ModuleVector":
        return ModuleVector(self, {})

    def __repr__(self) -> str:
        return f"HWModule({self.datum.name}, {self.lam.coords}, dim={self.dim})"


class ModuleVector:
    """Element of a module, coefficient lists keyed by weight."""

    __slots__ = ("mod", "parts")

    def __init__(self, mod: HWModule, parts: dict[Weight, list[ScalarQ]]):
        self.mod = mod
        self.parts = {
            mu: coeffs for mu, coeffs in parts.items() if any(c.num.c for c in coeffs)
        }

    def is_zero(self) -> bool:
        return not self.parts

    def weight(self) -> Weight:
        """Weight of a homogeneous vector."""
        if len(self.parts) != 1:
            raise ValueError("vector is not weight-homogeneous")
        return next(iter(self.parts))

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if self.mod is not other.mod:
            raise ValueError("vectors live in different modules")
        out = {mu: list(c) for mu, c in self.parts.items()}
        for mu, coeffs in other.parts.items():
            acc = out.get(mu)
            if acc is None:
                out[mu] = list(coeffs)
            else:
                for k, c in enumerate(coeffs):
                    acc[k] = acc[k] + c
        return ModuleVector(self.mod, out)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return self + other.scaled(_S_MINUS_ONE)

    def scaled(self, c: ScalarQ) -> "ModuleVector":
        if not c.num.c:
            return ModuleVector(self.mod, {})
        return ModuleVector(
            self.mod, {mu: [x * c for x in coeffs] for mu, coeffs in self.parts.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleVector):
            return NotImplemented
        if self.mod is not other.mod or self.parts.keys() != other.parts.keys():
            return False
        return all(self.parts[mu] == other.parts[mu] for mu in self.parts)

    __hash__ = None

    def __repr__(self) -> str:
        bits = []
        for mu in sorted(self.parts, key=lambda w: w.coords):
            bits.append(f"{mu.coords}: [{', '.join(str(c) for c in self.parts[mu])}]")
        return "ModuleVector({" + "; ".join(bits) + "})"


_S_MINUS_ONE = ScalarQ.from_int(-1)


# ---------------------------------------------------------------------------
# construction


def _apply_cols(
    cols: list[tuple[ScalarQ, ...]], vec: list[ScalarQ], target_dim: int
) -> list[ScalarQ]:
    """Matrix-vector product for a column-major action matrix."""
    out = [S_ZERO] * target_dim
    for cidx, c in enumerate(vec):
        if c.num.c:
            col = cols[cidx]
            for r, a in enumerate(col):
                if a.num.c:
                    out[r] = out[r] + a * c
    return out


# The prime field and evaluation point of the modular pick.  They only pick
# bases: a pick is kept when it has m(mu) columns, and then its Gram block is
# nonsingular mod p, hence exactly.  A shorter pick, or a denominator that
# vanishes at the point, gives way to the exact rank profile.
_PROFILE_P = (1 << 61) - 1
_PROFILE_Q0 = 1220703125


def _eval_mod(c: ScalarQ, powers: dict[int, int]) -> int:
    """c at q = _PROFILE_Q0 in GF(_PROFILE_P), with powers memoizing q0^e.

    Raises ZeroDivisionError when the denominator vanishes at the point."""
    p = _PROFILE_P
    vals = []
    for x in (c.num, c.den):
        acc = 0
        for e, k in x.c.items():
            w = powers.get(e)
            if w is None:
                w = powers[e] = pow(_PROFILE_Q0, e, p)
            acc += k * w
        vals.append(acc % p)
    num, den = vals
    if not den:
        raise ZeroDivisionError("denominator vanishes at the profile point")
    return num * pow(den, p - 2, p) % p


def _mod_rank_profile(rows: list[list[int]]) -> list[int]:
    p = _PROFILE_P
    m = [r[:] for r in rows]
    ncols = len(m[0]) if m else 0
    piv: list[int] = []
    top = 0
    for c in range(ncols):
        hit = next((r for r in range(top, len(m)) if m[r][c]), None)
        if hit is None:
            continue
        m[top], m[hit] = m[hit], m[top]
        inv = pow(m[top][c], p - 2, p)
        prow = m[top]
        for r in range(top + 1, len(m)):
            f = m[r][c]
            if f:
                f = f * inv % p
                row = m[r]
                for cc in range(c, ncols):
                    row[cc] = (row[cc] - f * prow[cc]) % p
        piv.append(c)
        top += 1
    return piv


def _multiplicity(mod: HWModule, mu: Weight) -> int:
    """dim V(lam)_mu from the weight spaces above mu, which are built: that of
    the dominant conjugate, or for a dominant mu Freudenthal's formula

        ((lam+rho)^2 - (mu+rho)^2) m(mu) = 2 sum_{beta>0, k>=1} m(mu+k beta) (mu+k beta, beta),

    where each beta-string above mu ends at its first missing weight."""
    datum = mod.datum
    dom = dominant_conjugate(datum, mu)[1]
    if dom != mu:
        return mod.dim_of(dom)
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


# The largest Weyl dimension build_module constructs.
DIM_CAP = 5000


def build_module(datum: RootDatum, lam: Weight) -> HWModule:
    """Construct V(lam) for dominant lam, all weight spaces at once."""
    if not lam.is_dominant():
        raise ValueError(f"highest weight {lam.coords} is not dominant")
    total = weyl_dim(datum, lam)
    if total > DIM_CAP:
        raise ModuleTooLarge(f"module dimension {total} exceeds cap {DIM_CAP}")

    mod = HWModule(datum, lam)
    alpha_w = {i: datum.alpha_weight(i) for i in datum.index_set}
    powers: dict[int, int] = {}

    mod.basis[lam] = ((),)
    mod.gram[lam] = [[S_ONE]]
    prev_layer = [lam]

    while prev_layer:
        cand_set = {mu - alpha_w[i] for mu in prev_layer for i in datum.index_set}
        new_layer = []
        for mu in sorted(cand_set, key=lambda w: w.coords):
            mult = _multiplicity(mod, mu)
            if not mult:
                continue
            # candidate vectors f_i . b_w, tagged (i,) + tag(b_w)
            cands: list[tuple[int, Weight, int, tuple[int, ...]]] = []
            for i in datum.index_set:
                parent = mu + alpha_w[i]
                tags = mod.basis.get(parent)
                if tags:
                    for widx, w in enumerate(tags):
                        cands.append((i, parent, widx, (i,) + w))
            cands.sort(key=lambda t: t[3])
            n = len(cands)

            # z[i][c] = coefficients of f_{j_c} e_i b_{w_c} over basis(mu + alpha_i),
            # plus the commutator delta-term when i = j_c
            zvecs: dict[int, list[list[ScalarQ]]] = {}
            for i in sorted({t[0] for t in cands}):
                parent_i = mu + alpha_w[i]
                tdim = len(mod.basis[parent_i])
                per_col = []
                for (j, parent_j, widx, _tag) in cands:
                    z = [S_ZERO] * tdim
                    inter = parent_j + alpha_w[i]
                    ecols = mod.emat.get((i, parent_j))
                    if ecols is not None and inter in mod.basis:
                        evec = list(ecols[widx])
                        fcols = mod.fmat.get((j, inter))
                        if fcols is not None:
                            z = _apply_cols(fcols, evec, tdim)
                    if i == j:
                        hval = datum.h_weight(i, parent_j)
                        if hval:
                            bump = qint(hval).subst(datum.di(i)).to_scalar()
                            z[widx] = z[widx] + bump
                    per_col.append(z)
                zvecs[i] = per_col

            def exact_row(ridx: int) -> list[ScalarQ]:
                i, parent_i, vidx, _t = cands[ridx]
                return mat_vec(zvecs[i], mod.gram[parent_i][vidx])

            # the pick: the rank profile at the modular point, or the exact
            # one for this weight space when that is short or undefined
            try:
                zmod = {
                    i: [[_eval_mod(zc, powers) for zc in col] for col in per_col]
                    for i, per_col in zvecs.items()
                }
                rows_mod = []
                for i, parent_i, vidx, _tag in cands:
                    grow = [_eval_mod(x, powers) for x in mod.gram[parent_i][vidx]]
                    rows_mod.append(
                        [sum(g * z for g, z in zip(grow, col)) % _PROFILE_P for col in zmod[i]]
                    )
                sel = _mod_rank_profile(rows_mod)
            except ZeroDivisionError:
                sel = []
            if len(sel) < mult:
                gram_full = [exact_row(r) for r in range(n)]
                sel = column_rank_profile(gram_full)
                sel_rows = [gram_full[r] for r in sel]
            else:
                sel_rows = [exact_row(r) for r in sel]
            if len(sel) != mult:
                raise AssertionError(
                    f"picked {len(sel)} vectors at {mu.coords}, multiplicity {mult}"
                )
            # the Gram matrix is symmetric, so its block on the rows and
            # columns of its rank profile is nonsingular, mod p as exactly
            unsel = [c for c in range(n) if c not in sel]
            g = [[row[c] for c in sel] for row in sel_rows]
            sol_cols = solve_square_multi(g, [[row[c] for row in sel_rows] for c in unsel])

            mod.basis[mu] = tuple(cands[c][3] for c in sel)
            mod.gram[mu] = g
            # z[i][c] is e_i of candidate c, so the selected columns are the
            # raising action out of mu; every entry z reads is from an earlier
            # layer and already final
            for i, per_col in zvecs.items():
                mod.emat[(i, mu)] = [tuple(per_col[c]) for c in sel]
            new_layer.append(mu)

            # express every candidate over the picked basis to get the f_i
            # action matrices out of the parents; each parent basis vector is
            # exactly one candidate, so every column gets filled
            coords = dict(zip(unsel, sol_cols))
            for k, c in enumerate(sel):
                coords[c] = [S_ONE if r == k else S_ZERO for r in range(mult)]
            for cidx, (j, parent_j, widx, _tag) in enumerate(cands):
                store = mod.fmat.setdefault((j, parent_j), [None] * len(mod.basis[parent_j]))
                store[widx] = tuple(coords[cidx])

        prev_layer = new_layer

    mod.weights = tuple(mod.basis)
    mod.dim = sum(len(b) for b in mod.basis.values())
    if mod.dim != total:
        raise AssertionError(f"built dimension {mod.dim}, Weyl dimension {total}")
    return mod


def get_module(datum: RootDatum, lam: Weight) -> HWModule:
    """V(lam) from the datum's module cache, built on the first request."""
    mod = datum._module_cache.get(lam.coords)
    if mod is None:
        mod = build_module(datum, lam)
        datum._module_cache[lam.coords] = mod
    return mod


# ---------------------------------------------------------------------------
# Chevalley actions


def _act(mats: dict, step: Weight, i: int, vec: ModuleVector) -> ModuleVector:
    """Apply the action stored in mats, which moves weight mu to mu + step."""
    mod = vec.mod
    out: dict[Weight, list[ScalarQ]] = {}
    for mu, coeffs in vec.parts.items():
        cols = mats.get((i, mu))
        if cols is not None:
            target = mu + step
            out[target] = _apply_cols(cols, coeffs, len(mod.basis[target]))
    return ModuleVector(mod, out)


def act_f(i: int, vec: ModuleVector) -> ModuleVector:
    return _act(vec.mod.fmat, -vec.mod.datum.alpha_weight(i), i, vec)


def act_e(i: int, vec: ModuleVector) -> ModuleVector:
    return _act(vec.mod.emat, vec.mod.datum.alpha_weight(i), i, vec)


# A pure function of two small ints, the same for every root datum, so one
# module-level cache serves all data and no datum needs to own it.
@lru_cache(maxsize=None)
def _inv_qint(a: int, d: int) -> ScalarQ:
    return qint(a).subst(d).to_scalar().inverse()


def divided_powers(act, i: int, vec: ModuleVector) -> Iterator[ModuleVector]:
    """The ladder act^{(a)} vec = act^a vec / [a]_{q_i}! for a = 0, 1, ...
    while it is nonzero, for act one of act_f, act_e: each term is act(i, .)
    of the one before, divided by [a]_{q_i}."""
    di = vec.mod.datum.di(i)
    a = 0
    while not vec.is_zero():
        yield vec
        a += 1
        vec = act(i, vec)
        if a > 1:
            vec = vec.scaled(_inv_qint(a, di))


def _act_divided(act, i: int, a: int, vec: ModuleVector) -> ModuleVector:
    """The a-th term of the ladder, zero past its end."""
    if a < 0:
        raise ValueError("divided power needs a nonnegative exponent")
    return next(islice(divided_powers(act, i, vec), a, None), vec.mod.zero())


def act_f_divided(i: int, a: int, vec: ModuleVector) -> ModuleVector:
    """Divided power f_i^{(a)} = f_i^a / [a]_{q_i}!."""
    return _act_divided(act_f, i, a, vec)


def act_e_divided(i: int, a: int, vec: ModuleVector) -> ModuleVector:
    """Divided power e_i^{(a)} = e_i^a / [a]_{q_i}!."""
    return _act_divided(act_e, i, a, vec)


def contravariant_form(v: ModuleVector, w: ModuleVector) -> ScalarQ:
    """The symmetric form with (u_lam, u_lam) = 1 and (f_i x, y) = (x, e_i y)."""
    if v.mod is not w.mod:
        raise ValueError("vectors live in different modules")
    mod = v.mod
    acc = S_ZERO
    for mu, vc in v.parts.items():
        wc = w.parts.get(mu)
        if wc is None:
            continue
        g = mod.gram[mu]
        for r, a in enumerate(vc):
            if not a.num.c:
                continue
            row = g[r]
            for s, b in enumerate(wc):
                if b.num.c and row[s].num.c:
                    acc = acc + a * row[s] * b
    return acc


# ---------------------------------------------------------------------------
# extremal vectors and the braid action


def extremal_vector(mod: HWModule, word: tuple[int, ...]) -> ModuleVector:
    """u_{w lam} for a reduced word of w, by the divided f-monomial

    f_{i_1}^{(c_1)} ... f_{i_l}^{(c_l)} . u_lam,
    c_m = <h_{i_m}, s_{i_{m+1}} ... s_{i_l} lam>,

    applied rightmost factor first.  Memoized per word."""
    word = tuple(word)
    got = mod._extremal_memo.get(word)
    if got is not None:
        return got
    exps = word_exponents(mod.datum, word, mod.lam)
    if any(c < 0 for c in exps):
        raise ValueError(f"word {word} is not reduced for weight {mod.lam.coords}")
    vec = mod.highest()
    for i, c in zip(reversed(word), reversed(exps)):
        vec = act_f_divided(i, c, vec)
    mod._extremal_memo[word] = vec
    return vec


def braid_T(mod: HWModule, i: int, vec: ModuleVector) -> ModuleVector:
    """Lusztig symmetry T_i, weight component by weight component:

    T_i(u) = sum over a, b, c >= 0 with -a + b - c = <h_i, mu> of
             (-1)^b q_i^{-ac+b} e_i^{(a)} f_i^{(b)} e_i^{(c)} . u.
    """
    di = mod.datum.di(i)
    out = mod.zero()
    for mu, coeffs in vec.parts.items():
        h = mod.datum.h_weight(i, mu)
        for c, ec in enumerate(divided_powers(act_e, i, ModuleVector(mod, {mu: coeffs}))):
            for b, fb in enumerate(divided_powers(act_f, i, ec)):
                a = b - c - h
                if a >= 0:
                    term = act_e_divided(i, a, fb)
                    if not term.is_zero():
                        coeff = ScalarQ.q_power(di * (b - a * c))
                        if b % 2:
                            coeff = coeff.mul_int(-1)
                        out = out + term.scaled(coeff)
    return out


def braid_T_inv(mod: HWModule, i: int, vec: ModuleVector) -> ModuleVector:
    """Inverse of T_i, by inverting its matrix between weight spaces."""
    out = mod.zero()
    for nu, coeffs in vec.parts.items():
        key = (i, nu)
        minv = mod._tinv_memo.get(key)
        src = mod.datum.reflect_weight(i, nu)
        sdim = len(mod.basis[src])
        if minv is None:
            rows = [[S_ZERO] * sdim for _ in range(len(mod.basis[nu]))]
            for k in range(sdim):
                img = braid_T(mod, i, mod.basis_vector(src, k))
                part = img.parts.get(nu)
                if part is not None:
                    for r, c in enumerate(part):
                        rows[r][k] = c
            minv = invert_matrix(rows)
            mod._tinv_memo[key] = minv
        out = out + ModuleVector(mod, {src: mat_vec(minv, list(coeffs))})
    return out


def extremal_by_braid(mod: HWModule, word: tuple[int, ...]) -> ModuleVector:
    """u_{w lam} as (T_{w^{-1}})^{-1}(u_lam): T_{i_l}^{-1} acts first."""
    vec = mod.highest()
    for i in reversed(word):
        vec = braid_T_inv(mod, i, vec)
    return vec
