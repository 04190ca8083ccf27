"""Exact linear algebra by one Gauss–Jordan elimination over a field.

`column_dependencies` reduces a matrix to its reduced row echelon form, over
a field given as a few row-level operations: is-zero, inverse, scale a
row, subtract a multiple of a row, and a pivot size.  The profile and the
coordinates read off that form are unique, so they do not depend on the
pivot rows chosen.  `RationalFunctions` is the field Q(q) with ScalarQ
entries: the elimination's row operations and the rest of the field
interface of a module build (see hwmod), and `solve_linear` reads the
dependencies of [A | b].  The GF(p) field of the module shadow is hwmod's.
Everything is deterministic.
"""

from __future__ import annotations

from .scalars import ScalarQ, S_ONE, S_ZERO


__all__ = [
    "RationalFunctions",
    "solve_linear",
    "column_dependencies",
]


class RationalFunctions:
    """Q(q), with ScalarQ entries: the row operations of the elimination, and
    the exact build and its vectors.  Its constants are the exact ones, so of
    is the identity, and a build over it that gives up is a bug.

    The pivot of a column is its smallest live entry, by the number of
    nonzero terms of its numerator and denominator, which keeps the
    fractions of the eliminated rows small.  The build walk calls the field
    per vector or per weight space, never per scalar inside a loop."""

    zero = S_ZERO
    one = S_ONE
    give_up = AssertionError

    is_zero = staticmethod(ScalarQ.is_zero)
    inverse = staticmethod(ScalarQ.inverse)
    plus = staticmethod(ScalarQ.__add__)
    mul = staticmethod(ScalarQ.__mul__)

    @staticmethod
    def of(c: ScalarQ) -> ScalarQ:
        return c

    @staticmethod
    def key(c: ScalarQ) -> tuple:
        """c's canonical form: num's lowest exponent and the coefficient
        tuples of num and den, whose lowest exponent is 0.  Equal keys are
        equal values, and the other way round."""
        return c.num.lo, c.num.c, c.den.c

    @staticmethod
    def scale(row: list[ScalarQ], c: ScalarQ) -> list[ScalarQ]:
        return [x * c for x in row]

    @staticmethod
    def sub_multiple(row: list[ScalarQ], f: ScalarQ, prow: list[ScalarQ]) -> list[ScalarQ]:
        """row - f * prow."""
        return [a - f * b if b.num.c else a for a, b in zip(row, prow)]

    @staticmethod
    def pivot_size(x: ScalarQ) -> int:
        num, den = x.num.c, x.den.c
        return len(num) - num.count(0) + len(den) - den.count(0)

    @staticmethod
    def nonzero(coeffs: list[ScalarQ]) -> bool:
        return any(c.num.c for c in coeffs)

    @staticmethod
    def add(u: list[ScalarQ], v: list[ScalarQ]) -> list[ScalarQ]:
        return [a + b for a, b in zip(u, v)]

    @staticmethod
    def dot(u: list[ScalarQ], v: list[ScalarQ]) -> ScalarQ:
        acc = S_ZERO
        for a, b in zip(u, v):
            if a.num.c and b.num.c:
                acc = acc + a * b
        return acc

    @staticmethod
    def apply_cols(
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


def column_dependencies(rows: list[list], field) -> tuple[list[int], dict[int, list]]:
    """The column rank profile of A over field, the indices of its
    lexicographically first maximal independent column set, and every other
    column's coordinates over the profile columns, keyed by column.

    Each column outside the profile depends on the profile columns to its
    left, so its coordinates on the later ones are zero.  They are the
    column's entries in the pivot rows of the reduced row echelon form."""
    m = [list(row) for row in rows]
    nc = len(m[0]) if m else 0
    is_zero, size = field.is_zero, field.pivot_size
    piv: list[int] = []
    for c in range(nc):
        top = len(piv)
        live = [r for r in range(top, len(m)) if not is_zero(m[r][c])]
        if not live:
            continue
        hit = min(live, key=lambda r: size(m[r][c]))
        m[top], m[hit] = m[hit], m[top]
        prow = m[top] = field.scale(m[top], field.inverse(m[top][c]))
        # clear column c in every other row, above the pivot as well as below
        for r, row in enumerate(m):
            if r != top and not is_zero(row[c]):
                m[r] = field.sub_multiple(row, row[c], prow)
        piv.append(c)
    at = set(piv)
    return piv, {c: [m[k][c] for k in range(len(piv))] for c in range(nc) if c not in at}


def solve_linear(rows: list[list[ScalarQ]], rhs: list[ScalarQ]) -> list[ScalarQ] | None:
    """Solve A x = b exactly, from the column dependencies of [A | b].

    The system is inconsistent, and the result None, exactly when b's
    column is in the profile.  Otherwise b's coordinates over the profile
    give the solution whose free coordinates (the columns of A outside its
    profile) are zero.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if len(rhs) != nr:
        raise ValueError("rhs length mismatch")
    if not nr:
        return []
    profile, deps = column_dependencies(
        [row + [b] for row, b in zip(rows, rhs)], RationalFunctions
    )
    if nc in profile:
        return None
    x = [S_ZERO] * nc
    for c, v in zip(profile, deps[nc]):
        x[c] = v
    return x
