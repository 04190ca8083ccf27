"""Exact linear algebra over Q(q).

Rows are cleared of denominators and eliminated fraction-free (two-term
Bareiss updates with exact Laurent division by the previous pivot), with
pivots chosen among the lowest-degree candidates.  That one elimination,
`column_dependencies`, serves every solve: back substitution gives each
column outside the column rank profile its ScalarQ coordinates over the
profile, `solve_linear` reads them for [A | b] and `invert_matrix` for
[A | I].  Everything is deterministic.
"""

from __future__ import annotations

from .scalars import LaurentQ, ScalarQ, S_ONE, S_ZERO, _L_ONE, _dgcd


__all__ = [
    "solve_linear",
    "column_dependencies",
    "invert_matrix",
    "mat_vec",
]


def _laurent_lcm(a: LaurentQ, b: LaurentQ) -> LaurentQ:
    if a.is_one():
        return b
    if b.is_one():
        return a
    prod = a * b
    da, _ = a._dense()
    db, _ = b._dense()
    g = LaurentQ._from_dense(_dgcd(da, db))
    return prod.exact_div(g)


def _clear_rows(rows: list[list[ScalarQ]]) -> list[list[LaurentQ]]:
    out = []
    for row in rows:
        den = _L_ONE
        for x in row:
            if x.num.c and not x.den.is_one():
                den = _laurent_lcm(den, x.den)
        if den.is_one():
            out.append([x.num for x in row])
        else:
            cleared = []
            for x in row:
                if not x.num.c:
                    cleared.append(x.num)
                elif x.den.is_one():
                    cleared.append(x.num * den)
                else:
                    cleared.append(x.num * den.exact_div(x.den))
            out.append(cleared)
    return out


def _span(x: LaurentQ) -> tuple[int, int]:
    return (x.max_exp() - x.min_exp(), len(x.c))


def _echelon(rows: list[list[LaurentQ]]) -> list[tuple[int, int]]:
    """Fraction-free row echelon, in place; returns the pivot positions."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots: list[tuple[int, int]] = []
    prev = _L_ONE
    pr = 0
    for c in range(nc):
        if pr >= nr:
            break
        best = None
        for r in range(pr, nr):
            e = rows[r][c]
            if e.c:
                s = _span(e)
                if best is None or s < best[0]:
                    best = (s, r)
        if best is None:
            continue
        r0 = best[1]
        if r0 != pr:
            rows[pr], rows[r0] = rows[r0], rows[pr]
        piv = rows[pr][c]
        prow = rows[pr]
        one_prev = prev.is_one()
        for r in range(pr + 1, nr):
            row = rows[r]
            m = row[c]
            if m.c:
                for k in range(c, nc):
                    val = piv * row[k] - m * prow[k]
                    row[k] = val.exact_div(prev) if not one_prev and val.c else val
            else:
                for k in range(c + 1, nc):
                    if row[k].c:
                        val = piv * row[k]
                        row[k] = val.exact_div(prev) if not one_prev else val
        pivots.append((pr, c))
        prev = piv
        pr += 1
    return pivots


def _back_substitute(
    aug: list[list[LaurentQ]], pivots: list[tuple[int, int]], nc: int, rhs: int
) -> list[ScalarQ]:
    """Solve the echelon system in the first nc columns of aug, with
    right-hand side column rhs of aug and every free coordinate zero."""
    x = [S_ZERO] * nc
    for (r, c) in reversed(pivots):
        row = aug[r]
        acc = row[rhs].to_scalar()
        for k in range(c + 1, nc):
            if row[k].c and x[k].num.c:
                acc = acc - row[k].to_scalar() * x[k]
        x[c] = acc / row[c].to_scalar()
    return x


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
    profile, deps = column_dependencies([row + [b] for row, b in zip(rows, rhs)])
    if nc in profile:
        return None
    x = [S_ZERO] * nc
    for c, v in zip(profile, deps[nc]):
        x[c] = v
    return x


def column_dependencies(
    rows: list[list[ScalarQ]],
) -> tuple[list[int], dict[int, list[ScalarQ]]]:
    """The column rank profile of A, the indices of its lexicographically
    first maximal independent column set, and every other column's
    coordinates over the profile columns, keyed by column.

    Each column outside the profile depends on the profile columns to its
    left, so its coordinates on the later ones are zero.  One elimination
    serves every column.
    """
    nc = len(rows[0]) if rows else 0
    if not nc:
        return [], {}
    work = _clear_rows(rows)
    pivots = _echelon(work)
    profile = [c for _, c in pivots]
    deps = {}
    for c in sorted(set(range(nc)) - set(profile)):
        x = _back_substitute(work, pivots, nc, c)
        deps[c] = [x[p] for p in profile]
    return profile, deps


def invert_matrix(rows: list[list[ScalarQ]]) -> list[list[ScalarQ]]:
    """Inverse of a square matrix over Q(q), from the column dependencies of
    [A | I]: A is invertible exactly when its columns are the profile, and
    then column j of I has column j of the inverse as its coordinates.
    Raises ValueError when A is singular."""
    n = len(rows)
    aug = [row + [S_ONE if r == c else S_ZERO for c in range(n)] for r, row in enumerate(rows)]
    profile, deps = column_dependencies(aug)
    if profile != list(range(n)):
        raise ValueError("matrix is singular")
    return [[deps[n + j][i] for j in range(n)] for i in range(n)]


def mat_vec(m: list[list[ScalarQ]], v: list[ScalarQ]) -> list[ScalarQ]:
    out = []
    for row in m:
        acc = S_ZERO
        for a, b in zip(row, v):
            if a.num.c and b.num.c:
                acc = acc + a * b
        out.append(acc)
    return out
