"""Tests for exact linear algebra over Q(q): the Gauss–Jordan elimination
against a fraction-free reference elimination kept here."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcells.linalg import (
    RationalFunctions,
    column_dependencies,
    dot,
    solve_linear,
)
from qcells.scalars import LaurentQ, ScalarQ, _dgcd

QQ = RationalFunctions
ONE = ScalarQ(1)
ZERO = ScalarQ(0)
Q = ScalarQ.q_power(1)
L_ONE = LaurentQ(1)


def sc(n: int) -> ScalarQ:
    return ScalarQ(n)


def mat_vec(m: list[list[ScalarQ]], v: list[ScalarQ]) -> list[ScalarQ]:
    """Reference matrix-vector product."""
    return [dot(row, v) for row in m]


def mat_mul(a: list[list[ScalarQ]], b: list[list[ScalarQ]]) -> list[list[ScalarQ]]:
    """Reference matrix product."""
    if not a or not b:
        return []
    nc = len(b[0])
    out = []
    for row in a:
        new = []
        for j in range(nc):
            acc = ZERO
            for k, x in enumerate(row):
                if x.num.c and b[k][j].num.c:
                    acc = acc + x * b[k][j]
            new.append(acc)
        out.append(new)
    return out


# The reference: a fraction-free Bareiss elimination, an earlier
# implementation of the package.  Rows are cleared of denominators, two-term
# updates are divided exactly by the previous pivot, and each dependency is
# back substituted.


def _laurent_lcm(a: LaurentQ, b: LaurentQ) -> LaurentQ:
    if a.is_one():
        return b
    if b.is_one():
        return a
    g = _dgcd(list(a.c), list(b.c))
    return (a * b).exact_div(LaurentQ(dict(enumerate(g))))


def _clear_rows(rows: list[list[ScalarQ]]) -> list[list[LaurentQ]]:
    out = []
    for row in rows:
        den = L_ONE
        for x in row:
            if x.num.c:
                den = _laurent_lcm(den, x.den)
        out.append([x.num * den.exact_div(x.den) if x.num.c else x.num for x in row])
    return out


def _span(x: LaurentQ) -> tuple[int, int]:
    return (len(x.c) - 1, len(x.items()))


def _echelon(rows: list[list[LaurentQ]]) -> list[tuple[int, int]]:
    """Fraction-free row echelon, in place; returns the pivot positions."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots: list[tuple[int, int]] = []
    prev = L_ONE
    for c in range(nc):
        pr = len(pivots)
        if pr >= nr:
            break
        live = [r for r in range(pr, nr) if rows[r][c].c]
        if not live:
            continue
        r0 = min(live, key=lambda r: _span(rows[r][c]))
        rows[pr], rows[r0] = rows[r0], rows[pr]
        piv, prow = rows[pr][c], rows[pr]
        for row in rows[pr + 1:]:
            m = row[c]
            for k in range(c, nc):
                val = piv * row[k] - m * prow[k]
                row[k] = val.exact_div(prev) if val.c else val
        pivots.append((pr, c))
        prev = piv
    return pivots


def _back_substitute(
    aug: list[list[LaurentQ]], pivots: list[tuple[int, int]], nc: int, rhs: int
) -> list[ScalarQ]:
    """Solve the echelon system in the first nc columns of aug, with
    right-hand side column rhs of aug and every free coordinate zero."""
    x = [ZERO] * nc
    for (r, c) in reversed(pivots):
        row = aug[r]
        acc = row[rhs].to_scalar()
        for k in range(c + 1, nc):
            if row[k].c and x[k].num.c:
                acc = acc - row[k].to_scalar() * x[k]
        x[c] = acc / row[c].to_scalar()
    return x


def ref_column_dependencies(rows):
    """The profile and dependencies of column_dependencies, by the
    reference elimination."""
    nc = len(rows[0]) if rows else 0
    work = _clear_rows(rows)
    pivots = _echelon(work)
    prof = [c for _, c in pivots]
    deps = {}
    for c in range(nc):
        if c not in prof:
            x = _back_substitute(work, pivots, nc, c)
            deps[c] = [x[p] for p in prof]
    return prof, deps


def rand_scalar(rng: random.Random) -> ScalarQ:
    num = LaurentQ({rng.randrange(-3, 4): rng.randrange(-5, 6) for _ in range(rng.randrange(3))})
    den = LaurentQ({0: 1, rng.randrange(1, 3): rng.randrange(3)})
    return ScalarQ(num, den)


def profile(rows):
    return column_dependencies(rows, QQ)[0]


def test_column_rank_profile_picks_leftmost():
    rows = [
        [ONE, Q, ZERO],
        [Q, Q * Q, ONE],
    ]
    # column 1 is q times column 0, so the profile skips it
    assert column_dependencies(rows, QQ) == ([0, 2], {1: [Q, ZERO]})


def test_column_rank_profile_zero_matrix():
    rows = [[ZERO, ZERO], [ZERO, ZERO]]
    # every column is the empty combination
    assert column_dependencies(rows, QQ) == ([], {0: [], 1: []})
    assert column_dependencies([], QQ) == ([], {})


def check_dependencies(rows):
    """The profile columns are independent, each other column equals the
    profile columns times its coordinates, and those coordinates are zero on
    the profile columns to its right, so the profile is the
    lexicographically first maximal independent set."""
    nc = len(rows[0])
    prof, deps = column_dependencies(rows, QQ)
    assert sorted(deps) == [c for c in range(nc) if c not in prof]
    sub = [[row[c] for c in prof] for row in rows]
    assert profile(sub) == list(range(len(prof)))
    for c, x in deps.items():
        assert len(x) == len(prof)
        assert mat_vec(sub, x) == [row[c] for row in rows]
        assert all(x[k].is_zero() for k, p in enumerate(prof) if p > c)
    return prof


def test_column_dependencies_reconstruct_every_column():
    rng = random.Random(29)
    ranks = set()
    for _ in range(24):
        nr, nc, r = rng.randrange(1, 5), rng.randrange(1, 6), rng.randrange(0, 4)
        # a product of nr x r and r x nc factors has rank at most r
        left = [[rand_scalar(rng) for _ in range(r)] for _ in range(nr)]
        right = [[rand_scalar(rng) for _ in range(nc)] for _ in range(r)]
        rows = mat_mul(left, right) if r else [[ZERO] * nc for _ in range(nr)]
        prof = check_dependencies(rows)
        assert len(prof) <= min(r, nr, nc)
        ranks.add(len(prof))
        # square and tall random matrices too
        for height in (nc, nc + 2):
            check_dependencies([[rand_scalar(rng) for _ in range(nc)] for _ in range(height)])
    assert ranks >= {0, 1, 2, 3}


def test_column_dependencies_examples():
    # square of rank 2: column 2 is column 0 plus q times column 1
    rows = [[ONE, ZERO, ONE], [ZERO, ONE, Q], [Q, ONE, Q + Q]]
    assert column_dependencies(rows, QQ) == ([0, 1], {2: [ONE, Q]})
    # tall, first rows singular: the pivots come from below
    rows = [[ONE, ONE], [Q, Q], [ZERO, Q], [ZERO, ZERO]]
    assert column_dependencies(rows, QQ) == ([0, 1], {})
    # a zero column depends on nothing; a repeat on its first copy only
    rows = [[ZERO, ONE, ONE], [ZERO, Q, Q]]
    assert column_dependencies(rows, QQ) == ([1], {0: [ZERO], 2: [ONE]})


def test_column_dependencies_match_reference_elimination():
    """On seeded matrices with denominators, square, tall, wide,
    rank-deficient or zero, the Gauss–Jordan profile and every dependency
    equal the reference's."""
    rng = random.Random(37)
    kinds = set()
    fractions = 0
    for _ in range(40):
        nr, nc, r = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(0, 5)
        if rng.randrange(3):
            # a product of nr x r and r x nc factors has rank at most r
            left = [[rand_scalar(rng) for _ in range(r)] for _ in range(nr)]
            right = [[rand_scalar(rng) for _ in range(nc)] for _ in range(r)]
            rows = mat_mul(left, right) if r else [[ZERO] * nc for _ in range(nr)]
        else:
            rows = [[rand_scalar(rng) for _ in range(nc)] for _ in range(nr)]
        got = column_dependencies(rows, QQ)
        assert got == ref_column_dependencies(rows)
        fractions += any(not x.den.is_one() for row in rows for x in row)
        rank = len(got[0])
        kinds.add(("zero" if not rank else "deficient" if rank < min(nr, nc) else "full",
                   "square" if nr == nc else "tall" if nr > nc else "wide"))
    assert fractions >= 10
    for rank in ("zero", "deficient", "full"):
        for shape in ("square", "tall", "wide"):
            assert (rank, shape) in kinds


def test_solve_linear_unique():
    rows = [[ONE, Q], [ZERO, ONE]]
    rhs = [Q, sc(3)]
    sol = solve_linear(rows, rhs)
    assert sol is not None
    assert sol[0] + Q * sol[1] == Q
    assert sol[1] == sc(3)


def test_solve_linear_inconsistent():
    rows = [[ONE, ONE], [ONE, ONE]]
    rhs = [ONE, ZERO]
    assert solve_linear(rows, rhs) is None


def test_solve_linear_underdetermined_nullspace():
    rows = [[ONE, Q, ZERO]]
    rhs = [ONE]
    # the free coordinates 1 and 2 of the returned solution are zero
    part = solve_linear(rows, rhs)
    assert part == [ONE, ZERO, ZERO]
    # one nullspace vector per free column c: e_c plus the solution of A x = -A e_c
    null = []
    for c in (1, 2):
        vec = solve_linear(rows, [-row[c] for row in rows])
        assert vec is not None and vec[c].is_zero()
        vec[c] = ONE
        null.append(vec)
    assert null == [[-Q, ONE, ZERO], [ZERO, ZERO, ONE]]
    for vec in null:
        assert mat_vec(rows, vec) == [ZERO]
        # the solution plus any nullspace member still solves
        assert mat_vec(rows, [p + n for p, n in zip(part, vec)]) == rhs


def test_solve_linear_edge_cases():
    # an empty system has the empty solution
    assert solve_linear([], []) == []
    # tall and of rank 1, column 1 free (q times column 0), b off the span
    rows = [[ONE, Q], [Q, Q * Q], [ZERO, ZERO]]
    assert solve_linear(rows, [ONE, ONE, ZERO]) is None
    # the free column 1 sits between the pivot columns 0 and 2
    rows = [[ONE, Q, ZERO], [ZERO, ZERO, ONE], [ONE, Q, ONE]]
    assert solve_linear(rows, [sc(2), Q, sc(2) + Q]) == [sc(2), ZERO, Q]
    with pytest.raises(ValueError, match="rhs length mismatch"):
        solve_linear(rows, [ONE])


small_scalars = st.builds(
    ScalarQ,
    st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3).map(LaurentQ),
    st.sampled_from([L_ONE, LaurentQ({0: 1, 1: 1})]),
)


@st.composite
def systems_with_zero_row(draw):
    """A x = b over Q(q) with up to 4 rows, one more row of A that is zero
    at a drawn place, and a drawn b entry for it, zero or not."""
    nr, nc = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    row = st.lists(small_scalars, min_size=nc, max_size=nc)
    rows = draw(st.lists(row, min_size=nr, max_size=nr))
    rhs = draw(st.lists(small_scalars, min_size=nr, max_size=nr))
    at = draw(st.integers(0, nr))
    rows.insert(at, [ZERO] * nc)
    rhs.insert(at, draw(st.one_of(st.just(ZERO), small_scalars)))
    return rows, rhs


@given(systems_with_zero_row())
@settings(max_examples=80, deadline=None)
def test_zero_row_rejection_agrees_with_elimination(system):
    """On a system with a zero row of A, whose b entry is zero or not,
    solve_linear agrees with the column dependencies of [A | b]: the result
    is None exactly when b's column is in the profile, and a solution
    solves."""
    rows, rhs = system
    nc = len(rows[0])
    profile = column_dependencies([row + [b] for row, b in zip(rows, rhs)], QQ)[0]
    sol = solve_linear(rows, rhs)
    assert (sol is None) == (nc in profile)
    if sol is not None:
        assert mat_vec(rows, sol) == rhs


def old_solve_linear(rows, rhs):
    """Reference: a solve by its own elimination of [A | b], back
    substituted for b's column alone."""
    nc = len(rows[0]) if rows else 0
    aug = _clear_rows([row + [b] for row, b in zip(rows, rhs)])
    if not aug:
        return []
    pivots = _echelon(aug)
    if any(c == nc for _, c in pivots):
        return None
    return _back_substitute(aug, pivots, nc, nc)


def test_solve_linear_matches_its_own_elimination():
    rng = random.Random(31)
    kinds = set()
    for _ in range(30):
        nr, nc, r = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(0, 4)
        left = [[rand_scalar(rng) for _ in range(r)] for _ in range(nr)]
        right = [[rand_scalar(rng) for _ in range(nc)] for _ in range(r)]
        rows = mat_mul(left, right) if r else [[ZERO] * nc for _ in range(nr)]
        for rhs in (mat_vec(rows, [rand_scalar(rng) for _ in range(nc)]),
                    [rand_scalar(rng) for _ in range(nr)]):
            sol = solve_linear(rows, rhs)
            assert sol == old_solve_linear(rows, rhs)
            kinds.add(sol is None)
    assert kinds == {False, True}


def solve_unique(rows, rhs_cols):
    """A X = B for A of full column rank, square or tall, with B given as
    columns, from one column_dependencies of [A | B]: the columns of A must
    be its first profile columns, and no column of B may join the profile.
    The unique solution columns are the coordinates of B's columns."""
    nc = len(rows[0])
    aug = [row + [col[r] for col in rhs_cols] for r, row in enumerate(rows)]
    prof, deps = column_dependencies(aug, QQ)
    if prof[:nc] != list(range(nc)):
        raise ValueError("matrix has a rank deficit")
    if len(prof) > nc:
        raise ValueError("inconsistent right-hand side")
    return [deps[nc + j] for j in range(len(rhs_cols))]


def old_solve_square_multi(rows, rhs_cols):
    """Reference: the square solve of an earlier module build, for A
    invertible."""
    n = len(rows)
    aug = _clear_rows([row + [col[r] for col in rhs_cols] for r, row in enumerate(rows)])
    pivots = _echelon(aug)
    if len(pivots) != n or any(c >= n for _, c in pivots):
        raise ValueError("matrix is singular")
    return [_back_substitute(aug, pivots, n, n + j) for j in range(len(rhs_cols))]


def test_solve_unique_square_matches_old_solve():
    rng = random.Random(11)
    solved = 0
    for _ in range(12):
        n = rng.randrange(2, 5)
        rows = [[rand_scalar(rng) for _ in range(n)] for _ in range(n)]
        cols = [[rand_scalar(rng) for _ in range(n)] for _ in range(2)]
        try:
            want = old_solve_square_multi(rows, cols)
        except ValueError:
            with pytest.raises(ValueError):
                solve_unique(rows, cols)
            continue
        sols = solve_unique(rows, cols)
        assert sols == want
        for c in range(2):
            assert mat_vec(rows, sols[c]) == cols[c]
        solved += 1
    assert solved >= 6


def test_solve_unique_tall_consistent():
    rng = random.Random(17)
    solved = 0
    for _ in range(6):
        n = rng.randrange(1, 4)
        rows = [[rand_scalar(rng) for _ in range(n)] for _ in range(n + 3)]
        if profile(rows) != list(range(n)):
            continue
        xs = [[rand_scalar(rng) for _ in range(n)] for _ in range(3)]
        assert solve_unique(rows, [mat_vec(rows, x) for x in xs]) == xs
        solved += 1
    assert solved >= 4
    # a tall system whose first rows are singular: the pivots come from below
    rows = [[ONE, ONE], [Q, Q], [ZERO, Q], [ZERO, ZERO]]
    assert solve_unique(rows, [[sc(2), Q * sc(2), Q, ZERO]]) == [[ONE, ONE]]


def test_solve_unique_inconsistent_raises():
    rows = [[ONE, ZERO], [ZERO, ONE], [ONE, Q]]
    good = mat_vec(rows, [Q, sc(3)])
    bad = [ONE, ONE, ONE]
    assert solve_unique(rows, [good]) == [[Q, sc(3)]]
    # one column outside the column space fails the whole solve
    for cols in ([bad], [good, bad], [bad, good]):
        with pytest.raises(ValueError, match="inconsistent"):
            solve_unique(rows, cols)


def test_solve_unique_rank_deficit():
    with pytest.raises(ValueError, match="rank deficit"):
        solve_unique([[ONE, ONE], [ONE, ONE]], [[ONE, ZERO]])
    # a tall system of rank 1 in two unknowns, consistent right-hand side
    # included; no right-hand side at all still checks the rank
    rows = [[ONE, Q], [Q, Q * Q], [ZERO, ZERO]]
    for cols in ([mat_vec(rows, [ONE, ONE])], []):
        with pytest.raises(ValueError, match="rank deficit"):
            solve_unique(rows, cols)


def test_mat_vec_and_mul_consistency():
    rng = random.Random(5)
    a = [[rand_scalar(rng) for _ in range(3)] for _ in range(2)]
    b = [[rand_scalar(rng) for _ in range(2)] for _ in range(3)]
    v = [rand_scalar(rng) for _ in range(2)]
    # (a b) v = a (b v)
    left = mat_vec(mat_mul(a, b), v)
    right = mat_vec(a, mat_vec(b, v))
    assert left == right


def test_random_solve_roundtrip():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randrange(1, 5)
        rows = [[rand_scalar(rng) for _ in range(n)] for _ in range(n + 1)]
        x = [rand_scalar(rng) for _ in range(n)]
        rhs = mat_vec(rows, x)
        sol = solve_linear(rows, rhs)
        assert sol is not None
        assert mat_vec(rows, sol) == rhs
        if profile(rows) == list(range(n)):
            assert sol == x
