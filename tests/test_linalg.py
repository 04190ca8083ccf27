"""Tests for exact linear algebra over Q(q)."""

from __future__ import annotations

import random

import pytest

from qcells.linalg import (
    column_rank_profile,
    invert_matrix,
    mat_vec,
    solve_linear,
    solve_square_multi,
)
from qcells.scalars import LaurentQ, ScalarQ

ONE = ScalarQ(1)
ZERO = ScalarQ(0)
Q = ScalarQ.q_power(1)


def sc(n: int) -> ScalarQ:
    return ScalarQ.from_int(n)


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


def rand_scalar(rng: random.Random) -> ScalarQ:
    num = LaurentQ({rng.randrange(-3, 4): rng.randrange(-5, 6) for _ in range(rng.randrange(3))})
    den = LaurentQ({0: 1, rng.randrange(1, 3): rng.randrange(3)})
    return ScalarQ(num, den)


def test_column_rank_profile_picks_leftmost():
    rows = [
        [ONE, Q, ZERO],
        [Q, Q * Q, ONE],
    ]
    # column 1 is q times column 0, so the profile skips it
    assert column_rank_profile(rows) == [0, 2]


def test_column_rank_profile_zero_matrix():
    rows = [[ZERO, ZERO], [ZERO, ZERO]]
    assert column_rank_profile(rows) == []


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


def test_invert_matrix_small():
    rows = [[Q, ONE], [ZERO, Q]]
    inv = invert_matrix(rows)
    prod = mat_mul(rows, inv)
    for i in range(2):
        for j in range(2):
            assert prod[i][j] == (ONE if i == j else ZERO)


def test_invert_matrix_singular():
    rows = [[ONE, ONE], [Q, Q]]
    with pytest.raises(ValueError):
        invert_matrix(rows)


def test_solve_square_multi_matches_inverse():
    rng = random.Random(11)
    for _ in range(6):
        n = rng.randrange(2, 5)
        rows = [[rand_scalar(rng) for _ in range(n)] for _ in range(n)]
        cols = [[rand_scalar(rng) for _ in range(n)] for _ in range(2)]
        try:
            sols = solve_square_multi(rows, cols)
        except ValueError:
            continue
        for c in range(2):
            assert mat_vec(rows, sols[c]) == cols[c]


def test_solve_square_multi_singular():
    rows = [[ONE, ONE], [ONE, ONE]]
    with pytest.raises(ValueError):
        solve_square_multi(rows, [[ONE, ZERO]])


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
        if column_rank_profile(rows) == list(range(n)):
            assert sol == x
