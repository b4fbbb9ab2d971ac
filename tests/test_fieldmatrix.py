import itertools
import random
from fractions import Fraction

import pytest

from aniso.fieldmatrix import (MatrixError, NotInvertibleMatrix, mat_det,
                               mat_from_rows, mat_inverse, mat_mul, mat_pow,
                               mat_rank, mat_vec, nullspace, solve_right)
from aniso.scalars import Field, prime_field, rationals


def _fraction_reduce(rows, ncols):
    """Reduced echelon form of Fraction rows: (rows, pivots, det)."""
    m = [list(r) for r in rows]
    det = Fraction(1)
    pivots = []
    for col in range(ncols):
        r0 = len(pivots)
        piv = next((r for r in range(r0, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        if piv != r0:
            m[r0], m[piv] = m[piv], m[r0]
            det = -det
        det *= m[r0][col]
        m[r0] = [x / m[r0][col] for x in m[r0]]
        for r in range(len(m)):
            if r != r0 and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[r0])]
        pivots.append(col)
    return m, pivots, det


def _payloads(rows):
    return [[x.payload for x in row] for row in rows]


def _random_rational_matrix(rng, rows, cols, rank=None):
    F = Field(rationals())
    if rank is None:
        return mat_from_rows([[F(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                               for _ in range(cols)] for _ in range(rows)])
    basis = [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rank)]
    out = []
    for _ in range(rows):
        coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in basis]
        out.append([F(sum((c * b[k] for c, b in zip(coeffs, basis)), Fraction(0)))
                    for k in range(cols)])
    return mat_from_rows(out)


def test_elimination_over_q_matches_fraction_reference():
    rng = random.Random(17)
    F = Field(rationals())
    for trial in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        low_rank = rng.randint(0, min(rows, cols)) if trial % 3 == 0 else None
        a = _random_rational_matrix(rng, rows, cols, low_rank)
        ref, pivots, det = _fraction_reduce(_payloads(a), cols)
        assert mat_rank(a) == len(pivots)
        if rows == cols:
            assert mat_det(a).payload == (det if len(pivots) == rows else 0)
            if len(pivots) == rows:
                aug = [row + [Fraction(int(i == j)) for j in range(rows)]
                       for i, row in enumerate(_payloads(a))]
                expected = [row[rows:] for row in _fraction_reduce(aug, rows)[0]]
                assert _payloads(mat_inverse(a)) == expected
            else:
                with pytest.raises(NotInvertibleMatrix, match="singular matrix"):
                    mat_inverse(a)
        kernel = nullspace(a)
        assert len(kernel) == cols - len(pivots)
        for vec in kernel:
            assert all(x.is_zero for x in mat_vec(a, vec))
        b = [F(rng.randint(-3, 3)) for _ in range(rows)]
        aug = [row + [bv.payload] for row, bv in zip(_payloads(a), b)]
        red, piv_b, _ = _fraction_reduce(aug, cols)
        x = solve_right(a, b)
        if any(row[cols] for row in red[len(piv_b):]):
            assert x is None
        else:
            expected = [Fraction(0)] * cols
            for row, col in zip(red, piv_b):
                expected[col] = row[cols]
            assert [v.payload for v in x] == expected
            assert list(mat_vec(a, x)) == b


def _leibniz_det(m, field):
    n = len(m)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = field.one if inversions % 2 == 0 else -field.one
        for r in range(n):
            term = term * m[r][perm[r]]
        total = total + term
    return total


@pytest.mark.parametrize("p", [2, 3, 5])
def test_elimination_over_fp_matches_brute_force(p):
    F = Field(prime_field(p))
    rng = random.Random(p)
    for _ in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        a = mat_from_rows([[F(rng.randrange(p)) for _ in range(cols)] for _ in range(rows)])
        vectors = list(itertools.product(F.elements(), repeat=cols))
        images = {mat_vec(a, v) for v in vectors}
        kernel_size = sum(1 for v in vectors if all(x.is_zero for x in mat_vec(a, v)))
        rank = mat_rank(a)
        assert len(images) == p ** rank
        assert kernel_size == p ** (cols - rank) == p ** len(nullspace(a))
        b = tuple(F(rng.randrange(p)) for _ in range(rows))
        x = solve_right(a, b)
        assert (x is not None) == (b in images)
        if x is not None:
            assert mat_vec(a, x) == b
        if rows == cols:
            assert mat_det(a) == _leibniz_det(a, F)
            if rank == rows:
                ident = mat_pow(a, 0)
                assert mat_mul(a, mat_inverse(a)) == ident
                assert mat_pow(a, -2) == mat_mul(mat_inverse(a), mat_inverse(a))


def test_shape_errors():
    F = Field(rationals())
    wide = mat_from_rows([[F(1), F(2)]])
    with pytest.raises(MatrixError, match="non-square"):
        mat_det(wide)
    with pytest.raises(MatrixError, match="non-square"):
        mat_inverse(wide)
