import itertools
import random
from fractions import Fraction

import pytest

from aniso import fieldmatrix
from aniso.fieldmatrix import (MatrixError, NotInvertibleMatrix, identity, mat_add,
                               mat_det, mat_from_rows, mat_inverse, mat_mul,
                               mat_pow, mat_rank, mat_scale, mat_sub, mat_vec, nullspace,
                               projective_normalize, scalar_of)
from aniso.quadform import PfisterData, QuadraticForm
from aniso.scalars import (DescriptorMismatch, Field, cyclotomic, finite_field,
                           function_field, prime_field, rationals)
from oracles import (gauss_jordan_by_elements, inverse_by_elements, mat_mul_dense,
                     mat_scale_by_elements, mat_vec_dense, nullspace_by_elements,
                     products_by_elements, solve_right, transform_by_elements)
from test_scalars import SWEEP_FIELDS


def _fraction_reduce(rows, ncols):
    """Reduced echelon form of rational rows, read as Fractions: (rows,
    pivots, det)."""
    m = [[Fraction(x) for x in r] for r in rows]
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
    for a, b in ((identity(F, 2), identity(F, 3)), (wide, identity(F, 3)),
                 (identity(Field(prime_field(7)), 1), mat_from_rows([[F.one], [F.one]]))):
        for product in (mat_mul, mat_mul_dense):  # the former product raises alike
            with pytest.raises(MatrixError, match="shape mismatch"):
                product(a, b)


def test_sums_scalar_tests_and_powers_refuse_mismatched_shapes():
    # mat_add and mat_sub zipped rows and entries, so a 2 x 2 plus a 3 x 3
    # was a 2 x 2; scalar_of read [[1, 0, 1], [0, 1, 1]] as 1 and
    # mat_pow(a, 0) of a 2 x 3 matrix was the 2 x 2 identity
    F = Field(rationals())
    wide = mat_from_rows([[F(1), F(0), F(1)], [F(0), F(1), F(1)]])
    for op in (mat_add, mat_sub):
        for a, b in ((identity(F, 2), identity(F, 3)), (identity(F, 3), identity(F, 2)),
                     (identity(F, 2), wide), (wide, mat_from_rows([[F(1), F(0), F(1)]]))):
            with pytest.raises(MatrixError, match="shape mismatch"):
                op(a, b)
    with pytest.raises(MatrixError, match="shape mismatch"):
        scalar_of(wide)
    for e in (0, 1, 2, -1):
        with pytest.raises(MatrixError, match="shape mismatch"):
            mat_pow(wide, e)
    two = mat_add(identity(F, 2), identity(F, 2))
    assert two == ((F(2), F(0)), (F(0), F(2))) and scalar_of(two) == F(2)
    assert mat_sub(wide, wide) == mat_from_rows([[F(0)] * 3] * 2)
    assert mat_pow(two, 0) == identity(F, 2) and mat_pow(two, -1) == mat_inverse(two)
    assert projective_normalize(two) == identity(F, 2)
    assert projective_normalize(wide) is wide
    with pytest.raises(MatrixError, match="zero matrix"):
        projective_normalize(mat_sub(wide, wide))


ELIMINATION_FIELDS = [(rationals(), 2), (cyclotomic(5), 2), (prime_field(7), 2),
                      (finite_field(2, 4), 2)]


@pytest.mark.parametrize("descriptor,degree", SWEEP_FIELDS + ELIMINATION_FIELDS, ids=repr)
def test_payload_elimination_matches_the_element_oracle(descriptor, degree):
    # the payload Gauss-Jordan against the former FieldElement routine on
    # the same seeded rows: the same pivots, determinant and reduced rows,
    # and so the same rank, inverse and kernel. Zeros are drawn often and
    # every other matrix gets a dependent last row
    cases = SWEEP_FIELDS + ELIMINATION_FIELDS
    field, rng = Field(descriptor), random.Random(3300 + cases.index((descriptor, degree)))

    def entry():
        return field.zero if rng.random() < 0.3 else field.random_element(
            rng, height=4, degree=degree, terms=1)

    for trial in range(10):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        m = [[entry() for _ in range(cols)] for _ in range(rows)]
        if trial % 2 and rows > 1:
            c = entry()
            m[-1] = [x + c * y for x, y in zip(m[0], m[1])]
        a = mat_from_rows(m)
        by_elements = [list(row) for row in a]
        pivots, det = gauss_jordan_by_elements(by_elements, cols)
        reduced = [list(row) for row in fieldmatrix._payload_rows(a, descriptor)]
        assert fieldmatrix._gauss_jordan(descriptor, reduced, cols) == (pivots, det.payload)
        assert reduced == [[x.payload for x in row] for row in by_elements]
        assert mat_rank(a) == len(pivots)
        assert nullspace(a) == nullspace_by_elements(a)
        if rows == cols:
            assert mat_det(a) == (det if len(pivots) == rows else field.zero)
            inverse = inverse_by_elements(a)
            if inverse is None:
                with pytest.raises(NotInvertibleMatrix, match="singular matrix"):
                    mat_inverse(a)
            else:
                assert mat_inverse(a) == inverse


def test_mat_vec_refuses_a_vector_of_the_wrong_length():
    F = Field(rationals())
    for a, v in ((identity(F, 2), [1, 2, 3]), (identity(F, 3), [F(1), F(2)]),
                 (mat_from_rows([[F(1), F(2)]]), [F(1)])):
        with pytest.raises(MatrixError, match="shape mismatch"):
            mat_vec(a, v)
    assert mat_vec(mat_from_rows([[F(1), F(2)]]), [F(3), F(4)]) == (F(11),)


def _dense_dot(u, v):
    """Oracle: the row-by-column sum over every pair, zeros included."""
    acc = u[0] * v[0]
    for x, y in zip(u[1:], v[1:]):
        acc = acc + x * y
    return acc


def _dense_mul(a, b):
    return tuple(tuple(_dense_dot(row, col) for col in zip(*b)) for row in a)


def _dense_pow(a, e):
    out = identity(Field(a[0][0].descriptor), len(a))
    for _ in range(e):
        out = _dense_mul(out, a)
    return out


SPARSE_FIELDS = [
    rationals(),
    cyclotomic(5),
    prime_field(7),
    finite_field(2, 4),
    function_field(rationals(), ("a1", "a2", "a3")),
    function_field(prime_field(5), ("x", "y")),
]
PAYLOAD_FIELDS = [rationals(), finite_field(2, 4), cyclotomic(5),
                  function_field(rationals(), ("a1", "a2"))]
SHAPES = ("monomial", "companion", "sparse", "dense", "zero-row", "zero-column", "zero")


def _shaped_matrix(rng, field, shape, rows, cols):
    def nonzero():
        return field.random_element(rng, nonzero=True)

    if shape == "monomial":
        perm = rng.sample(range(max(rows, cols)), rows)
        m = [[nonzero() if perm[i] == j else field.zero for j in range(cols)]
             for i in range(rows)]
    elif shape == "companion":
        m = [[field.one if i == j + 1 else field.zero for j in range(cols)]
             for i in range(rows)]
        for i in range(rows):
            m[i][cols - 1] = field.random_element(rng)
    elif shape == "sparse":
        m = [[field.zero if rng.random() < 0.7 else nonzero() for _ in range(cols)]
             for _ in range(rows)]
    else:
        m = [[field.zero if shape == "zero" else nonzero() for _ in range(cols)]
             for _ in range(rows)]
        if shape == "zero-row":
            m[rng.randrange(rows)] = [field.zero] * cols
        elif shape == "zero-column":
            j = rng.randrange(cols)
            for row in m:
                row[j] = field.zero
    return mat_from_rows(m)


@pytest.mark.parametrize("descriptor", SPARSE_FIELDS)
def test_sparse_products_match_dense_oracle(descriptor):
    field = Field(descriptor)
    rng = random.Random(23)
    for trial, (sa, sb) in enumerate(itertools.product(SHAPES, repeat=2)):
        n = rng.randint(1, 4)
        a = _shaped_matrix(rng, field, sa, n, n)
        b = _shaped_matrix(rng, field, sb, n, n)
        assert mat_mul(a, b) == _dense_mul(a, b)
        assert mat_vec(a, b[0]) == tuple(_dense_dot(row, b[0]) for row in a)
        if trial % 3 == 0:
            m = rng.randint(1, 3)
            c = _shaped_matrix(rng, field, sb, n, m)
            assert mat_mul(a, c) == _dense_mul(a, c)
    for shape in SHAPES:
        a = _shaped_matrix(rng, field, shape, 3, 3)
        for e in range(4 if descriptor.kind == "function_field" else 6):
            assert mat_pow(a, e) == _dense_pow(a, e)


def test_products_over_two_fields_raise_descriptor_mismatch():
    q, f7 = Field(rationals()), Field(prime_field(7))
    for a, b in ((identity(q, 2), identity(f7, 2)),
                 (mat_from_rows([[q.zero] * 2] * 2), identity(f7, 2)),
                 (identity(q, 2), mat_from_rows([[f7.zero] * 2] * 2)),
                 (mat_from_rows([[q.zero] * 2] * 2), mat_from_rows([[f7.zero] * 2] * 2)),
                 (identity(q, 3), mat_from_rows([[f7.zero] * 2] * 3)),
                 (mat_from_rows([[q.zero, q.one]]), mat_from_rows([[f7.one], [f7.zero]]))):
        # the former product raises the same error
        for product, vec_product in ((mat_mul, mat_vec), (mat_mul_dense, mat_vec_dense)):
            with pytest.raises(DescriptorMismatch):
                product(a, b)
            with pytest.raises(DescriptorMismatch):
                vec_product(a, [row[0] for row in b])
        with pytest.raises(DescriptorMismatch):
            mat_scale(a, f7.one)
    assert mat_scale(mat_from_rows([[q.zero, q(2)]]), q(3)) == ((q.zero, q(6)),)
    rng = random.Random(1717)
    for d1, d2 in itertools.permutations(PAYLOAD_FIELDS, 2):
        f1, f2 = Field(d1), Field(d2)
        for sa, sb in (("dense", "dense"), ("zero", "monomial"), ("monomial", "zero"),
                       ("zero", "zero")):
            a, b = _shaped_matrix(rng, f1, sa, 2, 3), _shaped_matrix(rng, f2, sb, 3, 2)
            for call in (lambda: mat_mul(a, b), lambda: products_by_elements(a, b),
                         lambda: mat_scale(a, f2.one), lambda: mat_scale_by_elements(a, f2.one)):
                with pytest.raises(DescriptorMismatch):
                    call()


def test_sparse_mat_mul_matches_the_former_product():
    rng = random.Random(1313)
    for descriptor in SPARSE_FIELDS:
        field = Field(descriptor)
        for sa, sb in itertools.product(("dense", "monomial", "zero-row", "zero-column",
                                         "zero"), repeat=2):
            rows, inner, cols = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            for r, m, c in ((1, 1, 1), (rows, inner, cols), (inner, inner, inner)):
                a = _shaped_matrix(rng, field, sa, r, m)
                b = _shaped_matrix(rng, field, sb, m, c)
                assert mat_mul(a, b) == mat_mul_dense(a, b)
                assert mat_vec(a, [row[0] for row in b]) == mat_vec_dense(a, [row[0] for row in b])
    for k in (2, 3):  # the monomial maps of the Pfister closure
        data = PfisterData(k)
        dense = _shaped_matrix(rng, data.field, "dense", data.n, data.n)
        for a, b in itertools.product((data.sigma, data.tau, dense), repeat=2):
            assert mat_mul(a, b) == mat_mul_dense(a, b)
            assert mat_vec(a, b[-1]) == mat_vec_dense(a, b[-1])


@pytest.mark.parametrize("descriptor", PAYLOAD_FIELDS)
def test_payload_products_match_the_element_products(descriptor):
    field = Field(descriptor)
    rng = random.Random(1616)
    for sa, sb in itertools.product(SHAPES, repeat=2):
        r, m, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = _shaped_matrix(rng, field, sa, r, m)
        b = _shaped_matrix(rng, field, sb, m, c)
        got = mat_mul(a, b)
        assert got == products_by_elements(a, b)
        assert all(x.descriptor is descriptor for row in got for x in row)
        scalar = field.random_element(rng)
        assert mat_scale(a, scalar) == mat_scale_by_elements(a, scalar)


def test_dense_q_zeta5_sums_reduce_once_per_entry(monkeypatch):
    # each entry of a product, and each coefficient of a substituted form,
    # is one Q(z5) dot: its convolutions share one integer list, reduced mod
    # Phi_5 once. Reducing each product on its own took 27 for the 3 x 3
    # product and 72 for the substitution, whose 18 factors c m_ik are still
    # products of their own
    from aniso import scalars
    field, rng = Field(cyclotomic(5)), random.Random(5)

    def entry():
        return field.random_element(rng, nonzero=True)

    a, b = (mat_from_rows([[entry() for _ in range(3)] for _ in range(3)]) for _ in range(2))
    q = QuadraticForm(field.descriptor, 3, {(i, j): entry() for i in range(3) for j in range(i, 3)})
    calls, reduce_ints = [], scalars._cy_reduce_ints
    monkeypatch.setattr(scalars, "_cy_reduce_ints",
                        lambda *args: calls.append(args) or reduce_ints(*args))
    product = mat_mul(a, b)
    assert len(calls) == 9
    moved = q.transform(a)
    assert len(calls) == 9 + 24
    monkeypatch.undo()
    assert product == mat_mul_dense(a, b) and moved == transform_by_elements(q, a)
