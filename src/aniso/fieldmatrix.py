"""Dense matrices over the exact fields of :mod:`aniso.scalars`.

At the API a matrix is a tuple of tuples of FieldElement, all sharing one
descriptor. Inside, every routine checks the descriptors once, runs on the
payload rows with the descriptor's own arithmetic, and wraps the result
once at the end. The payload kernels (``_mul``, ``_power``,
``_gauss_jordan``, ``_inverse``, ``_nullspace``, ``_scalar_of``,
``_normalize``) take a descriptor and tuples of payload rows; group
closures, quadratic forms and the Weyl certificate chain them directly,
and a payload matrix hashes with no FieldElement in it.

All elimination goes through one Gauss-Jordan routine; fields are exact
so there is no pivoting subtlety beyond skipping zeros.

Products skip zeros: the nonzero entries of each row are listed once, so
``mat_mul``, ``mat_pow`` and ``mat_vec`` cost O(n²) zero tests plus one
field product per pair of nonzero factors (O(n²) in all for a monomial
matrix), and each entry is one ``FieldDescriptor.dot`` of its pairs, so
over Q(ζ_n) a dense n × n product reduces mod Φ_n n² times, not n³.
Payloads are canonical, so the skipped terms change no output.
"""

from __future__ import annotations

from functools import partial

from .errors import AnisoError
from .integers import binary_power
from .scalars import DescriptorMismatch, Field, FieldDescriptor, FieldElement


class MatrixError(AnisoError):
    pass


class NotInvertibleMatrix(MatrixError):
    pass


Matrix = tuple


def mat_from_rows(rows) -> Matrix:
    rows = tuple(tuple(r) for r in rows)
    if not rows or not rows[0]:
        raise MatrixError("matrix needs at least one row and column")
    width = len(rows[0])
    d = rows[0][0].descriptor
    for r in rows:
        if len(r) != width:
            raise MatrixError("ragged rows")
        for e in r:
            if not (isinstance(e, FieldElement)
                    and (e.descriptor is d or e.descriptor == d)):
                raise MatrixError("entries must share one field descriptor")
    return rows


def mat_descriptor(a: Matrix) -> FieldDescriptor:
    return a[0][0].descriptor


def identity(field: Field, n: int) -> Matrix:
    return tuple(tuple(field.one if i == j else field.zero for j in range(n))
                 for i in range(n))


def _payload_rows(a: Matrix, d: FieldDescriptor) -> tuple:
    """The payloads of a by rows; DescriptorMismatch unless all lie in d."""
    if any(x.descriptor is not d and x.descriptor != d for row in a for x in row):
        raise DescriptorMismatch(f"matrix entries outside {d!r}")
    return tuple(tuple([x.payload for x in row]) for row in a)


def _wrap(d: FieldDescriptor, rows) -> Matrix:
    """The API form of payload rows: one FieldElement per entry."""
    return tuple(tuple([FieldElement(d, x) for x in row]) for row in rows)


def _identity(d: FieldDescriptor, n: int) -> tuple:
    one, zero = d.one(), d.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _square(a) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise MatrixError("shape mismatch")
    return n


def _same_shape(a: Matrix, b: Matrix) -> None:
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        raise MatrixError("shape mismatch")


# ---------------------------------------------------------------------------
# payload kernels

def _mul(d: FieldDescriptor, a: tuple, b: tuple) -> tuple:
    """a @ b on payload rows, the one matrix product: each row of a lists
    the pairs (x, b[k][j]) of nonzero x = row[k] and nonzero b[k][j] for
    entry j, in increasing k, and an entry is one d.dot of its pairs, or
    zero when it has none."""
    dot, is_zero = d.dot, d.is_zero
    supports = [[(j, y) for j, y in enumerate(row) if not is_zero(y)] for row in b]
    zero, width = d.zero(), len(b[0])
    out = []
    for row in a:
        pairs: dict = {}
        for x, support in zip(row, supports):
            if not is_zero(x):
                for j, y in support:
                    pairs.setdefault(j, []).append((x, y))
        out.append(tuple([dot(pairs[j]) if j in pairs else zero for j in range(width)]))
    return tuple(out)


def _power(d: FieldDescriptor, a: tuple, e: int) -> tuple:
    """a^e for e >= 0 by binary powering on payload rows."""
    return binary_power(a, e, _identity(d, len(a)), partial(_mul, d))


def _scale(d: FieldDescriptor, a: tuple, c) -> tuple:
    """c * a on payload rows; zero entries are kept as they are."""
    mul, is_zero = d.mul, d.is_zero
    return tuple(tuple([y if is_zero(y) else mul(c, y) for y in row]) for row in a)


def _add(d: FieldDescriptor, a: tuple, b: tuple) -> tuple:
    add = d.add
    return tuple(tuple(map(add, ra, rb)) for ra, rb in zip(a, b))


def _sub(d: FieldDescriptor, a: tuple, b: tuple) -> tuple:
    sub = d.sub
    return tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(a, b))


def _gauss_jordan(d: FieldDescriptor, m: list[list], ncols: int) -> tuple[list[int], object]:
    """Reduce the payload rows m in place to reduced echelon form on the
    first ncols columns.

    Pivot rule: in each column, the first row at or below the current rank
    with a nonzero entry. Pivot rows are scaled to a leading one, and each
    row operation touches only the columns from the pivot on (the entries
    before it are already zero); an entry whose factor is zero is kept as
    it is, which payloads being canonical changes no value. Returns the
    pivot columns and the product of the pivots signed by the row swaps,
    which is the determinant when the first ncols columns are square and
    nonsingular.
    """
    neg, mul, sub, is_zero = d.neg, d.mul, d.sub, d.is_zero
    det = d.one()
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(m):
            break
        piv = next((r for r in range(rank, len(m)) if not is_zero(m[r][col])), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = neg(det)
        pivot = m[rank][col]
        det = mul(det, pivot)
        inv = d.inv(pivot)
        tail = [x if is_zero(x) else mul(x, inv) for x in m[rank][col:]]
        m[rank][col:] = tail
        for r, row in enumerate(m):
            f = row[col]
            if r != rank and not is_zero(f):
                row[col:] = [x if is_zero(y) else sub(x, mul(f, y))
                             for x, y in zip(row[col:], tail)]
        pivots.append(col)
    return pivots, det


def _rank(d: FieldDescriptor, a) -> int:
    return len(_gauss_jordan(d, [list(row) for row in a], len(a[0]))[0])


def _det(d: FieldDescriptor, a) -> object:
    n = len(a)
    pivots, det = _gauss_jordan(d, [list(row) for row in a], n)
    return det if len(pivots) == n else d.zero()


def _inverse(d: FieldDescriptor, a) -> tuple:
    n = len(a)
    one, zero = d.one(), d.zero()
    m = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    if len(_gauss_jordan(d, m, n)[0]) < n:
        raise NotInvertibleMatrix("singular matrix")
    return tuple(tuple(row[n:]) for row in m)


def _nullspace(d: FieldDescriptor, a) -> list[tuple]:
    cols = len(a[0])
    m = [list(row) for row in a]
    pivots, _ = _gauss_jordan(d, m, cols)
    zero, one, neg = d.zero(), d.one(), d.neg
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        vec = [zero] * cols
        vec[free] = one
        for row, col in zip(m, pivots):
            vec[col] = neg(row[free])
        basis.append(tuple(vec))
    return basis


def _scalar_of(d: FieldDescriptor, a) -> object:
    """The payload c when the square a == c * identity, else None."""
    n, c, is_zero = _square(a), a[0][0], d.is_zero
    scalar = all(a[i][j] == c if i == j else is_zero(a[i][j]) for i in range(n) for j in range(n))
    return c if scalar else None


def _normalize(d: FieldDescriptor, a: tuple) -> tuple:
    """a scaled so the first nonzero entry in row-major order is one."""
    is_zero = d.is_zero
    for row in a:
        for e in row:
            if not is_zero(e):
                return a if e == d.one() else _scale(d, a, d.inv(e))
    raise MatrixError("zero matrix has no projective normalization")


# ---------------------------------------------------------------------------
# the API on FieldElement matrices

def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise MatrixError("shape mismatch")
    d = mat_descriptor(a)
    return _wrap(d, _mul(d, _payload_rows(a, d), _payload_rows(b, d)))


def mat_vec(a: Matrix, v) -> tuple:
    if len(a[0]) != len(v):
        raise MatrixError("shape mismatch")
    d = mat_descriptor(a)
    column = _payload_rows(tuple((y,) for y in v), d)
    return tuple(FieldElement(d, row[0]) for row in _mul(d, _payload_rows(a, d), column))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    _same_shape(a, b)
    d = mat_descriptor(a)
    return _wrap(d, _add(d, _payload_rows(a, d), _payload_rows(b, d)))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    _same_shape(a, b)
    d = mat_descriptor(a)
    return _wrap(d, _sub(d, _payload_rows(a, d), _payload_rows(b, d)))


def mat_scale(a: Matrix, c: FieldElement) -> Matrix:
    """c * a on payloads; zero entries are kept as they are."""
    d = c.descriptor
    return _wrap(d, _scale(d, _payload_rows(a, d), c.payload))


def mat_pow(a: Matrix, e: int) -> Matrix:
    _square(a)
    d = mat_descriptor(a)
    rows = _payload_rows(a, d)
    if e < 0:
        rows, e = _inverse(d, rows), -e
    return _wrap(d, _power(d, rows, e))


def mat_det(a: Matrix) -> FieldElement:
    if len(a[0]) != len(a):
        raise MatrixError("determinant of a non-square matrix")
    d = mat_descriptor(a)
    return FieldElement(d, _det(d, _payload_rows(a, d)))


def mat_rank(a: Matrix) -> int:
    d = mat_descriptor(a)
    return _rank(d, _payload_rows(a, d))


def mat_inverse(a: Matrix) -> Matrix:
    if len(a[0]) != len(a):
        raise MatrixError("inverse of a non-square matrix")
    d = mat_descriptor(a)
    return _wrap(d, _inverse(d, _payload_rows(a, d)))


def nullspace(a: Matrix) -> list[tuple]:
    """Basis of the right kernel {x : a @ x = 0}, one vector per free column."""
    d = mat_descriptor(a)
    return [tuple(FieldElement(d, x) for x in vec)
            for vec in _nullspace(d, _payload_rows(a, d))]


def scalar_of(a: Matrix) -> FieldElement | None:
    """The scalar c when the square a == c * identity, else None."""
    d = mat_descriptor(a)
    c = _scalar_of(d, _payload_rows(a, d))
    return None if c is None else FieldElement(d, c)


def projective_normalize(a: Matrix) -> Matrix:
    """Scale so the first nonzero entry in row-major order equals 1."""
    d = mat_descriptor(a)
    rows = _payload_rows(a, d)
    normal = _normalize(d, rows)
    return a if normal is rows else _wrap(d, normal)
