"""Dense matrices over the exact fields of :mod:`aniso.scalars`.

Matrices are tuples of tuples of FieldElement, all sharing one descriptor.
All elimination goes through one Gauss-Jordan routine; fields are exact
so there is no pivoting subtlety beyond skipping zeros.

Products and scalings check descriptors once per matrix and run on
payload rows with the descriptor's own arithmetic. Products skip zeros:
the nonzero entries of each row are listed once, so ``mat_mul``,
``mat_pow`` and ``mat_vec`` cost O(n²) zero tests plus one field product
per pair of nonzero factors (O(n²) in all for a monomial matrix), and
each entry is one ``FieldDescriptor.dot`` of its pairs, so over Q(ζ_n) a
dense n × n product reduces mod Φ_n n² times, not n³. Payloads are
canonical, so the skipped terms change no output.
"""

from __future__ import annotations

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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise MatrixError("shape mismatch")
    return _products(a, b)


def _payload_rows(a: Matrix, d: FieldDescriptor) -> list[list]:
    """The payloads of a by rows; DescriptorMismatch unless all lie in d."""
    if any(x.descriptor is not d and x.descriptor != d for row in a for x in row):
        raise DescriptorMismatch(f"matrix entries outside {d!r}")
    return [[x.payload for x in row] for row in a]


def _products(a, b) -> Matrix:
    """a @ b on payloads: each row of a lists the pairs (x, b[k][j]) of
    nonzero x = row[k] and nonzero b[k][j] for entry j, in increasing k,
    and an entry is one d.dot of its pairs, or zero when it has none."""
    d = a[0][0].descriptor
    pa, pb = _payload_rows(a, d), _payload_rows(b, d)
    dot, is_zero = d.dot, d.is_zero
    supports = [[(j, y) for j, y in enumerate(row) if not is_zero(y)] for row in pb]
    zero, width = FieldElement(d, d.zero()), len(pb[0])
    out = []
    for row in pa:
        pairs = {}
        for x, support in zip(row, supports):
            if not is_zero(x):
                for j, y in support:
                    pairs.setdefault(j, []).append((x, y))
        out.append(tuple([FieldElement(d, dot(pairs[j])) if j in pairs else zero
                          for j in range(width)]))
    return tuple(out)


def mat_vec(a: Matrix, v) -> tuple:
    if len(a[0]) != len(v):
        raise MatrixError("shape mismatch")
    return tuple(row[0] for row in _products(a, tuple((y,) for y in v)))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c: FieldElement) -> Matrix:
    """c * a on payloads; zero entries are kept as they are."""
    d = c.descriptor
    mul, is_zero, cp = d.mul, d.is_zero, c.payload
    return tuple(tuple(x if is_zero(y) else FieldElement(d, mul(cp, y)) for x, y in zip(row, prow))
                 for row, prow in zip(a, _payload_rows(a, d)))


def mat_pow(a: Matrix, e: int) -> Matrix:
    F = Field(mat_descriptor(a))
    if e < 0:
        return mat_pow(mat_inverse(a), -e)
    return binary_power(a, e, identity(F, len(a)), mat_mul)


def _gauss_jordan(m: list[list], ncols: int) -> tuple[list[int], FieldElement]:
    """Reduce the rows m in place to reduced echelon form on the first ncols columns.

    Pivot rule: in each column, the first row at or below the current rank
    with a nonzero entry. Pivot rows are scaled to a leading one, and each
    row operation touches only the columns from the pivot on (the entries
    before it are already zero). Returns the pivot columns and the product
    of the pivots signed by the row swaps, which is the determinant when
    the first ncols columns are square and nonsingular.
    """
    det = Field(m[0][0].descriptor).one
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(m):
            break
        piv = next((r for r in range(rank, len(m)) if not m[r][col].is_zero), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det = det * m[rank][col]
        inv = m[rank][col].inverse()
        tail = [x * inv for x in m[rank][col:]]
        m[rank][col:] = tail
        for r, row in enumerate(m):
            f = row[col]
            if r != rank and not f.is_zero:
                row[col:] = [x - f * y for x, y in zip(row[col:], tail)]
        pivots.append(col)
    return pivots, det


def mat_det(a: Matrix) -> FieldElement:
    n = len(a)
    if len(a[0]) != n:
        raise MatrixError("determinant of a non-square matrix")
    pivots, det = _gauss_jordan([list(row) for row in a], n)
    return det if len(pivots) == n else Field(mat_descriptor(a)).zero


def mat_rank(a: Matrix) -> int:
    return len(_gauss_jordan([list(row) for row in a], len(a[0]))[0])


def mat_inverse(a: Matrix) -> Matrix:
    n = len(a)
    if len(a[0]) != n:
        raise MatrixError("inverse of a non-square matrix")
    F = Field(mat_descriptor(a))
    m = [list(row) + list(idr) for row, idr in zip(a, identity(F, n))]
    if len(_gauss_jordan(m, n)[0]) < n:
        raise NotInvertibleMatrix("singular matrix")
    return tuple(tuple(row[n:]) for row in m)


def nullspace(a: Matrix) -> list[tuple]:
    """Basis of the right kernel {x : a @ x = 0}, one vector per free column."""
    F = Field(mat_descriptor(a))
    cols = len(a[0])
    m = [list(row) for row in a]
    pivots, _ = _gauss_jordan(m, cols)
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        vec = [F.zero] * cols
        vec[free] = F.one
        for row, col in zip(m, pivots):
            vec[col] = -row[free]
        basis.append(tuple(vec))
    return basis


def scalar_of(a: Matrix) -> FieldElement | None:
    """The scalar c when a == c * identity, else None."""
    n, c = len(a), a[0][0]
    scalar = all(a[i][j] == c if i == j else a[i][j].is_zero for i in range(n) for j in range(n))
    return c if scalar else None


def projective_normalize(a: Matrix) -> Matrix:
    """Scale so the first nonzero entry in row-major order equals 1."""
    for row in a:
        for e in row:
            if not e.is_zero:
                if e.is_one:
                    return a
                return mat_scale(a, e.inverse())
    raise MatrixError("zero matrix has no projective normalization")
