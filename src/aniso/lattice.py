"""Integer lattices: Smith normal form, kernels, closures, cohomology.

Conventions used throughout the package:

- matrices act on column vectors, so a group element g sends v to g @ v;
- a lattice is handed around as a list of row vectors spanning it;
- Smith decompositions satisfy U @ M @ V = D with U, V unimodular and the
  diagonal forming a divisibility chain d1 | d2 | ... with zeros last.

Pivot rule for the Smith reduction: the nonzero entry of smallest absolute
value in the working submatrix, ties broken by lowest row index then lowest
column index. This makes every decomposition reproducible bit for bit.

There is one Smith elimination. It acts on the working matrix and V, and
logs each row operation instead of carrying the m x m matrix U. The pivot
rule reads only the working matrix, so D and V are the same whether U is
built or not. smith_normal_form replays the log on the identity to build U
and keeps the full check U @ M @ V = D. The kernels, quotients and solves
here read only D, V and U's first r rows U_r (r the rank), so they never
build U. U_r comes from pushing I_r backwards through the log. The
certificate of this path costs O(m n^2 + r |log| + n^3) and checks that:

- V is unimodular (an n x n Bareiss determinant);
- the diagonal of D is nonnegative and a divisibility chain;
- every row of M @ V lies in the row lattice of D: column j is divisible
  by d_j, and the columns from r on are zero;
- U_r @ (M @ V) = D_r, the first r rows of D.

The third check puts the row lattice of M @ V inside that of D. The fourth
writes each basis row of D's row lattice as an integer combination of rows
of M @ V. So the two row lattices are equal, and some unimodular U has
U @ M @ V = D.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import AnisoError
from .scalars import _exact_json, binary_power


class LatticeError(AnisoError):
    pass


class NotUnimodular(LatticeError):
    pass


class InvalidModulus(LatticeError):
    pass


class ClosureCapExceeded(LatticeError):
    pass


DEFAULT_CLOSURE_CAP = 10000
CLOSURE_CAP_ENV = "ANISO_CLOSURE_CAP"


def closure_cap(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        return explicit
    return int(os.environ.get(CLOSURE_CAP_ENV, DEFAULT_CLOSURE_CAP))


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries:
            raise LatticeError("matrix needs at least one row")
        w = len(self.entries[0])
        for r in self.entries:
            if len(r) != w:
                raise LatticeError("ragged rows")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in r) for r in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)))

    @staticmethod
    def zeros(r: int, c: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * c for _ in range(r)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise LatticeError("shape mismatch")
        bt = tuple(zip(*other.entries))
        return IntMatrix(tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
            for row in self.entries))

    def __add__(self, other):
        return IntMatrix(tuple(tuple(x + y for x, y in zip(a, b))
                               for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        return IntMatrix(tuple(tuple(x - y for x, y in zip(a, b))
                               for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return IntMatrix(tuple(tuple(-x for x in r) for r in self.entries))

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise LatticeError("vector length mismatch")
        return tuple(sum(x * y for x, y in zip(row, v)) for row in self.entries)

    def det(self) -> int:
        if self.rows != self.cols:
            raise LatticeError("determinant of a non-square matrix")
        pivots, det = _bareiss([list(row) for row in self.entries], self.cols)
        return det if len(pivots) == self.rows else 0

    def power(self, e: int) -> "IntMatrix":
        if e < 0:
            return int_inverse(self).power(-e)
        return binary_power(self, e, IntMatrix.identity(self.rows), IntMatrix.__matmul__)

    def to_json(self) -> dict:
        return {"rows": str(self.rows), "cols": str(self.cols),
                "entries": [[str(x) for x in row] for row in self.entries]}

    @staticmethod
    def from_json(obj) -> "IntMatrix":
        rows = obj if isinstance(obj, list) else obj["entries"]
        m = IntMatrix.from_rows([_exact_json(x) for x in r] for r in rows)
        if (isinstance(obj, dict) and "rows" in obj
                and (m.rows != int(_exact_json(obj["rows"]))
                     or m.cols != int(_exact_json(obj["cols"])))):
            raise LatticeError("declared shape disagrees with entries")
        return m


def int_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix."""
    if m.rows != m.cols:
        raise NotUnimodular("non-square matrix")
    n = m.rows
    a = [list(row) + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(m.entries)]
    pivots, det = _bareiss(a, n)
    if len(pivots) < n:
        raise NotUnimodular("singular matrix")
    if abs(det) != 1:
        raise NotUnimodular("inverse is not integral")
    # every pivot entry equals +-1 = its own inverse
    return IntMatrix(tuple(tuple(row[i] * x for x in row[n:])
                           for i, row in enumerate(a)))


def _bareiss(a: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the rows a, in place.

    Pivot rule: in each of the first ncols columns, the first row at or
    below the current rank with a nonzero entry. Every division is exact,
    since each entry stays a minor of the input. Afterwards every pivot row
    holds the same value at its pivot column and zero in the other pivot
    columns, and the rows past the rank vanish on the first ncols columns.
    Returns the pivot columns and that common value signed by the row
    swaps, which is the determinant when the first ncols columns are
    square and nonsingular.
    """
    pivots: list[int] = []
    prev, sign = 1, 1
    for col in range(ncols):
        k = len(pivots)
        if k == len(a):
            break
        piv = next((r for r in range(k, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top = a[k]
        p = top[col]
        for i, row in enumerate(a):
            f = row[col]
            if i != k and (f or p != prev):
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(col)
        prev = p
    return pivots, sign * prev


# ---------------------------------------------------------------------------
# Smith normal form

@dataclass(frozen=True)
class SNFResult:
    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D.entries[i][i] for i in range(min(self.D.rows, self.D.cols)))

    def verify(self, m: IntMatrix) -> bool:
        if (self.U @ m @ self.V) != self.D:
            return False
        if abs(self.U.det()) != 1 or abs(self.V.det()) != 1:
            return False
        for i in range(self.D.rows):
            for j in range(self.D.cols):
                if i != j and self.D.entries[i][j]:
                    return False
        return _is_chain(self.diagonal)


def _is_chain(diag: Sequence[int]) -> bool:
    """Nonnegative, zeros last, and each nonzero entry divides the next."""
    return all(s >= 0 for s in diag) and not any(
        (a == 0 and b) or (a and b % a) for a, b in zip(diag, diag[1:]))


def _apply_row_op(rows: list[list[int]], op: tuple[int, ...]) -> None:
    """Apply one logged row operation in place: (i, j, q) subtracts q times
    row j from row i, (i, j) swaps rows i and j, (i,) negates row i."""
    if len(op) == 3:
        i, j, q = op
        rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]
    elif len(op) == 2:
        i, j = op
        rows[i], rows[j] = rows[j], rows[i]
    else:
        rows[op[0]] = [-x for x in rows[op[0]]]


def _smith_reduce(m: IntMatrix):
    """The Smith elimination of m under the documented pivot rule.

    Returns the reduced matrix D = U @ m @ V and V, both as lists of rows,
    and the log of row operations whose product, in order, is U. The pivot
    rule reads only the working matrix, so D and V do not depend on
    whether U is ever built.
    """
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    log: list[tuple[int, ...]] = []

    def row_op(op):
        log.append(op)
        _apply_row_op(a, op)

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in itertools.chain(a, v):
            if row[j]:
                row[i] -= q * row[j]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # re-select the smallest-|value| pivot every round; this keeps
        # coefficients from compounding across euclidean passes. The scan
        # is row-major and keeps the first strict minimum, which is the
        # lowest (row, column) among ties; no entry beats an entry of 1.
        best = 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = abs(row[j])
                if x and (not best or x < best):
                    best, pi, pj = x, i, j
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            row_op((pi, t))
        if pj != t:
            swap_cols(pj, t)
        p = a[t][t]
        reduced = False
        for i in range(t + 1, rows):
            if a[i][t]:
                row_op((i, t, a[i][t] // p))
                reduced = True
        for j in range(t + 1, cols):
            if a[t][j]:
                col_op(j, t, a[t][j] // p)
                reduced = True
        if reduced:
            continue
        # pivot must divide the remaining submatrix for the chain to hold
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op((t, bad, -1))
            continue
        if a[t][t] < 0:
            row_op((t,))
        t += 1
    return a, v, log


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """U @ m @ V = D with the documented pivot rule and divisibility chain.

    U is the elimination's log of row operations replayed on the identity.
    """
    a, v, log = _smith_reduce(m)
    u = [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    for op in log:
        _apply_row_op(u, op)
    result = SNFResult(IntMatrix.from_rows(u), IntMatrix.from_rows(a),
                       IntMatrix.from_rows(v))
    assert result.verify(m), "internal SNF inconsistency"
    return result


def _pivot_rows(log: list[tuple[int, ...]], r: int, rows: int) -> list[tuple[int, ...]]:
    """The first r rows of U, the product of the logged row operations.

    U_r = [I_r | 0] @ E_k @ ... @ E_1, so I_r is pushed backwards through
    the log; right multiplication by each E is a column operation, done on
    the transpose as the transposed row operation: O(r) per logged step.
    """
    cols = [[int(i == c) for i in range(r)] for c in range(rows)]
    for op in reversed(log):
        _apply_row_op(cols, (op[1], op[0], op[2]) if len(op) == 3 else op)
    return [tuple(col[i] for col in cols) for i in range(r)]


def _vec_mat(x: Sequence[int], rows: Sequence[Sequence[int]], width: int) -> list[int]:
    """The row vector x @ rows, skipping the zeros of x."""
    out = [0] * width
    for c, row in zip(x, rows):
        if c:
            out = [o + c * y for o, y in zip(out, row)]
    return out


def _certify_smith(m: IntMatrix, diag: Sequence[int], v: IntMatrix,
                   u_r: Sequence[Sequence[int]]) -> None:
    """Raise LatticeError unless some unimodular U has U @ m @ V = D.

    D is the matrix of m's shape with the given diagonal, and u_r stands
    for U's first r rows, r the number of nonzero diagonal entries. The
    checks, and why they suffice, are in the module docstring.
    """
    n = m.cols
    if abs(v.det()) != 1:
        raise LatticeError("Smith certificate: V is not unimodular")
    if len(diag) != min(m.rows, n) or not _is_chain(diag):
        raise LatticeError("Smith certificate: D is not a divisibility chain")
    r = sum(1 for s in diag if s)
    mv = [_vec_mat(row, v.entries, n) for row in m.entries]
    for row in mv:
        if any(x % diag[j] if j < r else x for j, x in enumerate(row)):
            raise LatticeError("Smith certificate: a row of m @ V is not in D's row lattice")
    if len(u_r) != r or any(
            len(urow) != m.rows
            or _vec_mat(urow, mv, n) != [diag[i] if j == i else 0 for j in range(n)]
            for i, urow in enumerate(u_r)):
        raise LatticeError("Smith certificate: U's pivot rows do not map m @ V onto D")


def _smith_dv(m: IntMatrix) -> tuple[tuple[int, ...], IntMatrix, list[tuple[int, ...]]]:
    """Diagonal, V and U's first r rows of m's Smith form, certified.

    The same elimination as smith_normal_form, so the same diagonal and V,
    but the m x m matrix U is never built: the certificate needs only its
    pivot rows, and so does every caller in this package.
    """
    a, v, log = _smith_reduce(m)
    diag = tuple(a[i][i] for i in range(min(m.rows, m.cols)))
    u_r = _pivot_rows(log, sum(1 for s in diag if s), m.rows)
    vm = IntMatrix.from_rows(v)
    _certify_smith(m, diag, vm, u_r)
    return diag, vm, u_r


# ---------------------------------------------------------------------------
# kernels and fixed sublattices

def integer_kernel(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis (as rows) of {v : m @ v = 0}."""
    diag, v, _ = _smith_dv(m)
    rank = sum(1 for d in diag if d)
    return [v.col(i) for i in range(rank, m.cols)]


def _stack_shifted(generators: Sequence[IntMatrix]) -> IntMatrix:
    if not generators:
        raise LatticeError("need at least one generator")
    n = generators[0].cols
    rows = []
    ident = IntMatrix.identity(n)
    for g in generators:
        if g.rows != n or g.cols != n:
            raise LatticeError("generators must be square of equal size")
        rows.extend((g - ident).entries)
    return IntMatrix.from_rows(rows)


def fixed_sublattice(generators: Sequence[IntMatrix]) -> list[tuple[int, ...]]:
    """Basis rows of the common fixed sublattice of the generated group.

    A vector fixed by every generator is fixed by every word in them, so
    only generators are stacked.
    """
    return integer_kernel(_stack_shifted(generators))


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Invariant factors d1 | d2 | ... (each >= 2) plus a free rank."""
    invariant_factors: tuple[int, ...]
    free_rank: int = 0

    def __post_init__(self):
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise LatticeError("invariant factors must form a divisibility chain")
        if any(d < 2 for d in self.invariant_factors):
            raise LatticeError("invariant factors must be >= 2")

    @property
    def order(self) -> Optional[int]:
        if self.free_rank:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    @property
    def exponent(self) -> Optional[int]:
        if self.free_rank:
            return None
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors and not self.free_rank


def kernel_mod_d(generators: Sequence[IntMatrix], d: int):
    """Structure and generators of {v in (Z/d)^n : g v = v for all g}.

    Returns (AbelianGroupStructure, witnesses) where witnesses are coset
    generators with entries reduced into [0, d), one per invariant factor,
    matching the factor order.
    """
    if d < 2:
        raise InvalidModulus(f"modulus must be >= 2, got {d}")
    stacked = _stack_shifted(generators)
    n = stacked.cols
    diag, v, _ = _smith_dv(stacked)
    diag = list(diag) + [0] * (n - len(diag))
    factors = []
    witnesses = []
    for i in range(n):
        s = diag[i]
        order = math.gcd(s, d) if s else d
        if order > 1:
            factors.append(order)
            vec = tuple((x * (d // order)) % d for x in v.col(i))
            witnesses.append(vec)
    structure = AbelianGroupStructure(tuple(factors))
    return structure, witnesses


# ---------------------------------------------------------------------------
# group closure

def closure(identity, generators: Sequence, mul: Callable, key: Callable,
            cap: int, error: Exception) -> list:
    """Elements generated from identity, breadth first, identity first.

    Each element found is multiplied on the right by the generators in the
    given order; key maps an element to the hashable value that tells
    elements apart. Raises error when a new element would exceed cap.
    """
    seen = {key(identity)}
    elements = [identity]
    for x in elements:  # the list grows while it is walked: a FIFO queue
        for g in generators:
            y = mul(x, g)
            k = key(y)
            if k not in seen:
                if len(elements) >= cap:
                    raise error
                seen.add(k)
                elements.append(y)
    return elements


def group_closure(generators: Sequence[IntMatrix], cap: Optional[int] = None) -> list[IntMatrix]:
    """BFS closure of the generated matrix group, identity first.

    Deterministic order: breadth first, multiplying by generators in the
    given order on the right. Raises ClosureCapExceeded past the cap
    (default 10000, override with the ANISO_CLOSURE_CAP variable).
    """
    cap = closure_cap(cap)
    if not generators:
        raise LatticeError("need at least one generator")
    return closure(IntMatrix.identity(generators[0].rows), generators,
                   IntMatrix.__matmul__, lambda m: m.entries, cap,
                   ClosureCapExceeded(f"closure exceeded cap {cap}"))


# ---------------------------------------------------------------------------
# quotients of lattices and first cohomology

def row_basis(rows: Sequence[Sequence[int]], ambient: int) -> list[tuple[int, ...]]:
    """Basis rows of the lattice spanned by the given rows of Z^ambient."""
    rows = [tuple(int(x) for x in r) for r in rows if any(r)]
    if not rows:
        return []
    m = IntMatrix.from_rows(rows)
    if m.cols != ambient:
        raise LatticeError("ambient dimension mismatch")
    diag, v, _ = _smith_dv(m)
    vinv = int_inverse(v)
    out = []
    for i, s in enumerate(diag):
        if s:
            out.append(tuple(s * x for x in vinv.row(i)))
    return out


def solve_left(a: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """One integer solution x of x @ a = b, or None."""
    if len(b) != a.cols:
        raise LatticeError("vector length mismatch")
    # with y = x @ U^-1, x @ a = b reads y @ D = b @ V = c: solvable iff
    # d_i | c_i below the rank r and c_i = 0 from r on; taking y_i = 0
    # from r on, x = y @ U needs only U's first r rows
    diag, v, u_r = _smith_dv(a)
    c = _vec_mat(b, v.entries, a.cols)
    r = len(u_r)
    if any(c[i] % diag[i] for i in range(r)) or any(c[r:]):
        return None
    return tuple(_vec_mat([c[i] // diag[i] for i in range(r)], u_r, a.rows))


def _reduce_mod_rows(v: Sequence[int], basis: list[tuple[int, ...]]) -> tuple[int, ...]:
    # bring v into a box modulo the row lattice using echelonized basis rows
    v = list(v)
    ech = sorted(basis, key=lambda r: next((i for i, x in enumerate(r) if x), len(r)))
    for row in ech:
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        q = v[lead] // row[lead] if row[lead] else 0
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return tuple(v)


def abelian_quotient(numerator_rows: Sequence[Sequence[int]],
                     denominator_rows: Sequence[Sequence[int]],
                     ambient: int):
    """Structure of (span numerator) / (span denominator) plus generators.

    The denominator must be contained in the numerator span. Returns
    (AbelianGroupStructure, torsion_generators, free_generators) with
    generator vectors in Z^ambient matching the invariant factor order.
    """
    num = row_basis(numerator_rows, ambient)
    den = [tuple(int(x) for x in r) for r in denominator_rows if any(r)]
    if not num:
        return AbelianGroupStructure(()), [], []
    r = len(num)
    if not den:
        return (AbelianGroupStructure((), free_rank=r), [], list(num))
    # express the denominator rows in the numerator basis: one fraction-free
    # elimination of [num^T | den^T]; num is independent, so pivots are 0..r-1
    aug = [[row[k] for row in num] + [row[k] for row in den] for k in range(ambient)]
    _bareiss(aug, r)
    scale = aug[0][0]
    if (any(x for row in aug[r:] for x in row[r:])
            or any(x % scale for row in aug[:r] for x in row[r:])):
        raise LatticeError("denominator lattice not contained in numerator lattice")
    coeff_rows = [tuple(aug[i][r + t] // scale for i in range(r)) for t in range(len(den))]
    c = IntMatrix.from_rows(coeff_rows)
    diag, v, _ = _smith_dv(c)
    vinv = int_inverse(v)
    diag = list(diag) + [0] * (r - len(diag))
    torsion, free = [], []
    factors = []
    den_basis = row_basis(den, ambient)
    for i in range(r):
        w = vinv.row(i)
        gen = tuple(sum(w[j] * num[j][k] for j in range(r)) for k in range(ambient))
        s = diag[i]
        if s == 0:
            free.append(gen)
        elif s > 1:
            factors.append(s)
            torsion.append(_reduce_mod_rows(gen, den_basis))
    structure = AbelianGroupStructure(tuple(factors), free_rank=len(free))
    return structure, torsion, free


def h1_of_theta_module(generators: Sequence[IntMatrix],
                       cap: Optional[int] = None) -> AbelianGroupStructure:
    """First cohomology of the generated finite group Θ acting on L = Z^n.

    With N = |Θ|, multiplication by N on 0 -> L -> L -> L/NL -> 0 and
    N·H¹ = 0 give H¹(Θ, L) ≅ (L/NL)^Θ / (L^Θ/NL^Θ): the classes fixed mod
    N modulo the fixed vectors. Only the generators enter, so the result
    is finite by construction.
    """
    order = len(group_closure(generators, cap))
    if order == 1:
        return AbelianGroupStructure(())
    n = generators[0].cols
    _, witnesses = kernel_mod_d(generators, order)
    multiples = [tuple(order if i == j else 0 for j in range(n)) for i in range(n)]
    structure, _, _ = abelian_quotient(witnesses + multiples,
                                       fixed_sublattice(generators) + multiples, n)
    return structure
