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
logs each row operation instead of carrying the m x m matrix U. Each
operation costs the entries it changes: a row operation clearing the pivot
column costs the pivot row's support, and a column operation costs the
live rows, those nonzero in the pivot column, plus n for V. The pivot
rule reads only the working matrix, so D and V are the same whether U is
built or not. U's rows come from pushing the identity's rows backwards
through the log, O(r) per step whose source column is not still zero.
Every answer here reads only D, V and U's first r rows U_r (r the rank),
so U is never built, and _smith_dv is the one Smith form and its one
certificate. That certificate costs O(m n^2 + n^3) and checks that:

- V is unimodular (an n x n Bareiss determinant);
- the diagonal of D is nonnegative and a divisibility chain;
- every row of M @ V lies in the row lattice of D: column j is divisible
  by d_j, and the columns from r on are zero;
- U_r @ (M @ V) = D_r, the first r rows of D.

The third check puts the row lattice of M @ V inside that of D. The fourth
writes each basis row of D's row lattice as an integer combination of rows
of M @ V. So the two row lattices are equal, and some unimodular U has
U @ M @ V = D. Kernels, row bases, torsion and H¹ are read off that one
certified form; only the quotient generators (_quotient, behind
abelian_quotient and the isotropic step of pairing) invert a V.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import AnisoError, _exact_int, _json_list


class LatticeError(AnisoError):
    pass


class NotUnimodular(LatticeError):
    pass


class InvalidModulus(LatticeError):
    pass


class ClosureCapExceeded(LatticeError):
    pass


def _int_tuple(xs: Sequence[int], error: type = LatticeError) -> tuple[int, ...]:
    """xs as a tuple of ints, read with operator.index: a float or Fraction
    entry raises error naming it instead of being truncated by int()."""
    try:
        return tuple(map(operator.index, xs))
    except TypeError:
        bad = next((x for x in xs if not hasattr(x, "__index__")), xs)
        raise error(f"entry {bad!r} is not an integer") from None


DEFAULT_CLOSURE_CAP = 10000
CLOSURE_CAP_ENV = "ANISO_CLOSURE_CAP"


def closure_cap(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        return explicit
    raw = os.environ.get(CLOSURE_CAP_ENV, str(DEFAULT_CLOSURE_CAP))
    if not (raw.isascii() and raw.isdigit() and int(raw) > 0):
        raise LatticeError(f"{CLOSURE_CAP_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


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
        return IntMatrix(tuple(map(_int_tuple, rows)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)))

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
        """Row i of the product is row i of self times other, skipping the
        zeros of that row: permutation and norm-quotient matrices have at
        most two nonzeros per column, so their products cost O(n^2)."""
        if self.cols != other.rows:
            raise LatticeError("shape mismatch")
        return IntMatrix(tuple(tuple(_vec_mat(row, other.entries, other.cols))
                               for row in self.entries))

    def __sub__(self, other):
        return IntMatrix(tuple(tuple(x - y for x, y in zip(a, b))
                               for a, b in zip(self.entries, other.entries)))

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise LatticeError("vector length mismatch")
        return tuple(sum(x * y for x, y in zip(row, v)) for row in self.entries)

    def det(self) -> int:
        if self.rows != self.cols:
            raise LatticeError("determinant of a non-square matrix")
        pivots, det = _bareiss([list(row) for row in self.entries], self.cols, below_only=True)
        return det if len(pivots) == self.rows else 0

    def to_json(self) -> dict:
        return {"rows": str(self.rows), "cols": str(self.cols),
                "entries": [[str(x) for x in row] for row in self.entries]}

    @staticmethod
    def from_json(obj) -> "IntMatrix":
        rows = obj if isinstance(obj, list) else obj["entries"]
        m = IntMatrix(tuple(tuple(map(_exact_int, _json_list(r))) for r in _json_list(rows)))
        if (isinstance(obj, dict) and "rows" in obj
                and (m.rows != _exact_int(obj["rows"]) or m.cols != _exact_int(obj["cols"]))):
            raise LatticeError("declared shape disagrees with entries")
        return m


def int_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix."""
    n = m.cols
    a = [list(row) + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(m.entries)]
    _unimodular_bareiss(a, n)
    # every pivot entry equals +-1 = its own inverse
    return IntMatrix(tuple(tuple(row[i] * x for x in row[n:])
                           for i, row in enumerate(a)))


def _unimodular_bareiss(a: list[list[int]], n: int, below_only: bool = False) -> None:
    """Run _bareiss on the rows a over their first n columns, in place, and
    raise NotUnimodular unless those columns form a square matrix of
    determinant ±1."""
    if len(a) != n:
        raise NotUnimodular("non-square matrix")
    pivots, det = _bareiss(a, n, below_only=below_only)
    if len(pivots) < n:
        raise NotUnimodular("singular matrix")
    if abs(det) != 1:
        raise NotUnimodular("inverse is not integral")


def _bareiss(a: list[list[int]], ncols: int,
             below_only: bool = False) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the rows a, in place.

    Pivot rule: in each of the first ncols columns, the first row at or
    below the current rank with a nonzero entry. Every division is exact,
    since each entry stays a minor of the input. Afterwards every pivot row
    holds the same value at its pivot column and zero in the other pivot
    columns, and the rows past the rank vanish on the first ncols columns.
    Returns the pivot columns and that common value signed by the row
    swaps, which is the determinant when the first ncols columns are
    square and nonsingular.

    With below_only, only the rows below each pivot are eliminated, which
    is all a determinant needs: the rows at and below the pivot, and so
    the pivots and the value returned, are those of the full elimination,
    while the rows above keep their earlier values.
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
        for i in range(k + 1 if below_only else 0, len(a)):
            row = a[i]
            f = row[col]
            if i != k and (f or p != prev):
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(col)
        prev = p
    return pivots, sign * prev


# ---------------------------------------------------------------------------
# Smith normal form

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
    whether U is ever built, and every update skipped below would add
    q * 0. Rows t and below are zero before column t, so a row operation
    clearing column t reads only the pivot row's support from t on, found
    at the round's first such operation. A column operation with source t
    never changes column t, so it walks only V and the live rows, those
    nonzero in column t after the row pass. A pivot of ±1 divides
    everything, so it skips the divisibility scan.
    """
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    log: list[tuple[int, ...]] = []

    def row_op(op):
        log.append(op)
        _apply_row_op(a, op)

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
            for row in itertools.chain(a[t:], v):
                row[pj], row[t] = row[t], row[pj]
        top = a[t]
        p = top[t]
        live = support = None
        for i in range(t + 1, rows):
            row = a[i]
            if row[t]:
                q = row[t] // p
                log.append((i, t, q))
                if support is None:
                    support = [j for j in range(t, cols) if top[j]]
                    live = [top]
                for j in support:
                    row[j] -= q * top[j]
                if row[t]:
                    live.append(row)
        reduced = support is not None
        for j in range(t + 1, cols):
            if top[j]:
                q = top[j] // p
                for row in itertools.chain(live or (top,), v):
                    if row[t]:
                        row[j] -= q * row[t]
                reduced = True
        if reduced:
            continue
        # pivot must divide the remaining submatrix for the chain to hold
        bad = None
        if abs(p) != 1:  # a pivot of ±1 divides everything
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


def _pivot_rows(log: list[tuple[int, ...]], r: int, rows: int) -> list[tuple[int, ...]]:
    """The first r rows of U, the product of the logged row operations.

    U_r = [I_r | 0] @ E_k @ ... @ E_1, so I_r is pushed backwards through
    the log; right multiplication by each E is a column operation, done on
    the transpose as the transposed row operation, O(r) each. Columns r and
    on start as one shared zero list; an operation whose source is still
    that list, or a negation of it, would change nothing and is skipped.
    """
    zero = [0] * r
    cols = [[int(i == c) for i in range(r)] for c in range(r)] + [zero] * (rows - r)
    for op in reversed(log):
        if len(op) == 2 or cols[op[0]] is not zero:
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

    The m x m matrix U is never built: the certificate needs only its
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
    for g in generators:
        if g.rows != n or g.cols != n:
            raise LatticeError("generators must be square of equal size")
        for i, row in enumerate(g.entries):
            rows.append(list(row))
            rows[-1][i] -= 1
    return IntMatrix.from_rows(rows)


def _stack_smith(generators: Sequence[IntMatrix]) -> tuple[tuple[int, ...], IntMatrix]:
    """Diagonal s_1 | ... | s_n and V of the Smith form of the stacked g - 1.

    With v = V w, v is fixed by every generator, so by every word in them,
    iff every s_i w_i = 0, and fixed mod d iff every s_i w_i ≡ 0 (mod d).
    """
    diag, v, _ = _smith_dv(_stack_shifted(generators))
    return diag, v


def fixed_sublattice(generators: Sequence[IntMatrix]) -> list[tuple[int, ...]]:
    """Basis rows of the common fixed sublattice of the generated group:
    the columns of V at the zero diagonal entries."""
    diag, v = _stack_smith(generators)
    return [v.col(i) for i, s in enumerate(diag) if not s]


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


def kernel_mod_d(generators: Sequence[IntMatrix], d: int):
    """Structure and generators of {v in (Z/d)^n : g v = v for all g}.

    Returns (AbelianGroupStructure, witnesses) where witnesses are coset
    generators with entries reduced into [0, d), one per invariant factor,
    matching the factor order.
    """
    return _kernel_from_smith(*_stack_smith(generators), d)


def _kernel_from_smith(diag: Sequence[int], v: IntMatrix, d: int):
    """kernel_mod_d read off the diagonal and V of _stack_smith in O(n^2):
    the i-th coordinate of w gives Z/gcd(s_i, d), generated by
    d / gcd(s_i, d) times column i of V."""
    if d < 2:
        raise InvalidModulus(f"modulus must be >= 2, got {d}")
    factors = []
    witnesses = []
    for i, s in enumerate(diag):
        order = math.gcd(s, d)
        if order > 1:
            factors.append(order)
            vec = tuple((x * (d // order)) % d for x in v.col(i))
            witnesses.append(vec)
    structure = AbelianGroupStructure(tuple(factors))
    return structure, witnesses


# ---------------------------------------------------------------------------
# group closure

def closure(identity, generators: Sequence, mul: Callable, cap: int,
            error: Exception, admit: Callable = lambda g: None):
    """Elements generated from identity, breadth first, identity first, and
    their Cayley graph: (elements, right) with right[i][g] the index of
    elements[i] times the g-th kept generator.

    A generator is kept when the closure of those kept before it misses it
    and admit(g) does not raise; the closure then restarts from identity,
    multiplying each element found on the right by the kept generators in
    order, and right is the graph of that last pass, at no extra product.
    Elements are told apart by == and hash; error is raised when a new
    element would exceed cap. When it skips only the identity and repeats,
    the list is the breadth-first closure over all the generators, element
    for element.

    Lagrange's theorem bounds the cost: a finite closure of invertible
    elements is a group, so each kept generator at least doubles it, and
    with k <= log2 |G| kept the i-th closure has at most |G| / 2^(k-i)
    elements at i products each, at most 2 |G| k products in all. For
    integer matrices group_closure also bounds the row products behind
    them by the orbits of the rows (see there).
    """
    kept, seen, elements, right = [], {identity: 0}, [identity], [[]]
    for g in generators:
        if g in seen:
            continue
        admit(g)
        kept.append(g)
        seen, elements, right = {identity: 0}, [identity], []
        for x in elements:  # the list grows while it is walked: a FIFO queue
            row = []
            for h in kept:
                y = mul(x, h)
                i = seen.get(y)
                if i is None:
                    if len(elements) >= cap:
                        raise error
                    i = seen[y] = len(elements)
                    elements.append(y)
                row.append(i)
            right.append(row)
    return elements, right


def closure_parents(right: Sequence[Sequence[int]]) -> list:
    """The breadth-first tree of the graph closure returns: entry b > 0 is
    (p, g) with elements[b] = elements[p] times kept generator g and p < b,
    the first (p, g) in row-major order with right[p][g] = b, which is
    where the closure found b; entry 0 is None."""
    parent: list = [None] * len(right)
    for p, row in enumerate(right):
        for g, b in enumerate(row):
            if b and parent[b] is None:
                parent[b] = (p, g)
    return parent


def cayley_table(right: Sequence[Sequence[int]]) -> list[list[int]]:
    """table[a][b], the index of elements[a] times elements[b], from the
    graph closure returns, with |G|^2 lookups and no product: with
    (p, g) = closure_parents(right)[b], elements[a] elements[b] is
    (elements[a] elements[p]) g, so table[a][b] = right[table[a][p]][g].
    """
    table = [[a] for a in range(len(right))]
    for p, g in closure_parents(right)[1:]:
        for t in table:
            t.append(right[t[p]][g])
    return table


def closure_orders(right: Sequence[Sequence[int]]) -> list[int]:
    """The order of each element, by index, from the graph closure returns
    with no product. Multiplying by x walks the word of x in the kept
    generators, read off closure_parents, through the graph. One power
    chain x, x^2, ..., x^k = 1 per element not yet met in an earlier chain
    gives the orders of all its powers at once: x^j has order k / gcd(j, k).
    """
    parents = closure_parents(right)
    orders = [0] * len(right)
    for x in range(len(right)):
        if orders[x]:
            continue
        word, b = [], x
        while b:
            b, g = parents[b]
            word.append(g)
        chain = [x]
        while chain[-1]:
            y = chain[-1]
            for g in reversed(word):
                y = right[y][g]
            chain.append(y)
        k = len(chain)
        for j, power in enumerate(chain, 1):
            orders[power] = k // math.gcd(j, k)
    return orders


class MatrixGroup(list):
    """The elements group_closure found, identity first, as a list, with
    kept: the given generators the closure kept, in order (at most log2
    of the group's order), of which every element is a word, and their
    stack_smith, reduced on first use and kept."""

    def __init__(self, elements: Iterable[IntMatrix], kept: Sequence[IntMatrix]):
        super().__init__(elements)
        self.kept = tuple(kept)

    @functools.cached_property
    def stack_smith(self) -> tuple[tuple[int, ...], IntMatrix]:
        """_stack_smith of the kept generators, k n rows with k <= log2 |group|,
        or of the identity's zero n x n block when none is kept (every given
        generator is the identity). Every generating set stacks g - 1 to the
        same row lattice: gh - 1 = g(h - 1) + (g - 1) and g⁻¹ - 1 = -g⁻¹(g - 1).
        So the diagonal is that of the given generators' stack, and the rows
        of that stack times this V lie in the row lattice of D."""
        return _stack_smith(self.kept or self[:1])


def group_closure(generators: Sequence[IntMatrix], cap: Optional[int] = None) -> MatrixGroup:
    """Closure of the generated matrix group, identity first, with the
    generators it kept (see closure).

    Row i of x h is (row i of x) h, and row i of every element is e_i x,
    in the orbit of the unit row e_i under the group (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, §4.1). So each kept
    generator h keeps, for this call only, a dict from each row met to its
    product with h: a product is n lookups, and the vector-matrix products
    are one per distinct (row, kept generator) pair, at most k times the
    sum of the n orbit sizes (480 for the 566 products of the S_5 norm
    quotient, where one per row would be 67,354). Each kept generator is
    admitted by one n x n Bareiss determinant; one that is not unimodular
    raises NotUnimodular, with int_inverse's messages. Raises
    ClosureCapExceeded past the cap (default 10000, override with the
    ANISO_CLOSURE_CAP variable).
    """
    cap = closure_cap(cap)
    if not generators:
        raise LatticeError("need at least one generator")
    rows_times: dict = {}  # id of a kept generator's rows h -> {row r: r @ h}

    def mul(x: tuple, h: tuple) -> tuple:  # matrices as tuples of rows
        if len(x[0]) != len(h):
            raise LatticeError("shape mismatch")
        memo = rows_times.setdefault(id(h), {})
        out = []
        for r in x:
            y = memo.get(r)
            if y is None:
                y = memo[r] = tuple(_vec_mat(r, h, len(h[0])))
            out.append(y)
        return tuple(out)

    elements, right = closure(IntMatrix.identity(generators[0].rows).entries,
                              [g.entries for g in generators], mul, cap,
                              ClosureCapExceeded(f"closure exceeded cap {cap}"),
                              lambda h: _unimodular_bareiss(list(map(list, h)), len(h[0]),
                                                            below_only=True))
    group = [IntMatrix(m) for m in elements]
    return MatrixGroup(group, [group[i] for i in right[0]])


# ---------------------------------------------------------------------------
# quotients of lattices and first cohomology

def _row_smith(rows: Sequence[Sequence[int]], ambient: int):
    """Nonzero diagonal s_1 | ... | s_r, V and the basis U_r @ M of the
    lattice spanned by the rows M. U_r @ M = D_r @ V^-1, so a row x =
    c @ basis has x @ V = (s_1 c_1, ..., s_r c_r, 0, ..., 0)."""
    rows = [r for r in map(_int_tuple, rows) if any(r)]
    if not rows:
        return (), None, []
    m = IntMatrix(tuple(rows))
    if m.cols != ambient:
        raise LatticeError("ambient dimension mismatch")
    diag, v, u_r = _smith_dv(m)
    return diag[:len(u_r)], v, [tuple(_vec_mat(u, rows, ambient)) for u in u_r]


def row_basis(rows: Sequence[Sequence[int]], ambient: int) -> list[tuple[int, ...]]:
    """Basis rows of the lattice spanned by the given rows of Z^ambient."""
    return _row_smith(rows, ambient)[2]


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


def _quotient(numerator_rows: Sequence[Sequence[int]],
              denominator_rows: Sequence[Sequence[int]], ambient: int):
    """abelian_quotient before its torsion generators are reduced.

    With num the numerator basis and s_1 | ... | s_r its diagonal, a
    vector x of the numerator lattice is c @ num with c_i = (x @ V_num)_i
    / s_i. The denominator rows give the coefficient matrix C, and
    U_c @ C @ V_c = D_c; then x is (c @ V_c) @ (V_c^-1 @ num), so the
    generators are the rows of V_c^-1 @ num and coordinate i of c @ V_c is
    unique mod the i-th diagonal entry of D_c. Returns (structure, torsion, free, coordinates), where
    coordinates(x) gives the torsion coordinates of x, each reduced mod
    its invariant factor, or None when x is not in the numerator lattice;
    coordinates itself is None when the numerator or the denominator is
    zero. Two Smith forms: the numerator's and C's.
    """
    num_diag, num_v, num = _row_smith(numerator_rows, ambient)
    den = [r for r in map(_int_tuple, denominator_rows) if any(r)]
    if not num:
        return AbelianGroupStructure(()), [], [], None
    r = len(num)
    if not den:
        return AbelianGroupStructure((), free_rank=r), [], list(num), None

    def num_coords(x):
        # x lies in the numerator lattice iff every (x @ V)_i / s_i is an
        # integer and (x @ V)_i = 0 from r on
        xv = _vec_mat(x, num_v.entries, ambient)
        if any(xv[r:]) or any(xv[i] % num_diag[i] for i in range(r)):
            return None
        return [xv[i] // num_diag[i] for i in range(r)]

    coeff_rows = []
    for x in den:
        c = num_coords(x)
        if c is None:
            raise LatticeError("denominator lattice not contained in numerator lattice")
        coeff_rows.append(c)
    diag, v, _ = _smith_dv(IntMatrix.from_rows(coeff_rows))
    vinv = int_inverse(v)
    diag = list(diag) + [0] * (r - len(diag))
    torsion, free, factors, torsion_at = [], [], [], []
    for i in range(r):
        gen = tuple(_vec_mat(vinv.row(i), num, ambient))
        s = diag[i]
        if s == 0:
            free.append(gen)
        elif s > 1:
            factors.append(s)
            torsion_at.append(i)
            torsion.append(gen)

    def coordinates(x):
        c = num_coords(x)
        if c is None:
            return None
        y = _vec_mat(c, v.entries, r)
        return [y[i] % diag[i] for i in torsion_at]

    structure = AbelianGroupStructure(tuple(factors), free_rank=len(free))
    return structure, torsion, free, coordinates


def abelian_quotient(numerator_rows: Sequence[Sequence[int]],
                     denominator_rows: Sequence[Sequence[int]],
                     ambient: int):
    """Structure of (span numerator) / (span denominator) plus generators.

    The denominator must be contained in the numerator span. Returns
    (AbelianGroupStructure, torsion_generators, free_generators) with
    generator vectors in Z^ambient matching the invariant factor order;
    each torsion generator is reduced modulo the denominator's row basis.
    """
    structure, torsion, free, coordinates = _quotient(numerator_rows, denominator_rows,
                                                      ambient)
    if coordinates is not None:  # a nonzero numerator and denominator
        den_basis = row_basis(denominator_rows, ambient)
        torsion = [_reduce_mod_rows(gen, den_basis) for gen in torsion]
    return structure, torsion, free


def h1_of_theta_module(generators: Sequence[IntMatrix],
                       cap: Optional[int] = None) -> AbelianGroupStructure:
    """First cohomology of the generated finite group Θ acting on L = Z^n:

        H¹(Θ, L) = ⊕ Z/gcd(s_i, N) over the nonzero s_i,

    with N = |Θ| and s_1 | ... | s_n the Smith diagonal of the stacked
    g - 1 over the generators group_closure keeps (MatrixGroup.stack_smith:
    one Smith form of k n rows with k <= log2 N, not one per given
    generator, and the same diagonal as the given generators' stack).

    Proof: N kills H¹, so the sequence
    0 -> L -N-> L -> L/NL -> 0 gives H¹ ≅ (L/NL)^Θ / (L^Θ/NL^Θ), the
    classes fixed mod N modulo the fixed vectors. With v = V w, v is fixed
    mod N iff s_i w_i ≡ 0 (mod N) for every i, a subgroup Z/gcd(s_i, N) of
    the i-th coordinate mod N, and L^Θ is exactly the w with w_i = 0 where
    s_i ≠ 0, so it fills the coordinates with s_i = 0.
    """
    group = group_closure(generators, cap)
    diag, _ = group.stack_smith
    return AbelianGroupStructure(tuple(
        g for g in (math.gcd(s, len(group)) for s in diag if s) if g > 1))
