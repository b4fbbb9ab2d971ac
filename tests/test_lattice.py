import itertools
import os
import random
import re
from fractions import Fraction

import pytest

from aniso import lattice
from aniso.lattice import (AbelianGroupStructure, ClosureCapExceeded,
                           IntMatrix, LatticeError, NotUnimodular,
                           _certify_smith, _smith_dv, _stack_shifted,
                           abelian_quotient, fixed_sublattice, group_closure,
                           h1_of_theta_module, int_inverse, integer_kernel,
                           kernel_mod_d, row_basis)
from oracles import smith_normal_form, solve_left


def test_intmatrix_basics():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).entries == ((2, 1), (4, 3))
    assert a.det() == -2
    assert a.transpose().entries == ((1, 3), (2, 4))
    assert IntMatrix.identity(3).det() == 1
    assert a.apply((1, 0)) == (1, 3)


def test_sparse_product_matches_the_dense_oracle():
    from aniso.torus import norm_quotient_torus, symmetric_table
    from oracles import int_matmul_dense
    rng = random.Random(4040)
    for _ in range(500):
        n, k, m = (rng.randint(1, 6) for _ in range(3))
        density = rng.choice([0.0, 0.2, 0.5, 1.0])
        a, b = (IntMatrix.from_rows(
            [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(c)]
             for _ in range(r)]) for r, c in ((n, k), (k, m)))
        assert a @ b == int_matmul_dense(a, b)
    gens = norm_quotient_torus(symmetric_table(3)).theta_generators
    for g in gens:
        for h in gens:
            assert g @ h == int_matmul_dense(g, h)
    with pytest.raises(LatticeError):
        IntMatrix.identity(2) @ IntMatrix.identity(3)


def test_intmatrix_json_roundtrip():
    a = IntMatrix.from_rows([[10 ** 30, -1], [0, 7]])
    obj = a.to_json()
    assert obj["entries"][0][0] == str(10 ** 30)  # decimal strings survive
    assert IntMatrix.from_json(obj) == a


def test_intmatrix_json_refuses_float_and_boolean_shapes():
    obj = IntMatrix.from_rows([[1, 2]]).to_json()
    for key, bad in (("rows", 1.0), ("rows", True), ("cols", 2.0)):
        with pytest.raises(TypeError):
            IntMatrix.from_json({**obj, key: bad})
    assert IntMatrix.from_json({**obj, "rows": 1, "cols": "2"}).cols == 2


def test_int_inverse_unimodular():
    a = IntMatrix.from_rows([[2, 1], [1, 1]])
    inv = int_inverse(a)
    assert a @ inv == IntMatrix.identity(2)
    with pytest.raises(NotUnimodular):
        int_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))


def test_the_closure_admit_refuses_as_int_inverse_does():
    # the closure admits a kept generator by its determinant alone, with
    # int_inverse's exception type and message
    messages = []
    for rows in ([[1, 2], [2, 4]], [[2, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]]):
        m = IntMatrix.from_rows(rows)
        with pytest.raises(NotUnimodular) as inverse:
            int_inverse(m)
        with pytest.raises(NotUnimodular) as admit:
            group_closure([IntMatrix.identity(m.rows), m])
        assert type(admit.value) is type(inverse.value)
        messages.append((str(admit.value), str(inverse.value)))
    assert messages == [("singular matrix",) * 2, ("inverse is not integral",) * 2,
                        ("non-square matrix",) * 2]


def test_snf_frozen_oracle():
    # classical worked example with normal form diag(2, 6, 12)
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    res = smith_normal_form(m)
    assert res.diagonal == (2, 6, 12)
    assert res.verify(m)

    simple = IntMatrix.from_rows([[2, 0], [0, 4]])
    assert smith_normal_form(simple).diagonal == (2, 4)

    swapped = IntMatrix.from_rows([[4, 0], [0, 2]])
    assert smith_normal_form(swapped).diagonal == (2, 4)


def test_snf_randomized_verify():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = IntMatrix.from_rows([[rng.randrange(-9, 10) for _ in range(cols)]
                                 for _ in range(rows)])
        res = smith_normal_form(m)
        assert res.verify(m)


def test_integer_kernel():
    m = IntMatrix.from_rows([[1, 2, 3]])
    basis = integer_kernel(m)
    assert len(basis) == 2
    for v in basis:
        assert sum(a * b for a, b in zip((1, 2, 3), v)) == 0
    assert integer_kernel(IntMatrix.identity(2)) == []


def test_fixed_sublattice():
    minus = IntMatrix.from_rows([[-1]])
    assert fixed_sublattice([minus]) == []
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    fixed = fixed_sublattice([swap])
    assert len(fixed) == 1 and fixed[0] in ((1, 1), (-1, -1))


def test_kernel_mod_d():
    minus = IntMatrix.from_rows([[-1]])
    structure, witnesses = kernel_mod_d([minus], 4)
    assert structure.invariant_factors == (2,)
    assert (2,) in witnesses  # the class fixed by negation mod 4
    structure3, _ = kernel_mod_d([minus], 3)
    assert structure3.invariant_factors == ()


def test_group_closure_and_cap():
    rot = IntMatrix.from_rows([[0, -1], [1, 0]])
    elems = group_closure([rot])
    assert len(elems) == 4
    assert elems[0] == IntMatrix.identity(2)  # identity listed first
    with pytest.raises(ClosureCapExceeded):
        group_closure([rot], cap=3)


def test_group_closure_env_cap(monkeypatch):
    rot = IntMatrix.from_rows([[0, -1], [1, 0]])
    monkeypatch.setenv("ANISO_CLOSURE_CAP", "2")
    with pytest.raises(ClosureCapExceeded):
        group_closure([rot])
    monkeypatch.setenv("ANISO_CLOSURE_CAP", "100")
    assert len(group_closure([rot])) == 4


def test_malformed_env_cap_is_refused(monkeypatch):
    rot = IntMatrix.from_rows([[0, -1], [1, 0]])
    for raw in ("abc", "1.5", "-3", "0", "", " 4", "1e3"):
        monkeypatch.setenv("ANISO_CLOSURE_CAP", raw)
        with pytest.raises(LatticeError, match="ANISO_CLOSURE_CAP must be a positive integer"):
            group_closure([rot])
        assert group_closure([rot], cap=4)[-1] == rot @ rot @ rot  # an explicit cap wins


def test_non_groups_are_refused_before_closing():
    # {1, 0} and {I, e11} are closed monoids, not groups; [[2]] never closes
    for rows in ([[0]], [[1, 0], [0, 0]], [[2]]):
        with pytest.raises(NotUnimodular):
            h1_of_theta_module([IntMatrix.from_rows(rows)])
        with pytest.raises(NotUnimodular):
            group_closure([IntMatrix.identity(len(rows)), IntMatrix.from_rows(rows)])


def _signed_permutations(n):
    return [IntMatrix.from_rows([[signs[i] if perm[i] == j else 0 for j in range(n)]
                                 for i in range(n)])
            for perm in itertools.permutations(range(n))
            for signs in itertools.product((1, -1), repeat=n)]


def _random_unimodular(rng, n, steps=6):
    m = IntMatrix.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        e = [[int(a == b) for b in range(n)] for a in range(n)]
        e[i][j] = rng.choice((-2, -1, 1, 2))
        m = m @ IntMatrix.from_rows(e)
    return m


def test_from_rows_refuses_non_integer_entries():
    # int() would truncate 1.9 to 1 and return the identity
    for bad in (1.9, 2.0, Fraction(1, 2), "1"):
        with pytest.raises(LatticeError, match=re.escape(f"entry {bad!r} is not an integer")):
            IntMatrix.from_rows([[bad, 0], [0, 1]])


def test_row_readers_refuse_non_integer_entries():
    # numerator and denominator rows alike; a float zero row is refused
    # too, not dropped as a zero row
    for rows in ([[Fraction(3, 2), 0]], [[1, 0], [0.0, 0.0]]):
        with pytest.raises(LatticeError, match="is not an integer"):
            row_basis(rows, 2)
        with pytest.raises(LatticeError, match="is not an integer"):
            abelian_quotient(rows, [[2, 0]], 2)
    for quotient in (abelian_quotient, lattice._quotient):  # the latter reads no row basis
        with pytest.raises(LatticeError, match=re.escape("entry 2.5 is not an integer")):
            quotient([[1, 0], [0, 1]], [[2.5, 0]], 2)


def test_closure_keeps_only_needed_generators():
    from oracles import closure_over_all_generators
    rng = random.Random(1717)
    ambient = {n: _signed_permutations(n) for n in (3, 4)}
    # the oracle still takes a key; a frozen IntMatrix hashes and compares
    # by its entries, so it is its own
    key = lambda m: m
    identical = reordered = 0
    for trial in range(40):
        n = rng.choice((3, 4))
        ident = IntMatrix.identity(n)
        gens = rng.sample(ambient[n], rng.randint(1, 3))
        if trial % 2:  # a unimodular conjugate of a signed-permutation group
            p = _random_unimodular(rng, n)
            p_inv = int_inverse(p)
            gens = [p @ g @ p_inv for g in gens]
        for _ in range(rng.randint(1, 3)):  # products, repeats and the identity
            extra = rng.choice([rng.choice(gens) @ rng.choice(gens), rng.choice(gens), ident])
            gens.insert(rng.randrange(len(gens) + 1), extra)
        products, admitted = [], []

        def mul(a, b):
            products.append(1)
            return a @ b

        got, right = lattice.closure(ident, gens, mul, 10 ** 6, ClosureCapExceeded(),
                                     admitted.append)
        expected = closure_over_all_generators(ident, gens, IntMatrix.__matmul__, key,
                                               10 ** 6, ClosureCapExceeded())
        order = len(expected)
        assert len(got) == order and set(got) == set(expected)
        # a generator is kept exactly when the ones before it miss it
        reached = [set(closure_over_all_generators(
            ident, gens[:i], IntMatrix.__matmul__, key, 10 ** 6, ClosureCapExceeded()))
            for i in range(len(gens))]
        kept = [g for i, g in enumerate(gens) if g not in reached[i]]
        assert admitted == kept and 2 ** len(kept) <= order
        assert len(products) <= 2 * order * len(kept)
        index = {x: i for i, x in enumerate(got)}  # the graph of the last pass
        assert right == [[index[x @ h] for h in kept] for x in got]
        if all(g == ident or g in gens[:i]
               for i, g in enumerate(gens) if g in reached[i]):
            identical += 1
            assert got == expected
        else:
            reordered += got != expected
        if order > 1:
            for closing in (lambda c: lattice.closure(ident, gens, IntMatrix.__matmul__, c,
                                                      ClosureCapExceeded())[0],
                            lambda c: closure_over_all_generators(
                                ident, gens, IntMatrix.__matmul__, key, c, ClosureCapExceeded())):
                assert len(closing(order)) == order
                with pytest.raises(ClosureCapExceeded):
                    closing(order - 1)
    assert identical >= 10 and reordered >= 1


def test_cayley_table_reads_every_product_off_the_closure():
    # the table and the breadth-first parents from the graph alone agree
    # with index[mul(a, b)] over all pairs, for matrix, signed-permutation
    # conjugate and permutation groups, with and without skipped generators
    from aniso.torus import table_from_permutation_generators
    rng = random.Random(2020)
    ambient = {n: _signed_permutations(n) for n in (2, 3)}
    compose = lambda s, t: tuple(s[i] for i in t)
    cases = []
    for trial in range(24):
        n = rng.choice((2, 3))
        gens = rng.sample(ambient[n], rng.randint(1, 3))
        if trial % 3 == 1:
            p = _random_unimodular(rng, n)
            p_inv = int_inverse(p)
            gens = [p @ g @ p_inv for g in gens]
        gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens) @ rng.choice(gens))
        cases.append((IntMatrix.identity(n), gens, IntMatrix.__matmul__))
        m = rng.randint(1, 6)
        perms = [tuple(rng.sample(range(m), m)) for _ in range(rng.randint(1, 3))]
        cases.append((tuple(range(m)), perms, compose))
    sizes = set()
    for ident, gens, mul in cases:
        elements, right = lattice.closure(ident, gens, mul, 10 ** 6, ClosureCapExceeded())
        index = {x: i for i, x in enumerate(elements)}
        table = lattice.cayley_table(right)
        assert table == [[index[mul(a, b)] for b in elements] for a in elements]
        parents = lattice.closure_parents(right)
        kept = [elements[right[0][g]] for g in range(len(right[0]))]
        assert parents[0] is None and all(
            p < b and mul(elements[p], kept[g]) == elements[b]
            for b, (p, g) in enumerate(parents[1:], 1))
        if isinstance(ident, tuple):
            assert table_from_permutation_generators(gens) == table
        sizes.add(len(elements))
    assert 1 in sizes and max(sizes) >= 24


def test_abelian_quotient():
    # Z^2 / <(2,0),(0,4)> = Z/2 x Z/4
    structure, _, _ = abelian_quotient(
        [(1, 0), (0, 1)], [(2, 0), (0, 4)], 2)
    assert structure.invariant_factors == (2, 4)
    assert structure.free_rank == 0
    # Z^2 / <(1,0)> = Z
    structure2, _, _ = abelian_quotient([(1, 0), (0, 1)], [(1, 0)], 2)
    assert structure2.invariant_factors == ()
    assert structure2.free_rank == 1


def test_abelian_group_structure_validation():
    with pytest.raises(LatticeError):
        AbelianGroupStructure((3, 2))  # not a divisibility chain
    with pytest.raises(LatticeError):
        AbelianGroupStructure((1,))
    s = AbelianGroupStructure((2, 6))
    assert s.order == 12 and s.exponent == 6


def test_solve_left():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    sol = solve_left(a, (4, 9))
    assert sol == (2, 3)
    assert solve_left(a, (1, 0)) is None  # 1 not a multiple of 2


def test_h1_oracle_order_two_action():
    # negation on Z: cocycle group Z/2 (classical computation)
    minus = IntMatrix.from_rows([[-1]])
    structure = h1_of_theta_module([minus])
    assert structure.invariant_factors == (2,)
    assert structure.free_rank == 0


def test_h1_trivial_action():
    # trivial group acting on Z^2: no cohomology
    structure = h1_of_theta_module([IntMatrix.identity(2)])
    assert structure.invariant_factors == ()


def test_h1_cyclic_four_rotation():
    # rotation of order 4 on Z^2 has H^1 = Z/2
    rot = IntMatrix.from_rows([[0, -1], [1, 0]])
    structure = h1_of_theta_module([rot])
    assert structure.order == 2


# ---------------------------------------------------------------------------
# Fraction-elimination references for the fraction-free integer routine

def _fraction_rref(rows, ncols):
    """Reduced echelon form over Q on the first ncols columns: (rows, pivots, det)."""
    m = [[Fraction(x) for x in row] for row in rows]
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
        inv = 1 / m[r0][col]
        m[r0] = [x * inv for x in m[r0]]
        for r in range(len(m)):
            if r != r0 and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[r0])]
        pivots.append(col)
    return m, pivots, det


def _fraction_det(m: IntMatrix) -> int:
    _, pivots, det = _fraction_rref(m.entries, m.cols)
    return int(det) if len(pivots) == m.rows else 0


def _fraction_inverse(m: IntMatrix):
    """Rational inverse rows, or None when singular."""
    n = m.rows
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.entries)]
    red, pivots, _ = _fraction_rref(aug, n)
    return [row[n:] for row in red] if len(pivots) == n else None


def _random_unimodular(rng, n, steps=12):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            q = rng.randint(-3, 3)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


def _seeded_square_matrices():
    from aniso.torus import cyclic_table, norm_quotient_torus, symmetric_table
    rng = random.Random(2024)
    out = []
    for _ in range(150):
        n = rng.randint(1, 6)
        out.append(IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(n)]
                                        for _ in range(n)]))
    for _ in range(60):
        out.append(_random_unimodular(rng, rng.randint(1, 7)))
    for _ in range(10):  # singular: a repeated combination of rows
        n = rng.randint(2, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 1)]
        rows.append([a - 2 * b for a, b in zip(rows[0], rows[-1])])
        out.append(IntMatrix.from_rows(rows))
    # U and V of the Smith forms of norm-quotient tori (stacked matrices)
    for table in (cyclic_table(4), symmetric_table(3), cyclic_table(6)):
        t = norm_quotient_torus(table)
        ident = IntMatrix.identity(t.rank)
        stacked = IntMatrix.from_rows([r for g in t.theta_generators
                                       for r in (g - ident).entries])
        snf = smith_normal_form(stacked)
        out.extend([snf.U, snf.V])
    return out


def test_integer_det_and_inverse_match_fraction_reference():
    matrices = _seeded_square_matrices()
    assert len(matrices) >= 200
    for m in matrices:
        det = m.det()
        assert det == _fraction_det(m)
        reference = _fraction_inverse(m)
        if reference is None:
            with pytest.raises(NotUnimodular, match="singular matrix"):
                int_inverse(m)
        elif any(x.denominator != 1 for row in reference for x in row):
            assert abs(det) > 1
            with pytest.raises(NotUnimodular, match="inverse is not integral"):
                int_inverse(m)
        else:
            inv = int_inverse(m)
            assert [list(row) for row in inv.entries] == reference
            assert m @ inv == IntMatrix.identity(m.rows)


def test_forward_bareiss_keeps_the_gauss_jordan_pivots_and_determinant():
    # the rows at and below each pivot are the same in both eliminations,
    # so the pivot columns and the determinant are too; small entries and
    # a row made a multiple of another make many of them singular
    rng = random.Random(31)
    singular = 0
    for _ in range(2000):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            i, j = rng.sample(range(n), 2)
            q = rng.randint(-2, 2)
            rows[i] = [q * x for x in rows[j]]
        full = lattice._bareiss([list(r) for r in rows], n)
        forward = lattice._bareiss([list(r) for r in rows], n, below_only=True)
        assert forward == full
        det = IntMatrix.from_rows(rows).det()
        assert det == (full[1] if len(full[0]) == n else 0)
        singular += det == 0
    assert singular > 400


def test_norm_quotient_smith_certificate_is_unimodular():
    from aniso.torus import norm_quotient_torus, symmetric_table
    t = norm_quotient_torus(symmetric_table(3))
    ident = IntMatrix.identity(t.rank)
    stacked = IntMatrix.from_rows([r for g in t.theta_generators
                                   for r in (g - ident).entries])
    snf = smith_normal_form(stacked)
    assert abs(snf.U.det()) == 1 and abs(_fraction_det(snf.U)) == 1
    assert snf.verify(stacked)


def _reference_quotient(numerator_rows, denominator_rows, ambient):
    """Invariants of span(num)/span(den), the denominator written in the
    numerator basis one row at a time by Fraction elimination."""
    num = row_basis(numerator_rows, ambient)
    den = [tuple(r) for r in denominator_rows if any(r)]
    coeff_rows = []
    for drow in den:
        aug = [[row[k] for row in num] + [drow[k]] for k in range(ambient)]
        red, pivots, _ = _fraction_rref(aug, len(num))
        if any(row[-1] for row in red[len(pivots):]):
            return None
        sol = [row[-1] for row in red[:len(pivots)]]
        if any(x.denominator != 1 for x in sol):
            return None
        coeff_rows.append([int(x) for x in sol])
    if not den:
        return (), len(num)
    diag = list(smith_normal_form(IntMatrix.from_rows(coeff_rows)).diagonal)
    diag += [0] * (len(num) - len(diag))
    return tuple(s for s in diag if s > 1), sum(1 for s in diag if s == 0)


def test_quotient_solve_matches_fraction_reference():
    rng = random.Random(99)
    contained = not_contained = 0
    for _ in range(220):
        ambient = rng.randint(1, 5)
        num = [[rng.randint(-5, 5) for _ in range(ambient)]
               for _ in range(rng.randint(1, 5))]
        den = []
        for _ in range(rng.randint(1, 4)):
            coeffs = [rng.randint(-3, 3) for _ in num]
            den.append([sum(c * row[k] for c, row in zip(coeffs, num))
                        for k in range(ambient)])
        if rng.random() < 0.25:  # usually leaves the numerator lattice
            den.append([rng.randint(-5, 5) for _ in range(ambient)])
        expected = _reference_quotient(num, den, ambient)
        if expected is None:
            not_contained += 1
            with pytest.raises(LatticeError, match="not contained"):
                abelian_quotient(num, den, ambient)
            continue
        contained += 1
        structure, torsion, free = abelian_quotient(num, den, ambient)
        assert (structure.invariant_factors, structure.free_rank) == expected
        assert len(torsion) == len(structure.invariant_factors)
        assert len(free) == structure.free_rank
    assert contained > 100 and not_contained > 10


# ---------------------------------------------------------------------------
# the cocycle system H^1 used to be computed from, kept as an oracle

def _h1_cocycle_oracle(generators):
    """H^1 as cocycles modulo coboundaries over the full multiplication
    table: |Θ|^2 * n equations in |Θ| * n unknowns."""
    elements = group_closure(generators)
    n = elements[0].rows
    index = {m.entries: i for i, m in enumerate(elements)}
    nvars = len(elements) * n
    eq_rows = []
    for gi, g in enumerate(elements):
        for hi, h in enumerate(elements):
            prod = index[(g @ h).entries]
            for r in range(n):
                row = [0] * nvars
                row[prod * n + r] += 1
                row[gi * n + r] -= 1
                for s in range(n):
                    row[hi * n + s] -= g.entries[r][s]
                if any(row):
                    eq_rows.append(tuple(row))
    if eq_rows:
        cocycles = integer_kernel(IntMatrix.from_rows(eq_rows))
    else:
        cocycles = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    coboundaries = []
    for b in range(n):
        vec = []
        for g in elements:
            vec.extend(x - int(r == b) for r, x in enumerate(g.col(b)))
        coboundaries.append(tuple(vec))
    structure, _, _ = abelian_quotient(cocycles, coboundaries, nvars)
    assert structure.free_rank == 0
    return structure


def _h1_test_actions():
    from aniso.torus import (cyclic_table, norm_quotient_torus, symmetric_table,
                             table_from_permutation_generators)

    def perm_matrix(perm, sign=1):
        m = len(perm)
        return IntMatrix.from_rows([[sign if perm[j] == i else 0 for j in range(m)]
                                    for i in range(m)])

    klein = table_from_permutation_generators([(1, 0, 3, 2), (2, 3, 0, 1)])
    actions = [[IntMatrix.identity(2)], [IntMatrix.from_rows([[-1]])],
               [IntMatrix.from_rows([[0, -1], [1, 0]])],
               [IntMatrix.from_rows([[0, -1], [1, -1]])],
               [IntMatrix.from_rows([[0, 1], [1, 0]]), IntMatrix.from_rows([[-1, 0], [0, -1]])]]
    for table in (cyclic_table(2), cyclic_table(3), cyclic_table(4), cyclic_table(5),
                  cyclic_table(6), klein, symmetric_table(3)):
        actions.append(list(norm_quotient_torus(table).theta_generators))
    for m in (2, 3, 4, 5, 6):  # cyclic permutation and sign-permutation lattices
        shift = tuple((j + 1) % m for j in range(m))
        actions.append([perm_matrix(shift)])
        if m != 5:  # -shift has order 10 on Z^5
            actions.append([perm_matrix(shift, -1)])
    actions.append([IntMatrix.from_rows([[0, -1], [1, -1]]),
                    IntMatrix.from_rows([[0, 1], [1, 0]])])  # S_3 on its root lattice
    actions.append([IntMatrix.from_rows([[-1, 0], [0, 1]]),
                    IntMatrix.from_rows([[1, 0], [0, -1]])])  # V_4 by signs on Z^2
    actions.append([perm_matrix((1, 0, 2)), perm_matrix((0, 2, 1))])  # S_3 on Z^3
    actions.append([perm_matrix((1, 0, 2), -1), perm_matrix((0, 2, 1), -1)])
    actions.append([perm_matrix((1, 0, 3, 2)), perm_matrix((2, 3, 0, 1))])  # V_4 on Z^4
    return actions


def test_h1_from_generators_matches_cocycle_oracle():
    actions = _h1_test_actions()
    assert len(actions) >= 25
    for gens in actions:
        assert len(group_closure(gens)) <= 6
        assert h1_of_theta_module(gens) == _h1_cocycle_oracle(gens)


# ---------------------------------------------------------------------------
# the U-free Smith form against the full one, its certificate, and its callers

def _random_smith_inputs(rng, count):
    """Seeded matrices of 1..9 rows and 1..7 columns: dense, with zero rows
    or zero columns, and rank deficient."""
    out = []
    for k in range(count):
        rows, cols = rng.randint(1, 9), rng.randint(1, 7)
        a = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(cols)]
             for _ in range(rows)]
        if k % 4 == 1:
            a[rng.randrange(rows)] = [0] * cols
        elif k % 4 == 2:
            j = rng.randrange(cols)
            for row in a:
                row[j] = 0
        elif k % 4 == 3 and rows > 1:
            i, j = rng.sample(range(rows), 2)
            c = rng.randint(-3, 3)
            a[i] = [c * x for x in a[j]]
        out.append(IntMatrix.from_rows(a))
    return out


def _augmentation_matrix(perm):
    # a permutation of {0..m-1} acting on the lattice of e_i - e_0, i >= 1
    m = len(perm)
    cols = []
    for i in range(1, m):
        col = [0] * (m - 1)
        if perm[i]:
            col[perm[i] - 1] += 1
        if perm[0]:
            col[perm[0] - 1] -= 1
        cols.append(col)
    return IntMatrix.from_rows(list(zip(*cols)))


def _cycle(m, points):
    perm = list(range(m))
    for a, b in zip(points, points[1:] + points[:1]):
        perm[a] = b
    return tuple(perm)


def _transitive_actions(m):
    """The perfbench transitive actions of degree m, by name: generators
    as permutations of {0..m-1}."""
    full = _cycle(m, list(range(m)))
    return {f"S{m}": [full, _cycle(m, [0, 1])],
            f"D{m}": [full, tuple((-i) % m for i in range(m))],
            f"C{m}": [full],
            f"A{m}": ([_cycle(m, [0, 1, 2]), _cycle(m, list(range(1, m)))] if m % 2 == 0
                      else [_cycle(m, [0, 1, 2]), full])}


def _norm_quotient_models(seed):
    """The perfbench norm-quotient tori: the groups of order 2..8, each on
    its own table and on one relabelled by Random(seed)."""
    from aniso.torus import norm_quotient_torus, table_from_permutation_generators

    groups = [[_cycle(n, list(range(n)))] for n in range(2, 9)]
    groups += [[(1, 0, 3, 2), (2, 3, 0, 1)],                      # V_4
               [(1, 0, 2), (1, 2, 0)],                            # S_3
               [(1, 2, 3, 0), (0, 3, 2, 1)],                      # D_4
               [(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)],  # Q_8
               [(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)]]          # Z_2 x Z_4
    rng = random.Random(seed)
    models = []
    for gens in groups:
        table = table_from_permutation_generators(gens)
        n = len(table)
        pi = [0] + rng.sample(range(1, n), n - 1)
        relabelled = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                relabelled[pi[i]][pi[j]] = pi[table[i][j]]
        models += [norm_quotient_torus(table), norm_quotient_torus(relabelled)]
    assert sorted({m.theta_order for m in models}) == list(range(2, 9))
    return models


def _torus_torsion_stacks():
    """Stacked matrices of the perfbench torus-torsion models: norm quotients
    of the groups of order 2..8, each also relabelled, and small transitive
    actions on augmentation lattices."""
    stacks = [_stack_shifted(m.theta_generators) for m in _norm_quotient_models(31)]
    for m in range(3, 10):
        for gens in _transitive_actions(m).values():
            stacks.append(_stack_shifted([_augmentation_matrix(g) for g in gens]))
    return stacks


def _assert_u_free_matches_full(m):
    full = smith_normal_form(m)
    diag, v, u_r = _smith_dv(m)
    r = sum(1 for s in diag if s)
    assert diag == full.diagonal and v == full.V
    assert u_r == list(full.U.entries[:r])


def test_u_free_smith_form_matches_the_full_one():
    matrices = _random_smith_inputs(random.Random(4242), 2000)
    shapes = {(m.rows, m.cols) for m in matrices}
    assert shapes == {(r, c) for r in range(1, 10) for c in range(1, 8)}
    ranks = [sum(1 for s in smith_normal_form(m).diagonal if s) for m in matrices]
    assert sum(r < min(m.rows, m.cols) for r, m in zip(ranks, matrices)) > 300
    assert any(r == 0 for r in ranks)
    for m in matrices:
        _assert_u_free_matches_full(m)
    stacks = _torus_torsion_stacks()
    assert len(stacks) >= 50
    for m in stacks:
        _assert_u_free_matches_full(m)


def test_u_free_smith_form_matches_on_the_s4_stack():
    from aniso.torus import norm_quotient_torus, symmetric_table
    stacked = _stack_shifted(norm_quotient_torus(symmetric_table(4)).theta_generators)
    assert (stacked.rows, stacked.cols) == (529, 23)
    _assert_u_free_matches_full(stacked)


def test_lean_smith_reduction_matches_the_reference():
    # skipping the divisibility scan under a ±1 pivot and the zero rows
    # above the pivot changes no pivot, so D, V and the log are the same
    from aniso.torus import norm_quotient_torus, symmetric_table
    from oracles import smith_reduce_reference
    matrices = _random_smith_inputs(random.Random(5151), 600) + _torus_torsion_stacks()
    matrices.append(_stack_shifted(norm_quotient_torus(symmetric_table(4)).theta_generators))
    assert (matrices[-1].rows, matrices[-1].cols) == (529, 23)
    for m in matrices:
        assert lattice._smith_reduce(m) == smith_reduce_reference(m)


def _sparse_smith_inputs(rng):
    """Seeded sparse matrices, about 10% dense with entries in ±{1, 2, 3, 6}:
    wide ones up to 60 x 30, tall ones up to 150 x 10, and 1 x n rows."""
    shapes = ([(rng.randint(2, 60), rng.randint(10, 30)) for _ in range(25)]
              + [(rng.randint(20, 150), rng.randint(2, 10)) for _ in range(25)]
              + [(1, n) for n in range(1, 41)])
    return [IntMatrix(tuple(tuple(rng.choice((1, 2, 3, 6)) * rng.choice((1, -1))
                                  if rng.random() < 0.1 else 0 for _ in range(c))
                            for _ in range(r)))
            for r, c in shapes]


def test_sparse_smith_reduction_matches_the_reference(monkeypatch):
    # a clearing row operation reads only the pivot row's support, column
    # operations walk only the rows left nonzero in the pivot column, and
    # the U_r push skips zero columns: every skipped update adds q * 0, so
    # the log, D, V and U's first r rows are those of the full passes
    import oracles
    apply_row_op, remainders = oracles._apply_row_op, []

    def spy(rows, op):  # a clearing operation (i, t, q) has i > t
        apply_row_op(rows, op)
        if len(op) == 3 and op[0] > op[1] and rows[op[0]][op[1]]:
            remainders.append(op)

    monkeypatch.setattr(oracles, "_apply_row_op", spy)
    matrices = _sparse_smith_inputs(random.Random(2626))
    with_remainders = 0
    for m in matrices:
        del remainders[:]
        a, v, log = oracles.smith_reduce_reference(m)
        with_remainders += bool(remainders)
        assert lattice._smith_reduce(m) == (a, v, log)
        diag, vm, u_r = _smith_dv(m)
        assert diag == tuple(a[i][i] for i in range(min(m.rows, m.cols)))
        assert vm.entries == tuple(map(tuple, v))
        assert u_r == lattice._pivot_rows(log, m.rows, m.rows)[:len(u_r)]
    assert with_remainders >= 10


def test_the_smith_path_refuses_float_entries():
    # V goes through IntMatrix.from_rows, which reads each entry with
    # operator.index: a float that reaches V is refused, not truncated
    for entries, message in ((((1.5, 2),), "entry -1.0 is not an integer"),
                             (((3, 2.0),), "entry -2.0 is not an integer")):
        with pytest.raises(LatticeError) as info:
            integer_kernel(IntMatrix(entries))
        assert type(info.value) is LatticeError and str(info.value) == message


def test_stacked_shift_matches_the_matrix_difference():
    from aniso.torus import cyclic_table, norm_quotient_torus, symmetric_table
    for table in (cyclic_table(8), symmetric_table(4)):
        gens = norm_quotient_torus(table).theta_generators
        ident = IntMatrix.identity(gens[0].rows)
        assert _stack_shifted(gens) == IntMatrix.from_rows(
            [r for g in gens for r in (g - ident).entries])
    square, wide = IntMatrix.from_rows([[0, 1], [1, 0]]), IntMatrix.from_rows([[1, 0]])
    for gens, message in (([], "need at least one generator"),
                          ([square, wide], "generators must be square of equal size"),
                          ([wide], "generators must be square of equal size"),
                          ([IntMatrix(((1.5, 0), (0, 1)))], "entry 0.5 is not an integer")):
        with pytest.raises(LatticeError) as info:
            _stack_shifted(gens)
        assert type(info.value) is LatticeError and str(info.value) == message


def test_smith_certificate_refuses_each_broken_part():
    # rank 3 of 4 rows: the last row is twice the first; D = diag(2, 6, 12)
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16], [4, 8, 8]])
    diag, v, u_r = _smith_dv(m)
    assert diag == (2, 6, 12)
    _certify_smith(m, diag, v, u_r)
    rows = [list(row) for row in v.entries]
    doubled = IntMatrix.from_rows([[2 * row[0]] + row[1:] for row in rows])
    sheared = IntMatrix.from_rows([[row[0] + row[2]] + row[1:] for row in rows])
    assert abs(doubled.det()) == 2 and abs(sheared.det()) == 1
    missing = [list(row) for row in u_r]
    missing[0][0] += 1  # row 0 of m, so of m @ V, is nonzero
    cases = [
        (m, diag, doubled, u_r, "V is not unimodular"),
        (m, diag, sheared, u_r, "pivot rows"),
        (m, (2, 7, 12), v, u_r, "divisibility chain"),
        (m, (2, 6, 24), v, u_r, "row lattice"),
        (m, (2, 6, 0), v, u_r[:2], "row lattice"),
        (m, diag, v, missing, "pivot rows"),
    ]
    for args in cases:
        with pytest.raises(LatticeError, match="Smith certificate: .*" + args[-1]):
            _certify_smith(*args[:-1])


def _pairing_fields(result):
    p = result.pairing
    return (p.group.invariant_factors, p.gram, result.generator_orders,
            result.basis_change)


def test_no_caller_builds_the_full_smith_form():
    from aniso import pairing, torus
    from aniso.fieldmatrix import mat_from_rows
    from aniso.scalars import Field, cyclotomic
    field = Field(cyclotomic(3))
    z, zero, one = field.zeta(3), field.zero, field.one
    clock = mat_from_rows([[one, zero, zero], [zero, z, zero], [zero, zero, z * z]])
    shift = mat_from_rows([[zero, zero, one], [one, zero, zero], [zero, one, zero]])
    s3 = torus.norm_quotient_torus(torus.symmetric_table(3))
    c6 = torus.norm_quotient_torus(torus.cyclic_table(6))
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16], [4, 8, 8]])
    calls = [
        lambda: [torus.torsion_points(t, d) for t in (s3, c6) for d in range(2, 13)],
        lambda: [torus.is_anisotropic(t) for t in (s3, c6)],
        lambda: [torus.exponent_bound_check(t, 30) for t in (s3, c6)],
        lambda: [h1_of_theta_module(gens) for gens in _h1_test_actions()],
        lambda: (integer_kernel(m), integer_kernel(m.transpose())),
        lambda: row_basis(m.entries, 3),
        lambda: abelian_quotient(m.entries, [(4, 8, 8), (0, 12, 24)], 3),
        lambda: (solve_left(m, (8, 16, 16)), solve_left(m, (1, 0, 0))),
        lambda: _pairing_fields(pairing.matrix_commutator_pairing([clock, shift])),
    ]
    expected = [repr(call()) for call in calls]
    # the full Smith form lives only in the oracles; a second round of the
    # same calls, on the models' cached forms, gives the same answers
    assert "smith_normal_form" not in vars(lattice)
    assert [repr(call()) for call in calls] == expected


# ---------------------------------------------------------------------------
# answers read off one Smith form, against the derivations they replaced

def _outcome(call):
    """The repr of call's answer, or its exception type and message."""
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return f"{type(exc).__name__}: {exc}"


def _seeded_rows(rng, count, ncols, height):
    return [[rng.randint(-height, height) if rng.random() < 0.7 else 0
             for _ in range(ncols)] for _ in range(count)]


def test_row_basis_and_quotient_match_the_inverse_and_bareiss_oracles():
    from oracles import abelian_quotient_by_bareiss, row_basis_by_inverse
    rng = random.Random(1010)
    errors = set()
    for _ in range(1000):
        n = rng.randint(1, 6)
        rows = _seeded_rows(rng, rng.randint(0, 7), n, rng.choice([1, 3, 9, 40]))
        if rows and rng.random() < 0.1:  # a dependent row
            rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
        ambient = n if rng.random() < 0.95 else n + 1
        got = _outcome(lambda: row_basis(rows, ambient))
        assert got == _outcome(lambda: row_basis_by_inverse(rows, ambient))
        errors.add(got.split(":")[0] if "Error" in got else None)
    for _ in range(1000):
        n = rng.randint(1, 5)
        num = _seeded_rows(rng, rng.randint(0, 6), n, rng.choice([1, 3, 9]))
        mode = rng.random()
        if mode < 0.6 and num:  # inside the numerator lattice
            den = [[sum(rng.randint(-4, 4) * row[k] for row in num) for k in range(n)]
                   for _ in range(rng.randint(0, 6))]
        elif mode < 0.75:  # a diagonal lattice inside Z^n
            den = [[rng.randint(1, 12) * (i == j) for j in range(n)] for i in range(n)]
            num = num + [[int(i == j) for j in range(n)] for i in range(n)]
        else:  # usually not contained
            den = _seeded_rows(rng, rng.randint(0, 4), n, 5)
        ambient = n if rng.random() < 0.97 else n + 1
        got = _outcome(lambda: abelian_quotient(num, den, ambient))
        assert got == _outcome(lambda: abelian_quotient_by_bareiss(num, den, ambient))
        errors.add(got.split(":")[0] if "Error" in got else None)
    assert errors == {None, "LatticeError"}


def _seeded_actions(rng, count):
    """Finite groups acting on Z^1..Z^4: signed permutations conjugated by a
    seeded unimodular matrix, and norm quotients of small groups with some
    of their generators."""
    from aniso.torus import cyclic_table, norm_quotient_torus, symmetric_table
    tables = [cyclic_table(k) for k in range(2, 9)] + [symmetric_table(3)]

    def signed_permutation(n):
        perm = rng.sample(range(n), n)
        return IntMatrix.from_rows([[rng.choice([1, -1]) if perm[i] == j else 0
                                     for j in range(n)] for i in range(n)])

    actions = []
    for _ in range(count):
        if rng.random() < 0.2:
            gens = list(norm_quotient_torus(rng.choice(tables)).theta_generators)
            actions.append(rng.sample(gens, rng.randint(1, len(gens))))
            continue
        n = rng.randint(1, 4)
        p = _random_unimodular(rng, n, steps=rng.randint(0, 4))
        pinv = int_inverse(p)
        actions.append([p @ signed_permutation(n) @ pinv
                        for _ in range(rng.randint(1, 3))])
    return actions


def test_h1_and_exponent_check_match_the_per_d_oracles():
    from aniso.torus import TorusModel, exponent_bound_check
    from oracles import exponent_bound_check_per_d, h1_through_quotient
    rng = random.Random(2020)
    outcomes = set()
    for gens in _seeded_actions(rng, 300):
        cap = rng.choice([None, None, None, 4])
        got = _outcome(lambda: h1_of_theta_module(gens, cap))
        assert got == _outcome(lambda: h1_through_quotient(gens, cap))
        model = TorusModel(gens[0].rows, gens, "seeded",
                           characteristic=rng.choice([0, 0, 0, 2, 3, 5]),
                           norm_group_order=rng.choice([None, None, 2, 6, 12, 24, 48]))
        d_range = rng.randint(1, 20)
        checked = _outcome(lambda: exponent_bound_check(model, d_range))
        assert checked == _outcome(lambda: exponent_bound_check_per_d(model, d_range))
        outcomes |= {got.split("(")[0].split(":")[0], checked.split("(")[0].split(":")[0]}
        if "ExponentBoundReport" in checked:
            outcomes.add(("all_pass", "all_pass=True" in checked))
    assert outcomes == {"AbelianGroupStructure", "ClosureCapExceeded", "ExponentBoundReport",
                        "NotAnisotropic", ("all_pass", True), ("all_pass", False)}


def _torus_models(rng, count):
    """Seeded actions with seeded characteristics, then the S_3, S_4 and C_6
    norm quotients and rank-1 models, split and nonsplit."""
    from aniso.torus import TorusModel, cyclic_table, norm_quotient_torus, symmetric_table
    for gens in _seeded_actions(rng, count):
        yield TorusModel(gens[0].rows, gens, "seeded",
                         characteristic=rng.choice([0, 0, 0, 2, 3, 5]))
    for table in (symmetric_table(3), symmetric_table(4), cyclic_table(6)):
        yield norm_quotient_torus(table)
    for entry, characteristic in ((-1, 0), (-1, 3), (1, 0)):
        yield TorusModel(1, [IntMatrix.from_rows([[entry]])], "rank-1",
                         characteristic=characteristic)


def test_cached_smith_form_matches_the_per_call_path():
    from aniso.torus import exponent_bound_check, is_anisotropic, torsion_points
    from oracles import exponent_bound_check_per_d, torsion_points_per_call
    rng = random.Random(3030)
    outcomes = set()
    for model in _torus_models(rng, 40):
        assert is_anisotropic(model) == (not fixed_sublattice(model.theta_generators))
        for d in range(2, 61):
            got = _outcome(lambda: torsion_points(model, d))
            assert got == _outcome(lambda: torsion_points_per_call(model, d))
            outcomes.add(got.split("(")[0].split(":")[0])
        checked = _outcome(lambda: exponent_bound_check(model, 60))
        assert checked == _outcome(lambda: exponent_bound_check_per_d(model, 60))
        outcomes.add(checked.split("(")[0].split(":")[0])
    assert outcomes == {"TorsionReport", "CharDividesOrder", "ExponentBoundReport",
                        "NotAnisotropic"}


def test_a_torus_model_runs_one_smith_elimination(monkeypatch):
    from aniso.torus import (averaging_certificate, exponent_bound_check, is_anisotropic,
                             norm_quotient_torus, symmetric_table, torsion_points)
    calls = []
    reduce = lattice._smith_reduce

    def counted(m):
        calls.append((m.rows, m.cols))
        return reduce(m)

    monkeypatch.setattr(lattice, "_smith_reduce", counted)
    model = norm_quotient_torus(symmetric_table(3))
    assert is_anisotropic(model)
    reports = [torsion_points(model, d) for d in range(2, 31)]
    assert averaging_certificate(model, 6, reports[4].witnesses[-1]).holds
    assert exponent_bound_check(model, 30).all_pass
    assert calls == [(10, 5)]  # the 2 kept generators' stack; all 5 stack to 25 rows


def test_h1_and_the_s4_exponent_check_each_run_one_smith_elimination(monkeypatch):
    import time
    from aniso.torus import exponent_bound_check, norm_quotient_torus, symmetric_table
    s4 = norm_quotient_torus(symmetric_table(4))
    calls = []
    reduce = lattice._smith_reduce

    def counted(m):
        calls.append((m.rows, m.cols))
        return reduce(m)

    monkeypatch.setattr(lattice, "_smith_reduce", counted)
    start = time.perf_counter()
    report = exponent_bound_check(s4, 30)
    elapsed = time.perf_counter() - start
    # the 3 kept generators' stack; all 23 stack to 529 rows
    assert calls == [(69, 23)] and report.all_pass
    assert elapsed < 1.0  # about 0.04 s; a Smith form per d took 1.4 s
    for gens in _h1_test_actions():
        n = gens[0].rows
        kept = len(group_closure(gens).kept) or 1  # one zero block when none is kept
        calls.clear()
        h1_of_theta_module(gens)
        assert calls == [(kept * n, n)]


def test_the_kept_stack_answers_for_the_given_stack():
    # every generating set of Θ stacks its g - 1 to one row lattice, since
    # gh - 1 = g(h - 1) + (g - 1) and g⁻¹ - 1 = -g⁻¹(g - 1): so the kept
    # generators' Smith form has the given stack's diagonal, and its V puts
    # every row of the given stack in D's row lattice
    from aniso.torus import TorusModel, coset_order, torsion_points
    models = _norm_quotient_models(71) + _norm_quotient_models(72)[1::2]
    for name in ("S3", "S4", "S5", "S6", "A4", "A5", "D5", "D6", "D8", "C6", "C7", "C9"):
        m = int(name[1:])
        gens = [_augmentation_matrix(g) for g in _transitive_actions(m)[name]]
        models.append(TorusModel(m - 1, gens, name))
    identity_only = TorusModel(3, [IntMatrix.identity(3)] * 2)
    assert identity_only.theta_elements.kept == ()
    models.append(identity_only)
    fewer = 0
    for model in models:
        n, gens = model.rank, model.theta_generators
        diag, v = model.theta_elements.stack_smith
        assert diag == lattice._stack_smith(gens)[0]
        r = sum(1 for s in diag if s)
        for row in _stack_shifted(gens).entries:
            x = lattice._vec_mat(row, v.entries, n)
            assert not any(x[r:]) and all(x[j] % diag[j] == 0 for j in range(r))
        for d in range(2, 31):
            report = torsion_points(model, d)
            for f, w in zip(report.group.invariant_factors, report.witnesses, strict=True):
                assert all(tuple(x % d for x in g.apply(w)) == w for g in gens)
                assert coset_order(w, d) == f
        fewer += len(model.theta_elements.kept) < len(gens)
    assert len(models) == 49 and fewer > 30
