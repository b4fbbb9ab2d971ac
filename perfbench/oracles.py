"""Independent answer checks and the small exact arithmetic they need.

Nothing here imports the package under test: every expected value is a
closed form, a property, or a computation done here with plain integers
and Fractions. Each check returns None when the answer is right and a
one-line reason when it is wrong. self_test() feeds every check at least
one deliberately wrong answer and reports any check that accepts it.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# integer polynomials and finite fields

def cyclotomic_polynomial(n: int) -> list[int]:
    """Phi_n with ascending integer coefficients, by dividing x^n - 1."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic_polynomial(d)
            quot = [0] * (len(poly) - len(div) + 1)
            rem = poly[:]
            for k in range(len(quot) - 1, -1, -1):
                c = rem[k + len(div) - 1]
                quot[k] = c
                for i, x in enumerate(div):
                    rem[k + i] -= c * x
            poly = quot
    return poly


def _binary_poly_mod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    while a and a.bit_length() - 1 >= df:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _binary_irreducible(f: int) -> bool:
    deg = f.bit_length() - 1
    return all(_binary_poly_mod(f, g) for g in range(2, 1 << (deg // 2 + 1)))


def binary_modulus(m: int) -> int:
    """The package's documented F_2^m modulus: the first monic irreducible
    of degree m in lexicographic order on (c_0, ..., c_{m-1})."""
    for tail in itertools.product(range(2), repeat=m):
        f = sum(c << i for i, c in enumerate(tail)) | (1 << m)
        if _binary_irreducible(f):
            return f
    raise AssertionError("no irreducible polynomial")


class GF2m:
    """F_q, q = 2^m, elements as bit masks of coefficients in t."""

    def __init__(self, q: int):
        self.q = q
        self.m = q.bit_length() - 1
        self.modulus = binary_modulus(self.m) if self.m > 1 else 0b10
        self.trace_one = next(x for x in range(q) if self.trace(x))

    def _product(self, a: int, b: int) -> int:
        prod = 0
        while b:
            if b & 1:
                prod ^= a
            b >>= 1
            a <<= 1
        return _binary_poly_mod(prod, self.modulus)

    @functools.cached_property
    def table(self) -> list[list[int]]:
        """Full multiplication table, built on first use."""
        return [[self._product(a, b) for b in range(self.q)] for a in range(self.q)]

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return self._product(a, b)

    def trace(self, x: int) -> int:
        total, y = 0, x
        for _ in range(self.m):
            total ^= y
            y = self._product(y, y)
        return total

    def rank(self, rows) -> int:
        m = [list(r) for r in rows]
        rank = 0
        for col in range(len(m[0])):
            piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = next(x for x in range(1, self.q) if self.table[x][m[rank][col]] == 1)
            m[rank] = [self.table[inv][x] for x in m[rank]]
            for r in range(len(m)):
                if r != rank and m[r][col]:
                    f = m[r][col]
                    m[r] = [x ^ self.table[f][y] for x, y in zip(m[r], m[rank])]
            rank += 1
        return rank

    def transform(self, coeffs: dict, mat, dim: int) -> dict:
        """Coefficients of x -> q(mat @ x) for q = sum c_ij x_i x_j."""
        t = self.table
        out = {}
        for k in range(dim):
            for l in range(k, dim):
                acc = 0
                for (i, j), c in coeffs.items():
                    if k == l:
                        acc ^= t[c][t[mat[i][k]][mat[j][k]]]
                    else:
                        acc ^= t[c][t[mat[i][k]][mat[j][l]] ^ t[mat[i][l]][mat[j][k]]]
                if acc:
                    out[(k, l)] = acc
        return out

    def count_zeros(self, coeffs: dict, dim: int) -> int:
        """Number of vectors of F_q^dim (zero included) where q vanishes."""
        t = self.table
        terms = list(coeffs.items())
        count = 0
        for vec in itertools.product(range(self.q), repeat=dim):
            acc = 0
            for (i, j), c in terms:
                acc ^= t[c][t[vec[i]][vec[j]]]
            if not acc:
                count += 1
        return count


class PrimeField:
    """F_p arithmetic on integer matrices and quadratic forms."""

    def __init__(self, p: int):
        self.p = p

    def matmul(self, a, b):
        p = self.p
        return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
                for row in a]

    def inverse(self, a):
        """Inverse mod p, or None when singular."""
        p, n = self.p, len(a)
        m = [[x % p for x in row] + [int(i == j) for j in range(n)]
             for i, row in enumerate(a)]
        for col in range(n):
            piv = next((r for r in range(col, n) if m[r][col]), None)
            if piv is None:
                return None
            m[col], m[piv] = m[piv], m[col]
            inv = pow(m[col][col], p - 2, p)
            m[col] = [x * inv % p for x in m[col]]
            for r in range(n):
                if r != col and m[r][col]:
                    f = m[r][col]
                    m[r] = [(x - f * y) % p for x, y in zip(m[r], m[col])]
        return [row[n:] for row in m]

    def transform(self, coeffs: dict, mat, dim: int) -> dict:
        p = self.p
        out = {}
        for k in range(dim):
            for l in range(k, dim):
                acc = 0
                for (i, j), c in coeffs.items():
                    if k == l:
                        acc += c * mat[i][k] * mat[j][k]
                    else:
                        acc += c * (mat[i][k] * mat[j][l] + mat[i][l] * mat[j][k])
                if acc % p:
                    out[(k, l)] = acc % p
        return out

    def rank(self, rows) -> int:
        p = self.p
        m = [[x % p for x in r] for r in rows]
        rank = 0
        for col in range(len(m[0])):
            piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = pow(m[rank][col], p - 2, p)
            m[rank] = [x * inv % p for x in m[rank]]
            for r in range(len(m)):
                if r != rank and m[r][col]:
                    f = m[r][col]
                    m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
            rank += 1
        return rank

    def evaluate(self, coeffs: dict, vec) -> int:
        return sum(c * vec[i] * vec[j] for (i, j), c in coeffs.items()) % self.p


class Cyclotomic:
    """Q(zeta_n) = Q[z]/Phi_n; elements are coefficient lists of length phi."""

    def __init__(self, n: int):
        self.n = n
        self.modulus = cyclotomic_polynomial(n)
        self.phi = len(self.modulus) - 1

    def reduce(self, coeffs):
        c = list(coeffs)
        for k in range(len(c) - 1, self.phi - 1, -1):
            top = c[k]
            if top:
                for i, x in enumerate(self.modulus):
                    c[k - self.phi + i] -= top * x
        c = c[:self.phi]
        return c + [0] * (self.phi - len(c))

    def add(self, x, y):
        return [a + b for a, b in zip(x, y)]

    def mul(self, x, y):
        prod = [0] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    prod[i + j] += a * b
        return self.reduce(prod)

    def scale(self, x, k):
        return [k * a for a in x]

    def power(self, x, e: int):
        out = self.const(1)
        for _ in range(e):
            out = self.mul(out, x)
        return out

    def const(self, k):
        return [k] + [0] * (self.phi - 1)

    def zeta(self, k: int):
        return self.reduce([0] * (k % self.n) + [1])

    def is_zero(self, x) -> bool:
        return not any(x)

    def det(self, mat):
        """Leibniz expansion; fine for the n <= 5 matrices used here."""
        n = len(mat)
        total = self.const(0)
        for perm in itertools.permutations(range(n)):
            term = self.const(1)
            for r in range(n):
                term = self.mul(term, mat[r][perm[r]])
                if self.is_zero(term):
                    break
            else:
                inv = sum(1 for i in range(n) for j in range(i + 1, n)
                          if perm[i] > perm[j])
                total = self.add(total, self.scale(term, -1 if inv % 2 else 1))
        return total


def parse_cyclotomic_poly(obj: dict, field: Cyclotomic) -> dict:
    """{"i,j": [coeff strings]} -> {(i, j): coefficient list}."""
    out = {}
    for key, coeffs in obj.items():
        i, j = (int(t) for t in key.split(","))
        out[(i, j)] = field.reduce([Fraction(c) for c in coeffs])
    return out


def poly_mul(field: Cyclotomic, f: dict, g: dict) -> dict:
    out = {}
    for (i, j), a in f.items():
        for (k, l), b in g.items():
            key = (i + k, j + l)
            out[key] = field.add(out.get(key, field.const(0)), field.mul(a, b))
    return {k: v for k, v in out.items() if not field.is_zero(v)}


def poly_eval(field: Cyclotomic, f: dict, a0: int, b0: int):
    total = field.const(0)
    for (i, j), c in f.items():
        total = field.add(total, field.scale(c, Fraction(a0) ** i * Fraction(b0) ** j))
    return total


# ---------------------------------------------------------------------------
# torus torsion and cohomology

def mat_vec(mat, vec):
    return [sum(x * y for x, y in zip(row, vec)) for row in mat]


def check_torsion(factors, witnesses, divisibility_ok, d: int, m: int,
                  actions) -> str | None:
    """d-torsion of the torus of I_X for a transitive G-set X of size m.

    H^1(G, I_X) = Z/m and I_X^G = 0 give invariant factors (gcd(m, d)),
    or none when that gcd is 1. Each witness must be fixed mod d by every
    action matrix and have exactly the order of its factor.
    """
    g = math.gcd(m, d)
    expected = (g,) if g > 1 else ()
    if tuple(factors) != expected:
        return f"d={d}: invariant factors {tuple(factors)}, expected {expected}"
    if len(witnesses) != len(expected):
        return f"d={d}: {len(witnesses)} witnesses for {len(expected)} factors"
    for w, f in zip(witnesses, expected):
        for a in actions:
            if len(w) != len(a):
                return f"d={d}: witness length {len(w)} != rank {len(a)}"
            if any((x - y) % d for x, y in zip(mat_vec(a, w), w)):
                return f"d={d}: witness {tuple(w)} is moved mod {d}"
        order = d // math.gcd(d, *w) if any(x % d for x in w) else 1
        if order != f:
            return f"d={d}: witness {tuple(w)} has order {order}, expected {f}"
    if not divisibility_ok:
        return f"d={d}: exponent reported not to divide the group order"
    return None


def check_h1(factors, free_rank: int, expected_order: int) -> str | None:
    """H^1(G, I_X) = Z/m: cyclic of order m, no free part."""
    expected = (expected_order,) if expected_order > 1 else ()
    if tuple(factors) != expected or free_rank:
        return f"H^1 = {tuple(factors)} + Z^{free_rank}, expected Z/{expected_order}"
    return None


def check_replay_25(entry: dict) -> str | None:
    """Z with -1 acting: d-torsion Z/gcd(2, d), so exponents {1, 2} on d <= 20."""
    det = entry.get("details", {})
    want = {"theta_order": "2", "exponents_seen": ["1", "2"],
            "torsion_at_2": ["2"], "averaging_certificate_holds": True}
    if entry.get("status") != "pass":
        return "example-2.5 did not pass"
    for key, value in want.items():
        if det.get(key) != value:
            return f"example-2.5 {key} = {det.get(key)!r}, expected {value!r}"
    return None


def check_replay_26(entry: dict) -> str | None:
    """Norm-quotient tori of Z/2, Z/3, Z/4, S_3: rank |G| - 1, acting group
    of order |G|, anisotropic, exponents dividing |G|."""
    if entry.get("status") != "pass":
        return "example-2.6 did not pass"
    rows = entry.get("details", {}).get("tori", [])
    orders = {"Z/2": 2, "Z/3": 3, "Z/4": 4, "S_3": 6}
    if [r.get("group") for r in rows] != list(orders):
        return f"example-2.6 groups {[r.get('group') for r in rows]}"
    for r in rows:
        n = orders[r["group"]]
        want = {"rank": str(n - 1), "theta_order": str(n), "group_order": str(n),
                "anisotropic": True, "exponents_divide_group_order": True}
        for key, value in want.items():
            if r.get(key) != value:
                return f"example-2.6 {r['group']} {key} = {r.get(key)!r}"
    return None


# ---------------------------------------------------------------------------
# symbol algebras

def closed_norm(field: Cyclotomic, n: int, element: dict):
    """Reduced norm of c0 + c1 u, c0 + c1 v or a monomial, as {(i, j): c}.

    N(c0 + c1 u) = c0^n - (-c1)^n a, likewise for v with b, and
    N(c u^i v^j) = c^n ((-1)^(n+1) a)^i ((-1)^(n+1) b)^j.
    Returns None for other shapes.
    """
    keys = sorted(element)
    sign = -1 if n % 2 == 0 else 1
    if len(keys) == 1:
        (i, j), = keys
        c = field.scale(field.power(element[(i, j)], n), sign ** (i + j))
        return {(i, j): c}
    if keys in ([(0, 0), (1, 0)], [(0, 0), (0, 1)]):
        c0, c1 = element[(0, 0)], element[keys[1]]
        lead = field.scale(field.power(field.scale(c1, -1), n), -1)
        var = (1, 0) if keys[1] == (1, 0) else (0, 1)
        return {(0, 0): field.power(c0, n), var: lead}
    return None


def quaternion_norm(element: dict):
    """x0^2 - a x1^2 - b x2^2 + ab x3^2 for x0 + x1 u + x2 v + x3 uv."""
    x = {k: Fraction(c[0]) for k, c in element.items()}
    x0, x1, x2, x3 = (x.get(k, 0) for k in ((0, 0), (1, 0), (0, 1), (1, 1)))
    return {(0, 0): [x0 * x0], (1, 0): [-x1 * x1], (0, 1): [-x2 * x2],
            (1, 1): [x3 * x3]}


def split_norm(field: Cyclotomic, n: int, element: dict, t: int, b0: int):
    """Reduced norm at a = t^n, b = b0 through the splitting
    u -> diag(t z^-k), v -> cyclic shift with v^n = b0: a determinant of
    an n x n matrix over Q(zeta_n), computed here."""
    u = [[field.const(0)] * n for _ in range(n)]
    v = [[field.const(0)] * n for _ in range(n)]
    for k in range(n):
        u[k][k] = field.scale(field.zeta(-k), t)
        v[(k + 1) % n][k] = field.const(b0 if k == n - 1 else 1)

    def matmul(x, y):
        return [[_sum(field, [field.mul(x[r][s], y[s][c]) for s in range(n)])
                 for c in range(n)] for r in range(n)]

    upow = [[[field.const(int(r == c)) for c in range(n)] for r in range(n)]]
    vpow = [upow[0]]
    for _ in range(n - 1):
        upow.append(matmul(upow[-1], u))
        vpow.append(matmul(vpow[-1], v))
    rho = [[field.const(0)] * n for _ in range(n)]
    for (i, j), c in element.items():
        mono = matmul(upow[i], vpow[j])
        for r in range(n):
            for s in range(n):
                if not field.is_zero(mono[r][s]):
                    rho[r][s] = field.add(rho[r][s], field.mul(c, mono[r][s]))
    return field.det(rho)


def _sum(field, items):
    total = field.const(0)
    for x in items:
        total = field.add(total, x)
    return total


def check_norm(n: int, element: dict, report: dict,
               points=((2, 3), (1, -2))) -> str | None:
    """Compare a `csa norm` report with closed forms, and for every element
    with its value at split specializations (a, b) = (t^n, b0)."""
    field = Cyclotomic(n)
    if report.get("degree") != str(n):
        return f"degree {report.get('degree')!r}, expected {n}"
    value = report["reduced_norm"]["value"]
    num = parse_cyclotomic_poly(value["num"], field)
    den = parse_cyclotomic_poly(value.get("den", {"0,0": ["1"]}), field)
    elt = {k: field.reduce(c) for k, c in element.items()}
    expected = closed_norm(field, n, elt)
    if expected is None and n == 2:
        expected = quaternion_norm(elt)
    if expected is not None:
        nonzero = {k: v for k, v in num.items() if not field.is_zero(v)}
        if poly_mul(field, expected, den) != nonzero:
            return f"degree-{n} norm differs from its closed form"
    for t, b0 in points:
        a0 = t ** n
        d = poly_eval(field, den, a0, b0)
        if field.is_zero(d):
            return "norm denominator vanishes at a specialization"
        lhs = poly_eval(field, num, a0, b0)
        rhs = field.mul(split_norm(field, n, elt, t, b0), d)
        if lhs != rhs:
            return f"degree-{n} norm wrong at a = {t}^{n}, b = {b0}"
    return None


def _parse_fp_xy(text: str, p: int) -> dict | None:
    """Entries of the split matrices: an integer, X or Y (mod p)."""
    text = text.strip()
    if text in ("X", "Y"):
        return {(1, 0) if text == "X" else (0, 1): 1}
    try:
        c = int(text) % p
    except ValueError:
        return None
    return {(0, 0): c} if c else {}


def _fp_poly_mul(f, g, p):
    out = {}
    for (i, j), a in f.items():
        for (k, l), b in g.items():
            key = (i + k, j + l)
            out[key] = (out.get(key, 0) + a * b) % p
    return {k: v for k, v in out.items() if v}


def _fp_matmul(x, y, p):
    n = len(x)
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = {}
            for s in range(n):
                for key, v in _fp_poly_mul(x[r][s], y[s][c], p).items():
                    acc[key] = (acc.get(key, 0) + v) % p
            row.append({k: v for k, v in acc.items() if v})
        out.append(row)
    return out


def check_weyl(p: int, report: dict, status: int) -> str | None:
    """Recheck the split certificate from its matrices, over F_p[X, Y]:
    U^p = Y^p, V^p = X^p, VU - UV = 1, and the p^2 products of the
    nilpotent parts N^i D^j are linearly independent."""
    if status != 0 or report.get("splits_as_full_matrix_algebra") is not True:
        return f"p={p}: split certificate not reported"
    for key in ("u_power_is_y", "v_power_is_x", "commutator_is_one",
                "monomials_independent"):
        if report.get(key) is not True:
            return f"p={p}: {key} is not true"
    mats = []
    for key in ("u_matrix", "v_matrix"):
        rows = report.get(key)
        if not rows or len(rows) != p or any(len(r) != p for r in rows):
            return f"p={p}: {key} is not {p} x {p}"
        parsed = [[_parse_fp_xy(e, p) for e in row] for row in rows]
        if any(e is None for row in parsed for e in row):
            return f"p={p}: {key} has entries outside F_p[X, Y]"
        mats.append(parsed)
    u, v = mats
    ident = [[{(0, 0): 1} if r == c else {} for c in range(p)] for r in range(p)]

    def power(m):
        out = ident
        for _ in range(p):
            out = _fp_matmul(out, m, p)
        return out

    y_p = [[{(0, p): 1} if r == c else {} for c in range(p)] for r in range(p)]
    x_p = [[{(p, 0): 1} if r == c else {} for c in range(p)] for r in range(p)]
    if power(u) != y_p:
        return f"p={p}: U^p != Y^p"
    if power(v) != x_p:
        return f"p={p}: V^p != X^p"
    vu, uv = _fp_matmul(v, u, p), _fp_matmul(u, v, p)
    comm = [[{k: (vu[r][c].get(k, 0) - uv[r][c].get(k, 0)) % p
              for k in set(vu[r][c]) | set(uv[r][c])} for c in range(p)]
            for r in range(p)]
    comm = [[{k: x for k, x in e.items() if x} for e in row] for row in comm]
    if comm != ident:
        return f"p={p}: VU - UV != 1"
    # nilpotent parts: subtract the scalar diagonal
    nil = []
    for m, var in ((u, (0, 1)), (v, (1, 0))):
        part = [[{k: x for k, x in m[r][c].items() if not (r == c and k == var)}
                 for c in range(p)] for r in range(p)]
        if any(k != (0, 0) for row in part for e in row for k in e):
            return f"p={p}: off-diagonal entries are not constants"
        nil.append([[e.get((0, 0), 0) for e in row] for row in part])
    fp = PrimeField(p)
    vectors = []
    ni = [[int(r == c) for c in range(p)] for r in range(p)]
    for _ in range(p):
        acc = ni
        for _ in range(p):
            vectors.append([x for row in acc for x in row])
            acc = fp.matmul(acc, nil[1])
        ni = fp.matmul(ni, nil[0])
    if fp.rank(vectors) != p * p:
        return f"p={p}: the p^2 monomials are dependent"
    return None


def check_csa_torsion(p: int, m: int, report: dict, status: int) -> str | None:
    """m distinct monic irreducibles in v are independent modulo p-th
    powers of F_p(v), so their classes span (Z/p)^m: rank m, order p^m."""
    want = {"rank": str(m), "group_order": str(p ** m),
            "orders_divide_p": True, "commute": True}
    for key, value in want.items():
        if report.get(key) != value:
            return f"p={p} m={m}: {key} = {report.get(key)!r}, expected {value!r}"
    if len(report.get("generators", [])) != m or status != 0:
        return f"p={p} m={m}: wrong generator count or exit status {status}"
    return None


def check_replay_48(entry: dict) -> str | None:
    if entry.get("status") != "pass":
        return "example-4.8 did not pass"
    rows = entry.get("details", {}).get("certificates", [])
    if [r.get("p") for r in rows] != ["2", "3", "5"]:
        return "example-4.8 primes differ from 2, 3, 5"
    for r in rows:
        p = int(r["p"])
        if r.get("relations_hold") is not True or r.get("monomials_independent") is not True:
            return f"example-4.8 p={p} certificate fails"
        if r.get("elementary_abelian_orders") != [str(p ** m) for m in range(1, 5)]:
            return f"example-4.8 p={p} orders {r.get('elementary_abelian_orders')}"
    return None


# ---------------------------------------------------------------------------
# quadratic forms

def check_arf(gf: GF2m, form: dict, report: dict, zero_count) -> str | None:
    """The Arf class Tr(a) must match the zero count of the input form,
    N = q^(2k-1) + e (q^k - q^(k-1)) with e = +1 for class 0 and -1 for
    class 1, and the returned change of basis C must carry the input to
    x1^2 + x1 x2 + a x2^2 + x3 x4 + ... exactly. Without a zero count
    (fields too large to scan) the class built into the input is used."""
    q, dim = gf.q, form["dim"]
    k = dim // 2
    split = q ** (2 * k - 1) + (q ** k - q ** (k - 1))
    aniso = q ** (2 * k - 1) - (q ** k - q ** (k - 1))
    if zero_count is None:
        want_class = form["arf_class"]
    elif zero_count in (split, aniso):
        want_class = 0 if zero_count == split else 1
    else:
        return f"zero count {zero_count} fits no nondegenerate form"
    a = _gf_value(q, report["arf_invariant"]["value"])
    if gf.trace(a) != want_class:
        return f"Arf parameter has trace {gf.trace(a)}, zero count says {want_class}"
    if report.get("dim") != str(dim):
        return f"dim {report.get('dim')!r}"
    change = [[_gf_value(q, e["value"]) for e in row] for row in report["change_of_basis"]]
    if gf.rank(change) != dim:
        return "change of basis is singular"
    if gf.transform(form["coeffs"], change, dim) != {
            key: c for key, c in canonical_coeffs(dim, a).items() if c}:
        return "change of basis does not reach the canonical form"
    return None


def canonical_coeffs(dim: int, a: int) -> dict:
    """x1^2 + x1 x2 + a x2^2 + x3 x4 + x5 x6 + ... in dimension dim."""
    coeffs = {(0, 0): 1, (0, 1): 1, (1, 1): a}
    for t in range(1, dim // 2):
        coeffs[(2 * t, 2 * t + 1)] = 1
    return coeffs


def _gf_value(q: int, payload) -> int:
    if q == 2:
        return int(payload) % 2
    return sum((int(c) % 2) << i for i, c in enumerate(payload))


def check_isotropic_vector(form: dict, report: dict) -> str | None:
    """The extracted vector is nonzero, fixed by the isometry, and q(v) = 0,
    all evaluated here mod p."""
    p = form["p"]
    try:
        vec = [int(e["value"]) % p for e in report["vector"]]
    except (KeyError, TypeError, ValueError):
        return "vector payload unreadable"
    if len(vec) != form["dim"] or not any(vec):
        return "vector is zero or has the wrong length"
    fp = PrimeField(p)
    if fp.evaluate(form["coeffs"], vec) != 0:
        return f"q(v) = {fp.evaluate(form['coeffs'], vec)} != 0 mod {p}"
    if [x % p for x in mat_vec(form["matrix"], vec)] != vec:
        return "vector is not fixed by the isometry"
    return None


def check_pfister(report: dict, status: int, trials: int) -> str | None:
    """k = 3: the isometry closure of the multiplier quadric is a
    nonabelian group of order 8, and no candidate point survives."""
    want = {"closure_order": "8", "closure_nonabelian": True,
            "order_divides_bound": True, "candidates_refuted": str(trials),
            "refutation_trials": str(trials)}
    for key, value in want.items():
        if report.get(key) != value:
            return f"pfister {key} = {report.get(key)!r}, expected {value!r}"
    return None if status == 0 else f"pfister exit status {status}"


def check_replay_54(entry: dict, trials: int = 100) -> str | None:
    if entry.get("status") != "pass":
        return "example-5.4 did not pass"
    det = entry.get("details", {})
    return check_pfister({**det, "refutation_trials": str(trials)}, 0, trials)


# ---------------------------------------------------------------------------
# pairings

def pair(gram, x, y) -> Fraction:
    total = sum((xi * yj * gram[i][j] for i, xi in enumerate(x) if xi
                 for j, yj in enumerate(y) if yj), Fraction(0))
    return total - (total.numerator // total.denominator)


def element_order(factors, x) -> int:
    out = 1
    for a, d in zip(x, factors):
        out = math.lcm(out, d // math.gcd(d, a % d))
    return out


def subgroup_order(factors, gens) -> int:
    zero = (0,) * len(factors)
    seen, queue = {zero}, [zero]
    while queue:
        nxt = []
        for x in queue:
            for g in gens:
                y = tuple((a + b) % d for a, b, d in zip(x, g, factors))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        queue = nxt
    return len(seen)


def check_isotropic_subgroup(pairing: dict, gens, orders, order: int) -> str | None:
    """Generators pair to 0 mod 1 under the input gram; the stated orders
    and the subgroup order are recounted here; |H|^2 is a multiple of |G|,
    and equal to it for a pairing built nondegenerate."""
    factors, gram = pairing["factors"], pairing["gram"]
    group_order = math.prod(factors)
    gens = [tuple(int(x) % d for x, d in zip(g, factors)) for g in gens]
    for a in gens:
        for b in gens:
            if pair(gram, a, b):
                return f"generators {a}, {b} pair to {pair(gram, a, b)}"
    if [element_order(factors, g) for g in gens] != list(orders):
        return "stated generator orders are wrong"
    h = subgroup_order(factors, gens)
    if h != order or math.prod(orders) != order:
        return f"subgroup has order {h}, stated {order}"
    if (order * order) % group_order:
        return f"|H|^2 = {order * order} is not a multiple of |G| = {group_order}"
    if pairing["nondegenerate"] and order * order != group_order:
        return f"|H|^2 = {order * order} != |G| = {group_order} for a nondegenerate pairing"
    return None


def check_commutator(n: int, factors, gram) -> str | None:
    """Clock and shift commute up to zeta_n^(+-1): (Z/n)^2 with +-1/n."""
    if tuple(factors) != (n, n):
        return f"group {tuple(factors)}, expected {(n, n)}"
    g01, g10 = Fraction(gram[0][1]), Fraction(gram[1][0])
    if g01 not in (Fraction(1, n), Fraction(n - 1, n)) or (g01 + g10) % 1:
        return f"commutator values {g01}, {g10}"
    if Fraction(gram[0][0]) or Fraction(gram[1][1]):
        return "nonzero diagonal"
    return None


# ---------------------------------------------------------------------------
# bounds

def minkowski_m(n: int) -> int:
    """Minkowski's lcm of finite subgroup orders of GL_n(Z):
    prod over primes p of p^(sum_k floor(n / ((p - 1) p^k)))."""
    out = 1
    for p in range(2, n + 2):
        if all(p % q for q in range(2, p)):
            e, k = 0, 0
            while (p - 1) * p ** k <= n:
                e += n // ((p - 1) * p ** k)
                k += 1
            out *= p ** e
    return out


MAX_FINITE_ORDER = {1: 2, 2: 12, 3: 48}  # largest finite subgroup of GL_n(Z)


def check_minkowski(entry: dict) -> str | None:
    if entry.get("status") != "pass":
        return "minkowski-table did not pass"
    rows = entry.get("details", {}).get("table", [])
    if [r.get("n") for r in rows] != ["1", "2", "3"]:
        return "minkowski-table rows differ from n = 1, 2, 3"
    for r in rows:
        n = int(r["n"])
        if (r.get("upsilon_a"), r.get("upsilon_m")) != (str(MAX_FINITE_ORDER[n]), str(minkowski_m(n))):
            return f"minkowski n={n}: ({r.get('upsilon_a')}, {r.get('upsilon_m')})"
    return None


def check_burnside(report, order: int, exponent: int, d: int) -> str | None:
    """The generated group has the order and exponent known from its
    construction; the hypothesis holds exactly when the exponent divides d."""
    holds = d % exponent == 0
    if report.group_order != order:
        return f"group order {report.group_order}, expected {order}"
    if report.hypothesis_holds != holds:
        return f"hypothesis {report.hypothesis_holds} for exponent {exponent}, d = {d}"
    if holds and report.divides is not True:
        return "conclusion not reported under a true hypothesis"
    if not holds and not report.violating_orders:
        return "failed hypothesis without violating orders"
    return None


# ---------------------------------------------------------------------------
# self-test: every check must reject a deliberately wrong answer

def self_test() -> list[str]:
    """Names of checks that accepted a wrong answer or rejected a right one."""
    bad = []

    def expect(name, ok_result, wrong_result):
        if ok_result is not None or wrong_result is None:
            bad.append(name)

    # torsion: S_3 on Z^3, d = 6; the fixed class is (1, 2) * 2 = (2, 4)
    from .inputs import augmentation_action_matrix, cycle
    acts = [augmentation_action_matrix(cycle(3, [0, 1, 2])),
            augmentation_action_matrix(cycle(3, [0, 1]))]
    good_w = next(w for w in itertools.product(range(6), repeat=2)
                  if all(all((x - y) % 6 == 0 for x, y in zip(mat_vec(a, w), w))
                         for a in acts) and 6 // math.gcd(6, *w) == 3)
    expect("torsion factors", check_torsion((3,), [good_w], True, 6, 3, acts),
           check_torsion((6,), [good_w], True, 6, 3, acts))
    expect("torsion witness", None,
           check_torsion((3,), [(1, 0)], True, 6, 3, acts))
    expect("h1", check_h1((6,), 0, 6), check_h1((3,), 0, 6))
    expect("replay 2.5", check_replay_25(
        {"status": "pass", "details": {"theta_order": "2", "exponents_seen": ["1", "2"],
                                       "torsion_at_2": ["2"], "averaging_certificate_holds": True}}),
        check_replay_25({"status": "pass", "details": {"theta_order": "2",
                                                       "exponents_seen": ["2"]}}))
    rows = [{"group": g, "rank": str(n - 1), "theta_order": str(n), "group_order": str(n),
             "anisotropic": True, "exponents_divide_group_order": True}
            for g, n in (("Z/2", 2), ("Z/3", 3), ("Z/4", 4), ("S_3", 6))]
    wrong_rows = [dict(r) for r in rows]
    wrong_rows[3]["theta_order"] = "3"
    expect("replay 2.6", check_replay_26({"status": "pass", "details": {"tori": rows}}),
           check_replay_26({"status": "pass", "details": {"tori": wrong_rows}}))

    # norms: quaternion closed form, the u-binomial, and the split value
    def norm_report(n, num):
        return {"degree": str(n), "reduced_norm": {"value": {
            "num": {f"{i},{j}": [str(x) for x in c] for (i, j), c in num.items()}}}}
    q_elt = {(0, 0): [1], (1, 0): [2], (0, 1): [1], (1, 1): [1]}
    right = {(0, 0): [1], (1, 0): [-4], (0, 1): [-1], (1, 1): [1]}
    expect("norm quaternion", check_norm(2, q_elt, norm_report(2, right)),
           check_norm(2, q_elt, norm_report(2, {**right, (1, 1): [-1]})))
    u_elt = {(0, 0): [1, 1], (1, 0): [0, 1]}  # degree 3: (1 + z) + z u
    f3 = Cyclotomic(3)
    right3 = closed_norm(f3, 3, u_elt)
    expect("norm closed form", check_norm(3, u_elt, norm_report(3, right3)),
           check_norm(3, u_elt, norm_report(3, {**right3, (1, 0): f3.const(2)})))
    dense = {(i, j): [1 + i + 2 * j, 0] for i in range(3) for j in range(3)}
    expect("norm split value", None, check_norm(3, dense, norm_report(3, right3)))

    # Weyl certificate: the true matrices pass, a wrong shift entry fails
    p = 3
    u = [["Y" if r == c else ("1" if r == c + 1 else "0") for c in range(p)] for r in range(p)]
    v = [["X" if r == c else (str(c) if r == c - 1 else "0") for c in range(p)] for r in range(p)]
    flags = {k: True for k in ("u_power_is_y", "v_power_is_x", "commutator_is_one",
                               "monomials_independent", "splits_as_full_matrix_algebra")}
    v_bad = [row[:] for row in v]
    v_bad[0][1] = "2"
    expect("weyl", check_weyl(p, {**flags, "u_matrix": u, "v_matrix": v}, 0),
           check_weyl(p, {**flags, "u_matrix": u, "v_matrix": v_bad}, 0))
    tors = {"rank": "2", "group_order": "9", "orders_divide_p": True,
            "commute": True, "generators": ["v", "v + 1"]}
    expect("csa torsion", check_csa_torsion(3, 2, tors, 0),
           check_csa_torsion(3, 2, {**tors, "rank": "1", "group_order": "3"}, 0))
    cert = {"p": "2", "relations_hold": True, "monomials_independent": True,
            "elementary_abelian_orders": ["2", "4", "8", "16"]}
    good48 = [cert, {**cert, "p": "3", "elementary_abelian_orders": ["3", "9", "27", "81"]},
              {**cert, "p": "5", "elementary_abelian_orders": ["5", "25", "125", "625"]}]
    expect("replay 4.8", check_replay_48({"status": "pass", "details": {"certificates": good48}}),
           check_replay_48({"status": "pass", "details": {"certificates": good48[:1] + [
               {**cert, "p": "3", "elementary_abelian_orders": ["3", "9", "27", "27"]}, good48[2]]}}))

    # Arf: x1 x2 over F_2 has class 0 with C = I; claiming a = 1 is wrong
    gf = GF2m(2)
    form = {"dim": 2, "coeffs": {(0, 0): 1, (0, 1): 1}}
    ident = [[{"value": "1"}, {"value": "0"}], [{"value": "0"}, {"value": "1"}]]
    # C = [[1, 0], [1, 1]] turns x1^2 + x1 x2 into x1 x2, not the canonical form
    swap = [[{"value": "1"}, {"value": "0"}], [{"value": "1"}, {"value": "1"}]]
    zc = gf.count_zeros(form["coeffs"], 2)
    expect("arf", check_arf(gf, form, {"dim": "2", "arf_invariant": {"value": "0"},
                                       "change_of_basis": ident}, zc),
           check_arf(gf, form, {"dim": "2", "arf_invariant": {"value": "1"},
                                "change_of_basis": ident}, zc))
    expect("arf basis", None,
           check_arf(gf, form, {"dim": "2", "arf_invariant": {"value": "0"},
                                "change_of_basis": swap}, zc))
    ext = {"p": 3, "dim": 3, "coeffs": {(0, 0): 1, (1, 1): 1, (2, 2): 1},
           "matrix": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}
    expect("isotropic vector",
           check_isotropic_vector(ext, {"vector": [{"value": "1"}] * 3}),
           check_isotropic_vector(ext, {"vector": [{"value": "1"}, {"value": "1"},
                                                   {"value": "0"}]}))
    pf = {"closure_order": "8", "closure_nonabelian": True, "order_divides_bound": True,
          "candidates_refuted": "5", "refutation_trials": "5"}
    expect("pfister", check_pfister(pf, 0, 5),
           check_pfister({**pf, "closure_nonabelian": False}, 0, 5))
    expect("replay 5.4", check_replay_54({"status": "pass", "details": {**pf, "candidates_refuted": "100"}}),
           check_replay_54({"status": "pass", "details": {**pf, "closure_order": "4"}}))

    # pairings: (Z/4)^2 with 1/4; <e1> is isotropic of order 4
    pr = {"factors": [4, 4], "gram": [[Fraction(0), Fraction(1, 4)],
                                      [Fraction(3, 4), Fraction(0)]], "nondegenerate": True}
    expect("isotropic subgroup", check_isotropic_subgroup(pr, [(1, 0)], [4], 4),
           check_isotropic_subgroup(pr, [(1, 0), (0, 1)], [4, 4], 16))
    expect("isotropic order", None, check_isotropic_subgroup(pr, [(2, 0)], [2], 2))
    expect("commutator", check_commutator(3, (3, 3), [[0, Fraction(1, 3)], [Fraction(2, 3), 0]]),
           check_commutator(3, (3, 3), [[0, Fraction(1, 3)], [Fraction(1, 3), 0]]))
    mink = [{"n": "1", "upsilon_a": "2", "upsilon_m": "2"},
            {"n": "2", "upsilon_a": "12", "upsilon_m": "24"},
            {"n": "3", "upsilon_a": "48", "upsilon_m": "48"}]
    expect("minkowski", check_minkowski({"status": "pass", "details": {"table": mink}}),
           check_minkowski({"status": "pass", "details": {"table": mink[:2] + [
               {"n": "3", "upsilon_a": "48", "upsilon_m": "96"}]}}))

    class Report:
        group_order, hypothesis_holds, divides, violating_orders = 6, True, True, ()
    wrong = Report()
    wrong.hypothesis_holds = False
    expect("burnside", check_burnside(Report(), 6, 6, 12), check_burnside(wrong, 6, 6, 12))
    return bad
