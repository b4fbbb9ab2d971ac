"""Seeded input generator for the benchmark workloads.

Everything here is plain Python over integers and Fractions; nothing
imports the package under test. The same seed gives the same inputs.
Each generator returns data together with what the construction itself
guarantees (group order, Arf class, nondegeneracy), so the checks can
compare the program's answers against facts that do not come from it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import oracles


# ---------------------------------------------------------------------------
# permutation groups and multiplication tables

def compose(s, t):
    """(s*t)(i) = s(t(i)), the package's composition convention."""
    return tuple(s[i] for i in t)


def cycle(m: int, points) -> tuple:
    """Permutation of range(m) cycling the listed points."""
    perm = list(range(m))
    for a, b in zip(points, points[1:] + points[:1]):
        perm[a] = b
    return tuple(perm)


def permutation_closure(generators) -> list[tuple]:
    """All elements generated, identity first, breadth first."""
    m = len(generators[0])
    ident = tuple(range(m))
    elements, seen, queue = [ident], {ident}, [ident]
    while queue:
        nxt = []
        for s in queue:
            for g in generators:
                prod = compose(s, g)
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
                    nxt.append(prod)
        queue = nxt
    return elements


def multiplication_table(elements) -> list[list[int]]:
    index = {p: i for i, p in enumerate(elements)}
    return [[index[compose(s, t)] for t in elements] for s in elements]


def _quaternion_generators():
    # Q8 acting on itself by left multiplication; elements are (sign, unit)
    units = ["1", "i", "j", "k"]
    prod = {("1", x): (1, x) for x in units}
    prod.update({(x, "1"): (1, x) for x in units})
    for a, b, c in (("i", "j", "k"), ("j", "k", "i"), ("k", "i", "j")):
        prod[(a, b)] = (1, c)
        prod[(b, a)] = (-1, c)
    for x in ("i", "j", "k"):
        prod[(x, x)] = (-1, "1")
    elems = [(s, u) for s in (1, -1) for u in units]
    index = {e: i for i, e in enumerate(elems)}

    def left(x):
        out = []
        for s, u in elems:
            sign, w = prod[(x, u)]
            out.append(index[(s * sign, w)])
        return tuple(out)

    return [left("i"), left("j")]


def _regular_generators():
    """Permutation generators of the groups used for norm-quotient tori."""
    return {
        "Z2": [cycle(2, [0, 1])],
        "Z3": [cycle(3, [0, 1, 2])],
        "Z4": [cycle(4, [0, 1, 2, 3])],
        "V4": [cycle(4, [0, 1]), cycle(4, [2, 3])],
        "Z5": [cycle(5, list(range(5)))],
        "S3": [cycle(3, [0, 1, 2]), cycle(3, [0, 1])],
        "Z6": [cycle(6, list(range(6)))],
        "Z7": [cycle(7, list(range(7)))],
        "Z8": [cycle(8, list(range(8)))],
        "D4": [cycle(4, [0, 1, 2, 3]), cycle(4, [1, 3])],
        "Q8": _quaternion_generators(),
        "Z2xZ4": [cycle(6, [0, 1]), cycle(6, [2, 3, 4, 5])],
    }


def regular_groups(rng: random.Random, names) -> list[dict]:
    """Relabelled multiplication tables of the named groups.

    Each entry carries the table handed to the program, the group order,
    and a generating set (as table indices) for the h1 inputs.
    """
    gens = _regular_generators()
    out = []
    for name in names:
        elements = permutation_closure(gens[name])
        table = multiplication_table(elements)
        n = len(table)
        pi = [0] + rng.sample(range(1, n), n - 1)
        relabelled = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                relabelled[pi[i]][pi[j]] = pi[table[i][j]]
        gen_index = [pi[elements.index(g)] for g in gens[name]]
        out.append({"name": name, "table": relabelled, "order": n,
                    "generators": gen_index})
    return out


def regular_action_matrix(table, s: int) -> list[list[int]]:
    """Action of element s on the augmentation ideal of Z[G].

    Basis b_g = g - e for g != e (coordinate g - 1); s.b_g = b_{sg} - b_s
    with b_e = 0. Computed here from the table alone.
    """
    n = len(table)
    rank = n - 1
    cols = []
    for g in range(1, n):
        col = [0] * rank
        sg = table[s][g]
        if sg:
            col[sg - 1] += 1
        if s:
            col[s - 1] -= 1
        cols.append(col)
    return [[cols[j][i] for j in range(rank)] for i in range(rank)]


def augmentation_action_matrix(perm) -> list[list[int]]:
    """Action of a permutation of X = {0..m-1} on I_X = ker(Z^X -> Z).

    Basis c_i = e_i - e_0 for i = 1..m-1; g.c_i = c_{g(i)} - c_{g(0)}.
    """
    m = len(perm)
    rank = m - 1
    cols = []
    for i in range(1, m):
        col = [0] * rank
        if perm[i]:
            col[perm[i] - 1] += 1
        if perm[0]:
            col[perm[0] - 1] -= 1
        cols.append(col)
    return [[cols[j][i] for j in range(rank)] for i in range(rank)]


def _transitive_generators(m: int):
    full = cycle(m, list(range(m)))
    return {
        f"S{m}": [full, cycle(m, [0, 1])],
        f"A{m}": ([cycle(m, [0, 1, 2]), cycle(m, list(range(1, m)))]
                  if m % 2 == 0 else [cycle(m, [0, 1, 2]), full]),
        f"D{m}": [full, tuple((-i) % m for i in range(m))],
        f"C{m}": [full],
    }


def augmentation_lattices(specs) -> list[dict]:
    """Two-generator (or cyclic) transitive actions permuting Z^m.

    These inputs do not depend on the seed: their queries set the median
    latency, and a seed-dependent choice of generators moves it by more
    than any change worth detecting.
    """
    out = []
    for name in specs:
        m = int(name[1:])
        gens = _transitive_generators(m)[name]
        out.append({"name": f"{name} on Z^{m}", "m": m,
                    "order": len(permutation_closure(gens)),
                    "matrices": [augmentation_action_matrix(g) for g in gens]})
    return out


# ---------------------------------------------------------------------------
# alternating pairings

def _mod1(q: Fraction) -> Fraction:
    return q - (q.numerator // q.denominator)


def gram_in_basis(factors, gram, basis) -> list[list[Fraction]]:
    """Gram matrix of the pairing on new generators (columns of basis)."""
    k = len(factors)
    return [[_mod1(sum((basis[i][a] * basis[j][b] * gram[i][j]
                        for i in range(k) for j in range(k) if gram[i][j]),
                       Fraction(0)))
             for b in range(k)] for a in range(k)]


def symplectic_pairing(rng: random.Random, halves, moves: int = 12) -> dict:
    """Nondegenerate pairing on (Z/n1)^2 + (Z/n2)^2 + ... in a random basis.

    Starts from the standard symplectic gram (e_2i, e_2i+1) -> 1/n_i and
    applies random transvections e_j <- e_j + c e_i, each one an
    automorphism because c is chosen so that c e_i has order dividing
    the order of e_j.
    """
    factors = sorted(n for n in halves for _ in range(2))
    k = len(factors)
    gram = [[Fraction(0)] * k for _ in range(k)]
    for i in range(0, k, 2):
        gram[i][i + 1] = Fraction(1, factors[i])
        gram[i + 1][i] = _mod1(-gram[i][i + 1])
    basis = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for _ in range(moves):
        i, j = rng.sample(range(k), 2)
        di, dj = factors[i], factors[j]
        c = rng.randrange(1, di) * (di // math.gcd(di, dj)) if di > 1 else 0
        for r in range(k):
            basis[r][j] = (basis[r][j] + c * basis[r][i]) % factors[r]
    return {"factors": factors, "gram": gram_in_basis(factors, gram, basis),
            "nondegenerate": True}


def random_pairing(rng: random.Random, factors) -> dict:
    """Random well-defined alternating pairing; usually degenerate."""
    k = len(factors)
    gram = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            d = math.gcd(factors[i], factors[j])
            gram[i][j] = Fraction(rng.randrange(d), d)
            gram[j][i] = _mod1(-gram[i][j])
    return {"factors": list(factors), "gram": gram, "nondegenerate": None}


def with_radical(rng: random.Random, halves, radical: int) -> dict:
    """A symplectic pairing plus one generator orthogonal to everything."""
    base = symplectic_pairing(rng, halves)
    factors = base["factors"] + [radical]
    order = sorted(range(len(factors)), key=lambda i: factors[i])
    k = len(factors)
    gram = [[base["gram"][a][b] if a < k - 1 and b < k - 1 else Fraction(0)
             for b in range(k)] for a in range(k)]
    return {"factors": [factors[i] for i in order],
            "gram": [[gram[a][b] for b in order] for a in order],
            "nondegenerate": False}


# ---------------------------------------------------------------------------
# characteristic-2 quadratic forms with a chosen Arf class

def field_descriptor_json(q: int) -> dict:
    if q == 2:
        return {"kind": "prime_field", "p": "2"}
    return {"kind": "finite_field", "p": "2", "m": str(q.bit_length() - 1)}


def element_json(q: int, x: int):
    """Payload of a field element: F_2 as an integer, F_2^m as bit list."""
    if q == 2:
        return str(x)
    m = q.bit_length() - 1
    return [str((x >> i) & 1) for i in range(m)]


def arf_form(rng: random.Random, gf: "oracles.GF2m", dim: int, arf_class: int) -> dict:
    """A form of the given Arf class in a random basis over F_q, q = 2^m.

    The canonical form x1^2 + x1 x2 + a x2^2 + x3 x4 + ... has Arf class
    Tr(a); a = a1 + s^2 + s with Tr(a1) = arf_class keeps the class while
    varying a, and a random invertible change of basis hides the shape.
    """
    q = gf.q
    s = rng.randrange(q)
    a = gf.add(gf.add(gf.mul(s, s), s),
               gf.trace_one if arf_class else 0)
    coeffs = oracles.canonical_coeffs(dim, a)
    while True:
        mat = [[rng.randrange(q) for _ in range(dim)] for _ in range(dim)]
        if gf.rank(mat) == dim:
            break
    return {"q": q, "dim": dim, "arf_class": arf_class,
            "coeffs": gf.transform(coeffs, mat, dim)}


def form_payload(q: int, dim: int, coeffs: dict) -> dict:
    return {"field": field_descriptor_json(q), "dim": str(dim),
            "coeffs": {f"{i},{j}": element_json(q, c)
                       for (i, j), c in sorted(coeffs.items()) if c}}


# ---------------------------------------------------------------------------
# odd-characteristic forms with an isometry of order p

def order_p_isometry(rng: random.Random, p: int, extra: int) -> dict:
    """c * (x_0^2 + ... + x_{p-1}^2) + d_1 y_1^2 + ... with the cyclic shift
    on the x block, all conjugated by a random invertible matrix A:
    q'(x) = q(A x), g' = A^-1 g A."""
    dim = p + extra
    c = rng.randrange(1, p)
    diag = [c] * p + [rng.randrange(1, p) for _ in range(extra)]
    coeffs = {(i, i): diag[i] for i in range(dim)}
    g = [[0] * dim for _ in range(dim)]
    for i in range(p):
        g[(i + 1) % p][i] = 1
    for i in range(p, dim):
        g[i][i] = 1
    fp = oracles.PrimeField(p)
    while True:
        a = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        a_inv = fp.inverse(a)
        if a_inv is not None:
            break
    g2 = fp.matmul(fp.matmul(a_inv, g), a)
    return {"p": p, "dim": dim, "coeffs": fp.transform(coeffs, a, dim),
            "matrix": g2}


def extract_payload(form: dict) -> dict:
    p = form["p"]
    return {"form": {"field": {"kind": "prime_field", "p": str(p)},
                     "dim": str(form["dim"]),
                     "coeffs": {f"{i},{j}": str(c)
                                for (i, j), c in sorted(form["coeffs"].items())
                                if c}},
            "matrix": [[str(x) for x in row] for row in form["matrix"]]}


# ---------------------------------------------------------------------------
# symbol-algebra elements over Q(zeta_n)(a, b)

def cyclotomic_coeff(rng: random.Random, n: int, dense: bool) -> list[int]:
    """A nonzero constant of Q(zeta_n): a nonzero integer when dense, else
    a small random integer combination of the power basis."""
    phi = len(oracles.Cyclotomic(n).modulus) - 1
    if dense:
        return [rng.choice([-3, -2, -1, 1, 2, 3])] + [0] * (phi - 1)
    while True:
        c = [rng.randint(-2, 2) for _ in range(phi)]
        if any(c):
            return c


def symbol_element(rng: random.Random, n: int, shape: str) -> dict:
    """Coefficients {(i, j): cyclotomic constant} of sum c_ij u^i v^j.

    shape is "dense" (every coefficient nonzero), "u" (c0 + c1 u),
    "v" (c0 + c1 v) or "monomial" (c u^i v^j).
    """
    if shape == "dense":
        return {(i, j): cyclotomic_coeff(rng, n, True)
                for i in range(n) for j in range(n)}
    if shape == "u":
        return {(0, 0): cyclotomic_coeff(rng, n, False),
                (1, 0): cyclotomic_coeff(rng, n, False)}
    if shape == "v":
        return {(0, 0): cyclotomic_coeff(rng, n, False),
                (0, 1): cyclotomic_coeff(rng, n, False)}
    i, j = rng.randrange(n), rng.randrange(n)
    return {(i, j): cyclotomic_coeff(rng, n, False)}


def norm_payload(n: int, element: dict) -> dict:
    return {"degree": str(n),
            "element": {f"{i},{j}": {"num": {"0,0": [str(x) for x in c]}}
                        for (i, j), c in sorted(element.items())}}


# ---------------------------------------------------------------------------
# clock-and-shift lifts and small matrix groups

def clock_shift_lift(rng: random.Random, n: int) -> dict:
    """Integer data of projective lifts z^s * P X P^-1, z^t * P Z P^-1.

    X is the cyclic shift, Z = diag(1, z, ..., z^(n-1)); P is a random
    permutation matrix and s, t random exponents of z = zeta_n. Entries
    are exponents of z (None for a zero entry).
    """
    perm = rng.sample(range(n), n)
    s, t = rng.randrange(n), rng.randrange(n)
    shift = [[None] * n for _ in range(n)]
    clock = [[None] * n for _ in range(n)]
    for i in range(n):
        shift[perm[(i + 1) % n]][perm[i]] = s
        clock[perm[i]][perm[i]] = (i + t) % n
    return {"n": n, "matrices": [shift, clock]}


def companion_of_cyclotomic(m: int) -> list[list[int]]:
    """Companion matrix of Phi_m; it generates a cyclic group of order m."""
    poly = oracles.cyclotomic_polynomial(m)
    deg = len(poly) - 1
    mat = [[0] * deg for _ in range(deg)]
    for i in range(1, deg):
        mat[i][i - 1] = 1
    for i in range(deg):
        mat[i][deg - 1] = -poly[i]
    return mat


def pick_divisor_probes(rng: random.Random, exponent: int, count: int):
    """Values of d on both sides of the hypothesis 'exponent divides d'."""
    good = [exponent * k for k in range(1, 4)]
    bad = [d for d in range(2, 3 * exponent) if d % exponent]
    return [rng.choice(good) if i % 2 == 0 else rng.choice(bad)
            for i in range(count)]

