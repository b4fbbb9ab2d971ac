"""Integer helpers shared by the field and integer layers: primality,
factorisation, prime-power parts, and powers and power orders under any
product.

The module imports nothing from the package, so the integer paths
(lattice, torus, pairing) use it without loading field arithmetic.
"""

from __future__ import annotations

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: the least strong pseudoprime to all of _MR_BASES
_MR_LIMIT = 3317044064679887385961981
# isotropic_subgroup and a finite field's zeta factor an order by trial
# division up to here, then leave the cofactor to _is_prime
_TRIAL_DIVISION_LIMIT = 1 << 20


def _is_prime(n: int, undecided: Exception) -> bool:
    """Deterministic Miller-Rabin with the first 13 primes as bases.

    Exact for n < psi_13 = 3,317,044,064,679,887,385,961,981 (Sorenson and
    Webster, Math. Comp. 86 (2017)); larger n raise undecided. Costs 13
    modular powers, so it is polynomial in the bit length of n.
    """
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise undecided
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = _split_prime_power(n - 1, 2)
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int, limit: int | None = None, undecided=None) -> list[int]:
    """Prime factors of n >= 1 in ascending order, with multiplicity, by
    trial division; given a limit, it stops there, and the cofactor left is
    a factor if _is_prime decides it prime, else undecided is raised."""
    out = []
    d = 2
    while d * d <= n:
        if limit is not None and d > limit:
            if not _is_prime(n, undecided):
                raise undecided
            break
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _split_prime_power(n: int, p: int) -> tuple[int, int]:
    """(m, e) with n = m * p**e and p not dividing m; n nonzero, p >= 2."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def binary_power(x, e: int, one, mul):
    """x**e for e >= 0 by square and multiply, starting from one."""
    if e < 0:
        raise ValueError(f"binary_power needs an exponent >= 0, got {e}")
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        x = mul(x, x)
        e >>= 1
    return out


def least_power(x, mul, test, bound: int):
    """(k, x**k) for the least k in 1..bound with test(x**k), else None.

    Powers are built by repeated right multiplication with mul, so x may
    be a field element, a matrix or an algebra element.
    """
    acc = x
    for k in range(1, bound + 1):
        if test(acc):
            return k, acc
        acc = mul(acc, x)
    return None
