"""Integer helpers shared by the field and integer layers: factorisation,
prime-power parts, and powers and power orders under any product.

The module imports nothing from the package, so the integer paths
(lattice, torus, pairing) use it without loading field arithmetic.
"""

from __future__ import annotations


def _prime_factors(n: int) -> list[int]:
    """Prime factors of n >= 1 in ascending order, with multiplicity."""
    out = []
    d = 2
    while d * d <= n:
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
