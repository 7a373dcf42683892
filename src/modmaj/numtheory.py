"""Exact elementary number theory: Moebius, totient, divisors, Ramanujan sums.

Everything here is plain integer arithmetic.  Inputs stay small (a few
thousand at most), so factorization is trial division and no sieve is kept
around.  Beside it, two tables per n are kept, each memoized for the 128
most recent n, so a sweep over the shapes of one n reads them instead of
recomputing them for every shape: ``totient_table(n)`` maps each ell | n
to phi(ell), built from ``totient``, and ``multiples_table(n)`` maps each
ell | n to the product of the multiples of ell up to n and its ell-th
power, the numerator of the rectangular character and the constant of its
bound.
The two Ramanujan-sum implementations are deliberately independent
formulas so one can cross-check the other:

* ``ramanujan_sum`` uses the closed form ``mu(j/g) * phi(j) / phi(j/g)``
  with ``g = gcd(j, s)``;
* ``ramanujan_sum_oracle`` uses the divisor sum ``sum(mu(j/d) * d)`` over
  ``d | gcd(j, s)``.

``ramanujan_matrix_square(n)`` returns the square of the divisor-indexed
matrix ``C = (c_{n/r}(s))``; callers compare it against ``n * I``.  The
matrix itself is exposed so a failed comparison stays diagnosable.
"""

from functools import lru_cache
from math import gcd, prod
from types import MappingProxyType
from typing import Mapping


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 as ascending (prime, exponent) pairs."""
    if m < 1:
        raise ValueError(f"factorize requires m >= 1, got {m}")
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def moebius(m: int) -> int:
    """Moebius function: 0 on squareful m, else (-1)^(number of prime factors)."""
    if m < 1:
        raise ValueError(f"moebius requires m >= 1, got {m}")
    result = 1
    for _, e in factorize(m):
        if e > 1:
            return 0
        result = -result
    return result


def totient(m: int) -> int:
    """Euler totient: the number of 1 <= k <= m with gcd(k, m) = 1."""
    if m < 1:
        raise ValueError(f"totient requires m >= 1, got {m}")
    result = m
    for p, _ in factorize(m):
        result = result // p * (p - 1)
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def ramanujan_sum(j: int, s: int) -> int:
    """Sum of the s-th powers of the primitive j-th roots of unity, c_j(s).

    Computed by the closed form c_j(s) = mu(j/g) * phi(j) / phi(j/g) with
    g = gcd(j, s); the quotient phi(j)/phi(j/g) is always exact.
    """
    if j < 1:
        raise ValueError(f"ramanujan_sum requires j >= 1, got {j}")
    g = gcd(j, s % j)
    phi_j = totient(j)
    phi_quot = totient(j // g)
    if phi_j % phi_quot != 0:
        raise ArithmeticError(f"totient quotient not exact for j={j}, s={s}")
    return moebius(j // g) * (phi_j // phi_quot)


@lru_cache(maxsize=128)
def totient_table(n: int) -> Mapping[int, int]:
    """phi(ell) for every ell | n.

    Keys come in ``divisors`` order; the mapping is read-only, so the
    memoized table cannot be changed by a caller.
    """
    if n < 1:
        raise ValueError(f"totient_table requires n >= 1, got {n}")
    return MappingProxyType({ell: totient(ell) for ell in divisors(n)})


@lru_cache(maxsize=128)
def multiples_table(n: int) -> Mapping[int, tuple[int, int]]:
    """(m, m ** ell) for every ell | n, where m is the product of the multiples of ell in 1..n.

    m = ell^s * s! with s = n / ell: it is n! at ell = 1, and m ** ell is
    (s!)^ell * ell^(s*ell).  Keys come in ``divisors`` order; the mapping
    is read-only, so the memoized table cannot be changed by a caller.
    """
    if n < 1:
        raise ValueError(f"multiples_table requires n >= 1, got {n}")
    table = {}
    for ell in divisors(n):
        m = prod(range(ell, n + 1, ell))
        table[ell] = (m, m**ell)
    return MappingProxyType(table)


def ramanujan_sum_oracle(j: int, s: int) -> int:
    """Independent route to c_j(s): the divisor sum of mu(j/d) * d over d | gcd(j, s)."""
    if j < 1:
        raise ValueError(f"ramanujan_sum_oracle requires j >= 1, got {j}")
    g = gcd(j, s % j)
    return sum(moebius(j // d) * d for d in divisors(g))


def ramanujan_matrix(n: int) -> list[list[int]]:
    """The matrix C = (c_{n/r}(s)) with rows s | n and columns r | n, both ascending."""
    if n < 1:
        raise ValueError(f"ramanujan_matrix requires n >= 1, got {n}")
    divs = divisors(n)
    return [[ramanujan_sum(n // r, s) for r in divs] for s in divs]


def ramanujan_matrix_square(n: int) -> list[list[int]]:
    """C squared, for comparison against n times the identity matrix."""
    if n < 1:
        raise ValueError(f"ramanujan_matrix_square requires n >= 1, got {n}")
    c = ramanujan_matrix(n)
    k = len(c)
    return [
        [sum(c[i][t] * c[t][j] for t in range(k)) for j in range(k)]
        for i in range(k)
    ]
