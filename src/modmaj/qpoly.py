"""Dense integer polynomials in q and the q-hook route to the residue counts.

The generating polynomial of major index over standard tableaux of shape
``lam`` is ``q^b * Q(q)`` with Q = prod(q^i - 1 for i <= n) / prod(q^h - 1
over hooks h) and ``b = sum((i - 1) * lam_i)`` (Stanley, EC2 Cor. 7.21.5).
Q is evaluated at ``X = 2^w`` with ``w = bit_length(f) + 1``, where f is
the number of tableaux, n! over the hook product, so a hook product that
does not divide n! fails first.  Every coefficient of Q, and every residue
count, lies between 0 and f, and ``2^(w-1) > f``, so they are the base-X
digits of one integer, each with a spare top bit: a negative coefficient
would borrow from its neighbour and leave a digit above f.  No root of
unity is ever evaluated, and no polynomial is divided.

q^i - 1 is the product of the cyclotomic polynomials Phi_d over d | i, so
Q is the product of Phi_d^e_d with e_d = floor(n/d) minus the number of
hooks divisible by d.  And q -> X is a ring map from Z[q]/(q^m - 1) to
Z/(2^(wm) - 1), because X^m is 1 there.  So Q folded mod q^m - 1 is the
product of Phi_d(X)^e_d taken mod ``2^(wm) - 1``, reduced after each
factor by adding its wm-bit pieces, and its m slots of w bits are the
folded coefficients.  ``_slots`` reads them, more than 64 by reading the
two halves apart, so that no digit costs a copy of the whole product.
Each Phi_d(X) is positive, so no value is ever negative.  Phi_d(X) is
evaluated by shifts from the coefficients of Phi_d and cached once per
(d, w) by ``_cyclotomic_value``; the coefficients are built once per d
from the Moebius function and phi(d).  Three checks guard the product,
each raising ExactDivisionError: the degrees e_d * phi(d) sum to the
degree ``deg = C(n,2) - b - sum(C(lam_i, 2))`` read off the shape rather
than the hooks, which catches any single e_d off by one; no e_d is
negative, which is exactly the divisibility of the polynomials, since the
Phi_d are irreducible; and the slots sum to f.

The residue counts (``amod_by_qhook``) take m = n.  The polynomial
(``maj_generating_polynomial``) takes m = deg + 1, where the fold leaves
Q as it is: Q has degree deg < m, and its digits are at most
f < 2^(w-1), so Q(X) < X^m - 1 and the reduction never changes the value.
It packs into (deg + 1) * w bits; a polynomial of more than
``POLYNOMIAL_BIT_BUDGET`` bits is refused with PolynomialBudgetExceeded,
a ValueError, before any product is formed.  The residue counts have no
such cap.

Q depends only on the hook multiset, which ``lam`` shares with its
conjugate ``lam'``, and so do its degree and its fold.  The shift by
``q^b`` is then a rotation of the folded slots by b mod n, because ``q^n``
is 1 mod ``q^n - 1``.  So ``amod_by_qhook`` takes a fold that a caller
already holds, ``_cyclotomic_fold`` of ``lam`` or of ``lam'``, and rotates
it by lam's own b: the classification sweep computes one fold per
conjugate pair.  A fold whose degree is not lam's, or whose length is not
lam's n, is refused with ValueError.

All arithmetic is exact on Python ints; at n = 60 a packed polynomial
runs to some hundred thousand bits.
"""

from functools import lru_cache
from math import factorial, prod
from operator import index, mul

from .numtheory import divisors, moebius, totient
from .partitions import Partition, hook_histogram
from .tableaux import ModularClassVector


class ExactDivisionError(ArithmeticError):
    """The q-hook quotient failed an exactness check: a logic bug."""


class PolynomialBudgetExceeded(ValueError):
    """The shape's generating polynomial is too large to build; its residue counts are not."""


# The most bits, (deg + 1) * w, that the packed polynomial of
# ``maj_generating_polynomial`` may take.  The product's cost grows
# faster than its size: about 0.3 s for (80, 80) at 954,471 bits and
# 2-3 s for (120, 120) at 3.3e6, so a shape such as (500, 500), at some
# 2.5e8 bits, would take well over ten minutes.  Every shape with n <= 60
# stays far below it.
POLYNOMIAL_BIT_BUDGET = 1 << 20


# What ``_cyclotomic_fold`` returns: (w, deg, f, slots).
Fold = tuple[int, int, int, tuple[int, ...]]


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class IntPolynomial:
    """Dense integer-coefficient polynomial; index = exponent, top coefficient nonzero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim(list(map(index, coeffs)))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)!r})"

    def __str__(self):
        return self.to_text()

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def shifted(self, d: int) -> "IntPolynomial":
        """Multiply by q^d."""
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * d + self.coeffs)

    def evaluate(self, x: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def to_text(self) -> str:
        """Report form "c0 + c1*q + c2*q^2 + ..." with zero terms omitted."""
        if not self.coeffs:
            return "0"
        pieces = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)


def min_major_index(lam: Partition) -> int:
    """sum((i - 1) * lam_i): the smallest major index attained on the shape."""
    return sum(map(mul, range(len(lam.parts)), lam.parts))


def _degree(lam: Partition, b: int) -> int:
    """C(n,2) - b(lam) - b(lam'), the quotient's degree, which lam and lam' share; b is b(lam).

    b(lam') = sum C(lam_i, 2), so C(n,2) - b(lam') = (n^2 - sum lam_i^2) / 2.
    """
    return (lam.n**2 - sum(map(mul, lam.parts, lam.parts))) // 2 - b


def _hooks(lam: Partition) -> tuple[list[int], int]:
    """lam's hook histogram and f = n! / prod(h^count[h]), checked to be exact."""
    if lam.n < 1:
        raise ValueError("the q-hook route requires a nonempty partition")
    counts = hook_histogram(lam)
    f, rem = divmod(factorial(lam.n), prod(map(pow, range(len(counts)), counts)))
    if rem:
        raise ExactDivisionError(f"hook product does not divide n! for {lam}")
    return counts, f


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """The coefficients of Phi_d, the product of (q^k - 1)^mu(d/k) over k | d.

    For d >= 2 the signs cancel, and Phi_d is the product of
    (1 - q^k)^mu(d/k) as a power series cut after q^phi(d), its degree:
    dividing by 1 - q^k adds to each coefficient the one k places below.
    """
    if d == 1:
        return (-1, 1)
    top = totient(d)
    coeffs = [1] + [0] * top
    for k in divisors(d):
        mu = moebius(d // k)
        if mu > 0:
            for i in range(top, k - 1, -1):
                coeffs[i] -= coeffs[i - k]
        elif mu < 0:
            for i in range(k, top + 1):
                coeffs[i] += coeffs[i - k]
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _cyclotomic_value(d: int, w: int) -> int:
    """Phi_d(2^w), evaluated by shifts from the coefficients of Phi_d."""
    value = 0
    for c in reversed(_cyclotomic(d)):
        value = (value << w) + c
    return value


@lru_cache(maxsize=None)
def _totients(m: int) -> tuple[int, ...]:
    """phi(d) for d = 0, 1, ..., m - 1, with phi(0) read as 0."""
    return (0,) + tuple(map(totient, range(1, m)))


@lru_cache(maxsize=None)
def _factorial_exponents(n: int, m: int) -> tuple[int, ...]:
    """floor(n/d), the power of Phi_d in prod(q^i - 1 for i <= n), for d = 0, 1, ..., m (0 at d = 0)."""
    return (0,) + tuple(n // d for d in range(1, m + 1))


def _cyclotomic_exponents(n: int, counts: list[int]) -> list[int]:
    """e_d = floor(n/d) - sum_k counts[k*d], the power of Phi_d in the quotient, at index d >= 1.

    Index 0 holds 0.  The list runs to the larger of n and the largest hook
    (above n only in a corrupted histogram).  A length d above half the
    largest hook has no multiple among the hooks but itself.
    """
    top = len(counts) - 1
    exps = list(_factorial_exponents(n, max(n, top)))
    for d in range(1, top // 2 + 1):
        exps[d] -= sum(counts[d::d])
    for d in range(top // 2 + 1, top + 1):
        exps[d] -= counts[d]
    return exps


def _cyclotomic_fold(lam: Partition, whole: bool = False) -> Fold:
    """The unshifted q-hook quotient folded mod q^m - 1, as a product of Phi_d(2^w) mod 2^(wm) - 1.

    m is n, or deg + 1 with ``whole``, where the fold leaves the quotient
    as it is.  Returns (w, deg, f, slots): slot k sums the quotient's
    coefficients at q^j, j = k mod m.  It depends only on the hook
    multiset, so lam' has the same one.  A whole quotient of more than
    ``POLYNOMIAL_BIT_BUDGET`` bits is refused with PolynomialBudgetExceeded
    before any product is formed.
    """
    n = lam.n
    counts, f = _hooks(lam)
    w = f.bit_length() + 1
    deg = _degree(lam, min_major_index(lam))
    m = deg + 1 if whole else n
    if whole and not _within_budget(lam, f):
        raise PolynomialBudgetExceeded(
            f"the maj generating polynomial of {lam} has {m} coefficients of {w} bits,"
            f" above the budget of {POLYNOMIAL_BIT_BUDGET} bits"
        )
    exps = _cyclotomic_exponents(n, counts)
    total = sum(map(mul, exps, _totients(len(exps))))
    if total != deg:
        raise ExactDivisionError(f"cyclotomic factors of degree {total}, not {deg}, for {lam}")
    if min(exps) < 0:
        raise ExactDivisionError(f"the hooks divide by Phi_{exps.index(min(exps))} more often than n! for {lam}")
    span = w * m
    mask = (1 << span) - 1
    value = 1
    for d, e in enumerate(exps):
        if e:
            x = _cyclotomic_value(d, w)
            value *= x if e == 1 else x**e
            if value > mask:
                value = (value & mask) + (value >> span)
    while value > mask:
        value = (value & mask) + (value >> span)
    return w, deg, f, tuple(_slots(value, w, m, f))


def _within_budget(lam: Partition, f: int) -> bool:
    """Whether lam's whole quotient, deg + 1 slots of bit_length(f) + 1 bits, fits in ``POLYNOMIAL_BIT_BUDGET``."""
    return (_degree(lam, min_major_index(lam)) + 1) * (f.bit_length() + 1) <= POLYNOMIAL_BIT_BUDGET


def _slots(value: int, w: int, count: int, f: int | None) -> list[int]:
    """The first count w-bit digits of value, which must sum to f (unchecked when f is None).

    Above 64 digits the two halves are read apart, recursively, so that no
    digit costs a copy of the whole int; 64 digits or fewer, the n slots
    of a sweep up to n = 64, are read in one loop.
    """
    if count > 64:
        half = count // 2
        cut = w * half
        slots = _slots(value & ((1 << cut) - 1), w, half, None) + _slots(value >> cut, w, count - half, None)
    else:
        low = (1 << w) - 1
        slots = []
        for _ in range(count):
            slots.append(value & low)
            value >>= w
    if f is not None and sum(slots) != f:
        raise ExactDivisionError(f"q-hook digits sum to {sum(slots)}, not f = {f}")
    return slots


def maj_generating_polynomial(lam: Partition) -> IntPolynomial:
    """Coefficient of q^i counts the standard tableaux with major index i."""
    return IntPolynomial(_cyclotomic_fold(lam, whole=True)[3]).shifted(min_major_index(lam))


def amod_by_qhook(lam: Partition, fold: Fold | None = None) -> ModularClassVector:
    """Residue counts: the generating polynomial folded mod q^n - 1, at X = 2^w.

    ``fold`` is ``_cyclotomic_fold`` of lam or of its conjugate, which
    share it; a caller that holds one passes it, and the counts are then
    read from it with no second product.  The folded slots are rotated by
    lam's own b: count r is slot (r - b) mod n.  A fold whose degree or
    length is not lam's is a ValueError.
    """
    n = lam.n
    b = min_major_index(lam)
    if fold is None:
        fold = _cyclotomic_fold(lam)
    elif fold[1] != _degree(lam, b) or len(fold[3]) != n:
        raise ValueError(f"a q-hook fold of degree {fold[1]} and {len(fold[3])} slots does not belong to {lam}")
    slots = fold[3]
    cut = n - b % n
    return ModularClassVector._of(slots[cut:] + slots[:cut])
