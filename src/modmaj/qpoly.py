"""Dense integer polynomials in q and the q-hook route to the residue counts.

The generating polynomial of major index over standard tableaux of shape
``lam`` is ``q^b * prod(q^i - 1 for i <= n) / prod(q^h - 1 over hooks h)``
where ``b = sum((i - 1) * lam_i)`` (Stanley, EC2 Cor. 7.21.5).  It is
computed by Kronecker substitution: the factors shared by ``{1..n}`` and
the hook multiset cancel, the rest are evaluated at ``X = 2^w`` and
multiplied into two integers, and one exact ``divmod`` gives the quotient
polynomial packed as base-X digits.  Reducing mod ``q^n - 1`` is then
folding that integer mod ``2^(wn) - 1``, and the residue counts are its
n slots of w bits.  No root of unity is ever evaluated.

Every coefficient of the quotient, and every residue count, lies between
0 and ``f``, the number of tableaux, and ``w = bit_length(f) + 1`` makes
``2^(w-1) > f``.  So the quotient's base-X digits are exactly its
coefficients, folding adds the digits of a residue class without a carry
into the next slot, and each slot keeps a spare top bit: a negative
coefficient would borrow from its neighbour and leave a digit above f.
An integer division can be exact when the polynomial division is not, so
three checks guard the unpacking, each raising ExactDivisionError: the
remainder is zero, the quotient is below ``X^(deg+1)`` for the degree
``deg = C(n,2) - b - sum(C(lam_i, 2))`` read off the shape rather than the
hooks, and the slots sum to f.  f itself is the quotient of the cancelled
factors' products, so a hook product that does not divide n! fails first.

The quotient before the shift by ``q^b`` depends only on the hook
multiset, which ``lam`` shares with its conjugate ``lam'``, and so does
its degree.  So does its fold: ``_packed_quotient`` folds the unshifted
quotient once and carries the n slots with it, and the shift by ``q^b``
is then a rotation of those slots by b mod n, because ``q^n`` is 1 mod
``q^n - 1``.  ``amod_by_qhook`` and ``maj_generating_polynomial`` take a
quotient that a caller already holds, as ``_packed_quotient`` of ``lam``
or of ``lam'``, and apply ``lam``'s own shift to it: ``modmaj table``
divides once for its polynomial and its counts, and the classification
sweep divides and folds once per conjugate pair and rotates per shape.
A quotient whose degree is not ``lam``'s, or whose fold is not mod
``q^n - 1`` for ``lam``'s n, is refused with ValueError.

All arithmetic is exact on Python ints; at n = 60 the packed integers run
to some hundred thousand bits.
"""

from math import prod
from operator import mul

from .partitions import Partition, hook_histogram
from .tableaux import ModularClassVector


class ExactDivisionError(ArithmeticError):
    """The q-hook quotient failed an exactness check: a logic bug."""


# What ``_packed_quotient`` returns: (value, w, deg, f, slots).
Quotient = tuple[int, int, int, int, tuple[int, ...]]


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class IntPolynomial:
    """Dense integer-coefficient polynomial; index = exponent, top coefficient nonzero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([int(c) for c in coeffs])

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


def _degree(lam: Partition) -> int:
    """C(n,2) - b(lam) - b(lam'), the quotient's degree, which lam and lam' share.

    b(lam') = sum C(lam_i, 2), so C(n,2) - b(lam') = (n^2 - sum lam_i^2) / 2.
    """
    return (lam.n**2 - sum(map(mul, lam.parts, lam.parts))) // 2 - min_major_index(lam)


def _packed_quotient(lam: Partition) -> Quotient:
    """The unshifted q-hook quotient at X = 2^w, with w, its degree, f and its fold.

    Returns (value, w, deg, f, slots); value's base-X digits are the
    coefficients, and slots is value folded mod q^n - 1.  It depends only
    on the hook multiset, so lam' has the same one.
    """
    n = lam.n
    if n < 1:
        raise ValueError("the q-hook route requires a nonempty partition")
    counts = hook_histogram(lam)
    # Multiplicity of each length 1, 2, ... among the hooks minus its
    # multiplicity in {1..n} (a hook above n only in a corrupted histogram).
    excess = [c - 1 for c in counts[1 : n + 1]] + [-1] * (n + 1 - len(counts)) + counts[n + 1 :]
    num = [a for a, e in enumerate(excess, 1) if e < 0]
    den = [h for h, e in enumerate(excess, 1) if e > 0 for _ in range(e)]
    f, rem = divmod(prod(num), prod(den))
    if rem:
        raise ExactDivisionError(f"hook product does not divide n! for {lam}")
    w = f.bit_length() + 1
    numerator = denominator = 1
    for a in num:
        numerator = (numerator << (w * a)) - numerator
    for h in den:
        denominator = (denominator << (w * h)) - denominator
    value, rem = divmod(numerator, denominator)
    if rem:
        raise ExactDivisionError(f"nonzero remainder in the q-hook quotient for {lam}")
    deg = _degree(lam)
    if value >> (w * (deg + 1)):
        raise ExactDivisionError(f"q-hook quotient exceeds degree {deg} for {lam}")
    return value, w, deg, f, _residue_slots(value, w, n, f)


def _own_quotient(lam: Partition, quotient: Quotient | None) -> Quotient:
    """``quotient``, or lam's own when None; one of another degree or fold length is a ValueError."""
    if quotient is None:
        return _packed_quotient(lam)
    deg, slots = quotient[2], quotient[4]
    if deg != _degree(lam) or len(slots) != lam.n:
        raise ValueError(f"a q-hook quotient of degree {deg} and {len(slots)} slots does not belong to {lam}")
    return quotient


def _slots(value: int, w: int, count: int, f: int) -> list[int]:
    """The first count w-bit digits of value, which must sum to f."""
    low = (1 << w) - 1
    slots = [(value >> (w * k)) & low for k in range(count)]
    if sum(slots) != f:
        raise ExactDivisionError(f"q-hook digits sum to {sum(slots)}, not f = {f}")
    return slots


def _residue_slots(value: int, w: int, n: int, f: int) -> tuple[int, ...]:
    """value folded mod q^n - 1: slot k sums its coefficients at q^j, j = k mod n.

    X^n is 1 modulo 2^(wn) - 1, so adding the value's wn-bit pieces folds it.
    """
    span = w * n
    mask = (1 << span) - 1
    while value > mask:
        value = (value & mask) + (value >> span)
    return tuple(_slots(value, w, n, f))


def maj_generating_polynomial(lam: Partition, quotient: Quotient | None = None) -> IntPolynomial:
    """Coefficient of q^i counts the standard tableaux with major index i.

    ``quotient`` is as for ``amod_by_qhook``.
    """
    value, w, deg, f, _ = _own_quotient(lam, quotient)
    return IntPolynomial(_slots(value, w, deg + 1, f)).shifted(min_major_index(lam))


def amod_by_qhook(lam: Partition, quotient: Quotient | None = None) -> ModularClassVector:
    """Residue counts: the generating polynomial folded mod q^n - 1, at X = 2^w.

    ``quotient`` is ``_packed_quotient`` of lam or of its conjugate, which
    share it with its fold; a caller that holds one passes it, and the
    counts are then read from that fold with no second division.  The
    folded slots are rotated by lam's own b: count r is slot (r - b) mod n.
    A quotient whose degree or fold length is not lam's is a ValueError.
    """
    n = lam.n
    slots = _own_quotient(lam, quotient)[4]
    cut = n - min_major_index(lam) % n
    return ModularClassVector._of(slots[cut:] + slots[:cut])
