"""Exact symmetric group character values.

Two routes are provided and kept deliberately independent:

* ``mn_character`` is the classical signed rim-hook recursion, valid for
  any cycle type.  It is the oracle; it is memoized on (remaining shape,
  remaining cycle parts) with parts consumed largest-first, so sweeps over
  many shapes at the same rectangular type share work.
* ``rect_character`` handles rectangular cycle types (all cycles of one
  length ell dividing n) in O(n) integer operations after the hook
  multiset: the magnitude is the quotient of the multiples of ell in 1..n
  by the hooks divisible by ell, and the sign is the parity of rim-hook
  heights along one greedy removal sequence, any order giving the same
  answer.  Agreement of the two routes is an acceptance gate.

Memo tables are per-process; under fork-based worker pools each process
grows its own copy.
"""

from functools import lru_cache

from .partitions import (
    Partition,
    beta_numbers,
    ell_core,
    hook_lengths,
    removable_ribbons,
)


@lru_cache(maxsize=None)
def _mn(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1
    ell, rest = cycles[0], cycles[1:]
    total = 0
    for step in removable_ribbons(Partition(shape), ell):
        term = _mn(step.shape.parts, rest)
        total += -term if step.height % 2 else term
    return total


def mn_character(lam: Partition, mu: Partition) -> int:
    """Character of the shape-lam irreducible at a permutation of cycle type mu."""
    if lam.n != mu.n:
        raise ValueError(f"size mismatch: |{lam}| = {lam.n} but |{mu}| = {mu.n}")
    return _mn(lam.parts, tuple(sorted(mu.parts, reverse=True)))


def rect_character_magnitude(lam: Partition, ell: int) -> int:
    """|character| at the cycle type with n/ell cycles of length ell.

    Zero when the ell-core is nonempty; otherwise the exact quotient of
    the multiples of ell in 1..n by the hook lengths divisible by ell.
    The division is exact whenever the core is empty; a remainder would
    mean a bug.
    """
    n = lam.n
    if ell < 1 or n % ell != 0:
        raise ValueError(f"need ell | n, got ell={ell}, n={n}")
    if ell_core(lam, ell):
        return 0
    numerator = 1
    for i in range(ell, n + 1, ell):
        numerator *= i
    denominator = 1
    for h in hook_lengths(lam):
        if h % ell == 0:
            denominator *= h
    if numerator % denominator != 0:
        raise ArithmeticError(f"hook quotient not exact for {lam}, ell={ell}")
    return numerator // denominator


def rect_character_sign(lam: Partition, ell: int, order: str = "first") -> int:
    """Sign of the character at the rectangular type, from one greedy removal run.

    Walks the beta-numbers, repeatedly moving one bead down by ell and
    flipping the sign per bead jumped over.  ``order`` picks which eligible
    bead moves ("first" = largest, "last" = smallest); the result does not
    depend on it, which the tests exercise.
    """
    n = lam.n
    if ell < 1 or n % ell != 0:
        raise ValueError(f"need ell | n, got ell={ell}, n={n}")
    if ell_core(lam, ell):
        raise ValueError(f"{lam} has nonempty {ell}-core; the sign is undefined")
    if order not in ("first", "last"):
        raise ValueError(f"order must be 'first' or 'last', got {order!r}")
    betas = sorted(beta_numbers(lam), reverse=True)
    occupied = set(betas)
    sign = 1
    for _ in range(n // ell):
        scan = betas if order == "first" else reversed(betas)
        for x in scan:
            y = x - ell
            if y >= 0 and y not in occupied:
                height = sum(1 for z in betas if y < z < x)
                if height % 2:
                    sign = -sign
                occupied.remove(x)
                occupied.add(y)
                betas.remove(x)
                betas.append(y)
                betas.sort(reverse=True)
                break
        else:
            raise ArithmeticError(f"greedy removal stuck on {lam} with ell={ell}")
    return sign


def rect_character(lam: Partition, ell: int) -> int:
    """Character at the rectangular cycle type, sign times magnitude.

    Contract: equals ``mn_character(lam, (ell, ..., ell))``; the greedy
    sign and hook quotient are the production path, the rim-hook recursion
    the oracle.
    """
    magnitude = rect_character_magnitude(lam, ell)
    if magnitude == 0:
        return 0
    if ell == 1:
        return magnitude
    return rect_character_sign(lam, ell) * magnitude
