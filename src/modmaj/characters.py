"""Exact symmetric group character values.

Two routes are provided and kept deliberately independent:

* ``mn_character`` is the classical signed rim-hook recursion, valid for
  any cycle type.  It is the oracle; below the top step it is memoized on
  (bead set, remaining cycle parts) with parts consumed largest-first, so
  sweeps over many shapes at the same rectangular type share work.  A bead
  set is one int, bit x set for each beta-number x, less the beads of rows
  of length 0, so that each shape has one key; ``partitions._removals``,
  the one copy of the ribbon step, moves a bead to a free place ell lower
  and gives the height, the number of beads it jumps, and the sign is
  (-1)^height.  The recursion sums over every removal and reads nothing
  of the fast path.
  ``mn_character`` takes the top step through ``_mn``'s unmemoized body,
  as a sweep asks for each top pair once, on the bead set that ``_beads``
  takes from ``partitions._bead_set``.  It refuses more than
  ``MAX_CYCLE_PARTS`` cycles (``_check_cycles``), as it
  recurses once per cycle, and a shape of more than ``MAX_SUBSHAPES``
  subshapes, as one query adds up to one memo entry per proper subshape.
  ``_class_sum`` is the weighted sum over many cycle types for
  ``modular.induced_multiplicity``: by linearity in the first step, it is
  one signed lookup per ribbon of a first-step sum S(left), the weights
  times ``_mn(left, rest)`` over the types of that first part, which the
  caller memoizes per weight table.  It uses only ``_removals`` and
  ``_mn``.
* ``rect_character`` handles rectangular cycle types (all cycles of one
  length ell dividing n) in O(n) integer operations after the hook
  histogram (``partitions.hook_histogram``, the number of hooks of each
  length, read off the bead set).  The ell-weight, the
  number of hooks divisible by ell, decides zero: it is n / ell exactly
  when the ell-core is empty, and otherwise the character is 0 and no
  abacus pass runs.  For an empty core one abacus pass gives the sign: the
  beads (beta-numbers) on each runner mod ell slide down as far as they
  go; the core is empty exactly when the slid beads fill positions
  0..m-1, and because beads on one runner never pass each other, the sign
  is the parity of the inversions of the slid positions listed in the
  original bead order.  A pass that finds a nonempty core after all
  contradicts the weight and raises.  The magnitude is the quotient of the
  multiples of ell in 1..n (their product comes from the per-n
  ``numtheory.multiples_table``) by the product of the hooks divisible by
  ell, each length raised to its count.  Agreement with ``mn_character``
  is an acceptance gate.
* ``rect_characters`` gives chi_ell for every ell | n from one hook
  histogram and one set of beta-numbers; its ell = 1 entry, n! over the
  hook product, is f (the Fomin-Lulov hook formula at ell = 1).
* ``rect_character_sign`` removes one ell-ribbon at a time greedily and
  adds up the heights.  It is the test oracle for the abacus sign, which
  must match it for either removal order.

Memo tables are per-process; under fork-based worker pools each process
grows its own copy.
"""

from functools import lru_cache
from math import comb, prod

from .numtheory import multiples_table
from .partitions import Partition, _bead_set, _removals, beta_numbers, ell_core, hook_histogram, subshape_count

# The most cycles ``mn_character`` takes: it recurses about two interpreter
# levels per cycle, and Python's default limit of 1000 levels gives out
# near 500 cycles.
MAX_CYCLE_PARTS = 400

# The most subshapes a shape given to ``mn_character`` may have.  One query
# adds at most one memo entry per proper subshape, as the suffixes of the
# cycle type have distinct sizes.  On a 2-vCPU host (Python 3.11), 10^10 (184,756
# subshapes) at 1^100 takes about 2 s and 110 MB, and 11^11 (705,432) would
# take about 10 s and 435 MB.
MAX_SUBSHAPES = 200_000


@lru_cache(maxsize=None)
def _mn(beads: int, cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1
    rest = cycles[1:]
    total = 0
    # A loop, not a comprehension: under Python 3.11 a comprehension adds a
    # frame per level, and the recursion would give out below MAX_CYCLE_PARTS.
    for height, left in _removals(beads, cycles[0]):
        total += _mn(left, rest) * (-1 if height % 2 else 1)
    return total


def _beads(parts: tuple[int, ...]) -> int:
    """The shape's bead set for ``_mn``, refused above ``MAX_SUBSHAPES`` subshapes.

    They are counted only when the box bound C(rows + parts[0], rows) is above the cap.
    """
    m = len(parts)
    if m and comb(m + parts[0], m) > MAX_SUBSHAPES:
        count = subshape_count(parts)
        if count > MAX_SUBSHAPES:
            raise ValueError(
                f"shape {Partition(parts)} has {count} subshapes, more than MAX_SUBSHAPES = {MAX_SUBSHAPES}"
            )
    return _bead_set(parts)


def _check_cycles(mu: Partition) -> None:
    """Refuse a cycle type of more than ``MAX_CYCLE_PARTS`` parts, as ``_mn`` recurses once per cycle."""
    if len(mu.parts) > MAX_CYCLE_PARTS:
        raise ValueError(
            f"cycle type has {len(mu.parts)} parts, more than MAX_CYCLE_PARTS = {MAX_CYCLE_PARTS}"
        )


def _class_sum(beads: int, by_first, sums: dict[int, int]) -> int:
    """Sum over cycle types mu of w_mu times the character at mu, for the shape of bead set ``beads``.

    ``by_first`` maps each first part ell to the (rest of mu, w_mu) pairs
    of the types that start with ell.  By linearity the sum is, over each
    ell and each ell-ribbon of the shape, (-1)^height of the ribbon times
    S(left) = sum over those pairs of w_mu * ``_mn(left, rest)``, where
    left is what the ribbon leaves.  ``sums`` memoizes S by the bead set
    of left; it is the caller's, kept for one weight table and one size
    n, where left's size n - ell fixes ell.  The empty shape has no
    ribbon, so its sum here is 0.
    """
    total = 0
    for ell, types in by_first.items():
        for height, left in _removals(beads, ell):
            s = sums.get(left)
            if s is None:
                s = 0
                for rest, w in types:
                    s += w * _mn(left, rest)
                sums[left] = s
            total += -s if height % 2 else s
    return total


def mn_character(lam: Partition, mu: Partition) -> int:
    """Character of the shape-lam irreducible at a permutation of cycle type mu.

    The top pair (lam, mu) is not memoized.
    """
    if lam.n != mu.n:
        raise ValueError(f"size mismatch: |{lam}| = {lam.n} but |{mu}| = {mu.n}")
    _check_cycles(mu)
    return _mn.__wrapped__(_beads(lam.parts), mu.parts)


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


def _abacus_sign(betas: list[int], ell: int) -> int:
    """The character's sign at the rectangular type, or 0 when the ell-core is nonempty.

    ``betas`` is strictly decreasing.  The beads on runner r (the betas
    congruent to r mod ell) slide down to r, r + ell, r + 2 ell, ... in
    order.  The slid positions are distinct, so the core is empty exactly
    when they fill 0..m-1, that is when none is m or above.  Each rim-hook
    height counts the beads one move jumps over, and two beads of one
    runner never pass, so the sign is (-1) to the number of bead pairs
    whose order the slide reverses: each bead, taken in the original
    order, counts the slid positions placed before it (the bits of
    ``placed``) that lie below its own.
    """
    m = len(betas)
    on_runner = [0] * ell
    for x in betas:
        on_runner[x % ell] += 1
    placed = reversed_pairs = 0
    for x in betas:
        r = x % ell
        on_runner[r] -= 1
        slid = r + ell * on_runner[r]
        if slid >= m:
            return 0
        reversed_pairs += (placed & ((1 << slid) - 1)).bit_count()
        placed |= 1 << slid
    return -1 if reversed_pairs % 2 else 1


def _rect_value(lam: Partition, counts: list[int], betas: list[int], ell: int) -> int:
    """``rect_character(lam, ell)`` from lam's ``hook_histogram`` and its beta-numbers.

    The ell-weight, the number of hooks divisible by ell, is n / ell
    exactly when the ell-core is empty; otherwise the character is 0 and
    the abacus is not walked.  At ell = 1 the sign is +1 without a pass,
    because every 1-core is empty.
    """
    multiples = counts[ell::ell]
    if ell == 1:
        sign = 1
    elif sum(multiples) != lam.n // ell:
        return 0
    else:
        sign = _abacus_sign(betas, ell)
        if not sign:
            raise ArithmeticError(f"{lam} has {ell}-weight n / {ell} but a nonempty {ell}-core")
    denominator = prod(map(pow, range(ell, len(counts), ell), multiples))
    magnitude, remainder = divmod(multiples_table(lam.n)[ell][0], denominator)
    if remainder:
        raise ArithmeticError(f"hook quotient not exact for {lam}, ell={ell}")
    return sign * magnitude


def rect_character(lam: Partition, ell: int) -> int:
    """Character at the rectangular cycle type, sign times magnitude.

    Contract: equals ``mn_character(lam, (ell, ..., ell))``; the ell-weight,
    the abacus sign and the hook quotient are the production path, the
    rim-hook recursion the oracle.  The quotient is exact whenever the core
    is empty; a remainder would mean a bug.
    """
    n = lam.n
    if n < 1:
        raise ValueError(f"rect_character requires a nonempty partition, got {lam}")
    if ell < 1 or n % ell != 0:
        raise ValueError(f"need ell | n, got ell={ell}, n={n}")
    return _rect_value(lam, hook_histogram(lam), beta_numbers(lam), ell)


def rect_characters(lam: Partition) -> dict[int, int]:
    """``rect_character(lam, ell)`` for every ell | n in ``divisors`` order, from one hook histogram.

    The entry for ell = 1 is f; lam must be nonempty.
    """
    if lam.n < 1:
        raise ValueError(f"rect_characters requires a nonempty partition, got {lam}")
    counts, betas = hook_histogram(lam), beta_numbers(lam)
    return {ell: _rect_value(lam, counts, betas, ell) for ell in multiples_table(lam.n)}
