"""Partition shapes, hooks, rim hooks, cores, and the diagonal preorder.

Conventions, fixed once here and relied on everywhere else:

* French orientation: row 1 is the longest row at the bottom, rows grow
  upward.  A cell is a 1-based pair ``(a, b)`` with ``a`` the column and
  ``b`` the row, so the cell set of ``lam`` is
  ``{(a, b) : 1 <= b <= len(lam), 1 <= a <= lam[b]}``.
* The hook length of a cell is arm + leg - 1 where arm and leg both
  include the cell itself; the opposite hook length of ``(a, b)`` is
  ``a + b - 1`` and grows by one per north or east step.
* Rim hooks (ribbons) are edge-connected skew shapes with no 2x2 block;
  the height of a ribbon is the number of rows it spans minus one.

Rim-hook removal and cores run on beta-numbers (first-column hook
lengths): removing a length-``ell`` ribbon is moving one beta value down
by ``ell`` into an unoccupied slot, and the ribbon's height is the number
of beta values jumped over.  ``_removals`` is the one copy of that step, on
bead sets (``_bead_set``: one int, bit x set for each beta-number x), and
``_hook_counts`` reads the hook histogram off any such set.  The
greedy-removal equivalence is a test concern, not assumed here.
"""

from enum import Enum
from functools import total_ordering
from itertools import accumulate
from math import factorial, prod
from operator import index
from typing import Iterator, NamedTuple


# The largest size, and number of parts, that ``Partition.parse`` accepts:
# far beyond the sizes the sweeps reach, and it keeps a text such as
# "1^10000000000" from asking for an unbounded parts list.
MAX_PARSED_SIZE = 1000


@total_ordering
class Partition:
    """A weakly decreasing tuple of positive parts; the empty partition is allowed.

    Immutable and hashable; ordering is lexicographic on the part tuples,
    which is what report files sort by.
    """

    __slots__ = ("parts", "n")

    def __init__(self, parts=()):
        # ``index`` takes ints (and bools) only: a float or a str is a
        # TypeError, not a part truncated or parsed.
        parts = tuple(map(index, parts))
        # A weakly decreasing tuple is its own descending sort, and then
        # its last part is its smallest; only a bad tuple is walked for its
        # first fault.
        if parts and (parts[-1] < 1 or parts != tuple(sorted(parts, reverse=True))):
            for i, p in enumerate(parts):
                if p < 1:
                    raise ValueError(f"parts must be positive, got {parts}")
                if i and parts[i - 1] < p:
                    raise ValueError(f"parts must be weakly decreasing, got {parts}")
        self.parts = parts
        self.n = sum(parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the one-token text format: "4,2,1", with "2^3,1" meaning (2,2,2,1).

        A bad component is refused, quoting it and the text; a text whose size
        or number of parts exceeds MAX_PARSED_SIZE, before its parts are built.
        """
        parts = []
        size = 0
        for piece in text.split(","):
            piece = piece.strip()
            if not piece:
                raise ValueError(f"empty component in partition text {text!r}")
            base, caret, count = piece.partition("^")
            try:
                part, repeats = int(base), (int(count) if caret else 1)
            except ValueError:
                raise ValueError(f"bad component {piece!r} in partition text {text!r}") from None
            if repeats < 1:
                raise ValueError(f"repeat count below 1 in partition text {text!r}")
            size += part * repeats
            if len(parts) + repeats > MAX_PARSED_SIZE or size > MAX_PARSED_SIZE:
                raise ValueError(f"partition text {text!r} is larger than {MAX_PARSED_SIZE}")
            parts.extend([part] * repeats)
        return cls(parts)

    def __repr__(self):
        return f"Partition({self.parts!r})"

    def __str__(self):
        return ",".join(str(p) for p in self.parts) if self.parts else "()"

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, Partition):
            return self.parts < other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def contains(self, other: "Partition") -> bool:
        """Cellwise containment: every row of other fits inside the same row of self."""
        if len(other.parts) > len(self.parts):
            return False
        return all(o <= s for o, s in zip(other.parts, self.parts))


class RibbonStep(NamedTuple):
    """One rim-hook removal: the shape left behind and the ribbon's height."""

    shape: Partition
    height: int


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, largest-first: descending lexicographic order, from (n) to 1^n."""
    if n < 0:
        raise ValueError(f"partitions_of requires n >= 0, got {n}")
    for parts in _parts_of(n):
        yield Partition(parts)


def _parts_of(n: int) -> Iterator[tuple[int, ...]]:
    """The parts tuples of ``partitions_of(n)``, in the same order; n >= 0.

    The walk starts at (n).  Each shape is the successor of the one before:
    take one cell off the last part above 1 and deal it, with the trailing
    ones, into parts of that new size, which is the next shape down in
    lexicographic order.
    """
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        size = parts[-1] - 1
        parts[-1] = size
        top, rest = divmod(ones + 1, size)
        parts += [size] * top
        if rest:
            parts.append(rest)


def cells(lam: Partition) -> Iterator[tuple[int, int]]:
    """All cells (a, b) of the shape, 1-based, row by row from the bottom."""
    for b, row_len in enumerate(lam.parts, start=1):
        for a in range(1, row_len + 1):
            yield (a, b)


def _column_lengths(parts: tuple[int, ...]) -> list[int]:
    """Length of each column of the shape, read from the shortest row down."""
    columns: list[int] = []
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] > len(columns):
            columns += [i + 1] * (parts[i] - len(columns))
    return columns


def conjugate(lam: Partition) -> Partition:
    """Transpose of the shape: part i of the result is the length of column i."""
    return Partition(_column_lengths(lam.parts))


def hook_lengths(lam: Partition) -> list[int]:
    """The multiset of hook lengths, flattened in cell order.

    The hook of cell (a, b), 0-based, is (lam_b - b - 1) + (column a's
    length - a): a row term plus a column term, the second computed once
    per column.
    """
    parts = lam.parts
    column_terms = [c - a for a, c in enumerate(_column_lengths(parts))]
    return [p - b - 1 + t for b, p in enumerate(parts) for t in column_terms[:p]]


def hook_histogram(lam: Partition) -> list[int]:
    """How many hooks have each length, indexed by length up to the largest hook: ``_hook_counts`` of the bead set."""
    return _hook_counts(_bead_set(lam.parts))


def opposite_hook_lengths(lam: Partition) -> list[int]:
    """The multiset of opposite hook lengths a + b - 1, flattened in cell order."""
    return [a + b + 1 for b, row_len in enumerate(lam.parts) for a in range(row_len)]


def dimension(lam: Partition) -> int:
    """Number of standard fillings of the shape, n! over the hook product, exact."""
    if lam.n < 1:
        raise ValueError("dimension requires a nonempty partition")
    numerator = factorial(lam.n)
    hook_product = prod(hook_lengths(lam))
    if numerator % hook_product != 0:
        raise ArithmeticError(f"hook product does not divide n! for {lam}")
    return numerator // hook_product


def beta_numbers(lam: Partition) -> list[int]:
    """First-column hook lengths lam_i + (m - i), strictly decreasing, one per row."""
    m = len(lam.parts)
    return [p + (m - 1 - i) for i, p in enumerate(lam.parts)]


def _bead_set(parts: tuple[int, ...]) -> int:
    """The shape's bead set as one int: row i of m sets bit parts[i] + m - 1 - i, its beta-number."""
    m = len(parts)
    beads = 0
    for i, p in enumerate(parts):
        beads |= 1 << (p + m - 1 - i)
    return beads


def _parts_from_beads(beads: int) -> tuple[int, ...]:
    """The inverse of ``_bead_set``: a bead at x with k beads below it is a part x - k, dropped if 0."""
    beads >>= (beads ^ (beads + 1)).bit_length() - 1
    parts = []
    while beads:
        low = beads & -beads
        beads ^= low
        parts.append(low.bit_length() - 1 - len(parts))
    return tuple(reversed(parts))


def _hook_counts(beads: int) -> list[int]:
    """The hook histogram of a bead set, with no list of hooks; the empty set gives [0].

    A hook of length h is a bead x with a gap (no bead) at x - h: the count of length h is the number of
    bits set in beads & (gaps << h), gaps below the top bead, which is the largest hook (bit 0 is a gap).
    """
    if not beads:
        return [0]
    top = beads.bit_length() - 1
    gaps = ~beads & ((1 << top) - 1)
    return [0] + [(beads & (gaps << h)).bit_count() for h in range(1, top + 1)]


def _removals(beads: int, ell: int) -> list[tuple[int, int]]:
    """Every ell-ribbon of the bead set as (height, bead set left), by increasing bead.

    A bead with a free place ell lower moves there, jumping height beads;
    the beads of rows of length 0 are shifted off, so a shape has one set.
    """
    out = []
    free = (beads & ~(beads << ell)) >> ell
    while free:
        low = free & -free
        free ^= low
        high = low << ell
        moved = beads ^ low ^ high
        out.append(((beads & (high - low)).bit_count(), moved >> ((moved ^ (moved + 1)).bit_length() - 1)))
    return out


def removable_ribbons(lam: Partition, ell: int) -> list[RibbonStep]:
    """Every length-ell rim hook removal, as (remaining shape, height): ``_removals`` by decreasing bead."""
    if ell < 1:
        raise ValueError(f"ribbon length must be >= 1, got {ell}")
    return [
        RibbonStep(Partition(_parts_from_beads(left)), height)
        for height, left in reversed(_removals(_bead_set(lam.parts), ell))
    ]


def subshape_count(parts: tuple[int, ...]) -> int:
    """The number of partitions inside the shape, the empty one and the shape included.

    Rows from the top down: counts[v] counts the fillings of the rows so far
    whose lowest row has v cells, and the next row's are its prefix sums.
    """
    counts = [1]
    for p in reversed(parts):
        counts = list(accumulate(counts + [0] * (p + 1 - len(counts))))
    return sum(counts)


def ell_core(lam: Partition, ell: int) -> Partition:
    """What is left after removing length-ell rim hooks until none remain.

    Computed on the abacus, not with ``_removals``: the beads on each
    runner mod ell slide down as far as they go.  Order-independence
    against greedy removal is exercised by the tests rather than assumed.
    """
    if ell < 1:
        raise ValueError(f"core length must be >= 1, got {ell}")
    on_runner = [0] * ell
    for x in beta_numbers(lam):
        on_runner[x % ell] += 1
    slid = 0
    for r, count in enumerate(on_runner):
        for k in range(count):
            slid |= 1 << (r + ell * k)
    return Partition(_parts_from_beads(slid))


def is_ribbon(lam: Partition, mu: Partition) -> bool:
    """True when the skew shape lam minus mu is a single rim hook.

    Requires cellwise containment; the skew must be nonempty,
    edge-connected, and contain no 2x2 block.
    """
    if not lam.contains(mu):
        raise ValueError(f"{mu} is not contained in {lam}")
    skew = set(cells(lam)) - set(cells(mu))
    if not skew:
        return False
    for (a, b) in skew:
        if {(a + 1, b), (a, b + 1), (a + 1, b + 1)} <= skew:
            return False
    seen = set()
    frontier = [next(iter(skew))]
    while frontier:
        a, b = frontier.pop()
        if (a, b) in seen:
            continue
        seen.add((a, b))
        for nbr in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
            if nbr in skew and nbr not in seen:
                frontier.append(nbr)
    return len(seen) == len(skew)


def max_opposite_hook(lam: Partition) -> int:
    """The largest opposite hook length: max over rows b of lam_b + b - 1."""
    if lam.n < 1:
        raise ValueError("max_opposite_hook requires a nonempty partition")
    return max(p + i for i, p in enumerate(lam.parts))


def diagonal_fibers(lam: Partition) -> tuple[int, ...]:
    """Counts of cells by opposite hook length, up to the last nonzero entry.

    Row b (1-based) adds 1 to lengths b .. b + lam_b - 1: a step up where
    that range starts and down past its end, summed as they run.
    """
    steps = [0] * (max_opposite_hook(lam) + 1)
    for b, row_len in enumerate(lam.parts):
        steps[b] += 1
        steps[b + row_len] -= 1
    return tuple(accumulate(steps[:-1]))


def diagonal_excess(lam: Partition) -> int:
    """n minus the largest opposite hook length."""
    return lam.n - max_opposite_hook(lam)


def capped_excess(lam: Partition) -> int:
    """The diagonal excess, capped at floor((n - 1) / 2) when it is too large."""
    n = lam.n
    excess = diagonal_excess(lam)
    if 2 * excess + 1 <= n:
        return excess
    return (n - 1) // 2


class DiagOrder(Enum):
    """Verdicts of the diagonal preorder; it is a preorder, so four outcomes."""

    LESS_OR_EQUAL = "less-or-equal"
    GREATER_OR_EQUAL = "greater-or-equal"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


def _tail_counts(lam: Partition, top: int) -> list[int]:
    """Entry i >= 1 counts the cells of opposite hook length i to top, a suffix sum of the fibers; entry 0 is 0."""
    fibers = list(diagonal_fibers(lam)[:top]) if lam.n else []
    fibers += [0] * (top - len(fibers))
    tails = list(accumulate(reversed(fibers)))
    tails.reverse()
    return [0] + tails


def diag_compare(lam: Partition, mu: Partition) -> DiagOrder:
    """Compare two shapes by tail counts of opposite hook lengths."""
    top = max(
        lam.parts[0] + len(lam.parts) - 1 if lam else 0,
        mu.parts[0] + len(mu.parts) - 1 if mu else 0,
    )
    lam_tails = _tail_counts(lam, top)
    mu_tails = _tail_counts(mu, top)
    le = all(x <= y for x, y in zip(lam_tails, mu_tails))
    ge = all(x >= y for x, y in zip(lam_tails, mu_tails))
    if le and ge:
        return DiagOrder.EQUIVALENT
    if le:
        return DiagOrder.LESS_OR_EQUAL
    if ge:
        return DiagOrder.GREATER_OR_EQUAL
    return DiagOrder.INCOMPARABLE


def staircase_peak(lam: Partition) -> int:
    """The unique m where the diagonal fibers stop climbing 1, 2, ..., m.

    Equals the side of the largest staircase shape inside lam.
    """
    fibers = diagonal_fibers(lam)
    m = 0
    for i, count in enumerate(fibers, start=1):
        if count == i:
            m = i
        else:
            break
    return m
