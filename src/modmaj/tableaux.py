"""Standard Young tableaux: enumeration, descents, major index, residue counts.

A standard tableau of shape ``lam`` is stored with its rows in French
order (``rows[0]`` is the bottom row, row 1 of the shape).  The entry
``i`` is a descent when ``i + 1`` sits in a strictly higher row; the major
index is the sum of the descents.  This descent convention is pinned by a
test comparing the enumeration histogram with the q-hook generating
polynomial, which the opposite convention fails already at shape (2, 1).

``amod_by_enumeration`` gives the residue counts (how many tableaux have
each value of major index mod n) by counting saturated chains in Young's
lattice.  It reads only the shape, so it stays independent of the q-hook
and character-formula routes.  Each state's counts are n slots of w bits
in one int, so a descent shift is a rotation of the slots and merging two
states is one addition.  w is 1 + the bit length of the smaller of
n! / prod lam_i! and n! / prod lam'_j!, the numbers of row words and of
column words.  That bound reads the parts and their conjugate, no hook,
and it holds at every state: a tableau is fixed by its row word and by its
column word, and a state's count is at most f^mu <= f^lam for its subshape
mu, so no slot reaches its top bit.  A state is the bead set of its
subshape, one bead per row of the shape, and the next entry's rows are its
corners: a bead with a free place above it, kept when the row stays inside
the shape.  So a state costs its corners, not its rows.  Its work and
memory grow with the number of subshapes, the states of one level, so it
refuses a shape with more subshapes than its budget, counted without
reading a hook; callers are expected to switch to those routes there.

``enumerate_syt`` reads one walk, ``_row_word_stream``: a depth-first
search on an explicit stack, with no depth limit, that carries the major
index down as it places entries, so no tableau is rescanned for its
descents.  Its histogram is the brute-force oracle of the chain count.
"""

from math import factorial, prod
from operator import ge, index
from typing import Iterator

from .partitions import Partition, conjugate, subshape_count

# The most subshapes ``amod_by_enumeration`` takes.  On a 2-vCPU host
# (Python 3.11), 8^8 (12,870 subshapes) takes about 0.35 s and 23 MB, and 9^9
# (48,620) about 2.1 s and 57 MB.
DEFAULT_ENUMERATION_BUDGET = 50_000


class EnumerationBudgetExceeded(RuntimeError):
    """Raised when a shape has too many subshapes to count over; use another method."""


class ModularClassVector:
    """The length-n vector counting tableaux by major index residue mod n."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts):
        # ``index`` refuses a float or a str with TypeError rather than truncating it.
        counts = tuple(map(index, counts))
        if n < 1:
            raise ValueError(f"ModularClassVector requires n >= 1, got {n}")
        if len(counts) != n:
            raise ValueError(f"need exactly n={n} counts, got {len(counts)}")
        self.n = n
        self.counts = counts

    @classmethod
    def _of(cls, counts: tuple[int, ...]) -> "ModularClassVector":
        """The vector of ``counts``, an exact tuple of ints of length n >= 1, taken as it is.

        For the routes, which build that tuple themselves; the public
        constructor validates.
        """
        vec = cls.__new__(cls)
        vec.n = len(counts)
        vec.counts = counts
        return vec

    def __getitem__(self, r: int) -> int:
        return self.counts[r % self.n]

    def __iter__(self):
        return iter(self.counts)

    def __eq__(self, other):
        if isinstance(other, ModularClassVector):
            return self.n == other.n and self.counts == other.counts
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.counts))

    def __repr__(self):
        return f"ModularClassVector({self.n}, {self.counts!r})"

    def total(self) -> int:
        return sum(self.counts)

    def zero_residues(self) -> frozenset[int]:
        return frozenset(r for r, c in enumerate(self.counts) if c == 0)


class StandardTableau:
    """A standard filling of a partition shape by 1..n, rows bottom-up."""

    __slots__ = ("shape", "rows", "row_of")

    def __init__(self, rows):
        rows = tuple(tuple(map(index, row)) for row in rows)
        shape = Partition([len(row) for row in rows])
        n = shape.n
        row_of = [-1] * n
        for r, row in enumerate(rows):
            for j, v in enumerate(row):
                if not 1 <= v <= n or row_of[v - 1] != -1:
                    raise ValueError(f"entries must be a bijection onto 1..{n}")
                row_of[v - 1] = r
                if j and row[j - 1] >= v:
                    raise ValueError(f"row {r + 1} is not increasing: {row}")
                if r and rows[r - 1][j] >= v:
                    raise ValueError(f"column {j + 1} is not increasing upward")
        self.shape = shape
        self.rows = rows
        self.row_of = tuple(row_of)

    @property
    def n(self) -> int:
        return self.shape.n

    def __eq__(self, other):
        if isinstance(other, StandardTableau):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"StandardTableau({[list(r) for r in self.rows]!r})"

    def __str__(self):
        width = len(str(self.n))
        return "\n".join(
            " ".join(f"{v:>{width}}" for v in row) for row in reversed(self.rows)
        )


def _row_word_stream(parts: tuple[int, ...]) -> Iterator[tuple[list[int], int]]:
    """Every standard tableau of the shape as (row word, major index).

    ``word[k]`` is the 0-based row receiving entry k+1; ``word`` is one
    buffer, overwritten after each yield.  Entry k+1 may go to row r when
    row r is not full and the row below is strictly longer so far, which
    is exactly column-strictness.  Each tableau appears once, in
    lexicographic order of the row word.

    The walk is depth-first on an explicit stack: the word itself, since
    backing up from entry k+1 resumes at the row after ``word[k]``.  So it
    has no recursion and no depth limit.  The major index is carried down
    the stack: ``majs[k]`` is that of entries 1..k, and entry k adds k when
    entry k+1 goes to a higher row.  Entry n always fills the one cell
    left, so the walk stops a level early.

    The rows that can take the next entry lie between the lowest row that
    is not full and the first empty row, so the scan starts at the one and
    stops at the other; a tall shape such as ``1^1000`` is then walked in
    time linear in n per tableau, not quadratic.
    """
    n = sum(parts)
    m = len(parts)
    last = n - 1
    filled = [0] * m
    word = [0] * n
    majs = [0] * n
    low = 0  # every row below row ``low`` is full
    k = r = 0  # place entry k+1, trying rows r, r+1, ...
    while True:
        while r < m:
            c = filled[r]
            if c < parts[r] and (r == 0 or filled[r - 1] > c):
                break
            # An empty row that cannot take the entry has only empty rows above.
            r = r + 1 if c else m
        else:
            # No row left for entry k+1: take entry k back out.
            if k == 0:
                return
            k -= 1
            r = word[k]
            filled[r] -= 1
            if r < low:
                low = r
            r += 1
            continue
        word[k] = r
        major = majs[k] + k if k and r > word[k - 1] else majs[k]
        if k + 1 < last:
            filled[r] += 1
            if r == low:
                while low < m and filled[low] == parts[low]:
                    low += 1
            k += 1
            majs[k] = major
            r = low
            continue
        if k < last:  # k == last only when n == 1
            # Entry n goes to the one cell left.
            s = low
            while filled[s] + (s == r) == parts[s]:
                s += 1
            word[last] = s
            if s > r:
                major += last
        yield word, major
        r += 1


def _tableau_from_row_word(shape: Partition, word) -> StandardTableau:
    """The tableau of shape with entry k+1 in row ``word[k]``, where word comes from a walk of shape.

    Entries are appended to their rows in order, so they form a bijection
    onto 1..n with every row increasing; of the checks ``StandardTableau``
    makes, only column strictness is left to make here.
    """
    rows: list[list[int]] = [[] for _ in shape.parts]
    for k, r in enumerate(word, start=1):
        rows[r].append(k)
    for r in range(1, len(rows)):
        if any(map(ge, rows[r - 1], rows[r])):
            raise ValueError(f"a column is not increasing upward at row {r + 1}: {rows}")
    tab = object.__new__(StandardTableau)
    tab.shape, tab.rows, tab.row_of = shape, tuple(map(tuple, rows)), tuple(word)
    return tab


def enumerate_syt(lam: Partition) -> Iterator[StandardTableau]:
    """Stream every standard tableau of the shape exactly once."""
    if lam.n < 1:
        raise ValueError("enumerate_syt requires a nonempty partition")
    for word, _ in _row_word_stream(lam.parts):
        yield _tableau_from_row_word(lam, word)


def descent_set(tab: StandardTableau) -> set[int]:
    """Entries i whose successor i + 1 lies in a strictly higher row."""
    row_of = tab.row_of
    return {i for i in range(1, tab.n) if row_of[i] > row_of[i - 1]}


def maj(tab: StandardTableau) -> int:
    """Major index: the sum of the descents."""
    row_of = tab.row_of
    return sum(i for i in range(1, tab.n) if row_of[i] > row_of[i - 1])


def transpose(tab: StandardTableau) -> StandardTableau:
    """The tableau of conjugate shape with rows and columns exchanged."""
    conj = conjugate(tab.shape)
    new_rows: list[list[int]] = [[] for _ in conj.parts]
    for row in tab.rows:
        for j, v in enumerate(row):
            new_rows[j].append(v)
    return StandardTableau(new_rows)


def _slot_width(lam: Partition) -> int:
    """Bits per residue slot of ``amod_by_enumeration``: 1 + the bit length of the fewer words.

    The row words number n! / prod lam_i!, the column words n! / prod lam'_j!;
    a tableau is fixed by either, so f is at most both.
    """
    words = factorial(lam.n)
    bound = min(words // prod(map(factorial, p.parts)) for p in (lam, conjugate(lam)))
    return 1 + bound.bit_length()


def amod_by_enumeration(
    lam: Partition, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> ModularClassVector:
    """Histogram of major index mod n over all standard tableaux of the shape.

    A tableau is a chain in Young's lattice from the empty shape, one cell
    per entry.  Level k holds, for each state (the filled subshape, the row
    of entry k), the chains reaching it counted by major index mod n, packed
    as n slots of ``_slot_width`` bits in one int, residue r in slot r.
    Entry k+1 adds k when it goes above entry k's row, the walk's descent
    rule: a rotation of the slots by k.  A final slot at or above its top
    bit, which the width leaves clear, raises ArithmeticError.  A subshape
    is kept as its bead set, ``_bead_set`` of it padded with rows of length
    0 to one bead per row of the shape, so the empty one is the low
    ``rows`` bits.  Row r takes entry k+1 when its bead has a free place
    above it, r being the number of beads above, and the row does not pass
    ``parts[r]``; the bead moves up one place.  The moves are the corners,
    read off one int, so a state costs its corners, not its rows, and
    ``1^1000`` stays cheap.
    """
    n = lam.n
    if n < 1:
        raise ValueError("amod_by_enumeration requires a nonempty partition")
    count = subshape_count(lam.parts)
    if count > budget:
        raise EnumerationBudgetExceeded(
            f"{lam} has {count} subshapes, above the budget of {budget}"
        )
    parts = lam.parts
    rows = len(parts)
    w = _slot_width(lam)
    full = (1 << w * n) - 1
    level = {(1 << rows) - 1: {-1: 1}}  # bead set -> {row of entry k, -1 for none: packed counts}
    for k in range(n):
        up, down = w * k, w * (n - k)
        grown_level = {}
        for beads, by_last in level.items():
            free = (beads << 1) & ~beads  # the free places just above a bead
            while free:
                high = free & -free
                free ^= high
                r = (beads >> high.bit_length()).bit_count()  # the beads above: the row
                if high.bit_length() - rows + r > parts[r]:  # the row's new length passes the shape
                    continue
                # Entry k+1 goes to row r: the chains with entry k below r shift by k.
                vec = below = 0
                for last, v in by_last.items():
                    if r > last:
                        below += v
                    else:
                        vec += v
                if below:
                    vec += ((below << up) & full) | (below >> down)
                grown_level.setdefault(beads ^ high ^ (high >> 1), {})[r] = vec
        level = grown_level
    (by_last,) = level.values()
    total = sum(by_last.values())
    low = (1 << w) - 1
    counts = tuple([(total >> w * r) & low for r in range(n)])
    if total > full or max(counts) >> (w - 1):
        raise ArithmeticError(f"a residue count of {lam} does not fit its {w}-bit slot")
    return ModularClassVector._of(counts)
