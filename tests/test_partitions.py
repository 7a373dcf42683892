"""Shapes, hooks, ribbons, cores, and the diagonal preorder.

The brute-force oracles live here: hook lengths recounted from the raw
cell set, ribbon removals re-derived from subshape containment plus the
ribbon test, and cores recomputed by greedy removal.
"""

import inspect
import math
import textwrap
from collections import Counter
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from modmaj import partitions
from modmaj.partitions import (
    MAX_PARSED_SIZE,
    DiagOrder,
    Partition,
    _bead_set,
    _hook_counts,
    _parts_from_beads,
    _removals,
    _tail_counts,
    beta_numbers,
    capped_excess,
    cells,
    conjugate,
    diag_compare,
    diagonal_excess,
    diagonal_fibers,
    dimension,
    ell_core,
    hook_histogram,
    hook_lengths,
    is_ribbon,
    opposite_hook_lengths,
    partitions_of,
    removable_ribbons,
    staircase_peak,
    subshape_count,
)

P = Partition


def partition_strategy(max_n=24):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.sampled_from([lam.parts for lam in partitions_of(n)])
    ).map(P)


# ------------------------------------------------------------ construction


def test_validation():
    with pytest.raises(ValueError):
        P((1, 2))
    with pytest.raises(ValueError):
        P((2, 0))
    assert P(()).n == 0 and not P(())


def test_non_integer_parts_are_refused():
    # a float or a str is refused, not truncated to (2, 1) or parsed
    for parts in ((2.9, 1), (2.0, 1), ("2", 1)):
        with pytest.raises(TypeError):
            P(parts)


def test_parse():
    assert P.parse("4,2,1") == P((4, 2, 1))
    assert P.parse("2^3,1") == P((2, 2, 2, 1))
    assert P.parse("5") == P((5,))
    with pytest.raises(ValueError):
        P.parse("1,2")
    for text in ("3,2^-1", "2^0,1"):
        with pytest.raises(ValueError):
            P.parse(text)


@pytest.mark.parametrize(
    "text",
    ["1^10000000000", "-1^10000000000", "10000000000", f"1^{MAX_PARSED_SIZE + 1}", f"{MAX_PARSED_SIZE},1"],
)
def test_parse_refuses_sizes_above_the_cap(text):
    with pytest.raises(ValueError, match="larger than"):
        P.parse(text)


def test_ordering_is_lexicographic():
    shapes = sorted(partitions_of(5))
    assert [s.parts for s in shapes] == [
        (1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2), (4, 1), (5,),
    ]


def test_partition_counts():
    # p(n) for n = 0..12
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, count in enumerate(expected):
        assert sum(1 for _ in partitions_of(n)) == count


def recursive_partitions(n):
    """The recursive generator partitions_of used to be: the order oracle."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    if n == 0:
        yield ()
        return
    yield from rec(n, n)


def test_partitions_match_the_recursive_oracle():
    for n in range(31):
        assert [lam.parts for lam in partitions_of(n)] == list(recursive_partitions(n)), n


# ------------------------------------------------------------ conjugation


@pytest.mark.parametrize(
    "parts,expected",
    [((2, 2), (2, 2)), ((3, 1), (2, 1, 1)), ((5,), (1, 1, 1, 1, 1)), ((), ())],
)
def test_conjugate_values(parts, expected):
    assert conjugate(P(parts)) == P(expected)


@given(partition_strategy())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


# ------------------------------------------------------------ hooks


def brute_hooks(lam):
    cell_set = set(cells(lam))
    out = []
    for (a, b) in cell_set:
        arm = sum(1 for (x, y) in cell_set if y == b and x >= a)
        leg = sum(1 for (x, y) in cell_set if x == a and y >= b)
        out.append(arm + leg - 1)
    return sorted(out)


def hook_length_table(lam):
    """Hook length of every cell, as rows matching the shape (row 1 first), read off the conjugate."""
    conj = conjugate(lam).parts
    return [[(row_len - a) + (conj[a] - b) - 1 for a in range(row_len)] for b, row_len in enumerate(lam.parts)]


@pytest.mark.parametrize(
    "parts,expected",
    [((2, 2), [3, 2, 2, 1]), ((1,), [1]), ((3, 1), [4, 2, 1, 1])],
)
def test_hook_values(parts, expected):
    assert sorted(hook_lengths(P(parts))) == sorted(expected)


def test_hooks_against_cell_count_oracle():
    for n in range(1, 11):
        for lam in partitions_of(n):
            assert sorted(hook_lengths(lam)) == brute_hooks(lam), lam


def test_hooks_match_the_table_and_the_cell_count_oracle():
    for n in range(1, 21):
        for lam in partitions_of(n):
            hooks = hook_lengths(lam)
            assert hooks == [h for row in hook_length_table(lam) for h in row], lam
            assert sorted(hooks) == brute_hooks(lam), lam


def test_hook_histogram_against_cell_count_oracle():
    # counted off the bead set; sized by the largest hook, lam_1 + len(lam) - 1
    assert hook_histogram(P(())) == [0]
    assert hook_histogram(P((3, 1))) == [0, 2, 1, 0, 1]
    for n in range(1, 15):
        for lam in partitions_of(n):
            hooks = brute_hooks(lam)
            assert hook_histogram(lam) == [hooks.count(h) for h in range(hooks[-1] + 1)], lam


def test_hook_counts_of_every_set_a_ribbon_leaves():
    # the sets _removals leaves have their rows of length 0 shifted off, as
    # a shape's own set has; each counts as the hook histogram of its shape
    assert _hook_counts(0) == [0]
    for n in range(1, 15):
        for lam in partitions_of(n):
            for ell in range(1, n + 1):
                for _, left in _removals(_bead_set(lam.parts), ell):
                    assert _hook_counts(left) == hook_histogram(P(_parts_from_beads(left))), (lam, ell)


@pytest.mark.parametrize(
    "parts,expected",
    [((1,), [1]), ((2, 2), [1, 2, 2, 3]), ((3, 1), [1, 2, 3, 2])],
)
def test_opposite_hook_values(parts, expected):
    assert sorted(opposite_hook_lengths(P(parts))) == sorted(expected)


def test_rectangle_hook_multisets_coincide():
    for rows in range(1, 6):
        for width in range(1, 6):
            lam = P((width,) * rows)
            assert sorted(hook_lengths(lam)) == sorted(opposite_hook_lengths(lam))


def test_hook_sums_agree():
    for n in range(1, 26):
        for lam in partitions_of(n):
            assert sum(hook_lengths(lam)) == sum(opposite_hook_lengths(lam)), lam


def test_opposite_product_dominates_with_rectangle_equality():
    for n in range(1, 26):
        for lam in partitions_of(n):
            hp = math.prod(hook_lengths(lam))
            op = math.prod(opposite_hook_lengths(lam))
            assert op >= hp, lam
            is_rect = len(set(lam.parts)) == 1
            assert (op == hp) == is_rect, lam


def test_product_switch_inequality():
    # prod(x_i + y_i) <= prod(x_i + y_{m-i+1}) exhaustively for m <= 6,
    # entries <= 4.  The pairing condition (each index pair has x_i =
    # x_{m-i+1} or y_i = y_{m-i+1}) forces equality; the converse holds
    # only when the aligned product is nonzero, since a shared zero factor
    # can collapse both sides, e.g. x = (1,0,0,0), y = (1,1,0,0).
    for m in range(1, 7):
        seqs = sorted(
            {
                tuple(sorted(combo, reverse=True))
                for combo in combinations_with_replacement(range(5), m)
            }
        )
        for xs in seqs:
            for ys in seqs:
                aligned = math.prod(x + y for x, y in zip(xs, ys))
                crossed = math.prod(x + y for x, y in zip(xs, reversed(ys)))
                assert aligned <= crossed, (xs, ys)
                tight = all(
                    xs[i] == xs[m - 1 - i] or ys[i] == ys[m - 1 - i] for i in range(m)
                )
                if tight:
                    assert aligned == crossed, (xs, ys)
                elif aligned > 0:
                    assert aligned < crossed, (xs, ys)


# ------------------------------------------------------------ dimension


@pytest.mark.parametrize("parts,expected", [((2, 2), 2), ((6, 1), 6), ((1,), 1), ((3, 2), 5)])
def test_dimension_values(parts, expected):
    assert dimension(P(parts)) == expected


# ------------------------------------------------------------ ribbons


def brute_removable_ribbons(lam, ell):
    if lam.n < ell:
        return set()
    out = set()
    for mu in partitions_of(lam.n - ell):
        if lam.contains(mu) and is_ribbon(lam, mu):
            padded_mu = mu.parts + (0,) * (len(lam.parts) - len(mu.parts))
            height = sum(1 for a, b in zip(lam.parts, padded_mu) if a != b) - 1
            out.add((mu.parts, height))
    return out


def test_removable_ribbons_examples():
    steps = removable_ribbons(P((2, 2)), 2)
    assert {(s.shape.parts, s.height) for s in steps} == {((2,), 0), ((1, 1), 1)}
    assert removable_ribbons(P((2, 1)), 2) == []
    steps = removable_ribbons(P((4,)), 4)
    assert [(s.shape.parts, s.height) for s in steps] == [((), 0)]


def test_removable_ribbons_against_subshape_oracle():
    for n in range(1, 13):
        for lam in partitions_of(n):
            for ell in range(1, n + 1):
                produced = {
                    (s.shape.parts, s.height) for s in removable_ribbons(lam, ell)
                }
                assert produced == brute_removable_ribbons(lam, ell), (lam, ell)


@pytest.mark.parametrize("func", [removable_ribbons, ell_core], ids=["ribbons", "core"])
def test_length_below_one_is_refused(func):
    with pytest.raises(ValueError, match="must be >= 1, got 0"):
        func(P((3, 1)), 0)


def test_removable_ribbons_are_listed_by_decreasing_bead():
    # the moved bead is the one of lam's m beads missing from the shape
    # left, read with rows of length 0 up to m rows
    for n in range(1, 11):
        for lam in partitions_of(n):
            m = len(lam.parts)
            beads = _bead_set(lam.parts)
            for ell in range(1, n + 1):
                moved = [
                    (beads & ~_bead_set(s.shape.parts + (0,) * (m - len(s.shape.parts)))).bit_length()
                    for s in removable_ribbons(lam, ell)
                ]
                assert all(x > y for x, y in zip(moved, moved[1:])), (lam, ell)


def test_bead_codec_round_trip():
    # k rows of length 0 are k more beads, at 0 .. k - 1 under the shape's own
    for n in range(21):
        for lam in partitions_of(n):
            beads = _bead_set(lam.parts)
            for k in range(4):
                assert _parts_from_beads((beads << k) | ((1 << k) - 1)) == lam.parts, (lam, k)


def removal_mismatches(removals, n_max=8):
    """The (shape, ell) where a bead-set ribbon step differs from the subshape oracle.

    Each shape left must come back as its own bead set, with no beads for
    rows of length 0, so that the rim-hook memo has one key per shape.
    """
    out = []
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            for ell in range(1, n + 1):
                produced = sorted(removals(_bead_set(lam.parts), ell))
                expected = sorted((h, _bead_set(mu)) for mu, h in brute_removable_ribbons(lam, ell))
                if produced != expected:
                    out.append((lam.parts, ell))
    return out


def test_removals_against_subshape_oracle():
    assert removal_mismatches(_removals) == []


@pytest.mark.parametrize(
    "old,new",
    [
        ("(beads & (high - low)).bit_count()", "(beads & (high - low)).bit_count() + 1"),
        ("moved >> ((moved ^ (moved + 1)).bit_length() - 1)", "moved"),
    ],
    ids=["height-plus-one", "zero-rows-kept"],
)
def test_removals_oracle_finds_planted_fault(old, new):
    # _removals's own source with one expression replaced
    source = textwrap.dedent(inspect.getsource(partitions._removals))
    assert source.count(old) == 1
    namespace = dict(vars(partitions))
    exec(source.replace(old, new), namespace)
    assert removal_mismatches(namespace["_removals"])


def test_subshape_count_against_brute_force():
    smaller = [mu for k in range(13) for mu in partitions_of(k)]
    for n in range(13):
        for lam in partitions_of(n):
            brute = sum(1 for mu in smaller if lam.contains(mu))
            assert subshape_count(lam.parts) == brute, lam
    # a k^k box holds C(2k, k) shapes; a column or row of n holds n + 1
    assert subshape_count((9,) * 9) == math.comb(18, 9) == 48620
    assert subshape_count((1,) * 1000) == subshape_count((1000,)) == 1001


def test_is_ribbon():
    assert is_ribbon(P((2, 2)), P((2,)))
    assert not is_ribbon(P((2, 2)), P(()))
    assert not is_ribbon(P((2, 2)), P((2, 2)))
    assert is_ribbon(P((2, 1)), P(()))
    assert is_ribbon(P((3, 3)), P((3, 1)))
    # disconnected skew: (3,1)/(2) leaves cells (3,1) and (1,2)
    assert not is_ribbon(P((3, 1)), P((2,)))
    with pytest.raises(ValueError):
        is_ribbon(P((2, 2)), P((3,)))


# ------------------------------------------------------------ cores


def greedy_core(lam, ell):
    while True:
        steps = removable_ribbons(lam, ell)
        if not steps:
            return lam
        lam = steps[0].shape


def test_core_examples():
    assert ell_core(P((2, 2)), 2) == P(())
    assert ell_core(P((2, 1)), 2) == P((2, 1))
    for n in (1, 3, 6):
        for lam in partitions_of(n):
            assert ell_core(lam, 1) == P(())


def test_core_against_greedy_removal():
    for n in range(1, 17):
        for lam in partitions_of(n):
            for ell in range(1, 7):
                assert ell_core(lam, ell) == greedy_core(lam, ell), (lam, ell)


def test_core_independent_of_removal_order():
    # remove from every possible first step and land on the same core
    for n in range(1, 13):
        for lam in partitions_of(n):
            for ell in range(2, 6):
                cores = {greedy_core(step.shape, ell) for step in removable_ribbons(lam, ell)}
                assert len(cores) <= 1, (lam, ell)


def test_fiber_pair_law():
    # empty ell-core forces balanced hook residue classes: the count of
    # hooks congruent to +-a is (n / ell) * #{a, -a mod ell}
    for n in range(1, 21):
        for lam in partitions_of(n):
            hooks = hook_lengths(lam)
            for ell in range(2, n + 1):
                if n % ell or ell_core(lam, ell):
                    continue
                s = n // ell
                for a in range(ell):
                    residues = {a % ell, (-a) % ell}
                    count = sum(1 for h in hooks if h % ell in residues)
                    assert count == s * len(residues), (lam, ell, a)


def test_ribbon_step_law():
    # removing one length-ell ribbon drops the +-a hook count by exactly
    # #{a, -a mod ell}, for every a
    for n in range(1, 17):
        for lam in partitions_of(n):
            hooks = hook_lengths(lam)
            for ell in range(1, n + 1):
                for step in removable_ribbons(lam, ell):
                    small = hook_lengths(step.shape)
                    for a in range(ell):
                        residues = {a % ell, (-a) % ell}
                        big_count = sum(1 for h in hooks if h % ell in residues)
                        small_count = sum(1 for h in small if h % ell in residues)
                        assert big_count - small_count == len(residues), (lam, ell, a)


# ------------------------------------------------------------ diagonal data


def test_diagonal_fibers_examples():
    assert diagonal_fibers(P((4, 4, 4, 4))) == (1, 2, 3, 4, 3, 2, 1)
    assert diagonal_fibers(P((1,))) == (1,)
    assert diagonal_fibers(P((5, 1, 1))) == (1, 2, 2, 1, 1)


def test_diagonal_fibers_count_the_opposite_hook_lengths():
    # the fibers, one range per row, against the per-cell opposite hook
    # lengths; the tails, a suffix sum, against a count of those lengths
    for n in range(1, 21):
        for lam in partitions_of(n):
            lengths = opposite_hook_lengths(lam)
            by_length = Counter(lengths)
            fibers = diagonal_fibers(lam)
            assert fibers == tuple(by_length[h] for h in range(1, max(lengths) + 1)), lam
            for top in range(len(fibers) + 3):
                expected = [0] + [sum(1 for h in lengths if i <= h <= top) for i in range(1, top + 1)]
                assert _tail_counts(lam, top) == expected, (lam, top)
    assert _tail_counts(P(()), 3) == [0, 0, 0, 0]


def test_diagonal_excess_examples():
    assert diagonal_excess(P((3, 3))) == 2
    assert diagonal_excess(P((6,))) == 0
    assert diagonal_excess(P((4, 4, 4, 4))) == 9
    assert capped_excess(P((4, 4, 4, 4))) == 7


def test_fibers_unimodal_with_staircase_prefix():
    # fibers climb 1, 2, ..., m and then weakly decrease
    for n in range(1, 26):
        for lam in partitions_of(n):
            fibers = diagonal_fibers(lam)
            m = staircase_peak(lam)
            assert fibers[:m] == tuple(range(1, m + 1)), lam
            tail = (m,) + fibers[m:]
            assert all(x >= y for x, y in zip(tail, tail[1:])), lam


def test_staircase_peak_matches_containment():
    def largest_staircase(lam):
        best = 0
        for m in range(1, len(lam.parts) + 1):
            if all(lam.parts[i] >= m - i for i in range(m)):
                best = m
        return best

    assert staircase_peak(P((4, 4, 4, 4))) == 4
    assert staircase_peak(P((1,))) == 1
    assert staircase_peak(P((5, 1))) == 2
    for n in range(1, 19):
        for lam in partitions_of(n):
            assert staircase_peak(lam) == largest_staircase(lam), lam


def test_diag_compare_examples():
    assert diag_compare(P((3, 1)), P((2, 2))) == DiagOrder.EQUIVALENT
    assert diag_compare(P((2, 1, 1)), P((2, 2))) == DiagOrder.EQUIVALENT
    assert diag_compare(P((1,)), P((1,))) == DiagOrder.EQUIVALENT
    # opposite hooks are transpose-invariant, so conjugates are equivalent
    assert diag_compare(P((1, 1)), P((2,))) == DiagOrder.EQUIVALENT
    assert diag_compare(P((3, 1)), P((4,))) == DiagOrder.LESS_OR_EQUAL
    assert diag_compare(P((4,)), P((3, 1))) == DiagOrder.GREATER_OR_EQUAL
    # (2,2,1) has five cells but none past diagonal 3, (1^4) reaches diagonal 4
    assert diag_compare(P((2, 2, 1)), P((1, 1, 1, 1))) == DiagOrder.INCOMPARABLE


def test_diag_compare_implies_opposite_product_order():
    for n in range(1, 15):
        shapes = list(partitions_of(n))
        for lam in shapes:
            lam_prod = math.prod(opposite_hook_lengths(lam))
            for mu in shapes:
                verdict = diag_compare(lam, mu)
                mu_prod = math.prod(opposite_hook_lengths(mu))
                if verdict in (DiagOrder.LESS_OR_EQUAL, DiagOrder.EQUIVALENT):
                    assert lam_prod <= mu_prod, (lam, mu)
                if verdict in (DiagOrder.GREATER_OR_EQUAL, DiagOrder.EQUIVALENT):
                    assert lam_prod >= mu_prod, (lam, mu)


def test_hook_is_diagonal_maximal():
    # every shape sits below the hook with the same capped excess
    for n in range(1, 21):
        for lam in partitions_of(n):
            cap = capped_excess(lam)
            hook = P((n - cap,) + (1,) * cap)
            assert diag_compare(lam, hook) in (
                DiagOrder.LESS_OR_EQUAL,
                DiagOrder.EQUIVALENT,
            ), lam


def test_binomial_dimension_bound():
    # f >= binom(n, M) / (M+1) for all M up to the capped excess
    for n in range(1, 26):
        for lam in partitions_of(n):
            f = dimension(lam)
            for m in range(capped_excess(lam) + 1):
                assert (m + 1) * f >= math.comb(n, m), (lam, m)


def test_beta_numbers_are_first_column_hooks():
    for n in range(1, 13):
        for lam in partitions_of(n):
            column = [row[0] for row in hook_length_table(lam)]
            assert sorted(beta_numbers(lam), reverse=True) == sorted(column, reverse=True)
