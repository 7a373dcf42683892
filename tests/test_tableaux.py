"""Tableau enumeration, descents, major index, and the residue histogram."""

import inspect
import math
import textwrap

import pytest

from modmaj import tableaux
from modmaj.modular import amod_by_character_formula
from modmaj.partitions import Partition, conjugate, dimension, partitions_of, subshape_count
from modmaj.qpoly import IntPolynomial, amod_by_qhook
from modmaj.tableaux import (
    DEFAULT_ENUMERATION_BUDGET,
    EnumerationBudgetExceeded,
    ModularClassVector,
    StandardTableau,
    _row_word_stream,
    _tableau_from_row_word,
    amod_by_enumeration,
    descent_set,
    enumerate_syt,
    maj,
    transpose,
)

P = Partition


def test_tableau_validation():
    StandardTableau([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        StandardTableau([[2, 1], [3, 4]])  # row not increasing
    with pytest.raises(ValueError):
        StandardTableau([[1, 4], [2, 3]])  # column not increasing
    with pytest.raises(ValueError):
        StandardTableau([[1, 2], [2, 3]])  # repeated entry


def test_class_vector_refuses_non_integer_counts():
    # a float or a str is refused, not truncated to (1, 0) or parsed
    for counts in ((1.7, 0.2), (1.0, 0), ("1", 0)):
        with pytest.raises(TypeError):
            ModularClassVector(2, counts)
    for counts in ((1,), (1, 0, 0), iter((1, 0, 0))):
        with pytest.raises(ValueError, match="need exactly n=2 counts"):
            ModularClassVector(2, counts)


@pytest.mark.parametrize("n", [0, -1])
def test_class_vector_refuses_n_below_1(n):
    # its own message, not the count-length one ("need exactly n=0 counts, got 0")
    with pytest.raises(ValueError, match=f"^ModularClassVector requires n >= 1, got {n}$"):
        ModularClassVector(n, [])
    with pytest.raises(ValueError, match="^need exactly n=2 counts, got 1$"):
        ModularClassVector(2, [1])


@pytest.mark.parametrize("entry", [2.9, "2"], ids=["float", "str"])
def test_polynomial_and_tableau_refuse_non_integer_entries(entry):
    # a float is refused, not truncated (IntPolynomial([1.9, 2.5]) was 1 + 2*q),
    # and a str is refused, not parsed
    with pytest.raises(TypeError):
        IntPolynomial([1, entry])
    with pytest.raises(TypeError):
        StandardTableau([[1, entry]])
    assert IntPolynomial([True, 2]).coeffs == (1, 2)


def test_route_vectors_are_what_the_public_constructor_builds():
    # the routes build their vectors unvalidated: each must hold an exact
    # tuple of n ints, equal and hash-equal to the validated vector
    for n in range(1, 9):
        for lam in partitions_of(n):
            for vec in (amod_by_enumeration(lam), amod_by_qhook(lam), amod_by_character_formula(lam)):
                assert type(vec.counts) is tuple and len(vec.counts) == vec.n == n, lam
                assert all(type(c) is int for c in vec.counts), lam
                checked = ModularClassVector(n, vec.counts)
                assert vec == checked and hash(vec) == hash(checked), lam


def test_enumeration_counts():
    assert len(list(enumerate_syt(P((2, 2))))) == 2
    assert len(list(enumerate_syt(P((6,))))) == 1
    assert len(list(enumerate_syt(P((3, 2))))) == 5


def test_enumeration_matches_hook_count():
    for n in range(1, 13):
        for lam in partitions_of(n):
            seen = set()
            for tab in enumerate_syt(lam):
                assert tab.shape == lam
                seen.add(tab)
            assert len(seen) == dimension(lam), lam


def test_walked_tableaux_equal_validated_ones():
    # enumerate_syt checks only column strictness; the full validation
    # must give the same shape, rows and row of each entry
    for n in range(1, 9):
        for lam in partitions_of(n):
            for tab in enumerate_syt(lam):
                full = StandardTableau(tab.rows)
                assert (full.shape, full.rows, full.row_of) == (tab.shape, tab.rows, tab.row_of), tab


def test_walked_tableau_with_a_bad_column_is_refused():
    with pytest.raises(ValueError, match="column"):
        _tableau_from_row_word(P((2, 2)), [1, 1, 0, 0])


def test_enumeration_has_no_depth_limit():
    assert len(list(enumerate_syt(P((1000,))))) == 1


def test_carried_maj_matches_maj_of_the_tableau():
    for n in range(1, 11):
        for lam in partitions_of(n):
            for word, major in _row_word_stream(lam.parts):
                assert major == maj(_tableau_from_row_word(lam, word)), (lam, word)


def reference_row_words(parts):
    """Every row word in lexicographic order, with its major index, by plain recursion."""
    n = sum(parts)
    filled = [0] * len(parts)
    word = []

    def extend():
        if len(word) == n:
            yield list(word), sum(k for k in range(1, n) if word[k] > word[k - 1])
            return
        for r, size in enumerate(parts):
            if filled[r] < size and (r == 0 or filled[r - 1] > filled[r]):
                filled[r] += 1
                word.append(r)
                yield from extend()
                word.pop()
                filled[r] -= 1

    return list(extend())


def test_walk_matches_the_reference_sequence():
    for n in range(1, 12):
        for lam in partitions_of(n):
            walked = [(list(word), major) for word, major in _row_word_stream(lam.parts)]
            assert walked == reference_row_words(lam.parts), lam


def test_tall_shapes_walk_each_tableau_in_linear_time():
    # 1^1000 has one tableau; (2, 1^498) has 499, each 500 entries deep
    assert [(list(w), m) for w, m in _row_word_stream((1,) * 1000)] == [(list(range(1000)), 499500)]
    assert sum(1 for _ in _row_word_stream((2,) + (1,) * 498)) == 499


def test_descents():
    row = next(enumerate_syt(P((6,))))
    assert descent_set(row) == set()
    column = next(enumerate_syt(P((1,) * 6)))
    assert descent_set(column) == {1, 2, 3, 4, 5}
    two_by_two = list(enumerate_syt(P((2, 2))))
    assert {frozenset(descent_set(t)) for t in two_by_two} == {
        frozenset({2}),
        frozenset({1, 3}),
    }


def test_maj_values():
    assert maj(next(enumerate_syt(P((1,) * 5)))) == 10
    assert maj(next(enumerate_syt(P((7,))))) == 0
    assert sorted(maj(t) for t in enumerate_syt(P((2, 2)))) == [2, 4]


def test_hook_shape_maj_runs_through_everything():
    # the shape (n-1, 1) realizes each major index 1 .. n-1 exactly once
    for n in range(2, 13):
        values = sorted(maj(t) for t in enumerate_syt(P((n - 1, 1))))
        assert values == list(range(1, n))


def test_transpose():
    assert transpose(next(enumerate_syt(P((5,))))).shape == P((1,) * 5)
    for lam in [P((2, 2)), P((3, 1)), P((3, 2, 1))]:
        n = lam.n
        full = set(range(1, n))
        for tab in enumerate_syt(lam):
            flipped = transpose(tab)
            assert flipped.shape == conjugate(lam)
            assert descent_set(flipped) == full - descent_set(tab)
            assert transpose(flipped) == tab
    for tab in enumerate_syt(P((2, 2))):
        assert maj(tab) + maj(transpose(tab)) == 6


def test_transpose_involution_small():
    for n in range(1, 9):
        for lam in partitions_of(n):
            for tab in enumerate_syt(lam):
                assert transpose(transpose(tab)) == tab


def test_class_vector_basics():
    vec = ModularClassVector(4, (1, 0, 1, 0))
    assert vec[1] == 0 and vec[5] == 0 and vec[-2] == 1
    assert vec.total() == 2
    assert vec.zero_residues() == frozenset({1, 3})
    with pytest.raises(ValueError):
        ModularClassVector(3, (1, 0))


def test_amod_examples():
    assert list(amod_by_enumeration(P((2, 2)))) == [1, 0, 1, 0]
    assert list(amod_by_enumeration(P((4,)))) == [1, 0, 0, 0]
    assert list(amod_by_enumeration(P((1,)))) == [1]


def test_chain_count_matches_the_walk():
    # the walk is the brute-force oracle of the chain count
    for n in range(1, 12):
        for lam in partitions_of(n):
            counts = [0] * n
            for _, major in _row_word_stream(lam.parts):
                counts[major % n] += 1
            assert list(amod_by_enumeration(lam)) == counts, lam


def test_chain_count_of_shapes_deeper_than_the_recursion_limit():
    # 1^1000 has maj binom(1000, 2) = 500 mod 1000; (2, 1^998) has
    # binom(1000, 2) - j for j = 1..999, so every residue but 500
    assert list(amod_by_enumeration(P((1000,)))) == [int(r == 0) for r in range(1000)]
    assert list(amod_by_enumeration(P((1,) * 1000))) == [int(r == 500) for r in range(1000)]
    assert list(amod_by_enumeration(P((2,) + (1,) * 998))) == [int(r != 500) for r in range(1000)]


def walk_mismatches(amod):
    # the shapes with n <= 8 where amod differs from the walk's histogram,
    # or raises because no chain reaches the shape
    out = []
    for n in range(1, 9):
        for lam in partitions_of(n):
            counts = [0] * n
            for _, major in _row_word_stream(lam.parts):
                counts[major % n] += 1
            try:
                if list(amod(lam)) != counts:
                    out.append(lam.parts)
            except ValueError:
                out.append(lam.parts)
    return out


def mutated_amod(old, new):
    # amod_by_enumeration's own source with one expression replaced
    source = textwrap.dedent(inspect.getsource(tableaux.amod_by_enumeration))
    assert source.count(old) == 1
    namespace = dict(vars(tableaux))
    exec(source.replace(old, new), namespace)
    return namespace["amod_by_enumeration"]


@pytest.mark.parametrize(
    "old,new",
    [("r > last", "r >= last"), ("> parts[r]", ">= parts[r]")],
    ids=["descent-on-the-same-row", "box-one-cell-short"],
)
def test_chain_count_oracle_finds_planted_fault(old, new):
    assert walk_mismatches(amod_by_enumeration) == []
    assert walk_mismatches(mutated_amod(old, new))


def test_slot_width_keeps_f_below_the_top_bit():
    # No count of the lattice count exceeds f, so f below the top bit of a
    # slot means no slot carries.  The test reads hooks; the route does not.
    tall = [P((1,) * 1000), P((2,) + (1,) * 998), P((25,) + (1,) * 975)]
    for lam in [*(lam for n in range(1, 21) for lam in partitions_of(n)), *tall]:
        assert dimension(lam) < 1 << (tableaux._slot_width(lam) - 1), lam


def test_slots_one_bit_too_narrow_raise(monkeypatch):
    # A width one bit short of 1 + the bit length of the largest count
    # leaves that count on the top bit of its slot, or carried past it.
    for lam in (P((5,)), P((3, 2, 1)), P((5, 4, 3)), P((4, 4, 4, 3)), P((2,) + (1,) * 98)):
        narrow = max(amod_by_enumeration(lam)).bit_length()
        monkeypatch.setattr(tableaux, "_slot_width", lambda _: narrow)
        with pytest.raises(ArithmeticError, match=f"does not fit its {narrow}-bit slot"):
            amod_by_enumeration(lam)
        monkeypatch.undo()


def test_amod_budget_guard():
    with pytest.raises(EnumerationBudgetExceeded):
        amod_by_enumeration(P((5, 4, 3)), budget=10)


def test_budget_counts_subshapes_not_tableaux():
    # (5,4,3) has 48 subshapes and 2,112 tableaux: a budget of 48 is enough
    lam = P((5, 4, 3))
    assert subshape_count(lam.parts) == 48
    assert amod_by_enumeration(lam, budget=48) == amod_by_qhook(lam)
    with pytest.raises(EnumerationBudgetExceeded, match="48 subshapes, above the budget of 47"):
        amod_by_enumeration(lam, budget=47)
    # 341,429,088 tableaux, within the default budget of subshapes
    big = P((7, 6, 5, 4))
    assert subshape_count(big.parts) <= DEFAULT_ENUMERATION_BUDGET
    assert amod_by_enumeration(big) == amod_by_qhook(big)


def test_amod_totals_are_dimensions():
    for n in range(1, 11):
        for lam in partitions_of(n):
            vec = amod_by_enumeration(lam)
            assert vec.total() == dimension(lam), lam


def test_gcd_law():
    # counts depend on the residue only through gcd(n, r)
    for n in range(1, 11):
        for lam in partitions_of(n):
            vec = amod_by_enumeration(lam)
            for r in range(n):
                for s in range(n):
                    if math.gcd(n, r) == math.gcd(n, s):
                        assert vec[r] == vec[s], (lam, r, s)


def test_transpose_symmetry_of_counts():
    # a_{lam, r} = a_{lam', binom(n, 2) - r mod n}
    for n in range(1, 11):
        shift = math.comb(n, 2)
        for lam in partitions_of(n):
            vec = amod_by_enumeration(lam)
            flipped = amod_by_enumeration(conjugate(lam))
            for r in range(n):
                assert vec[r] == flipped[(shift - r) % n], (lam, r)
