"""Integer polynomial arithmetic and the q-hook route to residue counts."""

import math

import pytest
from hypothesis import given, settings

import modmaj.qpoly
from modmaj.modular import amod_by_character_formula
from modmaj.partitions import Partition, conjugate, dimension, partitions_of
from modmaj.qpoly import (
    ExactDivisionError,
    IntPolynomial,
    amod_by_qhook,
    maj_generating_polynomial,
    min_major_index,
)
from modmaj.tableaux import ModularClassVector, amod_by_enumeration, enumerate_syt, maj
from random_shapes import shapes

P = Partition

def test_text_form():
    assert IntPolynomial(()).to_text() == "0"
    assert IntPolynomial((0, 0, 1, 0, 1)).to_text() == "q^2 + q^4"
    assert IntPolynomial((1, 2, 0, -3)).to_text() == "1 + 2*q - 3*q^3"
    assert IntPolynomial((1, 1, 1)).to_text() == "1 + q + q^2"


def test_min_major_index():
    assert min_major_index(P((2, 2))) == 2
    assert min_major_index(P((1, 1, 1, 1))) == 6
    assert min_major_index(P((5,))) == 0


@pytest.mark.parametrize(
    "parts,expected",
    [
        ((4, 1), (0, 1, 1, 1, 1)),
        ((1, 1, 1, 1), (0, 0, 0, 0, 0, 0, 1)),
        ((2, 2), (0, 0, 1, 0, 1)),
    ],
)
def test_maj_generating_examples(parts, expected):
    assert maj_generating_polynomial(P(parts)) == IntPolynomial(expected)


def test_generating_polynomial_is_maj_histogram():
    for n in range(1, 9):
        for lam in partitions_of(n):
            histogram = {}
            for tab in enumerate_syt(lam):
                value = maj(tab)
                histogram[value] = histogram.get(value, 0) + 1
            poly = maj_generating_polynomial(lam)
            coeffs = {i: c for i, c in enumerate(poly.coeffs) if c}
            assert coeffs == histogram, lam


def test_wrong_descent_convention_would_fail():
    # reading descents in the other direction gives maj multiset {0, 2}
    # on shape (2,1); the generating polynomial pins {1, 2}
    assert maj_generating_polynomial(P((2, 1))) == IntPolynomial((0, 1, 1))


def test_value_at_one_is_dimension():
    for n in range(1, 21):
        for lam in partitions_of(n):
            assert maj_generating_polynomial(lam).evaluate(1) == dimension(lam), lam


def test_degree_bound_and_symmetry():
    for n in range(1, 13):
        shift = math.comb(n, 2)
        for lam in partitions_of(n):
            poly = maj_generating_polynomial(lam)
            assert poly.degree <= shift
            # coefficient symmetry under conjugation: b_i <-> b_{binom - i}
            flipped = maj_generating_polynomial(conjugate(lam))
            for i in range(shift + 1):
                assert poly[i] == flipped[shift - i], (lam, i)


def test_amod_examples():
    assert list(amod_by_qhook(P((2, 2)))) == [1, 0, 1, 0]
    assert list(amod_by_qhook(P((2, 1, 1)))) == [1, 1, 0, 1]
    assert list(amod_by_qhook(P((1,)))) == [1]


def test_amod_matches_enumeration():
    for n in range(1, 10):
        for lam in partitions_of(n):
            assert amod_by_qhook(lam) == amod_by_enumeration(lam), lam


def test_folded_polynomial_matches_packed_fold():
    for n in range(1, 16):
        for lam in partitions_of(n):
            folded = [0] * n
            for k, c in enumerate(maj_generating_polynomial(lam).coeffs):
                folded[k % n] += c
            assert ModularClassVector(n, folded) == amod_by_qhook(lam), lam


def test_conjugate_folds_the_leaders_quotient():
    # lam and lam' share the hook multiset and the degree, so one quotient
    # serves both; each folds it with its own shift b mod n.
    for n in range(1, 26):
        for lam in partitions_of(n):
            conj = conjugate(lam)
            if lam >= conj:
                quotient = modmaj.qpoly._packed_quotient(lam)
                assert amod_by_qhook(conj, quotient) == amod_by_qhook(conj), lam


def test_quotient_of_another_degree_is_refused():
    quotient = modmaj.qpoly._packed_quotient(P((4,)))  # degree 0; (2, 2) has degree 2
    assert amod_by_qhook(P((1, 1, 1, 1)), quotient) == amod_by_qhook(P((1, 1, 1, 1)))
    with pytest.raises(ValueError, match="degree"):
        amod_by_qhook(P((2, 2)), quotient)
    with pytest.raises(ValueError, match="degree"):
        maj_generating_polynomial(P((2, 2)), quotient)


def test_quotient_of_another_size_is_refused():
    # (4,) and (5,) both have degree 0, but the quotient of (4,) carries a
    # fold mod q^4 - 1, which has no count for residue 4 mod 5.
    quotient = modmaj.qpoly._packed_quotient(P((4,)))
    with pytest.raises(ValueError, match="4 slots"):
        amod_by_qhook(P((5,)), quotient)
    with pytest.raises(ValueError, match="4 slots"):
        maj_generating_polynomial(P((5,)), quotient)


@pytest.mark.parametrize(
    "parts,hooks,check",
    [
        ((3, 1), (1, 2, 2, 2), "nonzero remainder"),
        ((3,), (1, 1, 1), "exceeds degree"),
        ((5, 1), (2, 2, 2, 3, 3, 5), "digits sum"),
        ((3,), (1, 2, 2), "does not divide"),
    ],
)
def test_corrupted_hooks_are_caught(monkeypatch, parts, hooks, check):
    # each multiset, given as its histogram, trips one integrity check of
    # the packed quotient; the digit-sum case divides exactly as integers
    # but not as polynomials
    histogram = [hooks.count(h) for h in range(max(hooks) + 1)]
    monkeypatch.setattr(modmaj.qpoly, "hook_histogram", lambda lam: list(histogram))
    with pytest.raises(ExactDivisionError, match=check):
        amod_by_qhook(P(parts))
    with pytest.raises(ExactDivisionError, match=check):
        maj_generating_polynomial(P(parts))


def test_empty_shape_is_rejected():
    with pytest.raises(ValueError):
        amod_by_qhook(P(()))
    with pytest.raises(ValueError):
        maj_generating_polynomial(P(()))


@settings(max_examples=40, deadline=None)
@given(shapes(40, 60))
def test_qhook_matches_formula_beyond_the_gate(lam):
    counts = amod_by_qhook(lam)
    assert counts == amod_by_character_formula(lam)
    assert counts.total() == dimension(lam)
