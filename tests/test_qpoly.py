"""Integer polynomial arithmetic and the q-hook route to residue counts."""

import math
import random

import pytest
from hypothesis import given, settings

import modmaj.qpoly
from modmaj import modular
from modmaj.modular import amod_by_character_formula
from modmaj.partitions import Partition, conjugate, dimension, partitions_of
from modmaj.qpoly import (
    POLYNOMIAL_BIT_BUDGET,
    ExactDivisionError,
    IntPolynomial,
    PolynomialBudgetExceeded,
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


def folded(coeffs, n):
    """coeffs folded mod q^n - 1: slot k sums the coefficients at q^j, j = k mod n."""
    slots = [0] * n
    for k, c in enumerate(coeffs):
        slots[k % n] += c
    return tuple(slots)


def test_folded_polynomial_matches_packed_fold():
    for n in range(1, 16):
        for lam in partitions_of(n):
            poly = maj_generating_polynomial(lam)
            assert ModularClassVector(n, folded(poly.coeffs, n)) == amod_by_qhook(lam), lam


def test_conjugate_folds_the_leaders_quotient():
    # lam and lam' share the hook multiset and the degree, so one fold
    # serves both; each rotates it by its own shift b mod n.
    for n in range(1, 26):
        for lam in partitions_of(n):
            conj = conjugate(lam)
            if lam >= conj:
                fold = modmaj.qpoly._cyclotomic_fold(lam)
                assert amod_by_qhook(conj, fold) == amod_by_qhook(conj), lam


def divided_quotient(lam):
    """The unshifted q-hook quotient from one exact long division at X = 2^w: (w, deg, f, coefficients).

    The factors shared by {1..n} and the hook multiset cancel, the rest are
    evaluated at X and multiplied into two integers, and one divmod gives
    the quotient packed as base-X digits.  An integer division can be exact
    when the polynomial division is not, so three checks guard it, each
    raising ExactDivisionError: the remainder is zero, the quotient is below
    X^(deg+1), and the digits sum to f.
    """
    n = lam.n
    counts, f = modmaj.qpoly._hooks(lam)
    # Multiplicity of each length 1, 2, ... among the hooks minus its
    # multiplicity in {1..n} (a hook above n only in a corrupted histogram).
    excess = [c - 1 for c in counts[1 : n + 1]] + [-1] * (n + 1 - len(counts)) + counts[n + 1 :]
    w = f.bit_length() + 1
    deg = modmaj.qpoly._degree(lam, min_major_index(lam))
    numerator = denominator = 1
    for a, e in enumerate(excess, 1):
        if e < 0:
            numerator = (numerator << (w * a)) - numerator
        for _ in range(e):
            denominator = (denominator << (w * a)) - denominator
    value, rem = divmod(numerator, denominator)
    if rem:
        raise ExactDivisionError(f"nonzero remainder in the q-hook quotient for {lam}")
    if value >> (w * (deg + 1)):
        raise ExactDivisionError(f"q-hook quotient exceeds degree {deg} for {lam}")
    return w, deg, f, tuple(modmaj.qpoly._slots(value, w, deg + 1, f))


def test_cyclotomic_fold_matches_the_divisions_fold():
    # The product of the Phi_d(2^w), folded at n slots for the counts and
    # at deg + 1 for the polynomial, against the long division's quotient,
    # for every pair leader.
    for n in range(1, 31):
        for parts in modular._pair_leaders(n):
            lam = P(parts)
            w, deg, f, coeffs = divided_quotient(lam)
            assert modmaj.qpoly._cyclotomic_fold(lam) == (w, deg, f, folded(coeffs, n)), lam
            assert maj_generating_polynomial(lam) == IntPolynomial(coeffs).shifted(min_major_index(lam)), lam


def multiply(p, r):
    out = [0] * (len(p.coeffs) + len(r.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, c in enumerate(r.coeffs):
            out[i + j] += a * c
    return IntPolynomial(out)


def test_cyclotomic_coefficients():
    assert modmaj.qpoly._cyclotomic(1) == (-1, 1)
    assert modmaj.qpoly._cyclotomic(6) == (1, -1, 1)
    assert modmaj.qpoly._cyclotomic(12) == (1, 0, -1, 0, 1)
    # the first cyclotomic polynomial with a coefficient other than 0 and +-1
    assert -2 in modmaj.qpoly._cyclotomic(105)
    for d in range(1, 61):
        # q^d - 1 is the product of Phi_k over k | d
        product = IntPolynomial((1,))
        for k in range(1, d + 1):
            if d % k == 0:
                product = multiply(product, IntPolynomial(modmaj.qpoly._cyclotomic(k)))
        assert product == IntPolynomial((-1,) + (0,) * (d - 1) + (1,)), d


def test_quotient_of_another_degree_is_refused():
    fold = modmaj.qpoly._cyclotomic_fold(P((4,)))  # degree 0; (2, 2) has degree 2
    assert amod_by_qhook(P((1, 1, 1, 1)), fold) == amod_by_qhook(P((1, 1, 1, 1)))
    with pytest.raises(ValueError, match="degree"):
        amod_by_qhook(P((2, 2)), fold)


def test_quotient_of_another_size_is_refused():
    # (4,) and (5,) both have degree 0, but the fold of (4,) is mod q^4 - 1,
    # which has no count for residue 4 mod 5.
    fold = modmaj.qpoly._cyclotomic_fold(P((4,)))
    with pytest.raises(ValueError, match="4 slots"):
        amod_by_qhook(P((5,)), fold)


# The checks the cyclotomic product trips where the long division trips
# another: those two multisets give Phi_d powers whose degrees miss the
# shape's.
PRODUCT_CHECK = {"nonzero remainder": "factors of degree 3, not 2", "exceeds degree": "factors of degree 3, not 0"}


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
    # the long division (the test oracle) and one of the cyclotomic product
    # (the counts and the polynomial alike); the digit-sum case divides
    # exactly as integers but not as polynomials, and its Phi_d powers have
    # the shape's degree
    histogram = [hooks.count(h) for h in range(max(hooks) + 1)]
    monkeypatch.setattr(modmaj.qpoly, "hook_histogram", lambda lam: list(histogram))
    with pytest.raises(ExactDivisionError, match=check):
        divided_quotient(P(parts))
    for route in (amod_by_qhook, maj_generating_polynomial):
        with pytest.raises(ExactDivisionError, match=PRODUCT_CHECK.get(check, check)):
            route(P(parts))


def test_negative_cyclotomic_power_is_caught(monkeypatch):
    # The quotient of (3, 1) is Phi_3: e_1 = e_2 = 0.  Phi_1 up by one and
    # Phi_2 down by one (both of degree 1) keep the degree, and leave a
    # negative power of Phi_2.
    original = modmaj.qpoly._cyclotomic_exponents

    def shifted(n, counts):
        exps = original(n, counts)
        exps[1] += 1
        exps[2] -= 1
        return exps

    assert original(4, modmaj.qpoly.hook_histogram(P((3, 1)))) == [0, 0, 0, 1, 0]
    monkeypatch.setattr(modmaj.qpoly, "_cyclotomic_exponents", shifted)
    with pytest.raises(ExactDivisionError, match="Phi_2 more often"):
        amod_by_qhook(P((3, 1)))


PLANTED_SHAPES = [(4, 2, 1), (6, 4, 2), (5, 5, 3, 1), (9, 3, 3, 2, 1, 1), (12,), (1,) * 8]


@pytest.mark.parametrize("parts", PLANTED_SHAPES)
def test_exponent_off_by_one_is_caught_by_the_degree(monkeypatch, parts):
    # e_d + 1 and e_d - 1 at each d change the degree by phi(d) >= 1
    lam = P(parts)
    original = modmaj.qpoly._cyclotomic_exponents
    size = len(original(lam.n, modmaj.qpoly.hook_histogram(lam)))
    for d in range(1, size):
        for step in (1, -1):

            def planted(n, counts):
                exps = original(n, counts)
                exps[d] += step
                return exps

            monkeypatch.setattr(modmaj.qpoly, "_cyclotomic_exponents", planted)
            with pytest.raises(ExactDivisionError, match="cyclotomic factors of degree"):
                amod_by_qhook(lam)
    monkeypatch.undo()
    assert amod_by_qhook(lam) == amod_by_character_formula(lam)


@pytest.mark.parametrize("parts", PLANTED_SHAPES)
def test_wrong_cyclotomic_value_is_caught(monkeypatch, parts):
    # one Phi_d(2^w) with its coefficient of q^0 or of q^1 off by one fails
    # the digit sum or the independent formula route
    lam = P(parts)
    original = modmaj.qpoly._cyclotomic_value
    exps = modmaj.qpoly._cyclotomic_exponents(lam.n, modmaj.qpoly.hook_histogram(lam))
    expected = amod_by_character_formula(lam)
    for d in (d for d, e in enumerate(exps) if e):
        for error in (1, -1, "X", "-X"):

            def planted(k, w):
                value = original(k, w)
                if k == d:
                    value += {"X": 1 << w, "-X": -(1 << w)}.get(error, error)
                return value

            monkeypatch.setattr(modmaj.qpoly, "_cyclotomic_value", planted)
            try:
                counts = amod_by_qhook(lam)
            except ExactDivisionError as exc:
                assert "digits sum" in str(exc)
            else:
                assert counts != expected, (d, error)
    monkeypatch.undo()
    assert amod_by_qhook(lam) == expected


def test_cyclotomic_value_is_phi_d_at_a_power_of_two():
    for d in range(1, 61):
        for w in (1, 2, 3, 17, 64):
            assert modmaj.qpoly._cyclotomic_value(d, w) == IntPolynomial(modmaj.qpoly._cyclotomic(d)).evaluate(1 << w)


@pytest.mark.parametrize("parts", PLANTED_SHAPES)
def test_fold_asks_only_for_the_factors_it_uses(monkeypatch, parts):
    lam = P(parts)
    original = modmaj.qpoly._cyclotomic_value
    asked = []

    def recording(d, w):
        asked.append((d, w))
        return original(d, w)

    monkeypatch.setattr(modmaj.qpoly, "_cyclotomic_value", recording)
    w = modmaj.qpoly._cyclotomic_fold(lam)[0]
    exps = modmaj.qpoly._cyclotomic_exponents(lam.n, modmaj.qpoly.hook_histogram(lam))
    assert asked == [(d, w) for d, e in enumerate(exps) if e]


def plain_slots(value, w, count):
    """The first count w-bit digits of value, one shift of the whole int per digit."""
    digits = []
    for _ in range(count):
        digits.append(value & ((1 << w) - 1))
        value >>= w
    return digits


def test_slots_read_in_halves_match_the_plain_loop():
    rng = random.Random(35)
    for w in (1, 2, 5, 17, 64):
        for count in range(1, 301):
            value = rng.getrandbits(w * count + 7)  # bits past the last digit are ignored
            digits = plain_slots(value, w, count)
            assert modmaj.qpoly._slots(value, w, count, sum(digits)) == digits, (w, count)
            with pytest.raises(ExactDivisionError, match="digits sum"):
                modmaj.qpoly._slots(value, w, count, sum(digits) + 1)


def test_empty_shape_is_rejected():
    with pytest.raises(ValueError):
        amod_by_qhook(P(()))
    with pytest.raises(ValueError):
        maj_generating_polynomial(P(()))


def polynomial_bits(lam):
    """(deg + 1) * w, the size of lam's packed generating polynomial."""
    _, f = modmaj.qpoly._hooks(lam)
    return (modmaj.qpoly._degree(lam, min_major_index(lam)) + 1) * (f.bit_length() + 1)


def test_polynomial_past_its_budget_is_refused_and_counts_are_not(monkeypatch):
    lam = P((4, 2, 1))
    monkeypatch.setattr(modmaj.qpoly, "POLYNOMIAL_BIT_BUDGET", polynomial_bits(lam))
    assert maj_generating_polynomial(lam).evaluate(1) == dimension(lam)
    monkeypatch.setattr(modmaj.qpoly, "POLYNOMIAL_BIT_BUDGET", polynomial_bits(lam) - 1)
    with pytest.raises(PolynomialBudgetExceeded, match="budget"):
        maj_generating_polynomial(lam)
    # the residue counts come from the cyclotomic product, which has no budget
    assert amod_by_qhook(lam) == amod_by_enumeration(lam)


def test_gate_and_demo_shapes_stay_under_the_polynomial_budget():
    # The acceptance gate runs the q-hook route for n <= 25; the demos draw
    # the polynomial of small shapes and name shapes of at most 33 cells.
    demo_shapes = [P((3, 2)), P((8, 7, 6, 5, 4, 2, 1)), P((5, 4, 3)), P((4, 3, 1))]
    gate_shapes = [lam for n in range(1, 26) for lam in partitions_of(n)]
    worst = max(gate_shapes + demo_shapes, key=polynomial_bits)
    assert polynomial_bits(worst) <= POLYNOMIAL_BIT_BUDGET
    assert maj_generating_polynomial(worst).evaluate(1) == dimension(worst)


@settings(max_examples=40, deadline=None)
@given(shapes(40, 60))
def test_qhook_matches_formula_beyond_the_gate(lam):
    counts = amod_by_qhook(lam)
    expected = amod_by_character_formula(lam)
    assert counts == expected
    assert counts.total() == dimension(lam)
    poly = maj_generating_polynomial(lam)
    assert poly.evaluate(1) == dimension(lam)
    assert ModularClassVector(lam.n, folded(poly.coeffs, lam.n)) == expected
