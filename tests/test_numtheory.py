"""Moebius/totient/divisor basics and the two Ramanujan-sum routes."""

import math

import pytest
from hypothesis import given, strategies as st

from modmaj.numtheory import (
    divisors,
    moebius,
    multiples_table,
    ramanujan_matrix,
    ramanujan_matrix_square,
    ramanujan_sum,
    ramanujan_sum_oracle,
    totient,
    totient_table,
)


@pytest.mark.parametrize("m,expected", [(1, 1), (2, -1), (4, 0), (6, 1), (30, -1), (12, 0)])
def test_moebius_values(m, expected):
    assert moebius(m) == expected


def test_moebius_multiplicative():
    for a in range(1, 40):
        for b in range(1, 40):
            if math.gcd(a, b) == 1:
                assert moebius(a * b) == moebius(a) * moebius(b)


@pytest.mark.parametrize("m,expected", [(1, 1), (2, 1), (12, 4)])
def test_totient_values(m, expected):
    assert totient(m) == expected


def test_totient_against_gcd_count():
    for m in range(1, 200):
        assert totient(m) == sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


@pytest.mark.parametrize(
    "n,expected",
    [(1, [1]), (6, [1, 2, 3, 6]), (16, [1, 2, 4, 8, 16]), (36, [1, 2, 3, 4, 6, 9, 12, 18, 36])],
)
def test_divisors(n, expected):
    assert divisors(n) == expected


@pytest.mark.parametrize("bad", [moebius, totient, divisors])
def test_zero_rejected(bad):
    with pytest.raises(ValueError):
        bad(0)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: totient_table(0), "totient_table requires n >= 1, got 0"),
        (lambda: multiples_table(0), "multiples_table requires n >= 1, got 0"),
        (lambda: multiples_table(-3), "multiples_table requires n >= 1, got -3"),
        (lambda: ramanujan_sum(0, 1), "ramanujan_sum requires j >= 1, got 0"),
        (lambda: ramanujan_sum_oracle(0, 1), "ramanujan_sum_oracle requires j >= 1, got 0"),
        (lambda: ramanujan_matrix(0), "ramanujan_matrix requires n >= 1, got 0"),
        (lambda: ramanujan_matrix_square(0), "ramanujan_matrix_square requires n >= 1, got 0"),
    ],
    ids=[
        "totient-table-0",
        "multiples-table-0",
        "multiples-table-negative",
        "ramanujan-sum-0",
        "ramanujan-sum-oracle-0",
        "ramanujan-matrix-0",
        "ramanujan-matrix-square-0",
    ],
)
def test_refusal_names_the_function_and_the_value(call, message):
    # the message is the function's own, not that of a helper it calls
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_ramanujan_examples():
    assert ramanujan_sum(4, 2) == -2
    assert ramanujan_sum_oracle(4, 2) == -2
    assert all(ramanujan_sum(1, r) == 1 for r in range(-5, 6))
    assert ramanujan_sum(6, 0) == 2 == totient(6)
    assert ramanujan_sum_oracle(5, 1) == -1
    for j in range(1, 51):
        assert ramanujan_sum_oracle(j, j) == totient(j)


def test_two_formulas_agree():
    for j in range(1, 61):
        for s in range(-2 * j, 2 * j + 1):
            assert ramanujan_sum(j, s) == ramanujan_sum_oracle(j, s), (j, s)


def test_totient_table_matches_totient():
    for n in range(1, 61):
        table = totient_table(n)
        assert list(table) == divisors(n)
        assert all(table[ell] == totient(ell) for ell in table), n
        assert totient_table(n) is table
        with pytest.raises(TypeError):
            table[1] = 0


def test_multiples_table_matches_factorials():
    for n in range(1, 61):
        table = multiples_table(n)
        assert list(table) == divisors(n)
        assert table[1] == (math.factorial(n), math.factorial(n))
        for ell, (m, power) in table.items():
            s = n // ell
            assert m == math.prod(ell * k for k in range(1, s + 1)) == ell**s * math.factorial(s), (n, ell)
            assert power == math.factorial(s) ** ell * ell ** (s * ell), (n, ell)
        assert multiples_table(n) is table
        with pytest.raises(TypeError):
            table[1] = (0, 0)


def test_depends_only_on_gcd():
    for j in range(1, 40):
        for s in range(-j, 2 * j):
            assert ramanujan_sum(j, s) == ramanujan_sum(j, math.gcd(j, s))


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=-10**9, max_value=10**9))
def test_ramanujan_properties(j, s):
    value = ramanujan_sum(j, s)
    assert value == ramanujan_sum(j, s % j)
    assert abs(value) <= totient(j)


def test_matrix_square_is_n_times_identity():
    for n in range(1, 61):
        square = ramanujan_matrix_square(n)
        k = len(divisors(n))
        assert len(square) == k
        for i in range(k):
            for j in range(k):
                assert square[i][j] == (n if i == j else 0), (n, i, j)


def test_matrix_entries():
    # rows are indexed by s | n, columns by r | n, entry c_{n/r}(s)
    c = ramanujan_matrix(6)
    divs = divisors(6)
    for i, s in enumerate(divs):
        for j, r in enumerate(divs):
            assert c[i][j] == ramanujan_sum(6 // r, s)
