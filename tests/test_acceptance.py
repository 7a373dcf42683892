"""Acceptance gate: the eight exit criteria, one pass/fail line each.

Every criterion runs at its stated range with exact comparisons (the one
logarithmic bound carries its stated 1e-9 slack).  Residue-count vectors
for shapes up to size 25 are computed once via the q-hook route and shared
by criteria 1, 3 and 4.  Criteria 6, 7 (its fiber and ribbon-step laws)
and 8 run the checks of ``modmaj verify`` from ``VERIFY_CHECKS``, so the
gate tests the code the command ships.  The three parallel criteria use one
worker pool each: criterion 1 through ``verify_main_theorem``, criteria 6
and 7 (its fiber and ribbon-step laws) through ``sweep_pool``.
"""

import math
import time

import pytest

from modmaj.characters import mn_character, rect_character
from modmaj.modular import (
    VERIFY_CHECKS,
    amod_by_character_formula,
    small_dimension_census,
    sweep_pool,
    verify_main_theorem,
    zero_residues,
)
from modmaj.numtheory import divisors
from modmaj.partitions import (
    DiagOrder,
    Partition,
    capped_excess,
    conjugate,
    diag_compare,
    diagonal_fibers,
    ell_core,
    hook_lengths,
    opposite_hook_lengths,
    partitions_of,
    staircase_peak,
)
from modmaj.qpoly import amod_by_qhook
from modmaj.tableaux import amod_by_enumeration

P = Partition


def report(number: int, description: str, ok: bool) -> None:
    print(f"[criterion {number}] {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def qhook_vectors():
    vectors = {}
    for n in range(1, 26):
        for lam in partitions_of(n):
            vectors[lam] = amod_by_qhook(lam)
    return vectors


def test_criterion_1_classification(qhook_vectors):
    started = time.time()
    verified = verify_main_theorem(25, jobs=2)
    elapsed = time.time() - started
    mismatches = [
        lam for lam, vec in qhook_vectors.items()
        if vec.zero_residues() != zero_residues(lam)
    ]
    ok = verified.ok and not mismatches and elapsed < 120
    report(1, f"zero classification for n <= 25 ({elapsed:.1f}s)", ok)


def test_criterion_2_small_dimension_census():
    started = time.time()
    census = small_dimension_census(33)
    total = sum(census.values())
    elapsed = time.time() - started
    ok = total == 688 and elapsed < 300
    report(2, f"688 shapes with dimension below n^3 for n <= 33 (got {total}, {elapsed:.1f}s)", ok)


def test_criterion_3_three_method_agreement(qhook_vectors):
    agree = True
    for n in range(1, 16):
        shift = math.comb(n, 2)
        for lam in partitions_of(n):
            vec = qhook_vectors[lam]
            flipped = qhook_vectors[conjugate(lam)]
            agree &= amod_by_enumeration(lam) == vec
            agree &= amod_by_character_formula(lam) == vec
            for r in range(n):
                agree &= vec[r] == vec[math.gcd(n, r) % n]
                agree &= vec[r] == flipped[(shift - r) % n]
    report(3, "enumeration = q-hook = formula for n <= 15, with gcd and transpose laws", agree)


def test_criterion_4_residue_zero_case(qhook_vectors):
    ok = True
    for n in range(1, 26):
        expected = set()
        if n > 1:
            expected.add((n - 1, 1))
            if n % 2:
                expected.add((2,) + (1,) * (n - 2))
            else:
                expected.add((1,) * n)
        zero_shapes = {
            lam.parts for lam in partitions_of(n) if qhook_vectors[lam][0] == 0
        }
        ok &= zero_shapes == expected
    report(4, "residue-0 vanishing shapes for n <= 25", ok)


def test_criterion_5_character_routes_and_equivalences():
    ok = True
    for n in range(1, 19):
        for lam in partitions_of(n):
            hooks = hook_lengths(lam)
            for ell in divisors(n):
                s = n // ell
                chi = rect_character(lam, ell)
                ok &= chi == mn_character(lam, P((ell,) * s))
                if ell == 1:
                    continue
                conditions = [
                    chi != 0,
                    not ell_core(lam, ell),
                    sum(1 for h in hooks if h % ell == 0) == s,
                    all(
                        sum(1 for h in hooks if h % ell in {a, (-a) % ell})
                        == s * len({a % ell, (-a) % ell})
                        for a in range(ell)
                    ),
                ]
                ok &= len(set(conditions)) == 1
    report(5, "hook-quotient character equals rim-hook recursion for n <= 18, with the nonvanishing equivalences", ok)


def verify_mismatches(name: str, n_max: int, pool_map=map) -> list[dict]:
    return [m for entry in VERIFY_CHECKS[name](range(1, n_max + 1), pool_map) for m in entry["mismatches"]]


def test_criterion_6_bound_suites():
    with sweep_pool(2) as pool_map:
        mismatches = verify_mismatches("bounds", 25, pool_map)
    report(6, f"inequality suites hold exactly, log form included (n <= 25; {len(mismatches)} violations)", not mismatches)


def test_criterion_7_structural_laws():
    ok = True
    for n in range(1, 26):
        for lam in partitions_of(n):
            hooks = hook_lengths(lam)
            opposite = opposite_hook_lengths(lam)
            hook_product = math.prod(hooks)
            opposite_product = math.prod(opposite)
            ok &= opposite_product >= hook_product
            ok &= (opposite_product == hook_product) == (len(set(lam.parts)) == 1)
            fibers = diagonal_fibers(lam)
            peak = staircase_peak(lam)
            ok &= fibers[:peak] == tuple(range(1, peak + 1))
            tail = (peak,) + fibers[peak:]
            ok &= all(x >= y for x, y in zip(tail, tail[1:]))
            if n <= 20:
                cap = capped_excess(lam)
                hook_shape = P((n - cap,) + (1,) * cap)
                ok &= diag_compare(lam, hook_shape) in (
                    DiagOrder.LESS_OR_EQUAL,
                    DiagOrder.EQUIVALENT,
                )
    with sweep_pool(2) as pool_map:
        ok &= not verify_mismatches("fiber-laws", 20, pool_map)
    report(7, "hook-product and fiber-profile laws (n <= 25), diagonal order, hook-fiber and ribbon-step laws (n <= 20)", ok)


def test_criterion_8_ramanujan_identities():
    mismatches = verify_mismatches("ramanujan", 60)
    report(8, f"Ramanujan sum two-formula agreement and matrix identity (n <= 60; {len(mismatches)} mismatches)", not mismatches)
