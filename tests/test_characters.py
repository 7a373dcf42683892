"""Character values: rim-hook recursion vs the rectangular fast path."""

import inspect
import math
import textwrap
from collections import Counter

import pytest
from hypothesis import given, settings

from modmaj import characters
from modmaj.characters import (
    mn_character,
    rect_character,
    rect_character_sign,
    rect_characters,
)
from modmaj.numtheory import divisors, ramanujan_sum
from modmaj.partitions import (
    Partition,
    beta_numbers,
    dimension,
    ell_core,
    hook_lengths,
    partitions_of,
    removable_ribbons,
    subshape_count,
)
from modmaj.qpoly import amod_by_qhook
from random_shapes import shapes

P = Partition


def rectangular(ell, s):
    return P((ell,) * s)


def test_mn_examples():
    assert mn_character(P((2, 2)), P((1, 1, 1, 1))) == 2
    assert mn_character(P((2, 2)), P((2, 2))) == 2
    for mu in partitions_of(5):
        assert mn_character(P((5,)), mu) == 1
    assert mn_character(P(()), P(())) == 1
    with pytest.raises(ValueError):
        mn_character(P((2, 2)), P((3,)))


def test_mn_at_identity_is_dimension():
    for n in range(1, 11):
        identity = P((1,) * n)
        for lam in partitions_of(n):
            assert mn_character(lam, identity) == dimension(lam), lam


def test_mn_sign_representation():
    # the column shape carries the sign character
    for n in range(1, 9):
        column = P((1,) * n)
        for mu in partitions_of(n):
            sign = (-1) ** (n - len(mu.parts))
            assert mn_character(column, mu) == sign, mu


def test_mn_takes_cycle_types_up_to_the_limit():
    limit = characters.MAX_CYCLE_PARTS
    lam = P((limit - 2, 2))
    assert mn_character(lam, P((1,) * limit)) == dimension(lam)
    assert mn_character(P((1,) * (2 * limit)), P((2,) * limit)) == 1
    with pytest.raises(ValueError, match="MAX_CYCLE_PARTS"):
        mn_character(P((limit + 1,)), P((1,) * (limit + 1)))


def plain_mn(lam, cycles):
    """The rim-hook recursion with no memo, stepping with ``removable_ribbons``."""
    if not cycles:
        return 1
    return sum(
        (-1) ** step.height * plain_mn(step.shape, cycles[1:])
        for step in removable_ribbons(lam, cycles[0])
    )


def test_mn_equals_plain_recursion():
    # plain_mn steps with removable_ribbons, that is with the _removals step
    # _mn takes, which test_partitions pins against brute force; so this
    # checks the memo and the signs.
    # Any order of the cycles gives the character, so the plain recursion
    # takes the smallest first where mn_character takes the largest.
    for n in range(1, 10):
        shapes = list(partitions_of(n))
        for lam in shapes:
            for mu in shapes:
                assert mn_character(lam, mu) == plain_mn(lam, mu.parts[::-1]), (lam, mu)


def test_mn_row_orthogonality():
    # sum over classes of (class size) chi^lam chi^nu is n! [lam = nu];
    # the class of mu has n! / z_mu elements
    for n in range(1, 11):
        order = math.factorial(n)
        shapes = list(partitions_of(n))
        sizes = [
            order // math.prod(part**m * math.factorial(m) for part, m in Counter(mu.parts).items())
            for mu in shapes
        ]
        assert sum(sizes) == order
        rows = {lam: [mn_character(lam, mu) for mu in shapes] for lam in shapes}
        for lam in shapes:
            for nu in shapes:
                inner = sum(c * a * b for c, a, b in zip(sizes, rows[lam], rows[nu]))
                assert inner == (order if lam == nu else 0), (lam, nu)


def test_mn_memo_has_one_entry_per_pair():
    # The top pair (lam, mu) is not memoized; below it there is one entry
    # per (sigma, nu) with sigma, nu |- k, where nu is what follows mu's
    # first part: for |mu| <= 8 those nu are the partitions of k with
    # nu_1 <= 8 - k, k < 8 (k = 0 is the empty pair).  A key that kept the
    # beads of rows of length 0 would give one shape several keys, and more
    # entries with the same values.
    characters._mn.cache_clear()
    for n in range(1, 9):
        shapes = list(partitions_of(n))
        for lam in shapes:
            for mu in shapes:
                mn_character(lam, mu)
    expected = sum(
        sum(1 for _ in partitions_of(k))
        * sum(1 for nu in partitions_of(k) if not nu.parts or nu.parts[0] <= 8 - k)
        for k in range(8)
    )
    assert characters._mn.cache_info().currsize == expected == 134
    # one query fills at most one entry per subshape, and at the identity
    # every subshape but lam itself
    characters._mn.cache_clear()
    assert mn_character(P((4, 4, 4, 3)), P((1,) * 15)) == dimension(P((4, 4, 4, 3)))
    assert characters._mn.cache_info().currsize == subshape_count((4, 4, 4, 3)) - 1


def test_mn_character_checks_and_the_empty_shape():
    assert mn_character(P(()), P(())) == 1
    limit = characters.MAX_CYCLE_PARTS
    for lam, mu, message in (
        (P((2, 2)), P((3,)), r"size mismatch: \|2,2\| = 4 but \|3\| = 3"),
        (
            P((limit + 1,)),
            P((1,) * (limit + 1)),
            f"cycle type has {limit + 1} parts, more than MAX_CYCLE_PARTS = {limit}",
        ),
    ):
        with pytest.raises(ValueError, match=message):
            mn_character(lam, mu)


def test_mn_refuses_shapes_above_the_subshape_cap(monkeypatch):
    with pytest.raises(ValueError, match="MAX_SUBSHAPES"):
        mn_character(P((20,) * 20), P((1,) * 400))
    # (3,3,3) and (3,3,2) share the box bound C(6, 3) = 20, past a cap of
    # 19, so both are counted: 20 subshapes and 19
    monkeypatch.setattr(characters, "MAX_SUBSHAPES", 19)
    assert mn_character(P((3, 3, 2)), P((1,) * 8)) == dimension(P((3, 3, 2)))
    with pytest.raises(ValueError, match="3,3,3 has 20 subshapes, more than MAX_SUBSHAPES = 19"):
        mn_character(P((3, 3, 3)), P((1,) * 9))


def test_rect_magnitude_examples():
    assert abs(rect_character(P((2, 2)), 2)) == 2
    assert abs(rect_character(P((3, 1, 1, 1)), 2)) == 2
    # (2,2) is its own 4-core, so the character at the full cycle vanishes
    assert abs(rect_character(P((2, 2)), 4)) == 0
    with pytest.raises(ValueError):
        rect_character(P((2, 2)), 3)


def test_rect_sign_examples():
    assert rect_character_sign(P((2, 2)), 2) == 1
    assert rect_character_sign(P((1, 1)), 2) == -1
    assert rect_character_sign(P((4,)), 4) == 1
    with pytest.raises(ValueError):
        rect_character_sign(P((2, 1)), 2)  # nonempty 2-core


def test_inexact_hook_quotient_is_caught(monkeypatch):
    # (2,2) at ell = 2: multiples 2 * 4 over hooks 2 * 2; a hook of 6 in
    # place of a 2 leaves a remainder, which must raise, not round, on
    # both entry points
    monkeypatch.setattr(characters, "hook_histogram", lambda lam: [0, 2, 1, 0, 0, 0, 1])
    with pytest.raises(ArithmeticError, match="hook quotient"):
        rect_character(P((2, 2)), 2)
    with pytest.raises(ArithmeticError, match="hook quotient"):
        rect_characters(P((2, 2)))


def test_rect_character_examples():
    assert rect_character(P((2, 2)), 2) == 2
    # (2,1) is a single 3-ribbon spanning two rows: chi = -1, empty 3-core
    assert rect_character(P((2, 1)), 3) == -1
    assert ell_core(P((2, 1)), 3) == P(())
    for lam in partitions_of(6):
        assert rect_character(lam, 1) == dimension(lam)


def assert_all_divisors_agree(lam):
    # rect_characters is rect_character at every ell | n, in divisors
    # order, with f as its ell = 1 entry
    chis = rect_characters(lam)
    assert list(chis.items()) == [(ell, rect_character(lam, ell)) for ell in divisors(lam.n)], lam
    assert chis[1] == dimension(lam), lam


def test_rect_equals_mn_small():
    for n in range(1, 15):
        for lam in partitions_of(n):
            for ell in divisors(n):
                expected = mn_character(lam, rectangular(ell, n // ell))
                assert rect_character(lam, ell) == expected, (lam, ell)
            assert_all_divisors_agree(lam)


def assert_abacus_matches_greedy(lam, ell):
    # rect_character reads core emptiness and the sign off the abacus;
    # the greedy removal must give the same sign in either order
    chi = rect_character(lam, ell)
    assert (chi == 0) == bool(ell_core(lam, ell)), (lam, ell)
    if chi:
        first = rect_character_sign(lam, ell, order="first")
        last = rect_character_sign(lam, ell, order="last")
        assert first == last == (1 if chi > 0 else -1), (lam, ell)


def test_greedy_sign_order_independent():
    for n in range(1, 19):
        for lam in partitions_of(n):
            for ell in divisors(n):
                assert_abacus_matches_greedy(lam, ell)


@settings(max_examples=40, deadline=None)
@given(shapes(40, 60))
def test_abacus_sign_matches_greedy_beyond_the_gate(lam):
    for ell in divisors(lam.n):
        assert_abacus_matches_greedy(lam, ell)
    assert_all_divisors_agree(lam)


def sign_mismatches(abacus_sign):
    # (shape, ell) for n <= 12 and ell | n, ell > 1, where abacus_sign
    # misreads the core or disagrees with the greedy removal's sign
    out = []
    for n in range(1, 13):
        for lam in partitions_of(n):
            betas = beta_numbers(lam)
            for ell in divisors(n)[1:]:
                expected = 0 if ell_core(lam, ell) else rect_character_sign(lam, ell)
                if abacus_sign(betas, ell) != expected:
                    out.append((lam.parts, ell))
    return out


def test_abacus_sign_matches_the_greedy_oracle():
    assert sign_mismatches(characters._abacus_sign) == []


def mutated_abacus_sign(old, new):
    # _abacus_sign's own source with one expression replaced
    source = textwrap.dedent(inspect.getsource(characters._abacus_sign))
    assert source.count(old) == 1
    namespace = dict(vars(characters))
    exec(source.replace(old, new), namespace)
    return namespace["_abacus_sign"]


@pytest.mark.parametrize(
    "old,new",
    [
        ("-1 if reversed_pairs % 2 else 1", "1 if reversed_pairs % 2 else -1"),
        ("(placed & ((1 << slid) - 1))", "(placed >> slid)"),
    ],
    ids=["parity-flipped", "counts-beads-above"],
)
def test_abacus_sign_oracle_finds_planted_fault(old, new):
    assert sign_mismatches(mutated_abacus_sign(old, new))


def test_nonvanishing_equivalences():
    # the five conditions stand or fall together: nonzero character,
    # empty ell-core, exactly n/ell hooks divisible by ell (the ell-weight
    # the fast path reads), a nonzero abacus sign, and the balanced +-a
    # hook residue counts
    for n in range(1, 17):
        for lam in partitions_of(n):
            hooks, betas = hook_lengths(lam), beta_numbers(lam)
            for ell in divisors(n):
                if ell == 1:
                    continue
                s = n // ell
                nonzero = rect_character(lam, ell) != 0
                core_empty = not ell_core(lam, ell)
                count_match = sum(1 for h in hooks if h % ell == 0) == s
                signed = characters._abacus_sign(betas, ell) != 0
                balanced = all(
                    sum(1 for h in hooks if h % ell in {a, (-a) % ell})
                    == s * len({a % ell, (-a) % ell})
                    for a in range(ell)
                )
                assert nonzero == core_empty == count_match == signed == balanced, (lam, ell)


def test_abacus_runs_only_where_the_weight_is_full(monkeypatch):
    # (6,4,2): of the ell | 12 other than 1, only 2 and 4 have 12 / ell hooks
    # divisible by ell, so only they reach the abacus
    lam = P((6, 4, 2))
    hooks = hook_lengths(lam)
    full = [ell for ell in divisors(12)[1:] if sum(1 for h in hooks if h % ell == 0) == 12 // ell]
    assert full == [2, 4]
    walked = []

    def recording(betas, ell):
        walked.append(ell)
        return sign(betas, ell)

    sign = characters._abacus_sign
    monkeypatch.setattr(characters, "_abacus_sign", recording)
    chis = rect_characters(lam)
    assert walked == full
    assert [ell for ell, chi in chis.items() if chi and ell != 1] == full


def test_weight_and_abacus_disagreeing_is_caught(monkeypatch):
    # a full ell-weight with an abacus that finds a nonempty core must raise
    monkeypatch.setattr(characters, "_abacus_sign", lambda betas, ell: 0)
    with pytest.raises(ArithmeticError, match="nonempty 2-core"):
        rect_character(P((2, 2)), 2)
    with pytest.raises(ArithmeticError, match="nonempty 2-core"):
        rect_characters(P((2, 2)))


def test_linear_relation_with_residue_counts():
    # chi at the rectangular type ((n/s)^s) is the Ramanujan-weighted sum
    # of the residue counts over divisors r of n
    for n in range(1, 15):
        for lam in partitions_of(n):
            vec = amod_by_qhook(lam)
            for s in divisors(n):
                chi = mn_character(lam, rectangular(n // s, s))
                weighted = sum(vec[r] * ramanujan_sum(n // r, s) for r in divisors(n))
                assert chi == weighted, (lam, s)


def test_hook_characters_binomial_and_unimodal():
    # |chi| on hooks (a+1, 1^b) at rectangular types is a binomial
    # coefficient, hence unimodal as the arm grows
    for n in range(2, 25):
        for ell in divisors(n):
            values = []
            for a in range(n):
                lam = P((a + 1,) + (1,) * (n - a - 1))
                magnitude = abs(rect_character(lam, ell))
                assert magnitude == math.comb(n // ell - 1, a // ell), (lam, ell)
                values.append(magnitude)
            rises = [i for i in range(1, n) if values[i] > values[i - 1]]
            falls = [i for i in range(1, n) if values[i] < values[i - 1]]
            assert not rises or not falls or max(rises) < min(falls), (n, ell, values)
