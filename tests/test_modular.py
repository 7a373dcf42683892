"""Character-formula route, the vanishing classification, and the bound suites."""

import math
import multiprocessing
import os
import random
import types

import pytest
from hypothesis import given, strategies as st

from modmaj import characters, cli, modular, numtheory, partitions, qpoly, tableaux
from modmaj.modular import (
    VERIFY_CHECKS,
    ClassWeightTable,
    amod_by_character_formula,
    binomial_lower_bound_check,
    dist_check,
    equidistribution_check,
    expected_zero,
    fl_bound_check,
    fl_log_bound,
    induced_multiplicity,
    n_cubed_criterion,
    parallel_map,
    phi_d_check,
    predicted_exceptions,
    small_dimension_census,
    sweep_pool,
    verify_main_theorem,
    zero_residues,
)
from modmaj.characters import mn_character, rect_character
from modmaj.numtheory import divisors, ramanujan_sum, ramanujan_sum_oracle, totient
from modmaj.partitions import Partition, conjugate, dimension, hook_lengths, partitions_of
from modmaj.qpoly import amod_by_qhook
from modmaj.tableaux import ModularClassVector

P = Partition


@pytest.fixture(scope="module")
def formula_vectors():
    vectors = {}
    for n in range(1, 26):
        for lam in partitions_of(n):
            vectors[lam] = amod_by_character_formula(lam)
    return vectors


# ------------------------------------------------------------ formula route


def test_formula_examples():
    assert list(amod_by_character_formula(P((2, 2)))) == [1, 0, 1, 0]
    assert amod_by_character_formula(P((3, 3))).zero_residues() == frozenset({2, 4})
    assert list(amod_by_character_formula(P((1,)))) == [1]


def test_formula_matches_qhook(formula_vectors):
    for lam, vec in formula_vectors.items():
        assert vec == amod_by_qhook(lam), lam


@pytest.mark.parametrize(
    "n,f,chis,check",
    [(4, 2, {2: 1, 4: 0}, "does not divide"), (2, 1, {2: 3}, "negative count")],
)
def test_formula_exactness_checks(n, f, chis, check):
    # (2,2) has f = 2, chi_2 = 2, chi_4 = 0; wrong characters must not pass
    with pytest.raises(ArithmeticError, match=check):
        modular._counts_from_characters(n, f, chis)


def counts_per_residue(n, f, chis):
    """The class sums residue by residue, as the route took them before it took one per gcd class."""
    counts = []
    for r in range(n):
        total = f + sum(chis[ell] * ramanujan_sum(ell, r) for ell in divisors(n) if ell != 1)
        term, remainder = divmod(total, n)
        if remainder or term < 0:
            raise ArithmeticError(f"class sum {total} at n={n}, r={r}")
        counts.append(term)
    return ModularClassVector(n, counts)


def test_counts_per_gcd_class_match_per_residue_sums():
    for n in range(1, 21):
        for lam in partitions_of(n):
            chis = characters.rect_characters(lam)
            f = chis[1]
            assert modular._counts_from_characters(n, f, chis) == counts_per_residue(n, f, chis), lam


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=-50, max_value=10**6),
        st.fixed_dictionaries({ell: st.integers(min_value=-60, max_value=60) for ell in divisors(n)}),
    )
))
def test_counts_per_gcd_class_refuse_what_per_residue_sums_refuse(inputs):
    # a class sum fails the same way at every residue of its class
    try:
        expected = counts_per_residue(*inputs)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            modular._counts_from_characters(*inputs)
    else:
        assert modular._counts_from_characters(*inputs) == expected


def test_class_table_matches_oracle():
    # the c_ell(r) the formula route reads, against the divisor-sum route
    for n in range(1, 61):
        ells, columns, gcd_index = modular._class_table(n)
        divs = divisors(n)
        assert ells == tuple(divs[1:])
        assert [r for r, _ in columns] == [d % n for d in divs]
        for r, column in columns:
            assert column == tuple(ramanujan_sum_oracle(ell, r) for ell in ells), (n, r)
        assert [divs[i] for i in gcd_index] == [math.gcd(r, n) for r in range(n)], n
        assert modular._class_table(n) is modular._class_table(n)


def test_formula_vectors_are_consistent(formula_vectors):
    for lam, vec in formula_vectors.items():
        n = lam.n
        assert all(c >= 0 for c in vec)
        assert vec.total() == dimension(lam)
        for r in range(n):
            assert vec[r] == vec[math.gcd(n, r) % n], (lam, r)


# ------------------------------------------------------------ induced multiplicity


def cycle_stabilizer_order(mu):
    order = 1
    for part in set(mu.parts):
        count = mu.parts.count(part)
        order *= part**count * math.factorial(count)
    return order


def cyclic_weight_table(n, r):
    # inducing the r-th character of the cyclic group generated by an
    # n-cycle: the class of type (d^(n/d)) collects a Ramanujan sum
    weights = {P((d,) * (n // d)): ramanujan_sum(d, r) for d in divisors(n)}
    return ClassWeightTable(group_order=n, weights=weights)


def test_cyclic_induction_reproduces_counts(formula_vectors):
    for n in range(1, 17):
        for lam in partitions_of(n):
            expected = formula_vectors[lam]
            for r in range(n):
                table = cyclic_weight_table(n, r)
                assert induced_multiplicity(table, lam) == expected[r], (lam, r)


def test_trivial_character_induction(formula_vectors):
    table = cyclic_weight_table(4, 0)
    assert induced_multiplicity(table, P((2, 2))) == formula_vectors[P((2, 2))][0] == 1


def whole_group_table(n):
    weights = {mu: math.factorial(n) // cycle_stabilizer_order(mu) for mu in partitions_of(n)}
    return ClassWeightTable(group_order=math.factorial(n), weights=weights)


def test_whole_group_induction():
    # inducing the trivial module of the full symmetric group changes
    # nothing: multiplicity 1 at the one-row shape, 0 elsewhere
    for n in range(1, 13):
        table = whole_group_table(n)
        for lam in partitions_of(n):
            expected = 1 if lam == P((n,)) else 0
            assert induced_multiplicity(table, lam) == expected, lam


def induction_mismatches(seed=2022, n_max=10):
    """Shapes where ``induced_multiplicity`` disagrees with the per-type sum of ``mn_character``.

    Two seeded tables per n of integer weights in -3..3 and group order 1,
    asked in turn at every shape: the answer is the oracle's sum, or a
    refusal when that sum is negative.
    """
    rng = random.Random(seed)
    out = []
    for n in range(1, n_max + 1):
        tables = [
            ClassWeightTable(group_order=1, weights={mu: rng.randint(-3, 3) for mu in partitions_of(n)})
            for _ in range(2)
        ]
        for lam in partitions_of(n):
            for i, table in enumerate(tables):
                oracle = sum(w * mn_character(lam, mu) for mu, w in table.weights.items())
                try:
                    got = induced_multiplicity(table, lam)
                except ArithmeticError:
                    got = None
                if got != (oracle if oracle >= 0 else None):
                    out.append((lam.parts, i, got, oracle))
    return out


def test_grouped_sum_matches_the_per_type_oracle():
    assert induction_mismatches() == []


def _shared_memo_sum():
    shared = {}
    return lambda beads, by_first, sums: characters._class_sum(beads, by_first, shared)


def _unsigned_sum():
    # the same code with its top ribbon step unsigned; _mn below it keeps its signs
    def unsigned(beads, ell):
        return [(1, left) for _, left in characters._removals(beads, ell)]

    return types.FunctionType(characters._class_sum.__code__, {**vars(characters), "_removals": unsigned})


@pytest.mark.parametrize("fault", [_shared_memo_sum, _unsigned_sum], ids=["shared-memo", "unsigned"])
def test_grouped_sum_oracle_finds_planted_fault(fault, monkeypatch):
    monkeypatch.setattr(modular, "_class_sum", fault())
    assert induction_mismatches()


def test_induction_memos_are_pinned():
    # S at n holds one entry per shape of size below n, and _mn holds the
    # 134 entries that test_mn_memo_has_one_entry_per_pair derives for
    # every (lam, mu) with |mu| <= 8: the grouped sum asks _mn for the
    # same (shape left, rest of cycle type) pairs
    characters._mn.cache_clear()
    for n in range(1, 9):
        table = whole_group_table(n)
        for lam in partitions_of(n):
            assert induced_multiplicity(table, lam) == (lam.parts == (n,)), lam
        assert len(table._sums[n]) == sum(len(list(partitions_of(k))) for k in range(n))
    assert characters._mn.cache_info().currsize == 134


def test_induced_multiplicity_error_paths(monkeypatch):
    limit = characters.MAX_CYCLE_PARTS
    long_type, row = P((1,) * (limit + 1)), P((limit + 1,))
    with pytest.raises(ValueError, match=f"cycle type has {limit + 1} parts, more than MAX_CYCLE_PARTS = {limit}"):
        induced_multiplicity(ClassWeightTable(group_order=1, weights={row: 1, long_type: 1}), row)
    # a weight-0 type is size-checked but not evaluated, so not refused
    assert induced_multiplicity(ClassWeightTable(group_order=1, weights={long_type: 0, row: 1}), row) == 1
    monkeypatch.setattr(characters, "MAX_SUBSHAPES", 19)
    assert induced_multiplicity(whole_group_table(8), P((3, 3, 2))) == 0
    with pytest.raises(ValueError, match="3,3,3 has 20 subshapes, more than MAX_SUBSHAPES = 19"):
        induced_multiplicity(whole_group_table(9), P((3, 3, 3)))
    # the empty shape's character is 1 at its one cycle type
    assert induced_multiplicity(ClassWeightTable(group_order=3, weights={P(()): 6}), P(())) == 2
    assert induced_multiplicity(ClassWeightTable(group_order=3, weights={}), P(())) == 0


def test_weight_table_is_a_snapshot():
    weights = {mu: math.factorial(4) // cycle_stabilizer_order(mu) for mu in partitions_of(4)}
    table = ClassWeightTable(group_order=24, weights=weights)
    before = {lam: induced_multiplicity(table, lam) for lam in partitions_of(4)}
    weights[P((4,))] = 7
    weights[P((5,))] = 1
    assert {lam: induced_multiplicity(table, lam) for lam in partitions_of(4)} == before
    assert table.weights != weights and P((5,)) not in table.weights


def test_induced_multiplicity_rejects_bad_tables():
    with pytest.raises(ValueError):
        induced_multiplicity(
            ClassWeightTable(group_order=2, weights={P((3,)): 1}), P((2, 2))
        )
    # a weight-0 type is not evaluated, but its size is still checked
    with pytest.raises(ValueError, match="cycle type 3 does not have size 2"):
        induced_multiplicity(
            ClassWeightTable(group_order=1, weights={P((2,)): 1, P((3,)): 0}), P((2,))
        )
    with pytest.raises(ArithmeticError):
        # chi at the identity is 2, which the claimed group order 4 cannot divide
        induced_multiplicity(
            ClassWeightTable(group_order=4, weights={P((1, 1, 1)): 1}), P((2, 1))
        )
    with pytest.raises(ArithmeticError):
        induced_multiplicity(
            ClassWeightTable(group_order=1, weights={P((1, 1)): -1}), P((2,))
        )


# ------------------------------------------------------------ classification


def test_expected_zero_examples():
    assert expected_zero(P((2, 2, 2)), 5)
    assert expected_zero(P((2, 1, 1, 1)), 0)
    assert not any(expected_zero(P((3, 2)), r) for r in range(5))
    assert not expected_zero(P((1,)), 0)


def test_predicted_exceptions_small_n():
    n4 = {(rec.shape.parts, tuple(sorted(rec.residues))) for rec in predicted_exceptions(4)}
    assert n4 == {
        ((2, 2), (1, 3)),
        ((3, 1), (0,)),
        ((2, 1, 1), (2,)),
        ((4,), (1, 2, 3)),
        ((1, 1, 1, 1), (0, 1, 3)),
    }
    assert predicted_exceptions(1) == []
    n6 = {(rec.shape.parts, tuple(sorted(rec.residues))) for rec in predicted_exceptions(6)}
    assert ((2, 2, 2), (1, 5)) in n6
    assert ((3, 3), (2, 4)) in n6


def test_zero_sets_match_brute_force():
    for n in range(1, 11):
        for lam in partitions_of(n):
            assert amod_by_qhook(lam).zero_residues() == zero_residues(lam), lam


def test_verify_main_theorem_small():
    report = verify_main_theorem(4)
    assert report.ok and report.shapes_checked == 11
    report = verify_main_theorem(1)
    assert report.ok and report.shapes_checked == 1


def test_verify_main_theorem_parallel_matches_serial():
    serial = verify_main_theorem(9, jobs=1)
    parallel = verify_main_theorem(9, jobs=2)
    assert serial == parallel
    assert parallel.ok


@pytest.fixture
def pools_opened(monkeypatch):
    """Sizes of the pools a run asks ``modmaj.modular.Pool`` for, on 4 CPUs.

    The recording fake maps in this process, so no worker is started.
    """
    opened = []

    class RecordingPool:
        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(modular, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return opened


def test_parallel_map_caps_pool_at_cpu_count(pools_opened, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert list(parallel_map(abs, [-1, -2, -3, -4], 100000)) == [1, 2, 3, 4]
    assert list(parallel_map(abs, [-1, -2], 2)) == [1, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert list(parallel_map(abs, [-1, -2], 2)) == [1, 2]
    assert pools_opened == [3, 2]


@pytest.mark.parametrize(
    "argv",
    [["verify", "--suite", "all", "--n-max", "8"], ["bounds", "--n-max", "8"]],
    ids=["verify-all", "bounds"],
)
def test_command_opens_one_pool(argv, pools_opened):
    assert cli.main(argv + ["--format", "json", "--jobs", "2"]) == 0
    assert pools_opened == [2]
    assert cli.main(argv + ["--format", "json", "--jobs", "1"]) == 0
    assert pools_opened == [2]


def test_verify_main_theorem_opens_one_pool(pools_opened):
    assert verify_main_theorem(9, jobs=2).ok
    assert pools_opened == [2]
    assert verify_main_theorem(9, jobs=1).ok
    assert pools_opened == [2]


def test_bounds_command_maps_each_n_in_order(pools_opened, monkeypatch):
    sizes = []

    def imap(self, fn, items, chunksize):
        sizes.append([sum(parts) for parts, _ in items])
        return map(fn, items)

    monkeypatch.setattr(modular.Pool, "imap", imap)
    assert cli.main(["bounds", "--n-max", "7", "--format", "json", "--jobs", "2"]) == 0
    assert pools_opened == [2]
    # n = 1 has one shape, which the map runs in this process.
    assert sizes == [[n] * len(list(partitions_of(n))) for n in range(2, 8)]


def test_sweep_pool_without_parallel_work_opens_none(pools_opened):
    with sweep_pool(2) as pool_map:
        assert [entry["mismatches"] for entry in VERIFY_CHECKS["ramanujan"]([6], pool_map)] == [[]]
        assert list(parallel_map(abs, [-1, -2], 1)) == [1, 2]
    assert pools_opened == []


def test_no_worker_outlives_the_command(monkeypatch, capsys):
    # Real pools of 2 workers.  The planted fault is raised in a worker
    # (n = 5 has 7 shapes) and reaches the command as exit 3.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for argv in (["verify", "--suite", "all", "--n-max", "6"], ["bounds", "--n-max", "6"]):
        assert cli.main(argv + ["--jobs", "2"]) == 0
        assert multiprocessing.active_children() == []

    def faulty(fn):
        def wrapper(lam):
            if lam.parts == (3, 2):
                raise ArithmeticError("planted failure")
            return fn(lam)

        return wrapper

    # the classification rows read zero_residues, the bounds rows rect_characters,
    # the fiber-law rows hook_lengths
    planted = {
        "zero_residues": ["verify", "--n-max", "6"],
        "rect_characters": ["bounds", "--n-max", "6"],
        "hook_lengths": ["verify", "--suite", "fiber-laws", "--n-max", "6"],
    }
    for name, argv in planted.items():
        monkeypatch.setattr(modular, name, faulty(getattr(modular, name)))
        assert cli.main(argv + ["--jobs", "2"]) == 3
        assert "planted failure" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


# The size n of one task of each check that maps over the shapes of n.
MAPPED_TASK_SIZE = {"classification": sum, "fiber-laws": sum, "bounds": lambda task: sum(task[0])}


@pytest.mark.parametrize("name", sorted(MAPPED_TASK_SIZE))
def test_check_issues_the_next_map_before_it_yields(name):
    events = []

    def recording_map(fn, items):
        items = list(items)
        events.append(("map", MAPPED_TASK_SIZE[name](items[0])))
        return map(fn, items)

    for entry in VERIFY_CHECKS[name](range(1, 7), recording_map):
        events.append(("entry", entry["n"]))
    assert events[:2] == [("map", 1), ("map", 2)]
    assert events[2:-2] == [event for n in range(1, 5) for event in (("entry", n), ("map", n + 2))]
    assert events[-2:] == [("entry", 5), ("entry", 6)]


def test_check_of_no_n_yields_nothing():
    for check in VERIFY_CHECKS.values():
        assert list(check([], map)) == []


# One broken lookup in modmaj.modular per check that can report a mismatch
# (fdim-census only counts), so the gate cannot pass vacuously.
PLANTED_FAULTS = {
    "classification": ("zero_residues", lambda lam: frozenset({0})),
    "ramanujan": ("ramanujan_sum_oracle", lambda j, s: ramanujan_sum_oracle(j, s) + 1),
    "fiber-laws": ("hook_lengths", lambda lam: hook_lengths(lam)[1:]),
    "bounds": ("equidistribution_check", lambda f, amod: False),
}


@pytest.mark.parametrize("name", sorted(PLANTED_FAULTS))
def test_verify_check_reports_planted_fault(name, monkeypatch):
    assert not any(entry["mismatches"] for n in range(1, 7) for entry in VERIFY_CHECKS[name]([n]))
    monkeypatch.setattr(modular, *PLANTED_FAULTS[name])
    records = [m for n in range(1, 7) for entry in VERIFY_CHECKS[name]([n]) for m in entry["mismatches"]]
    assert records
    if name == "classification":
        # each record carries the q-hook count vector it was read from
        for record in records:
            lam = P(record["shape"])
            assert len(record["counts"]) == lam.n
            assert sum(record["counts"]) == dimension(lam)


@pytest.fixture
def calls(monkeypatch):
    """Call counts of the per-shape layers, through every modmaj module that binds each name."""
    counts = dict.fromkeys(
        ("hook_histogram", "hook_lengths", "beta_numbers", "dimension", "ramanujan_sum", "factorize"), 0
    )
    for name in counts:
        for module in (partitions, characters, qpoly, numtheory, modular, tableaux):
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def wrapper(*args, _fn=fn, _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, wrapper)
    return counts


def test_bounds_row_computes_each_value_once(calls):
    # (6,4,2): one hook histogram and one set of beta-numbers give f and
    # chi_ell for all 6 divisors of 12, with no separate dimension and no
    # list of hooks.  The residue counts are read off the class table of
    # n = 12, which a second shape of the same n uses without computing a
    # Ramanujan sum.
    modular._bounds_row(((6, 4, 2), "all"))
    assert calls["hook_histogram"] == calls["beta_numbers"] == 1
    assert calls["hook_lengths"] == 0
    assert calls["dimension"] == 0
    calls["ramanujan_sum"] = calls["factorize"] = 0
    modular._bounds_row(((5, 4, 3), "all"))
    assert calls["ramanujan_sum"] == 0
    # the totients of the phi-d hypothesis come from the table of n = 12 too
    assert calls["factorize"] == 0


def test_fl_row_skips_only_zero_characters(monkeypatch):
    # a zero character passes its bound, so leaving it out changes no row
    for n in range(1, 15):
        for lam in partitions_of(n):
            chis = characters.rect_characters(lam)
            every = all(fl_bound_check(n, ell, chi, chis[1]) for ell, chi in chis.items())
            assert modular._bounds_row((lam.parts, "fl"))["checks"]["fl"] is every, lam
    # every nonzero character is checked, f at ell = 1 among them
    checked = []
    monkeypatch.setattr(modular, "fl_bound_check", lambda n, ell, chi, f: checked.append(ell) or True)
    modular._bounds_row(((6, 4, 2), "fl"))
    assert checked == [1, 2, 4]


def test_formula_and_classification_rows_compute_hooks_once(calls):
    amod_by_character_formula(P((6, 4, 2)))
    assert calls["hook_histogram"] == 1 and calls["hook_lengths"] == calls["dimension"] == 0
    # the census reads f off the q-hook counts, whose slots are checked to sum to f
    calls["hook_histogram"] = 0
    small, mismatch = modular._classification_row((6, 4, 2))
    assert calls["hook_histogram"] == 1 and calls["hook_lengths"] == calls["dimension"] == 0
    assert (small, mismatch) == (False, None)


def test_leaders_are_the_larger_shape_of_each_pair():
    for n in range(1, 16):
        leaders = [lam.parts for lam in partitions_of(n) if lam >= conjugate(lam)]
        assert modular._pair_leaders(n) == leaders


def test_classification_pair_computes_hooks_once(calls, monkeypatch):
    # (6,4,2) and its conjugate (3,3,2,2,1,1) share one hook histogram, one
    # quotient and one fold
    folds = []
    fold = qpoly._residue_slots

    def counted(*args):
        folds.append(args)
        return fold(*args)

    monkeypatch.setattr(qpoly, "_residue_slots", counted)
    pair = modular._classification_pair((6, 4, 2))
    assert calls["hook_histogram"] == 1 and calls["hook_lengths"] == calls["dimension"] == 0
    assert len(folds) == 1
    assert pair == [modular._classification_row((6, 4, 2)), modular._classification_row((3, 3, 2, 2, 1, 1))]
    assert modular._classification_pair((3, 2, 1)) == [modular._classification_row((3, 2, 1))]


def test_pair_counts_match_the_character_formula(monkeypatch):
    # the counts each row of the pair path reads, leader and conjugate
    # alike, against the independent character-formula route
    seen = {}

    def recording(lam, quotient=None, _amod=amod_by_qhook):
        seen[lam] = _amod(lam, quotient)
        return seen[lam]

    monkeypatch.setattr(modular, "amod_by_qhook", recording)
    for n in range(1, 21):
        list(VERIFY_CHECKS["classification"]([n]))
        assert sorted(seen) == sorted(partitions_of(n)), n
        for lam, counts in seen.items():
            assert counts == amod_by_character_formula(lam), lam
        seen.clear()


def test_classification_pairs_cover_each_shape_once(monkeypatch):
    rows = []

    def counted(parts, quotient=None, _row=modular._classification_row):
        rows.append(parts)
        return _row(parts, quotient)

    monkeypatch.setattr(modular, "_classification_row", counted)
    for n in range(1, 16):
        rows.clear()
        [entry] = VERIFY_CHECKS["classification"]([n])
        assert sorted(rows) == sorted(lam.parts for lam in partitions_of(n))
        assert entry["shapes"] == len(rows)


def test_classification_mismatches_keep_shape_order(monkeypatch):
    monkeypatch.setattr(modular, "zero_residues", lambda lam: frozenset({0}))
    for n in range(3, 10):
        shapes = [record["shape"] for entry in VERIFY_CHECKS["classification"]([n]) for record in entry["mismatches"]]
        expected = [list(lam.parts) for lam in partitions_of(n) if modular._classification_row(lam.parts)[1]]
        assert shapes == expected and len(shapes) > 1


def test_every_bound_suite_reports_a_check():
    everything = modular._bounds_row(((4, 2, 1, 1), "all"))["checks"]
    named = {}
    for suite in modular.BOUND_SUITES:
        if suite != "all":
            checks = modular._bounds_row(((4, 2, 1, 1), suite))["checks"]
            assert checks, suite
            named.update(checks)
    assert named == everything


def test_census_small():
    census = small_dimension_census(5)
    assert census == {1: 0, 2: 2, 3: 3, 4: 5, 5: 7}


def test_classification_census_matches_dimension_census():
    # the classification suite counts f from the q-hook totals, fdim-census
    # from dimension
    for n in range(1, 21):
        assert [entry["small_dimension"] for entry in VERIFY_CHECKS["classification"]([n])] == [modular._small_dimension_count(n)], n


def test_residue_zero_shapes():
    # at residue 0: exactly (n-1,1); (2,1^(n-2)) for odd n; (1^n) for even n
    for n in range(2, 15):
        zero_shapes = {
            lam.parts
            for lam in partitions_of(n)
            if amod_by_qhook(lam)[0] == 0
        }
        expected = {(n - 1, 1) if n > 1 else None}
        if n % 2:
            expected.add((2,) + (1,) * (n - 2))
        else:
            expected.add((1,) * n)
        expected.discard(None)
        assert zero_shapes == expected, n


# ------------------------------------------------------------ distribution bounds


def chis_of(lam):
    """chi_ell for each ell | n, the map the phi_d check takes."""
    return {ell: rect_character(lam, ell) for ell in divisors(lam.n)}


def test_equidistribution_examples(formula_vectors):
    for lam in (P((1,)), P((2, 2))):
        assert equidistribution_check(dimension(lam), amod_by_character_formula(lam))
    for lam, vec in formula_vectors.items():
        assert equidistribution_check(dimension(lam), vec), lam


def test_dist_check_no_shape_qualifies_at_12():
    for lam in partitions_of(12):
        assert dimension(lam) < 12**5
        assert dist_check(dimension(lam), amod_by_character_formula(lam)) is None


def test_dist_check_applicable_shapes(formula_vectors):
    applicable = 0
    for lam, vec in formula_vectors.items():
        verdict = dist_check(dimension(lam), vec)
        assert verdict is not False, lam
        applicable += verdict is True
    assert applicable > 0  # n = 17..20 contain qualifying shapes


def random_partition(rng, n, side):
    while True:
        parts = []
        remaining = n
        cap = rng.randint(2, side)
        while remaining:
            piece = rng.randint(1, min(cap, remaining))
            parts.append(piece)
            cap = piece
            remaining -= piece
        lam = P(sorted(parts, reverse=True))
        if lam.parts[0] <= side and len(lam.parts) <= side:
            return lam


def test_dist_second_clause_sampled():
    # shapes of 81 with first row and first column both below 74 have at
    # least 81^5 standard tableaux (seeded sample; the full sweep is an
    # opt-in long run)
    rng = random.Random(20260810)
    threshold = 81**5
    for _ in range(40):
        lam = random_partition(rng, 81, 73)
        assert lam.parts[0] < 74 and conjugate(lam).parts[0] < 74
        assert dimension(lam) >= threshold, lam


def test_fl_bound_examples():
    lam = P((2, 2))
    assert abs(rect_character(lam, 2)) ** 2 * math.factorial(4) == 96
    assert fl_bound_check(4, 2, rect_character(lam, 2), dimension(lam))
    for lam in partitions_of(6):
        assert fl_bound_check(6, 1, rect_character(lam, 1), dimension(lam))


def test_fl_bound_exhaustive():
    for n in range(1, 15):
        for lam in partitions_of(n):
            f = dimension(lam)
            for ell in divisors(n):
                assert fl_bound_check(n, ell, rect_character(lam, ell), f), (lam, ell)


def test_fl_log_bound_contract():
    for n in range(2, 17):
        for lam in partitions_of(n):
            f = dimension(lam)
            for ell in divisors(n):
                if ell == 1:
                    continue
                chi = abs(rect_character(lam, ell))
                if chi:
                    assert math.log(chi / f) <= fl_log_bound(n, ell, f) + 1e-9, (lam, ell)


def test_fl_log_bound_monotone_in_f():
    for n in (6, 12):
        for ell in (2, 3, 6):
            values = [fl_log_bound(n, ell, f) for f in (1, 2, 5, 10, 100)]
            assert values == sorted(values, reverse=True)


def test_phi_d_check(formula_vectors):
    lam = P((1,))
    assert phi_d_check(1, chis_of(lam), amod_by_character_formula(lam), 1) is True
    for n in range(1, 17):
        for lam in partitions_of(n):
            vec = formula_vectors[lam]
            for d in (1, 2):
                assert phi_d_check(dimension(lam), chis_of(lam), vec, d) is not False, (lam, d)
    lam = P((2, 1))
    with pytest.raises(ValueError):
        phi_d_check(2, chis_of(lam), amod_by_character_formula(lam), 3)


def test_phi_d_hypothesis_fails_somewhere():
    values = {
        phi_d_check(dimension(lam), chis_of(lam), amod_by_character_formula(lam), 2)
        for lam in partitions_of(8)
    }
    assert None in values


# The per-residue forms of the closeness bounds, as they read before each
# bound came to read max over r of |n a_r - f| alone, and the Fomin-Lulov
# bound with its factorials computed in place: the oracles of the forms
# that read one integer and the multiples table of n.
def equidistribution_per_residue(f, amod):
    n = amod.n
    bound = 4 * n**5 * f * f
    return all((n * a - f) ** 2 * f <= bound for a in amod)


def dist_per_residue(f, amod):
    n = amod.n
    if f < n**5:
        return None
    return all(abs(n * a - f) * n < f for a in amod)


def phi_d_per_residue(f, chis, amod, d):
    n = amod.n
    nd = n**d
    if any(abs(chi) * nd * totient(ell) > f for ell, chi in chis.items() if ell != 1):
        return None
    return all(abs(n * a - f) * nd < n * f for a in amod)


def fl_bound_from_factorials(n, ell, chi, f):
    s = n // ell
    return abs(chi) ** ell * math.factorial(n) <= math.factorial(s) ** ell * ell ** (s * ell) * f


def assert_bounds_match_per_residue(f, chis, amod):
    for ell, chi in chis.items():
        assert fl_bound_check(amod.n, ell, chi, f) is fl_bound_from_factorials(amod.n, ell, chi, f)
    assert equidistribution_check(f, amod) is equidistribution_per_residue(f, amod)
    assert dist_check(f, amod) is dist_per_residue(f, amod)
    for d in (1, 2):
        assert phi_d_check(f, chis, amod, d) is phi_d_per_residue(f, chis, amod, d)


def test_bound_checks_match_per_residue_forms_on_shapes(formula_vectors):
    for lam, vec in formula_vectors.items():
        if lam.n <= 14:
            assert_bounds_match_per_residue(dimension(lam), chis_of(lam), vec)


@st.composite
def bound_inputs(draw):
    """n, f, chi_ell for each ell | n, and counts: near f / n or anywhere, summing to f or not."""
    n = draw(st.integers(min_value=1, max_value=12))
    f = draw(st.one_of(st.integers(min_value=-10, max_value=10**4), st.integers(min_value=0, max_value=10**30)))
    near = st.integers(min_value=-3, max_value=3).map(lambda e: f // n + e)
    counts = draw(st.lists(st.one_of(near, st.integers(min_value=-(10**20), max_value=10**20)), min_size=n, max_size=n))
    if draw(st.booleans()):
        counts[0] += f - sum(counts)
    chis = {ell: draw(st.integers(min_value=-(10**4), max_value=10**4)) for ell in divisors(n)}
    return f, chis, ModularClassVector(n, counts)


@given(bound_inputs())
def test_bound_checks_match_per_residue_forms_on_drawn_counts(inputs):
    assert_bounds_match_per_residue(*inputs)


def test_n_cubed_criterion(formula_vectors):
    assert not n_cubed_criterion(5, dimension(P((3, 2))))
    assert n_cubed_criterion(1, dimension(P((1,))))
    for lam, vec in formula_vectors.items():
        if n_cubed_criterion(lam.n, dimension(lam)):
            assert not vec.zero_residues(), lam


def test_binomial_lower_bound(formula_vectors):
    for lam in formula_vectors:
        assert binomial_lower_bound_check(lam, dimension(lam)), lam


def binomial_bound_direct(lam, f):
    return all((m + 1) * f >= math.comb(lam.n, m) for m in range(partitions.capped_excess(lam) + 1))


def test_binomial_threshold_matches_direct_form():
    for n in range(1, 31):
        for lam in partitions_of(n):
            f = dimension(lam)
            assert binomial_lower_bound_check(lam, f) is binomial_bound_direct(lam, f), lam
    # f around the threshold at every cap; the hook (n - c, 1^c) has excess c
    for n in range(1, 31):
        for cap in range((n - 1) // 2 + 1):
            lam = P((n - cap,) + (1,) * cap)
            assert partitions.capped_excess(lam) == cap
            threshold = modular._binomial_thresholds(n)[cap]
            for f in (-1, 0, 1, threshold - 1, threshold, threshold + 1):
                assert binomial_lower_bound_check(lam, f) is binomial_bound_direct(lam, f), (n, cap, f)


def test_residue_one_gap(formula_vectors):
    # once a_1 exceeds 1 it is at least n/6 - 1
    for lam, vec in formula_vectors.items():
        if vec[1] > 1:
            assert 6 * vec[1] >= lam.n - 6, lam
