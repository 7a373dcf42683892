"""Character-formula route, the vanishing classification, and the bound suites."""

import gc
import inspect
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from modmaj import characters, cli, modular, numtheory, partitions, qpoly, tableaux
from modmaj.modular import (
    VERIFY_CHECKS,
    ClassWeightTable,
    ExceptionRecord,
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
from modmaj.partitions import Partition, conjugate, dimension, ell_core, hook_lengths, partitions_of, removable_ribbons
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


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: fl_bound_check(6, 4, 1, 1), "need ell | n"),
        (lambda: fl_log_bound(6, 1, 1), "ell >= 2"),
        (lambda: verify_main_theorem(0), "n_max >= 1"),
        (lambda: zero_residues(P(())), "nonempty partition"),
        (lambda: amod_by_character_formula(P(())), "nonempty partition"),
        (lambda: predicted_exceptions(0), "predicted_exceptions requires n >= 1, got 0"),
        (lambda: predicted_exceptions(-1), "predicted_exceptions requires n >= 1, got -1"),
        (lambda: rect_character(P(()), 1), r"rect_character requires a nonempty partition, got \(\)"),
        (lambda: characters.rect_characters(P(())), r"rect_characters requires a nonempty partition, got \(\)"),
        (lambda: expected_zero(P(()), 0), r"zero_residues requires a nonempty partition, got \(\)"),
        (lambda: fl_log_bound(4, 2, 0), "fl_log_bound requires n >= 1 and f >= 1, got n=4, f=0"),
        (lambda: fl_log_bound(0, 2, 1), "fl_log_bound requires n >= 1 and f >= 1, got n=0, f=1"),
        (lambda: ClassWeightTable(0, {P((1,)): 1}), "ClassWeightTable requires group_order >= 1, got 0"),
        (lambda: ClassWeightTable(-1, {P((1,)): 1}), "ClassWeightTable requires group_order >= 1, got -1"),
        (lambda: fl_bound_check(0, 1, 1, 1), "fl_bound_check requires n >= 1, got 0"),
        (lambda: fl_bound_check(-2, 1, 1, 1), "fl_bound_check requires n >= 1, got -2"),
    ],
    ids=[
        "fl-bound-ell-not-dividing",
        "fl-log-ell-1",
        "n-max-0",
        "zero-residues-empty",
        "formula-empty",
        "predicted-exceptions-0",
        "predicted-exceptions-negative",
        "rect-character-empty",
        "rect-characters-empty",
        "expected-zero-empty",
        "fl-log-f-0",
        "fl-log-n-0",
        "class-weights-order-0",
        "class-weights-order-negative",
        "fl-bound-n-0",
        "fl-bound-n-negative",
    ],
)
def test_arguments_out_of_range_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
        return [(0, left) for _, left in characters._removals(beads, ell)]

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


def test_predicted_exceptions_walk_the_shapes_lazily():
    # No shape of 40 is walked: the records are read off the case-list
    # table, so what the call holds at its peak, above what stays held when
    # it returns (the interpreter's free lists), is far below what a sorted
    # list of the 37,338 shapes holds.  The collector is off while tracing,
    # since a full collection empties the free lists and so would lower
    # what stays held.
    def held_at_peak(fn):
        gc.disable()
        tracemalloc.start()
        try:
            fn()
            after, peak = tracemalloc.get_traced_memory()
            return peak - after
        finally:
            tracemalloc.stop()
            gc.enable()

    assert 20 * held_at_peak(lambda: predicted_exceptions(40)) < held_at_peak(lambda: sorted(partitions_of(40)))
    shapes = [rec.shape for rec in predicted_exceptions(40)]
    assert shapes == sorted(shapes) and len(shapes) == 4


def case_list_oracle(lam):
    # the case list as an if-chain, each line tested against the shape
    n = lam.n
    if n == 1:
        return frozenset()
    parts = lam.parts
    out = set()
    if parts == (2, 2):
        out |= {1, 3}
    if parts == (2, 2, 2):
        out |= {1, 5}
    if parts == (3, 3):
        out |= {2, 4}
    if parts == (n - 1, 1):
        out.add(0)
    if parts == (2,) + (1,) * (n - 2):
        out.add(0 if n % 2 else n // 2)
    if parts == (n,):
        out |= set(range(1, n))
    if parts == (1,) * n:
        if n % 2:
            out |= set(range(1, n))
        else:
            out |= set(range(n)) - {n // 2}
    return frozenset(out)


def case_list_mismatches(n_max):
    # the shapes with n <= n_max where zero_residues and the oracle differ
    shapes = (lam for n in range(1, n_max + 1) for lam in partitions_of(n))
    return [lam.parts for lam in shapes if zero_residues(lam) != case_list_oracle(lam)]


def test_zero_residues_match_the_case_list_oracle():
    assert case_list_mismatches(30) == []


def test_predicted_exceptions_match_the_walk_over_every_shape():
    for n in range(1, 41):
        walked = [ExceptionRecord(lam, zeros) for lam in partitions_of(n) if (zeros := case_list_oracle(lam))]
        walked.sort(key=lambda rec: rec.shape)
        assert predicted_exceptions(n) == walked, n


def test_case_list_names_shapes_of_n_and_is_read_only():
    for n in range(1, 501):
        table = modular._case_list(n)
        for parts, residues in table.items():
            assert P(parts).n == n, parts
            assert residues and residues <= set(range(n)), (parts, residues)
        assert (n == 1) == (not table)
    with pytest.raises(TypeError):
        modular._case_list(4)[(2, 2)] = frozenset()
    with pytest.raises(TypeError):
        modular._case_list(4)[(3, 2)] = frozenset({0})


def test_case_list_oracle_finds_planted_fault(monkeypatch):
    # _case_list's own source with (2,2)'s residues {1, 3} written {1, 2}
    source = textwrap.dedent(inspect.getsource(modular._case_list))
    assert source.count("{1, 3}") == 1
    namespace = dict(vars(modular))
    exec(source.replace("{1, 3}", "{1, 2}"), namespace)
    monkeypatch.setattr(modular, "_case_list", namespace["_case_list"])
    assert case_list_mismatches(30) == [(2, 2)]


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
        def wrapper(shape):
            # a Partition, or the parts tuple that _bead_set takes
            if getattr(shape, "parts", shape) == (3, 2):
                raise ArithmeticError("planted failure")
            return fn(shape)

        return wrapper

    # the classification rows read zero_residues, the bounds rows rect_characters,
    # the fiber-law rows _bead_set, each once per shape
    planted = {
        "zero_residues": ["verify", "--n-max", "6"],
        "rect_characters": ["bounds", "--n-max", "6"],
        "_bead_set": ["verify", "--suite", "fiber-laws", "--n-max", "6"],
    }
    for name, argv in planted.items():
        monkeypatch.setattr(modular, name, faulty(getattr(modular, name)))
        assert cli.main(argv + ["--jobs", "2"]) == 3
        assert "planted failure" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


def run_script(script: str, capture: bool = True) -> subprocess.CompletedProcess:
    """Run a Python script in a fresh interpreter on this checkout's ``src``, for at most 60 s.

    Without ``capture`` its output is discarded, so no pipe is held open by
    a process that the script leaves behind.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    output = dict(capture_output=True, text=True) if capture else dict(stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return subprocess.run([sys.executable, "-c", script], env=env, timeout=60, **output)


def test_a_killed_worker_is_an_error_not_a_hang():
    # The row of (3, 2), a pair leader of n = 5 mapped in a worker, kills
    # its worker.  A pool that waited for the lost result would run into
    # the timeout instead.
    result = run_script(
        "import multiprocessing, os, signal, sys\n"
        "from modmaj import cli, modular\n"
        "row = modular._classification_row\n"
        "def killing_row(lam, fold):\n"
        "    if lam.parts == (3, 2):\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return row(lam, fold)\n"
        "modular._classification_row = killing_row\n"
        "os.cpu_count = lambda: 2\n"
        "code = cli.main(['verify', '--n-max', '8', '--jobs', '2'])\n"
        "print(len(multiprocessing.active_children()))\n"
        "sys.exit(code)\n"
    )
    assert result.returncode == 2
    assert result.stdout == "0\n"
    [line] = result.stderr.splitlines()
    assert line.startswith("modmaj: worker process ") and "exited in the middle of a map" in line


@pytest.mark.parametrize("processes", [1, 2])
def test_pool_moves_chunks_and_results_larger_than_a_pipe_holds(processes):
    # Each chunk and each result is 300 kB, more than a pipe buffers.  A
    # worker blocks in sending its result until this process reads it, so
    # this process must never block sending a chunk to a busy worker: it
    # sends a chunk only to a worker that holds none.
    result = run_script(
        "from modmaj.modular import Pool\n"
        f"with Pool(processes={processes}) as pool:\n"
        "    print(sum(map(len, pool.imap(bytes, [bytes(300_000)] * 8, 1))))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{8 * 300_000}\n"


def test_workers_exit_when_their_parent_is_killed(tmp_path):
    # The killed parent never leaves its pool.  Each worker holds no copy of
    # the parent's end of its own pipe or of an earlier worker's, so it reads
    # EOF and exits.  At most 3 processes: the script and its 2 workers.
    pids = tmp_path / "pids"
    result = run_script(
        "import os, signal\n"
        "from modmaj.modular import Pool\n"
        "pool = Pool(processes=2)\n"
        "assert list(pool.imap(abs, [-1, -2, -3, -4], 1)) == [1, 2, 3, 4]\n"
        f"with open({str(pids)!r}, 'w') as fh:\n"
        "    fh.write(' '.join(str(p.pid) for p in pool._workers.values()))\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n",
        capture=False,
    )
    assert result.returncode == -signal.SIGKILL
    workers = [int(pid) for pid in pids.read_text().split()]
    assert len(workers) == 2
    deadline = time.monotonic() + 5
    while (alive := [pid for pid in workers if running(pid)]) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    assert alive == []


def running(pid: int) -> bool:
    """Whether the process exists and is no zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def worker_thread_count(_):
    return threading.active_count()


def test_pool_workers_run_no_thread_of_their_own():
    with modular.Pool(processes=2) as pool:
        assert list(pool.imap(worker_thread_count, range(6), 1)) == [1] * 6


def raise_unpicklable(x):
    raise ArithmeticError(lambda: x)


def return_unpicklable(x):
    return lambda: x


class Unrebuildable(Exception):
    """Pickles by its args, (a,), but cannot be rebuilt from them."""

    def __init__(self, a, b):
        super().__init__(a)


def raise_unrebuildable(x):
    raise Unrebuildable(x, x)


@pytest.mark.parametrize("fn", [raise_unpicklable, return_unpicklable, raise_unrebuildable])
def test_what_a_worker_cannot_send_back_arrives_as_a_runtime_error(fn):
    with modular.Pool(processes=2) as pool:
        with pytest.raises(RuntimeError, match="could not be sent back") as raised:
            list(pool.imap(fn, [1, 2, 3], 1))
        # the repr or the traceback of the original error names the function
        assert fn.__name__ in str(raised.value)
        assert len(multiprocessing.active_children()) == 2
        assert list(pool.imap(abs, [-1, -2, -3, -4], 1)) == [1, 2, 3, 4]
    assert multiprocessing.active_children() == []


def test_pool_workers_ignore_sigint():
    with modular.Pool(processes=2) as pool:
        assert list(pool.imap(abs, [-1, -2], 1)) == [1, 2]
        for worker in multiprocessing.active_children():
            os.kill(worker.pid, signal.SIGINT)
        assert list(pool.imap(abs, [-1, -2, -3], 1)) == [1, 2, 3]
        assert len(multiprocessing.active_children()) == 2
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


def drop_largest_hook(counts: list[int]) -> list[int]:
    """A planted fault in a hook histogram: the largest hook goes uncounted."""
    return counts[:-1] + [counts[-1] - 1] if len(counts) > 1 else counts


# One broken lookup in modmaj.modular per check that can report a mismatch
# (fdim-census only counts), so the gate cannot pass vacuously.
PLANTED_FAULTS = {
    "classification": ("zero_residues", lambda lam: frozenset({0})),
    "ramanujan": ("ramanujan_sum_oracle", lambda j, s: ramanujan_sum_oracle(j, s) + 1),
    "fiber-laws": ("_hook_counts", lambda beads: drop_largest_hook(partitions._hook_counts(beads))),
    "bounds": ("_equidistributed", lambda f, dev, n5: False),
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


def hook_list_class_counts(hooks: list[int], ell: int) -> list[int]:
    """For each a mod ell, the listed hooks congruent to a plus those congruent to -a."""
    residues = [0] * ell
    for h in hooks:
        residues[h % ell] += 1
    return [residues[a] + residues[-a] for a in range(ell)]


def fiber_law_row_oracle(parts: tuple[int, ...], hooks_of=hook_lengths) -> list[dict]:
    """The fiber-law row on hook lists, each ribbon's remainder a ``Partition`` from ``removable_ribbons``."""
    lam = Partition(parts)
    n = lam.n
    hooks = hooks_of(lam)
    mismatches = []
    for ell in divisors(n):
        if ell == 1 or ell_core(lam, ell):
            continue
        s = n // ell
        for a, count in enumerate(hook_list_class_counts(hooks, ell)):
            if count != 2 * s:
                mismatches.append({"shape": list(parts), "ell": ell, "a": a})
    for ell in range(1, n + 1):
        steps = removable_ribbons(lam, ell)
        big = hook_list_class_counts(hooks, ell) if steps else ()
        for step in steps:
            small = hook_list_class_counts(hooks_of(step.shape), ell)
            for a in range(ell):
                if big[a] - small[a] != 2:
                    mismatches.append(
                        {"shape": list(parts), "ribbon_to": list(step.shape.parts), "ell": ell, "a": a}
                    )
    return mismatches


@pytest.mark.parametrize("planted", [False, True], ids=["clean", "largest-hook-dropped"])
def test_fiber_law_row_matches_the_hook_list_oracle(planted, monkeypatch):
    # records and their order, for every shape with n <= 18; the planted
    # fault drops the largest hook from both rows' counts
    hooks_of = hook_lengths
    if planted:
        monkeypatch.setattr(modular, *PLANTED_FAULTS["fiber-laws"])
        hooks_of = lambda lam: hook_lengths(lam)[1:]  # cell order puts the largest hook first
    flagged = 0
    for n in range(1, 19):
        for parts in partitions._parts_of(n):
            row = modular._fiber_law_row(parts)
            assert row == fiber_law_row_oracle(parts, hooks_of), parts
            flagged += bool(row)
    assert bool(flagged) == planted


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
    # A zero character passes its bound, so leaving it out changes no row
    # (test_bounds_row_matches_oracles_on_shapes checks the row against the
    # bound at every character).  Every nonzero character is checked, f at
    # ell = 1 among them.
    checked = []
    monkeypatch.setattr(modular, "_fl_holds", lambda f, ell, chi, table: checked.append(ell) or True)
    modular._bounds_row(((6, 4, 2), "fl"))
    assert checked == [1, 2, 4]


def test_formula_and_classification_rows_compute_hooks_once(calls):
    amod_by_character_formula(P((6, 4, 2)))
    assert calls["hook_histogram"] == 1 and calls["hook_lengths"] == calls["dimension"] == 0
    # the census reads f off the q-hook counts, whose slots are checked to sum to f
    calls["hook_histogram"] = 0
    small, mismatch = modular._classification_row(P((6, 4, 2)))
    assert calls["hook_histogram"] == 1 and calls["hook_lengths"] == calls["dimension"] == 0
    assert (small, mismatch) == (False, None)


def test_leaders_are_the_larger_shape_of_each_pair():
    for n in range(1, 16):
        leaders = [lam.parts for lam in partitions_of(n) if lam >= conjugate(lam)]
        assert modular._pair_leaders(n) == leaders


def test_classification_pair_computes_hooks_once(calls, monkeypatch):
    # (6,4,2) and its conjugate (3,3,2,2,1,1) share one hook histogram and
    # one folded quotient
    folds = []
    fold = modular._cyclotomic_fold

    def counted(*args):
        folds.append(args)
        return fold(*args)

    monkeypatch.setattr(modular, "_cyclotomic_fold", counted)
    pair = modular._classification_pair((6, 4, 2))
    assert calls["hook_histogram"] == 1 and calls["hook_lengths"] == calls["dimension"] == 0
    assert len(folds) == 1
    assert pair == [modular._classification_row(P((6, 4, 2))), modular._classification_row(P((3, 3, 2, 2, 1, 1)))]
    assert modular._classification_pair((3, 2, 1)) == [modular._classification_row(P((3, 2, 1)))]


def test_pair_counts_match_the_character_formula(monkeypatch):
    # the counts each row of the pair path reads, leader and conjugate
    # alike, against the independent character-formula route
    seen = {}

    def recording(lam, fold=None, _amod=amod_by_qhook):
        seen[lam] = _amod(lam, fold)
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

    def counted(lam, fold=None, _row=modular._classification_row):
        rows.append(lam.parts)
        return _row(lam, fold)

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
        expected = [list(lam.parts) for lam in partitions_of(n) if modular._classification_row(lam)[1]]
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


def bound_checks_oracle(lam, f, chis, amod):
    """Every check of a ``_bounds_row`` row, in row order, from the per-residue forms and the factorials."""
    n = lam.n
    return {
        "fl": all(fl_bound_from_factorials(n, ell, chi, f) for ell, chi in chis.items()),
        "equidistribution": equidistribution_per_residue(f, amod),
        "dist": dist_per_residue(f, amod),
        "fl-log": all(
            math.log(abs(chi) / f) <= fl_log_bound(n, ell, f) + 1e-9 for ell, chi in chis.items() if ell != 1 and chi
        ),
        "phi-d-1": phi_d_per_residue(f, chis, amod, 1),
        "phi-d-2": phi_d_per_residue(f, chis, amod, 2),
        "n-cubed": f < n**3 or 0 not in amod,
        "binom": binomial_bound_direct(lam, f),
    }


def assert_row_matches_oracle(parts, suite, expected):
    """The row's checks of one suite are the oracle's, in the same order, each the same bool or None."""
    checks = modular._bounds_row((parts, suite))["checks"]
    names = list(expected) if suite == "all" else ["phi-d-1", "phi-d-2"] if suite == "phi-d" else [suite]
    assert repr(list(checks.items())) == repr([(name, expected[name]) for name in names]), (parts, suite)


def test_bounds_row_matches_oracles_on_shapes(formula_vectors):
    for lam, vec in formula_vectors.items():
        if lam.n <= 20:
            expected = bound_checks_oracle(lam, dimension(lam), chis_of(lam), vec)
            for suite in modular.BOUND_SUITES:
                assert_row_matches_oracle(lam.parts, suite, expected)


@st.composite
def row_values(draw):
    """A shape and a suite, with f, chi_ell and the class terms drawn in place of the shape's own."""
    n = draw(st.integers(min_value=1, max_value=12))
    lam = draw(st.sampled_from(sorted(partitions_of(n))))
    f = draw(st.one_of(st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=10**30)))
    # |chi_ell| about f / k for k up to 3 n^3, so phi(ell) n^d |chi_ell| falls on both sides of f
    near_f = st.integers(min_value=1, max_value=3 * n**3).map(lambda k: f // k)
    small = st.integers(min_value=-(10**4), max_value=10**4)
    chis = {1: f}
    for ell in divisors(n)[1:]:
        chis[ell] = draw(st.one_of(st.just(0), small, near_f, near_f.map(int.__neg__)))
    near = st.integers(min_value=-3, max_value=3).map(lambda e: max(0, f // n + e))
    terms = st.one_of(near, st.just(0), st.integers(min_value=0, max_value=10**20))
    terms = draw(st.lists(terms, min_size=len(chis), max_size=len(chis)))
    return lam, f, chis, terms, draw(st.sampled_from(modular.BOUND_SUITES))


@given(row_values())
# the least count decides n-cubed, and the least side the deviation
@example((P((2, 1)), 27, {1: 27, 3: 0}, [0, 9], "n-cubed"))
@example((P((2,)), 10**6, {1: 10**6, 2: 0}, [0, 10**6 // 2], "equidistribution"))
def test_bounds_row_matches_oracles_on_drawn_values(values):
    # Real shapes pass every bound, so a row that misreads its numbers can
    # still agree there; drawn characters and counts fail some bounds.
    lam, f, chis, terms, suite = values
    divs = divisors(lam.n)
    amod = ModularClassVector(lam.n, [terms[divs.index(math.gcd(r, lam.n))] for r in range(lam.n)])
    with mock.patch.object(modular, "rect_characters", lambda _: chis):
        with mock.patch.object(modular, "_class_terms", lambda n, f, chis: terms):
            assert_row_matches_oracle(lam.parts, suite, bound_checks_oracle(lam, f, chis, amod))


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
