"""Residue counts by character formula, the vanishing classification, and bounds.

The centerpiece identity: with f the number of standard tableaux of shape
``lam`` (a partition of n) and chi_ell the character at the rectangular
cycle type with cycles of length ell,

    n * a_r  =  f  +  sum over ell | n, ell != 1 of  chi_ell * c_ell(r)

where ``c_ell(r)`` is a Ramanujan sum and ``a_r`` counts tableaux with
major index congruent to r mod n.  Everything stays in integer arithmetic;
divisibility by n is asserted, not assumed.

``expected_zero`` transcribes the classification of the vanishing pairs
(lam, r) as a literal case list, so the exhaustive verifier genuinely
tests that statement rather than a rederivation:

  n > 1 and one of
    lam = (2,2), r in {1,3};  lam = (2,2,2), r in {1,5};  lam = (3,3), r in {2,4};
    lam = (n-1,1), r = 0;
    lam = (2,1^(n-2)), r = 0 for odd n, r = n/2 for even n;
    lam = (n), r in {1,...,n-1};
    lam = (1^n), r in {1,...,n-1} for odd n, everything but n/2 for even n.

The inequality suite clears denominators and raises both sides to integer
powers so every comparison except the logarithmic one is exact; the
logarithmic bound carries an explicit 1e-9 slack.  Each bound predicate
takes the numbers it compares (n, f, the characters chi_ell and the
residue counts a_r) rather than the shape; ``_bounds_row`` computes those
once per shape and passes them to every predicate.

``VERIFY_CHECKS`` at the bottom maps each suite of ``modmaj verify`` to its
check of one n.  The command and the acceptance gate both run these, so
the gate tests the code the command ships.

Parallel work goes through ``sweep_pool(jobs)``, which yields the ordered
map ``pool_map(fn, items)`` of one sweep.  Each check of ``VERIFY_CHECKS``
takes it as ``check(n, pool_map=map)``, so one ``modmaj verify`` command or
one ``verify_main_theorem`` call shares one pool of workers, forked by the
map's first parallel call and shut down when the block ends.
``parallel_map(fn, items, jobs)`` is one such block around one map; it is
how ``modmaj bounds``, which maps once, gets its pool.  The workers are
forked inside the sweep, so they run the code in place when the sweep
started, patched functions included.
"""

import math
import os
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Callable, Iterable, Iterator, Mapping

from .characters import mn_character, rect_characters
from .numtheory import (
    divisors,
    ramanujan_matrix_square,
    ramanujan_sum,
    ramanujan_sum_oracle,
    ramanujan_table,
    totient_table,
)
from .partitions import (
    Partition,
    capped_excess,
    dimension,
    ell_core,
    hook_lengths,
    partitions_of,
    removable_ribbons,
)
from .qpoly import amod_by_qhook
from .tableaux import ModularClassVector


def amod_by_character_formula(lam: Partition) -> ModularClassVector:
    """Residue counts from the character formula, all in exact integers."""
    n = lam.n
    if n < 1:
        raise ValueError("amod_by_character_formula requires a nonempty partition")
    chis = rect_characters(lam)
    return _counts_from_characters(n, chis[1], chis)


def _counts_from_characters(n: int, f: int, chis: Mapping[int, int]) -> ModularClassVector:
    """n * a_r = f + sum over ell | n, ell != 1 of chi_ell * c_ell(r), for every r.

    ``chis`` maps each ell | n to chi_ell (an entry for ell = 1 is not
    read); the Ramanujan sums come from the table of n.  Each class sum
    must be divisible by n and the count nonnegative.
    """
    totals = [f] * n
    # Row 0 of the table is ell = 1, whose term is f itself.
    for ell, row in zip(divisors(n)[1:], ramanujan_table(n)[1:]):
        chi = chis[ell]
        if chi:
            totals = [t + chi * c for t, c in zip(totals, row)]
    counts = []
    for r, total in enumerate(totals):
        term, remainder = divmod(total, n)
        if remainder:
            raise ArithmeticError(f"n does not divide the class sum for n={n}, f={f}, r={r}")
        if term < 0:
            raise ArithmeticError(f"negative count for n={n}, f={f}, r={r}")
        counts.append(term)
    return ModularClassVector(n, counts)


@dataclass(frozen=True)
class ClassWeightTable:
    """Integer weight per cycle type plus the order of the inducing subgroup."""

    group_order: int
    weights: Mapping[Partition, int]


def induced_multiplicity(weights: ClassWeightTable, lam: Partition) -> int:
    """Multiplicity of the shape-lam irreducible in the induced module.

    Computes (1/|H|) * sum of weight(mu) * character(lam at mu); the
    division by the group order must be exact and the result nonnegative,
    otherwise the weight table is inconsistent.
    """
    n = lam.n
    for mu in weights.weights:
        if mu.n != n:
            raise ValueError(f"cycle type {mu} does not have size {n}")
    total = sum(
        c * mn_character(lam, mu) for mu, c in weights.weights.items() if c != 0
    )
    if total % weights.group_order != 0:
        raise ArithmeticError(f"group order does not divide the weighted sum for {lam}")
    value = total // weights.group_order
    if value < 0:
        raise ArithmeticError(f"negative multiplicity for {lam}")
    return value


def expected_zero(lam: Partition, r: int) -> bool:
    """The literal case list of vanishing (shape, residue) pairs."""
    return r % lam.n in zero_residues(lam)


def zero_residues(lam: Partition) -> frozenset[int]:
    """All residues the case list predicts to vanish for this shape."""
    n = lam.n
    if n < 1:
        raise ValueError("zero_residues requires a nonempty partition")
    if n == 1:
        return frozenset()
    parts = lam.parts
    out: set[int] = set()
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


@dataclass(frozen=True)
class ExceptionRecord:
    """A shape together with the residues predicted to vanish."""

    shape: Partition
    residues: frozenset[int]


def predicted_exceptions(n: int) -> list[ExceptionRecord]:
    """Every shape of n with a nonempty predicted zero set, in report order."""
    records = []
    for lam in sorted(partitions_of(n)):
        residues = zero_residues(lam)
        if residues:
            records.append(ExceptionRecord(lam, residues))
    return records


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of the exhaustive zero-set verification up to n_max."""

    n_max: int
    shapes_checked: int
    mismatches: tuple[dict, ...]
    small_dimension_count: int

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _classification_row(parts: tuple[int, ...]) -> tuple[bool, dict | None]:
    """Whether f < n^3 at one shape, and its mismatch record (None when the zero sets agree).

    The record carries the q-hook residue count vector the computed zero
    set was read from, so the failure can be reproduced and checked by hand.
    """
    lam = Partition(parts)
    amod = amod_by_qhook(lam)
    computed = sorted(amod.zero_residues())
    predicted = sorted(zero_residues(lam))
    # The q-hook slots are checked to sum to f, so the census reads f off them.
    small = not n_cubed_criterion(lam.n, amod.total())
    if computed == predicted:
        return small, None
    counts = list(amod.counts)
    return small, {"shape": list(parts), "computed": computed, "predicted": predicted, "counts": counts}


@contextmanager
def sweep_pool(jobs: int) -> Iterator[Callable[[Callable, Iterable], Iterator]]:
    """Yield ``pool_map(fn, items)``, an ordered map on one pool of min(jobs, os.cpu_count()) workers.

    The first map with more than one item forks the pool (none when
    min(jobs, os.cpu_count()) is 1), so a block that never needs it starts
    no process.  Each map is cut into about four chunks per worker, enough
    items per message to outweigh pickling and IPC; ``fn`` must be a
    module-level function.  Leaving the block terminates and joins the
    workers, also when an exception leaves it.
    """
    processes = min(jobs, os.cpu_count() or 1)
    with ExitStack() as stack:
        pool = None

        def pool_map(fn: Callable, items: Iterable) -> Iterator:
            nonlocal pool
            items = list(items)
            if processes <= 1 or len(items) <= 1:
                return map(fn, items)
            if pool is None:
                pool = stack.enter_context(Pool(processes=processes))
            return pool.imap(fn, items, chunksize=-(-len(items) // (4 * processes)))

        yield pool_map


def parallel_map(fn: Callable, items: Iterable, jobs: int = 1) -> Iterator:
    """Ordered map over items on a ``sweep_pool(jobs)`` of its own, shut down when the map ends."""
    with sweep_pool(jobs) as pool_map:
        yield from pool_map(fn, items)


def verify_main_theorem(n_max: int, jobs: int = 1) -> ClassificationReport:
    """Exhaustively verify the vanishing classification for all n up to n_max.

    The residue counts come from the q-hook route; the report carries any
    mismatches (there should be none) and the census of shapes whose
    tableau count is below n cubed.
    """
    if n_max < 1:
        raise ValueError(f"verify_main_theorem requires n_max >= 1, got {n_max}")
    with sweep_pool(jobs) as pool_map:
        entries = [_check_classification(n, pool_map) for n in range(1, n_max + 1)]
    return ClassificationReport(
        n_max,
        sum(entry["shapes"] for entry in entries),
        tuple(record for entry in entries for record in entry["mismatches"]),
        sum(entry["small_dimension"] for entry in entries),
    )


def small_dimension_census(n_max: int) -> dict[int, int]:
    """Per-n counts of shapes with fewer than n^3 standard tableaux."""
    return {n: _small_dimension_count(n) for n in range(1, n_max + 1)}


def _small_dimension_count(n: int) -> int:
    return sum(1 for lam in partitions_of(n) if not n_cubed_criterion(n, dimension(lam)))


def equidistribution_check(f: int, amod: ModularClassVector) -> bool:
    """Every residue count is within 2 n^1.5 / sqrt(f) of uniform, squared exact form."""
    n = amod.n
    bound = 4 * n**5 * f * f
    return all((n * a - f) ** 2 * f <= bound for a in amod)


def dist_check(f: int, amod: ModularClassVector) -> bool | None:
    """Strict 1/n^2 closeness to uniform; None when f is below n^5."""
    n = amod.n
    if f < n**5:
        return None
    return all(abs(n * a - f) * n < f for a in amod)


def fl_bound_check(n: int, ell: int, chi: int, f: int) -> bool:
    """Character magnitude bound at the rectangular type, raised to the ell-th power."""
    if ell < 1 or n % ell != 0:
        raise ValueError(f"need ell | n, got ell={ell}, n={n}")
    s = n // ell
    return abs(chi) ** ell * math.factorial(n) <= math.factorial(s) ** ell * ell ** (s * ell) * f


def fl_log_bound(n: int, ell: int, f: int) -> float:
    """Upper bound for ln(|chi| / f) at the rectangular type, via Stirling.

    Contract: for every shape of n with f tableaux and nonzero character,
    ln(|chi| / f) <= fl_log_bound(n, ell, f) + 1e-9.
    """
    if ell < 2 or n % ell != 0:
        raise ValueError(f"need ell | n and ell >= 2, got ell={ell}, n={n}")
    return (
        (1 - 1 / ell) * (0.5 * math.log(n) - math.log(f) + math.log(math.sqrt(2 * math.pi)))
        + ell / (12 * n)
        - 0.5 * math.log(ell)
    )


def phi_d_check(f: int, chis: Mapping[int, int], amod: ModularClassVector, d: int) -> bool | None:
    """Small normalized characters force 1/n^d closeness to uniform.

    ``chis`` maps each ell | n to the character chi_ell.  Hypothesis,
    checked exactly for every ell != 1: |chi_ell| * n^d * phi(ell) <= f,
    with phi(ell) read from the totient table of n.  When it fails,
    returns None; when it holds, returns whether |a_r / f - 1/n| < 1/n^d
    for all r (exactly).
    """
    if d not in (1, 2):
        raise ValueError(f"d must be 1 or 2, got {d}")
    n = amod.n
    nd = n**d
    phis = totient_table(n)
    if any(abs(chi) * nd * phis[ell] > f for ell, chi in chis.items() if ell != 1):
        return None
    return all(abs(n * a - f) * nd < n * f for a in amod)


def n_cubed_criterion(n: int, f: int) -> bool:
    """Whether f >= n^3, the sufficient condition for no vanishing residue."""
    return f >= n**3


def binomial_lower_bound_check(lam: Partition, f: int) -> bool:
    """f >= binom(n, M) / (M + 1) for every M up to the capped diagonal excess."""
    n = lam.n
    cap = capped_excess(lam)
    return all((m + 1) * f >= math.comb(n, m) for m in range(cap + 1))


# ---------------------------------------------------------------- verify checks


# The ``--suite`` choices of ``modmaj bounds``: each names the checks of
# ``_bounds_row`` it runs, and "all" runs every one.
BOUND_SUITES = ("fl", "equidistribution", "dist", "fl-log", "phi-d", "n-cubed", "binom", "all")


def _bounds_row(task: tuple[tuple[int, ...], str]) -> dict:
    """Every bound of one suite ("all" for every suite) at one shape.

    The values the bounds compare (f, chi_ell for each ell | n, the
    residue counts) are computed here once and passed to each check.  A
    check reads None where its hypothesis does not apply to the shape.
    """
    parts, suite = task
    lam = Partition(parts)
    n = lam.n
    chis = rect_characters(lam)
    f = chis[1]
    amod = _counts_from_characters(n, f, chis)
    checks: dict[str, bool | None] = {}

    def want(name):
        return suite in ("all", name)

    if want("fl"):
        checks["fl"] = all(fl_bound_check(n, ell, chi, f) for ell, chi in chis.items())
    if want("equidistribution"):
        checks["equidistribution"] = equidistribution_check(f, amod)
    if want("dist"):
        checks["dist"] = dist_check(f, amod)
    if want("fl-log"):
        ok = True
        for ell, chi in chis.items():
            if ell != 1 and chi:
                ok = ok and math.log(abs(chi) / f) <= fl_log_bound(n, ell, f) + 1e-9
        checks["fl-log"] = ok
    if want("phi-d"):
        checks["phi-d-1"] = phi_d_check(f, chis, amod, 1)
        checks["phi-d-2"] = phi_d_check(f, chis, amod, 2)
    if want("n-cubed"):
        checks["n-cubed"] = (not n_cubed_criterion(n, f)) or not amod.zero_residues()
    if want("binom"):
        checks["binom"] = binomial_lower_bound_check(lam, f)
    return {"shape": parts, "n": n, "dimension": f, "checks": checks}


def bound_violations(rows: Iterable[dict]) -> list[dict]:
    """One record per check that a ``_bounds_row`` row reports as failed."""
    return [
        {"shape": list(row["shape"]), "check": name}
        for row in rows
        for name, flag in row["checks"].items()
        if flag is False
    ]


def _check_classification(n: int, pool_map: Callable = map) -> dict:
    shapes = [lam.parts for lam in partitions_of(n)]
    rows = list(pool_map(_classification_row, shapes))
    return {
        "n": n,
        "suite": "classification",
        "shapes": len(shapes),
        "small_dimension": sum(small for small, _ in rows),
        "mismatches": [record for _, record in rows if record is not None],
    }


def _check_census(n: int, pool_map: Callable = map) -> dict:
    return {"n": n, "suite": "fdim-census", "small_dimension": _small_dimension_count(n), "mismatches": []}


def _check_ramanujan(n: int, pool_map: Callable = map) -> dict:
    """The two Ramanujan-sum formulas agree for |s| <= 2n, and C^2 = n I."""
    mismatches = []
    for s in range(-2 * n, 2 * n + 1):
        if ramanujan_sum(n, s) != ramanujan_sum_oracle(n, s):
            mismatches.append({"j": n, "s": s})
    square = ramanujan_matrix_square(n)
    for i, row in enumerate(square):
        for j, value in enumerate(row):
            if value != (n if i == j else 0):
                mismatches.append({"matrix_n": n, "row": i, "col": j, "value": value})
    return {"n": n, "suite": "ramanujan", "mismatches": mismatches}


def _check_fiber_laws(n: int, pool_map: Callable = map) -> dict:
    """Hook residues under an empty ell-core, and under removal of an ell-ribbon.

    With an empty ell-core, each class {a, -a} mod ell holds s = n / ell
    hooks per residue in it; removing an ell-ribbon removes one hook per
    residue in each class, for every ell <= n.
    """
    mismatches = []
    for lam in sorted(partitions_of(n)):
        hooks = hook_lengths(lam)
        for ell in divisors(n):
            if ell == 1 or ell_core(lam, ell):
                continue
            s = n // ell
            for a, count in enumerate(_class_counts(hooks, ell)):
                if count != s * _class_size(a, ell):
                    mismatches.append({"shape": list(lam.parts), "ell": ell, "a": a})
        for ell in range(1, n + 1):
            steps = removable_ribbons(lam, ell)
            big = _class_counts(hooks, ell) if steps else ()
            for step in steps:
                small = _class_counts(hook_lengths(step.shape), ell)
                for a in range(ell):
                    if big[a] - small[a] != _class_size(a, ell):
                        mismatches.append(
                            {"shape": list(lam.parts), "ribbon_to": list(step.shape.parts), "ell": ell, "a": a}
                        )
    return {"n": n, "suite": "fiber-laws", "mismatches": mismatches}


def _class_size(a: int, ell: int) -> int:
    """Size of the residue class {a, -a} mod ell."""
    return 1 if 2 * a % ell == 0 else 2


def _class_counts(hooks: list[int], ell: int) -> list[int]:
    """For each a mod ell, how many hooks lie in the class {a, -a} mod ell."""
    residues = Counter(h % ell for h in hooks)
    return [residues[a] + (residues[-a % ell] if 2 * a % ell else 0) for a in range(ell)]


def _check_bounds(n: int, pool_map: Callable = map) -> dict:
    tasks = [(lam.parts, "all") for lam in sorted(partitions_of(n))]
    return {"n": n, "suite": "bounds", "mismatches": bound_violations(pool_map(_bounds_row, tasks))}


# Suite name -> check(n, pool_map=map), in report order.  Each check returns
# the entry ``modmaj verify`` reports and checkpoints for that n; its
# "mismatches" list is empty when the law holds at every shape of n.  A
# check that maps over the shapes of n does so through ``pool_map``.
VERIFY_CHECKS: dict[str, Callable[..., dict]] = {
    "classification": _check_classification,
    "fdim-census": _check_census,
    "ramanujan": _check_ramanujan,
    "fiber-laws": _check_fiber_laws,
    "bounds": _check_bounds,
}
