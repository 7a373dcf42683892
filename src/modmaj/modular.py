"""Residue counts by character formula, the vanishing classification, and bounds.

The centerpiece identity: with f the number of standard tableaux of shape
``lam`` (a partition of n) and chi_ell the character at the rectangular
cycle type with cycles of length ell,

    n * a_r  =  f  +  sum over ell | n, ell != 1 of  chi_ell * c_ell(r)

where ``c_ell(r)`` is a Ramanujan sum and ``a_r`` counts tableaux with
major index congruent to r mod n.  Each c_ell(r), so each a_r, depends
on r only through gcd(r, n): the sum is taken once per divisor d of n, at
r = d mod n, and its tau(n) values are spread over the n residues.  Most
chi_ell are 0, which ``rect_characters`` reads off the hook lengths with
no abacus pass.  Everything stays in integer arithmetic; divisibility by n
is asserted, not assumed.

The classification of the vanishing pairs (lam, r) is a literal case list,
written once as data in the per-n table ``_case_list``: ``zero_residues``
looks a shape up in it and ``predicted_exceptions`` reads its shapes, so no
caller walks the shapes of n, and the exhaustive verifier genuinely tests
that statement rather than a rederivation:

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
residue counts a_r) rather than the shape.  Each inequality is written
once, as a private comparison (``_equidistributed``, ``_dist_verdict``,
``_fl_holds``, ``_fl_log_holds``, ``_phi_d_verdict``); a public
predicate computes its numbers and calls it.  The n^3 criterion and the
binomial bound are one ``>=`` of f each, written where they are read.
``_bounds_row`` computes every number once per shape and calls the
comparisons with them: f and the chi_ell from one ``rect_characters``
call; one count per gcd class (``_class_terms``), and from those the least
and largest count; the nonzero chi_ell with ell != 1, the only ones a
bound can fail at; and n^3, n^5, the multiples and totient tables and the
binomial thresholds of n from one cached ``_bound_constants`` lookup.  The
three closeness bounds (equidistribution, dist, phi_d) each read one
integer, the largest |n a_r - f| over r, which is
max(n max(a) - f, f - n min(a)) (``_deviation``): each bound is monotone
in |n a_r - f|, so it holds at every r exactly when it holds at the
largest, and the comparison stays exact.  The phi_d hypothesis compares
the largest |chi_ell| phi(ell) once with f / n^d.  The Fomin-Lulov bound
reads n! and (s!)^ell ell^(s ell) from the per-n ``multiples_table``.  The
binomial bound compares f once with a per-n table of thresholds.

``induced_multiplicity`` is the representation-theoretic oracle: the
multiplicity of the shape-lam irreducible in a module induced from a
subgroup, given as a ``ClassWeightTable`` of integer weights per cycle
type.  The weighted character sum is linear in the first rim-hook step, so
the table groups its types by first part once and memoizes, per shape nu
that a ribbon leaves, the sum S(nu) of the weights times the characters of
nu at the rest of each type; a shape then costs one lookup per ribbon,
through ``characters._class_sum``, not one per cycle type.

``VERIFY_CHECKS`` at the bottom maps each suite of ``modmaj verify`` to
its check, ``check(ns, pool_map=map)``, which yields one entry per n of ns
in order.  The command and the acceptance gate both run these, so the gate
tests the code the command ships.  ``_run_checks``, beside the registry,
is the one loop over it, for ``modmaj verify`` and ``verify_main_theorem``
alike; it yields the entries as they are computed and owns the
``--resume`` checkpoint: one JSON line per finished (suite, n), read and
validated once per run, so that only the missing entries are computed,
each appended as its check yields it.  The classification check maps one
task per conjugate pair: a shape and its conjugate share the q-hook
quotient and its fold mod q^n - 1, so the sweep computes one fold per
pair, as one cyclotomic product (``qpoly._cyclotomic_fold``), and each
shape's row rotates the folded counts by its own shift.

Parallel work goes through ``sweep_pool(jobs)``, which yields the ordered
map ``pool_map(fn, items)`` of one sweep.  Each check of ``VERIFY_CHECKS``
takes it as its second argument, so the suites of one ``_run_checks`` call
share one ``Pool`` of workers, forked by the map's first parallel call and
shut down when the block ends; the calling thread alone drives them (see
``Pool``).  A worker that dies in the middle of a map is an error
(``ChildProcessError``, exit 2), not a hang, and the workers ignore
SIGINT, so an interrupt reaches this process alone.  The checks that map
over shapes (classification, fiber laws and bounds) read each n's results
in a loop over ``_map_ahead``, which yields n once the map of n + 1 is
queued, so the workers never wait at an n boundary, and at most two n are
in flight.  ``modmaj bounds`` runs the same loop over ``_bounds_tasks`` in
a block of its own.  The workers are forked inside the sweep, so they run
the code in place when the sweep started, patched functions included.
"""

import json
import math
import os
from collections import Counter, deque
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from operator import mul
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import characters
from .characters import _beads, _check_cycles, _class_sum, rect_characters
from .numtheory import (
    divisors,
    multiples_table,
    ramanujan_matrix,
    ramanujan_matrix_square,
    ramanujan_sum,
    ramanujan_sum_oracle,
    totient_table,
)
from .partitions import (
    Partition,
    _bead_set,
    _column_lengths,
    _hook_counts,
    _parts_from_beads,
    _parts_of,
    _removals,
    capped_excess,
    dimension,
    ell_core,
    partitions_of,
)
from .qpoly import Fold, _cyclotomic_fold, amod_by_qhook
from .tableaux import ModularClassVector


def amod_by_character_formula(lam: Partition) -> ModularClassVector:
    """Residue counts from the character formula, all in exact integers."""
    n = lam.n
    if n < 1:
        raise ValueError("amod_by_character_formula requires a nonempty partition")
    chis = rect_characters(lam)
    return _counts_from_characters(n, chis[1], chis)


def _counts_from_characters(n: int, f: int, chis: Mapping[int, int]) -> ModularClassVector:
    """n * a_r = f + sum over ell | n, ell != 1 of chi_ell * c_ell(r), once per gcd class.

    ``_class_terms`` takes one class sum per divisor d of n, and the tau(n)
    counts are spread over the n residues by ``_class_table(n)``.
    """
    terms = _class_terms(n, f, chis)
    return ModularClassVector._of(tuple(map(terms.__getitem__, _class_table(n)[2])))


def _class_terms(n: int, f: int, chis: Mapping[int, int]) -> list[int]:
    """a_r at r = d mod n for each d | n, in ``divisors`` order: one count per gcd class.

    Every c_ell(r) depends on r only through gcd(r, n), so a_r does too,
    and each class holds at least one residue, so these are the values the
    n counts take.  ``chis`` maps each ell | n to chi_ell (an entry for
    ell = 1 is not read).  Each class sum must be divisible by n and the
    count nonnegative.
    """
    ells, columns, _ = _class_table(n)
    chi = [chis[ell] for ell in ells]
    terms = []
    for r, column in columns:
        term, remainder = divmod(f + sum(map(mul, chi, column)), n)
        if remainder:
            raise ArithmeticError(f"n does not divide the class sum for n={n}, f={f}, r={r}")
        if term < 0:
            raise ArithmeticError(f"negative count for n={n}, f={f}, r={r}")
        terms.append(term)
    return terms


@lru_cache(maxsize=128)
def _class_table(n: int) -> tuple[tuple[int, ...], tuple, tuple[int, ...]]:
    """What the class sums of n read, in ``divisors`` order.

    The ell | n other than 1 (ell = 1, whose term is f itself); for each
    d | n, the residue r = d mod n and c_ell(r) at those ell, read off row
    d of ``ramanujan_matrix(n)`` backwards (its r | n ascend, so ell = n / r
    then ascends) less ell = 1; and for each 0 <= r < n, the index of
    gcd(r, n) among the divisors.
    """
    divs = divisors(n)
    ells = tuple(divs[1:])
    columns = tuple((d % n, tuple(row[::-1][1:])) for d, row in zip(divs, ramanujan_matrix(n)))
    index = {d: i for i, d in enumerate(divs)}
    return ells, columns, tuple(index[math.gcd(r, n)] for r in range(n))


@dataclass(frozen=True)
class ClassWeightTable:
    """Integer weight per cycle type plus the order of the inducing subgroup, at least 1.

    ``weights`` is a copy of the mapping given, taken at construction:
    changing that mapping afterwards changes nothing here, and the copy is
    read, never changed.  The copy is grouped once by size and first part
    for ``induced_multiplicity``, and the table keeps, per size n, the memo
    of its first-step class sums S(nu) (see ``characters._class_sum``), one
    entry per shape nu a ribbon leaves, filled as shapes are asked for.
    """

    group_order: int
    weights: Mapping[Partition, int]
    # size -> (its first cycle type, the most parts of a type of nonzero
    # weight, first part -> [(rest of the type, weight), ...])
    _sizes: dict = field(init=False, compare=False, repr=False)
    # size -> {bead set of nu: S(nu)}
    _sums: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.group_order < 1:
            raise ValueError(f"ClassWeightTable requires group_order >= 1, got {self.group_order}")
        weights = dict(self.weights)
        firsts, longest, groups = {}, Counter(), {}
        for mu, c in weights.items():
            firsts.setdefault(mu.n, mu)
            if c and mu.parts:
                longest[mu.n] = max(longest[mu.n], len(mu.parts))
                groups.setdefault(mu.n, {}).setdefault(mu.parts[0], []).append((mu.parts[1:], c))
        sizes = {n: (mu, longest[n], groups.get(n, {})) for n, mu in firsts.items()}
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_sums", {n: {} for n in sizes})


def induced_multiplicity(weights: ClassWeightTable, lam: Partition) -> int:
    """Multiplicity of the shape-lam irreducible in the induced module.

    Computes (1/|H|) * sum of weight(mu) * character(lam at mu); the
    division by the group order must be exact and the result nonnegative,
    otherwise the weight table is inconsistent.  The sum is one lookup of
    the table's S per ribbon of lam (``characters._class_sum``); every
    cycle type must have lam's size, weight 0 included.
    """
    n = lam.n
    for size, (mu, _, _) in weights._sizes.items():
        if size != n:
            raise ValueError(f"cycle type {mu} does not have size {n}")
    _, longest, by_first = weights._sizes.get(n, (None, 0, {}))
    if longest > characters.MAX_CYCLE_PARTS:
        for mu, c in weights.weights.items():
            if c:
                _check_cycles(mu)
    beads = _beads(lam.parts)
    if n:
        total = _class_sum(beads, by_first, weights._sums.get(n, {}))
    else:
        # the character of the empty shape is 1 at its one cycle type, ()
        total = sum(weights.weights.values())
    if total % weights.group_order != 0:
        raise ArithmeticError(f"group order does not divide the weighted sum for {lam}")
    value = total // weights.group_order
    if value < 0:
        raise ArithmeticError(f"negative multiplicity for {lam}")
    return value


def expected_zero(lam: Partition, r: int) -> bool:
    """The literal case list of vanishing (shape, residue) pairs."""
    zeros = zero_residues(lam)  # refuses the empty shape before r % lam.n
    return r % lam.n in zeros


@lru_cache(maxsize=128)
def _case_list(n: int) -> Mapping[tuple[int, ...], frozenset[int]]:
    """Parts -> residues for each shape of n the case list names, one entry per line, in its order.

    A line whose shape is not a partition of n is dropped, and two lines naming
    one shape (n = 2 and 3) union their residues.  The mapping is read-only.
    """
    table = {}
    for parts, residues in (
        ((2, 2), {1, 3}), ((2, 2, 2), {1, 5}), ((3, 3), {2, 4}),
        ((n - 1, 1), {0}),
        ((2,) + (1,) * (n - 2), {0 if n % 2 else n // 2}),
        ((n,), set(range(1, n))),
        ((1,) * n, set(range(1, n)) if n % 2 else set(range(n)) - {n // 2}),
    ):
        if n > 1 and sum(parts) == n:
            table[parts] = table.get(parts, frozenset()) | residues
    return MappingProxyType(table)


def zero_residues(lam: Partition) -> frozenset[int]:
    """All residues the case list predicts to vanish for this shape."""
    if lam.n < 1:
        raise ValueError(f"zero_residues requires a nonempty partition, got {lam}")
    return _case_list(lam.n).get(lam.parts, frozenset())


@dataclass(frozen=True)
class ExceptionRecord:
    """A shape together with the residues predicted to vanish."""

    shape: Partition
    residues: frozenset[int]


def predicted_exceptions(n: int) -> list[ExceptionRecord]:
    """Every shape of n with a nonempty predicted zero set, in report order: the sorted ``_case_list(n)``."""
    if n < 1:
        raise ValueError(f"predicted_exceptions requires n >= 1, got {n}")
    return [ExceptionRecord(Partition(parts), zeros) for parts, zeros in sorted(_case_list(n).items())]


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


def _classification_row(lam: Partition, fold: Fold | None = None) -> tuple[bool, dict | None]:
    """Whether f < n^3 at one shape, and its mismatch record (None when the zero sets agree).

    ``fold`` is the shape's folded q-hook quotient when a conjugate pair
    shares one (see ``_classification_pair``).  The record carries the
    q-hook residue count vector the computed zero set was read from, so
    the failure can be reproduced and checked by hand.
    """
    counts = amod_by_qhook(lam, fold).counts
    computed = [r for r, c in enumerate(counts) if not c] if 0 in counts else []
    predicted = sorted(zero_residues(lam))
    # The q-hook slots are checked to sum to f, so the census reads f off them.
    small = not n_cubed_criterion(lam.n, sum(counts))
    if computed == predicted:
        return small, None
    return small, {"shape": list(lam.parts), "computed": computed, "predicted": predicted, "counts": list(counts)}


def _leads_pair(parts: tuple[int, ...]) -> bool:
    """Whether parts is the lexicographically larger of lam and lam' (or lam = lam').

    Only a shape with lam_1 = len(lam) needs its conjugate to decide:
    otherwise the larger first part, lam_1 against lam'_1 = len(lam), wins.
    """
    first, rows = parts[0], len(parts)
    return first > rows or (first == rows and parts >= tuple(_column_lengths(parts)))


def _classification_pair(parts: tuple[int, ...]) -> list[tuple[bool, dict | None]]:
    """The rows of the pair led by parts (one row when it is self-conjugate).

    lam and lam' have the same hook multiset, so one folded q-hook
    quotient serves both, and each row rotates it by its own shift.
    """
    lam = Partition(parts)
    fold = _cyclotomic_fold(lam)
    rows = [_classification_row(lam, fold)]
    conj = tuple(_column_lengths(parts))
    if conj != parts:
        rows.append(_classification_row(Partition(conj), fold))
    return rows


class Pool:
    """Ordered maps on ``processes`` forked workers, driven by the calling thread alone.

    ``imap`` cuts its items into chunks, queues them in one FIFO shared by
    every map and sends them at once to the idle workers.  A worker holds
    one chunk at a time: this process sends a chunk only to a worker that
    holds none, so it never sends to a worker that may be sending, and
    neither side can block the other.  Iterating a map yields its results
    in order; while it waits for one, it reads whichever busy worker
    answers first and sends that worker the next queued chunk.  The pool
    starts no thread, here or in a worker.  A worker that exits in the
    middle of a map raises ``ChildProcessError``.  Leaving the block
    terminates every worker, closes its pipe and joins it; a worker whose
    parent dies without leaving it, killed say, exits by itself.
    """

    def __init__(self, processes: int):
        import multiprocessing.connection

        context = multiprocessing.get_context("fork")
        self._wait = multiprocessing.connection.wait
        self._queued = deque()  # (pickled chunk, slot) of each chunk not yet sent
        self._workers = {}  # pipe -> process
        self._held = {}  # pipe -> the slot of the one chunk its worker holds, for each busy worker
        try:
            for _ in range(processes):
                pipe, child_pipe = context.Pipe()
                process = context.Process(target=_serve, args=(child_pipe, [*self._workers, pipe]), daemon=True)
                process.start()
                child_pipe.close()
                self._workers[pipe] = process
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        for pipe, process in self._workers.items():
            process.terminate()
            pipe.close()
        for process in self._workers.values():
            process.join()
            process.close()

    def imap(self, fn: Callable, items: Sequence, chunksize: int) -> Iterator:
        """``fn(item)`` for each item, in order; the chunks are queued, and sent to idle workers, at once."""
        import pickle

        messages = [pickle.dumps((fn, items[i : i + chunksize])) for i in range(0, len(items), chunksize)]
        slots = [[] for _ in messages]
        self._queued.extend(zip(messages, slots))
        self._send()
        return self._results(slots)

    def _results(self, slots: list[list]) -> Iterator:
        for slot in slots:
            while not slot:
                self._receive()
            ok, value = slot.pop()
            if not ok:
                raise value
            yield from value

    def _send(self) -> None:
        """Send the next queued chunk to each worker that holds none."""
        for pipe, process in self._workers.items():
            if self._queued and pipe not in self._held:
                message, self._held[pipe] = self._queued.popleft()
                try:
                    pipe.send_bytes(message)
                except OSError as exc:
                    raise _lost(process) from exc

    def _receive(self) -> None:
        """Fill the slot of each worker that has answered, then send more chunks."""
        for pipe in self._wait(list(self._held)):
            try:
                self._held.pop(pipe).append(pipe.recv())
            except (EOFError, OSError) as exc:
                raise _lost(self._workers[pipe]) from exc
        self._send()


def _lost(process) -> ChildProcessError:
    return ChildProcessError(f"worker process {process.pid} exited in the middle of a map")


def _serve(pipe, parent_ends) -> None:
    """A ``Pool`` worker: for each chunk, send back (True, results) or (False, the error it raised).

    The worker receives a chunk, computes it and sends its reply, one chunk
    at a time in its one thread, until the parent closes the pipe or dies.
    It first closes ``parent_ends``, the parent's ends of its own pipe and
    of the pipes of the workers forked before it, which the fork copied:
    then the parent holds the only one, and the worker reads EOF when the
    parent exits, even killed.  It ignores SIGINT, so an interrupt is
    handled by the parent alone.
    """
    import pickle
    import signal

    for end in parent_ends:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with suppress(EOFError, OSError):
        while True:
            message = pipe.recv_bytes()
            try:
                fn, items = pickle.loads(message)
                reply = _pickled_reply(True, [fn(item) for item in items])
            except Exception as exc:
                reply = _pickled_reply(False, exc)
            pipe.send_bytes(reply)


def _pickled_reply(ok: bool, value) -> bytes:
    """The pickled (ok, value); results or an error that cannot be sent become a RuntimeError.

    The RuntimeError carries the repr and the formatted traceback of the
    error.  An error is unpickled once here as well, since an exception
    can pickle and still fail to unpickle.
    """
    import pickle

    try:
        message = pickle.dumps((ok, value))
        if not ok:
            pickle.loads(message)
        return message
    except Exception as exc:
        import traceback

        error = exc if ok else value
        what = "results" if ok else "error"
        text = "".join(traceback.format_exception(error))
        return pickle.dumps((False, RuntimeError(f"a worker's {what} could not be sent back: {error!r}\n{text}")))


@contextmanager
def sweep_pool(jobs: int) -> Iterator[Callable[[Callable, Iterable], Iterator]]:
    """Yield ``pool_map(fn, items)``, an ordered map on one pool of min(jobs, os.cpu_count()) workers.

    The first map with more than one item forks the pool (none when
    min(jobs, os.cpu_count()) is 1), so a block that never needs it starts
    no process.  Each map is cut into about four chunks per worker, enough
    items per message to outweigh pickling and IPC; ``fn`` must be a
    module-level function.  The workers are driven by the caller: each
    holds one chunk at a time, and iterating a map reads their results and
    sends them the chunks still queued; the pool starts no thread here or
    in a worker.  A worker that dies in the middle of a map raises
    ``ChildProcessError``.  Leaving the block terminates and joins the
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
    """One ordered map on a ``sweep_pool(jobs)`` of its own; nothing in ``src`` calls it."""
    with sweep_pool(jobs) as pool_map:
        yield from pool_map(fn, items)


def _map_ahead(
    ns: Iterable[int], pool_map: Callable, fn: Callable, tasks: Callable[[int], list]
) -> Iterator[tuple[int, Iterator]]:
    """``(n, pool_map(fn, tasks(n)))`` for each n of ns, in order, each yielded once the map of n + 1 is queued.

    A pool's ``imap`` queues its chunks when it is called, and reading n's
    results sends them as the workers finish the chunks of n, so the
    workers start on n + 1 while the caller reads n, and no n boundary
    leaves them idle.  At most two n are in flight, so at most two task
    lists are alive at once.
    """
    ahead = None
    for n in ns:
        results = pool_map(fn, tasks(n))
        if ahead is not None:
            yield ahead
        ahead = n, results
    if ahead is not None:
        yield ahead


def verify_main_theorem(n_max: int, jobs: int = 1) -> ClassificationReport:
    """Exhaustively verify the vanishing classification for all n up to n_max.

    The residue counts come from the q-hook route; the report carries any
    mismatches (there should be none) and the census of shapes whose
    tableau count is below n cubed.
    """
    if n_max < 1:
        raise ValueError(f"verify_main_theorem requires n_max >= 1, got {n_max}")
    entries = list(_run_checks(["classification"], n_max, jobs, None))
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
    return _equidistributed(f, _deviation(n, f, min(amod.counts), max(amod.counts)), n**5)


def dist_check(f: int, amod: ModularClassVector) -> bool | None:
    """Strict 1/n^2 closeness to uniform; None when f is below n^5."""
    n = amod.n
    return _dist_verdict(f, _deviation(n, f, min(amod.counts), max(amod.counts)), n, n**5)


def fl_bound_check(n: int, ell: int, chi: int, f: int) -> bool:
    """Character magnitude bound at the rectangular type, raised to the ell-th power.

    |chi|^ell n! <= (s!)^ell ell^(s ell) f with s = n / ell; both constants
    come from the multiples table of n.
    """
    if n < 1:
        raise ValueError(f"fl_bound_check requires n >= 1, got {n}")
    if ell < 1 or n % ell != 0:
        raise ValueError(f"need ell | n, got ell={ell}, n={n}")
    return _fl_holds(f, ell, chi, multiples_table(n))


def fl_log_bound(n: int, ell: int, f: int) -> float:
    """Upper bound for ln(|chi| / f) at the rectangular type, via Stirling.

    Contract: for every shape of n with f tableaux and nonzero character,
    ln(|chi| / f) <= fl_log_bound(n, ell, f) + 1e-9.
    """
    if ell < 2 or n % ell != 0:
        raise ValueError(f"need ell | n and ell >= 2, got ell={ell}, n={n}")
    if n < 1 or f < 1:
        raise ValueError(f"fl_log_bound requires n >= 1 and f >= 1, got n={n}, f={f}")
    return _fl_log_bound(n, ell, f)


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
    phis = totient_table(n)
    most = max((abs(chi) * phis[ell] for ell, chi in chis.items() if ell != 1), default=None)
    return _phi_d_verdict(f, _deviation(n, f, min(amod.counts), max(amod.counts)), n, n**d, most)


def n_cubed_criterion(n: int, f: int) -> bool:
    """Whether f >= n^3, the sufficient condition for no vanishing residue."""
    return f >= n**3


def binomial_lower_bound_check(lam: Partition, f: int) -> bool:
    """f >= binom(n, M) / (M + 1) for every M up to the capped diagonal excess.

    For an integer f that is f >= ceil(binom(n, M) / (M + 1)) at each such
    M, so one comparison with the largest of these, read from the per-n
    ``_binomial_thresholds``.
    """
    return f >= _binomial_thresholds(lam.n)[capped_excess(lam)]


@lru_cache(maxsize=128)
def _binomial_thresholds(n: int) -> tuple[int, ...]:
    """Entry M is the largest ceil(binom(n, M') / (M' + 1)) over M' <= M, for 0 <= M <= n."""
    return tuple(accumulate((-(-math.comb(n, m) // (m + 1)) for m in range(n + 1)), max))


# Each bound as one exact comparison of the numbers it reads, written once:
# ``_bounds_row`` calls these with the values it computes once per shape,
# and each public predicate above computes the same values and calls them.


def _deviation(n: int, f: int, low: int, high: int) -> int:
    """max over r of |n a_r - f| from the least and largest count, the one integer each closeness bound reads.

    n a_r - f grows with a_r, so its largest value is at the largest count
    and its most negative at the smallest.
    """
    return max(n * high - f, f - n * low)


def _equidistributed(f: int, dev: int, n5: int) -> bool:
    """dev <= 2 n^2.5 sqrt(f), squared and times f: dev^2 f <= 4 n^5 f^2."""
    return dev * dev * f <= 4 * n5 * f * f


def _dist_verdict(f: int, dev: int, n: int, n5: int) -> bool | None:
    """None when f < n^5; otherwise dev < f / n, which is |a_r / f - 1/n| < 1/n^2 at every r."""
    if f < n5:
        return None
    return dev * n < f


def _fl_holds(f: int, ell: int, chi: int, table: Mapping[int, tuple[int, int]]) -> bool:
    """|chi|^ell n! <= (s!)^ell ell^(s ell) f, both constants read from the multiples ``table`` of n."""
    return abs(chi) ** ell * table[1][0] <= table[ell][1] * f


def _fl_log_bound(n: int, ell: int, f: int) -> float:
    """``fl_log_bound`` without its check of ell."""
    return (
        (1 - 1 / ell) * (0.5 * math.log(n) - math.log(f) + math.log(math.sqrt(2 * math.pi)))
        + ell / (12 * n)
        - 0.5 * math.log(ell)
    )


def _fl_log_holds(f: int, ell: int, chi: int, n: int) -> bool:
    """ln(|chi| / f) <= ``fl_log_bound`` + 1e-9, the one comparison in floats."""
    return math.log(abs(chi) / f) <= _fl_log_bound(n, ell, f) + 1e-9


def _phi_d_verdict(f: int, dev: int, n: int, nd: int, most: int | None) -> bool | None:
    """None when |chi_ell| phi(ell) n^d > f at some ell != 1; otherwise dev n^d < n f, which is 1/n^d closeness.

    ``most`` is the largest |chi_ell| phi(ell) over ell != 1, and None
    when there is no such ell (n = 1).  ``_bounds_row`` reads the nonzero
    chi_ell alone, so its ``most`` is None also when all of them are 0,
    which gives the same verdict at any f >= 0.
    """
    if most is not None and most * nd > f:
        return None
    return dev * nd < n * f


@lru_cache(maxsize=128)
def _bound_constants(n: int) -> tuple:
    """n^3, n^5, and the multiples, totient and binomial-threshold tables: all the bounds read of n."""
    return n**3, n**5, multiples_table(n), totient_table(n), _binomial_thresholds(n)


# ---------------------------------------------------------------- verify checks


# The ``--suite`` choices of ``modmaj bounds``: each names the checks of
# ``_bounds_row`` it runs, and "all" runs every one.
BOUND_SUITES = ("fl", "equidistribution", "dist", "fl-log", "phi-d", "n-cubed", "binom", "all")


def _bounds_row(task: tuple[tuple[int, ...], str]) -> dict:
    """Every bound of one suite ("all" for every suite) at one shape.

    Each number the bounds compare is computed once: f and the chi_ell from
    one ``rect_characters`` call; the class terms of the residue counts
    (``_class_terms``), their least and largest, and the deviation from
    those; the nonzero chi_ell with ell != 1; and the constants of n from
    one ``_bound_constants`` lookup.  Each bound is then one call of its
    comparison, or one ``>=`` of f.  A check reads None where its
    hypothesis does not apply to the shape.
    """
    parts, suite = task
    lam = Partition(parts)
    n = lam.n
    chis = rect_characters(lam)
    f = chis[1]
    terms = _class_terms(n, f, chis)
    low, high = min(terms), max(terms)
    dev = _deviation(n, f, low, high)
    # A zero character passes every bound that reads it; chi_1 = f is never zero.
    others = [(ell, chi) for ell, chi in chis.items() if chi and ell != 1]
    n3, n5, table, phis, thresholds = _bound_constants(n)
    every = suite == "all"
    checks: dict[str, bool | None] = {}
    if every or suite == "fl":
        checks["fl"] = _fl_holds(f, 1, f, table) and all(_fl_holds(f, ell, chi, table) for ell, chi in others)
    if every or suite == "equidistribution":
        checks["equidistribution"] = _equidistributed(f, dev, n5)
    if every or suite == "dist":
        checks["dist"] = _dist_verdict(f, dev, n, n5)
    if every or suite == "fl-log":
        checks["fl-log"] = all(_fl_log_holds(f, ell, chi, n) for ell, chi in others)
    if every or suite == "phi-d":
        most = max((abs(chi) * phis[ell] for ell, chi in others), default=None)
        checks["phi-d-1"] = _phi_d_verdict(f, dev, n, n, most)
        checks["phi-d-2"] = _phi_d_verdict(f, dev, n, n * n, most)
    if every or suite == "n-cubed":
        checks["n-cubed"] = f < n3 or low > 0
    if every or suite == "binom":
        checks["binom"] = f >= thresholds[capped_excess(lam)]
    return {"shape": parts, "n": n, "dimension": f, "checks": checks}


def bound_violations(rows: Iterable[dict]) -> list[dict]:
    """One record per check that a ``_bounds_row`` row reports as failed."""
    return [
        {"shape": list(row["shape"]), "check": name}
        for row in rows
        for name, flag in row["checks"].items()
        if flag is False
    ]


def _check_classification(ns: Iterable[int], pool_map: Callable = map) -> Iterator[dict]:
    """One task per conjugate pair; mismatches come back in ``partitions_of`` order."""
    for n, pairs in _map_ahead(ns, pool_map, _classification_pair, _pair_leaders):
        yield _classification_entry(n, pairs)


def _pair_leaders(n: int) -> list[tuple[int, ...]]:
    return [parts for parts in _parts_of(n) if _leads_pair(parts)]


def _classification_entry(n: int, pairs: Iterator[list[tuple[bool, dict | None]]]) -> dict:
    shapes = small = 0
    mismatches = []
    for rows in pairs:
        for is_small, record in rows:
            shapes += 1
            small += is_small
            if record is not None:
                mismatches.append(record)
    mismatches.sort(key=lambda record: record["shape"], reverse=True)
    return {
        "n": n,
        "suite": "classification",
        "shapes": shapes,
        "small_dimension": small,
        "mismatches": mismatches,
    }


def _check_census(ns: Iterable[int], pool_map: Callable = map) -> Iterator[dict]:
    for n in ns:
        yield {"n": n, "suite": "fdim-census", "small_dimension": _small_dimension_count(n), "mismatches": []}


def _check_ramanujan(ns: Iterable[int], pool_map: Callable = map) -> Iterator[dict]:
    """The two Ramanujan-sum formulas agree for |s| <= 2n, and C^2 = n I."""
    for n in ns:
        yield {"n": n, "suite": "ramanujan", "mismatches": _ramanujan_mismatches(n)}


def _ramanujan_mismatches(n: int) -> list[dict]:
    mismatches = []
    for s in range(-2 * n, 2 * n + 1):
        if ramanujan_sum(n, s) != ramanujan_sum_oracle(n, s):
            mismatches.append({"j": n, "s": s})
    square = ramanujan_matrix_square(n)
    for i, row in enumerate(square):
        for j, value in enumerate(row):
            if value != (n if i == j else 0):
                mismatches.append({"matrix_n": n, "row": i, "col": j, "value": value})
    return mismatches


def _check_fiber_laws(ns: Iterable[int], pool_map: Callable = map) -> Iterator[dict]:
    """Hook residues under an empty ell-core, and under removal of an ell-ribbon.

    With an empty ell-core, each class {a, -a} mod ell holds s = n / ell
    hooks per residue in it; removing an ell-ribbon removes one hook per
    residue in each class, for every ell <= n.  As ``_class_counts`` counts
    a class once per residue in it, the laws compare with 2s and 2.  Hooks are counted
    (``_hook_counts``) on bead sets; ``ell_core`` finds the core, as the ell-weight assumes the law.
    """
    for n, rows in _map_ahead(ns, pool_map, _fiber_law_row, lambda n: sorted(_parts_of(n))):
        yield {"n": n, "suite": "fiber-laws", "mismatches": [record for row in rows for record in row]}


def _fiber_law_row(parts: tuple[int, ...]) -> list[dict]:
    """The fiber-law mismatches of one shape; its ribbons by decreasing bead, as ``removable_ribbons`` lists them."""
    lam = Partition(parts)
    n = lam.n
    beads = _bead_set(parts)
    counts = _hook_counts(beads)
    mismatches = []
    for ell in divisors(n):
        if ell == 1 or ell_core(lam, ell):
            continue
        s = n // ell
        for a, count in enumerate(_class_counts(counts, ell)):
            if count != 2 * s:
                mismatches.append({"shape": list(parts), "ell": ell, "a": a})
    for ell in range(1, n + 1):
        steps = _removals(beads, ell)
        big = _class_counts(counts, ell) if steps else ()
        for _, left in reversed(steps):
            small = _class_counts(_hook_counts(left), ell)
            for a in range(ell):
                if big[a] - small[a] != 2:
                    mismatches.append(
                        {"shape": list(parts), "ribbon_to": list(_parts_from_beads(left)), "ell": ell, "a": a}
                    )
    return mismatches


def _class_counts(counts: list[int], ell: int) -> list[int]:
    """For each a mod ell, the histogram's hooks congruent to a plus those congruent to -a: a class {a} = {-a} counts twice."""
    residues = [sum(counts[a::ell]) for a in range(ell)]
    return [residues[a] + residues[-a] for a in range(ell)]


def _check_bounds(ns: Iterable[int], pool_map: Callable = map) -> Iterator[dict]:
    for n, rows in _map_ahead(ns, pool_map, _bounds_row, _bounds_tasks):
        yield {"n": n, "suite": "bounds", "mismatches": bound_violations(rows)}


def _bounds_tasks(n: int, suite: str = "all") -> list[tuple[tuple[int, ...], str]]:
    """One ``_bounds_row`` task per shape of n: every suite for ``verify``, one for ``modmaj bounds``."""
    return [(parts, suite) for parts in sorted(_parts_of(n))]


# Suite name -> check(ns, pool_map=map), in report order.  Each check yields,
# for each n of ns in order, the entry ``modmaj verify`` reports and
# checkpoints for that n; its "mismatches" list is empty when the law holds
# at every shape of n.  A check that maps over the shapes of n does so
# through ``pool_map`` and ``_map_ahead``, and reads each n's results in a
# loop of its own, which ``_map_ahead`` enters once the next n's map is queued.
VERIFY_CHECKS: dict[str, Callable[..., Iterator[dict]]] = {
    "classification": _check_classification,
    "fdim-census": _check_census,
    "ramanujan": _check_ramanujan,
    "fiber-laws": _check_fiber_laws,
    "bounds": _check_bounds,
}


CENSUS_SUITES = ("classification", "fdim-census")  # their entries carry small_dimension


def _checkpoint_read(path: str, suites: list[str]) -> dict[tuple[str, int], dict]:
    """Checkpoint entries of the given suites, keyed by (suite, n).

    A last line with no newline that does not parse is a write torn by a
    kill: it is cut from the file, so its n is computed again.  A malformed
    line anywhere else is a ValueError, and so is an entry whose ``n`` or
    ``small_dimension`` (required in ``CENSUS_SUITES``) is no int, bool
    included, or whose ``mismatches`` is no list.
    """
    done = {}
    if not os.path.exists(path):
        return done
    with open(path, "r+b") as fh:
        data = fh.read()
        complete = data.rfind(b"\n") + 1
        if data[complete:].strip():
            try:
                json.loads(data[complete:])
            except ValueError:
                fh.truncate(complete)
                data = data[:complete]
            else:
                fh.write(b"\n")
    for number, line in enumerate(data.decode("utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            if not isinstance(entry, dict) or type(entry.get("n")) is not int:
                raise ValueError("not a checkpoint entry")
            if not isinstance(entry.get("mismatches"), list):
                raise ValueError('"mismatches" is not a list')
            census = entry.get("suite") in CENSUS_SUITES
            if type(entry.get("small_dimension", None if census else 0)) is not int:
                raise ValueError('"small_dimension" is missing or not a whole number')
        except ValueError as exc:
            raise ValueError(f"checkpoint {path}, line {number}: {exc}") from None
        if entry.get("suite") in suites:
            done[entry["suite"], entry["n"]] = entry
    return done


def _run_checks(suites: list[str], n_max: int, jobs: int, checkpoint: str | None) -> Iterator[dict]:
    """Each suite's entries for n = 1..n_max in n order, suite by suite, yielded as computed on one ``sweep_pool(jobs)``.

    With a ``checkpoint`` path the file is read once, and only the (suite,
    n) it lacks are computed, each appended to it as its check yields it,
    so a killed run resumes where it stopped.
    """
    done = _checkpoint_read(checkpoint, suites) if checkpoint else {}
    ns = range(1, n_max + 1)
    with sweep_pool(jobs) as pool_map:
        for suite in suites:
            computed = VERIFY_CHECKS[suite]([n for n in ns if (suite, n) not in done], pool_map)
            for n in ns:
                entry = done.pop((suite, n), None)
                if entry is None:
                    entry = next(computed)
                    if checkpoint:
                        with open(checkpoint, "a", encoding="utf-8") as fh:
                            fh.write(json.dumps(entry, sort_keys=True) + "\n")
                yield entry
