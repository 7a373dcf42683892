"""Command-line interface: tables, characters, verification sweeps, reports.

Subcommands::

    modmaj table    --shape 4,2,1 [--method enumerate|qhook|formula|all]
    modmaj char     --shape 4,2,1 (--ell 2 | --mu 3,3,1)
    modmaj verify   --n-max 12 [--suite classification|fdim-census|ramanujan|fiber-laws|bounds|all]
    modmaj classify --n-max 6
    modmaj bounds   --n-max 14 [--suite fl|equidistribution|dist|fl-log|phi-d|n-cubed|binom|all]

Common flags: --format json|csv|text, --out FILE (report).  ``table``
takes --budget N (enumeration cap, in subshapes).  ``verify`` and
``bounds`` take --jobs N (worker processes, default from MODMAJ_JOBS; one
pool serves the whole command), and ``verify`` takes --resume FILE
(checkpoint for long sweeps, kept by ``modular._run_checks``: one JSON
line per completed suite and n, read back on restart so an interrupted
run picks up where it left off).

Exit codes: 0 all checks pass, 1 a mathematical mismatch was found,
2 usage error, 3 internal assertion failure.

Reports are deterministic: keys sorted, shapes in lexicographic order of
their part lists, no timestamps.  Same config, same bytes.  A JSON report
is exactly ``json.dumps(report, sort_keys=True, indent=2)`` and a newline,
written by ``report.json_text``.  Each ``cmd_*`` only computes: it returns
``(code, config, results, summary, text_lines, csv_rows)`` (CSV rows drained
only for ``--format csv``) and raises ValueError on a usage error.  ``main``
alone opens ``--out`` before any work, builds the report, hands it to
``report.emit`` and maps errors to exit codes.

``cmd_verify``, ``cmd_classify`` and ``cmd_bounds`` return their reports
unevaluated: results, text lines and CSV rows are generators over one
sweep, which runs as ``emit`` writes the chosen format, one n at a time;
the summary is filled in as the sweep ends, and so is the exit code of
``verify`` and ``bounds`` (a function).  So ``main`` reads the exit code
only after the report is written.
"""

import argparse
import os
import sys
from operator import itemgetter

from .characters import mn_character, rect_character
from .modular import (
    BOUND_SUITES,
    CENSUS_SUITES,
    VERIFY_CHECKS,
    _bounds_row,
    _bounds_tasks,
    _map_ahead,
    _run_checks,
    amod_by_character_formula,
    bound_violations,
    predicted_exceptions,
    sweep_pool,
    zero_residues,
)
from .partitions import Partition, dimension, ell_core
from .qpoly import PolynomialBudgetExceeded, _within_budget, amod_by_qhook, maj_generating_polynomial
from .report import emit
from .tableaux import DEFAULT_ENUMERATION_BUDGET, EnumerationBudgetExceeded, amod_by_enumeration

VERIFY_SUITES = (*VERIFY_CHECKS, "all")


def _jobs(text: str) -> int:
    """A ``--jobs`` value; argparse also converts the MODMAJ_JOBS default with it."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 1, got {text!r} (the default comes from MODMAJ_JOBS)"
        )
    return jobs


def _whole_number(text: str) -> int:
    """An ``--n-max`` or ``--budget`` value, a whole number >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modmaj",
        description="Counts of standard Young tableaux by major index residue, "
        "characters at rectangular cycle types, and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, shape=False, nmax=False, jobs=False):
        if shape:
            p.add_argument("--shape", required=True, help='partition, e.g. "4,2,1" or "2^3,1"')
        if nmax:
            p.add_argument("--n-max", type=_whole_number, required=True, dest="n_max")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        if jobs:
            p.add_argument("--jobs", type=_jobs, default=os.environ.get("MODMAJ_JOBS", "1"))
        p.add_argument("--out", help="write the report to this file")

    p_table = sub.add_parser("table", help="residue counts for one shape")
    common(p_table, shape=True)
    p_table.add_argument(
        "--method", choices=("enumerate", "qhook", "formula", "all"), default="qhook"
    )
    p_table.add_argument(
        "--budget", type=_whole_number, default=DEFAULT_ENUMERATION_BUDGET,
        help="enumeration budget, in subshapes",
    )

    p_char = sub.add_parser("char", help="character value for one shape")
    common(p_char, shape=True)
    group = p_char.add_mutually_exclusive_group(required=True)
    group.add_argument("--ell", type=int, help="cycle length of a rectangular type")
    group.add_argument("--mu", help="full cycle type as a partition")

    p_verify = sub.add_parser("verify", help="exhaustive verification sweeps")
    common(p_verify, nmax=True, jobs=True)
    p_verify.add_argument("--suite", choices=VERIFY_SUITES, default="classification")
    p_verify.add_argument("--resume", help="checkpoint file, one JSON line per finished suite and n")

    p_classify = sub.add_parser("classify", help="predicted vanishing residues per n")
    common(p_classify, nmax=True)

    p_bounds = sub.add_parser("bounds", help="inequality suites per shape")
    common(p_bounds, nmax=True, jobs=True)
    p_bounds.add_argument("--suite", choices=BOUND_SUITES, default="all")

    return parser


def _parse_shape(text: str) -> Partition:
    lam = Partition.parse(text)
    if lam.n < 1:
        raise ValueError("shape must be nonempty")
    return lam


# ---------------------------------------------------------------- table


def cmd_table(args):
    lam = _parse_shape(args.shape)
    n = lam.n
    # The q-hook goes first, so a polynomial past its budget is refused
    # before any enumeration, naming the one route left.  The report sorts
    # the methods, so the order does not reach it.
    methods = ["qhook", "enumerate", "formula"] if args.method == "all" else [args.method]
    vectors = {}
    poly = None
    for method in methods:
        if method == "enumerate":
            try:
                vectors[method] = amod_by_enumeration(lam, budget=args.budget)
            except EnumerationBudgetExceeded as exc:
                routes = "qhook or formula" if _within_budget(lam, dimension(lam)) else "formula"
                raise ValueError(f"{exc}; use --method {routes}") from None
        elif method == "qhook":
            # The polynomial and the counts each come from one cyclotomic product.
            try:
                poly = maj_generating_polynomial(lam)
            except PolynomialBudgetExceeded as exc:
                raise ValueError(f"{exc}; use --method formula for the residue counts alone") from None
            vectors[method] = amod_by_qhook(lam)
        else:
            vectors[method] = amod_by_character_formula(lam)
    agree = len({tuple(v) for v in vectors.values()}) == 1
    results = [
        {"method": m, "counts": list(v), "zero_residues": sorted(v.zero_residues())}
        for m, v in sorted(vectors.items())
    ]
    summary = {
        "n": n,
        "dimension": dimension(lam),
        "agreement": agree,
        "predicted_zero_residues": sorted(zero_residues(lam)),
    }
    if poly is not None:
        summary["maj_polynomial"] = poly.to_text()
    config = {"shape": list(lam.parts), "method": args.method}
    csv_rows = (
        {"shape": str(lam), "n": n, "r": r, **{m: vectors[m][r] for m in sorted(vectors)}}
        for r in range(n)
    )
    text = [f"shape {lam}  n={n}  dimension={summary['dimension']}"]
    for m, v in sorted(vectors.items()):
        text.append(f"  {m:<9} {list(v)}")
    if "maj_polynomial" in summary:
        text.append(f"  maj polynomial: {summary['maj_polynomial']}")
    if args.method == "all":
        text.append(f"  agreement: {'OK' if agree else 'MISMATCH'}")
    return 0 if agree else 1, config, results, summary, text, csv_rows


# ---------------------------------------------------------------- char


def cmd_char(args):
    lam = _parse_shape(args.shape)
    n = lam.n
    config = {"shape": list(lam.parts)}
    if args.mu is not None:
        mu = _parse_shape(args.mu)
        if mu.n != n:
            raise ValueError(f"cycle type {mu} does not have size {n}")
        config["mu"] = list(mu.parts)
        value = mn_character(lam, mu)
        result = {"shape": list(lam.parts), "cycle_type": list(mu.parts), "value": value}
        text = [f"chi({lam}) at cycle type {mu} = {value}"]
    else:
        ell = args.ell
        if ell is None or ell < 1 or n % ell != 0:
            raise ValueError(f"--ell must divide n={n}")
        config["ell"] = ell
        core = ell_core(lam, ell)
        value = rect_character(lam, ell)
        magnitude = abs(value)
        sign = -1 if value < 0 else 1
        result = {
            "shape": list(lam.parts),
            "ell": ell,
            "value": value,
            "sign": sign,
            "magnitude": magnitude,
            "core": list(core.parts),
            "core_empty": not core,
        }
        text = [
            f"chi({lam}) at rectangular type ({ell}^{n // ell}) = {value}"
            f"  [sign {sign:+d}, magnitude {magnitude}]",
            f"  {ell}-core: {core if core else 'empty'}",
        ]
    return 0, config, [result], {"value": value}, text, [result]


# ---------------------------------------------------------------- verify


def cmd_verify(args):
    suites = list(VERIFY_CHECKS) if args.suite == "all" else [args.suite]
    census_suite = next((s for s in CENSUS_SUITES if s in suites), None)
    summary = {"mismatches": 0}
    if census_suite:
        summary["small_dimension_total"] = 0

    def entries():
        for e in _run_checks(suites, args.n_max, args.jobs, args.resume):
            summary["mismatches"] += len(e["mismatches"])
            if e["suite"] == census_suite:
                summary["small_dimension_total"] += e["small_dimension"]
            yield e
        summary["ok"] = not summary["mismatches"]

    def text_lines():
        yield f"verify up to n={args.n_max}, suite={args.suite}"
        for e in sweep:
            extra = f"  shapes-with-small-dimension={e['small_dimension']}" if "small_dimension" in e else ""
            yield f"  n={e['n']:>3} {e['suite']:<15} mismatches={len(e['mismatches'])}{extra}"
        yield f"total mismatches: {summary['mismatches']}"
        if census_suite:
            yield f"shapes with dimension below n^3: {summary['small_dimension_total']}"

    sweep = entries()
    csv_rows = (
        {"suite": e["suite"], "n": e["n"], "mismatches": len(e["mismatches"]), "small_dimension": e.get("small_dimension")}
        for e in sweep
    )
    results = ([e] for e in sweep)
    config = {"n_max": args.n_max, "suite": args.suite}
    return (lambda: 0 if summary["ok"] else 1), config, results, summary, text_lines(), csv_rows


# ---------------------------------------------------------------- classify


# The CSV header of each command whose report can have no row (classify
# --n-max 1 has none); the others take the header from their first row.
CSV_HEADERS = {"classify": ("n", "shape", "residues")}


def cmd_classify(args):
    """A streamed report, like ``cmd_bounds``: one pass over n, each n's records written and dropped in turn."""
    summary = {"total_exceptional_shapes": 0}

    def per_n():
        for n in range(1, args.n_max + 1):
            records = [
                {"shape": list(rec.shape.parts), "residues": sorted(rec.residues)}
                for rec in predicted_exceptions(n)
            ]
            summary["total_exceptional_shapes"] += len(records)
            yield n, records

    def text_lines():
        for n, records in sweep:
            yield f"n={n}:"
            if not records:
                yield "  (no vanishing residues predicted)"
            for rec in records:
                shape = ",".join(map(str, rec["shape"]))
                yield f"  ({shape}): {{{', '.join(map(str, rec['residues']))}}}"

    sweep = per_n()
    csv_rows = (
        {"n": n, "shape": rec["shape"], "residues": " ".join(map(str, rec["residues"]))}
        for n, records in sweep
        for rec in records
    )
    results = ([{"n": n, "exceptions": records}] for n, records in sweep)
    return 0, {"n_max": args.n_max}, results, summary, text_lines(), csv_rows


# ---------------------------------------------------------------- bounds


def cmd_bounds(args):
    """A streamed report: one sweep, run by whichever output the format consumes.

    Each n's rows are checked once, handed on and dropped, so memory is
    bounded by one n, not by every shape up to ``--n-max``.
    """
    violations = []
    summary = {"violations": violations}

    def per_n():
        with sweep_pool(args.jobs) as pool_map:
            for n, rows in _map_ahead(
                range(1, args.n_max + 1), pool_map, _bounds_row, lambda n: _bounds_tasks(n, args.suite)
            ):
                rows = list(rows)
                found = bound_violations(rows)
                violations.extend(found)
                yield n, rows, len(found)
                del rows  # not held while the next n lists the tasks of n + 2
        summary["ok"] = not violations

    def text_lines():
        yield f"bounds up to n={args.n_max}, suite={args.suite}"
        for n, _, found in sweep:
            yield f"  n={n:>3} violations={found}"
        yield "all bounds hold" if not violations else f"VIOLATIONS: {violations}"

    sweep = per_n()
    csv_rows = (
        {"shape": r["shape"], "n": r["n"], "dimension": r["dimension"], **r["checks"]}
        for _, rows, _ in sweep
        for r in rows
    )
    config = {"n_max": args.n_max, "suite": args.suite}
    results = map(itemgetter(1), sweep)  # unlike a generator expression, keeps no rows of its own
    return (lambda: 0 if not violations else 1), config, results, summary, text_lines(), csv_rows


# ---------------------------------------------------------------- entry


def _check_out(path: str | None) -> None:
    """Fail on an ``--out`` path that cannot be written before a command starts.

    Opening it for appending creates a missing file and truncates none, so
    an earlier report stays as it is until the new one replaces it.
    """
    if path:
        with open(path, "a", encoding="utf-8"):
            pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "table": cmd_table,
        "char": cmd_char,
        "verify": cmd_verify,
        "classify": cmd_classify,
        "bounds": cmd_bounds,
    }
    try:
        _check_out(args.out)
        code, config, results, summary, text, csv_rows = handlers[args.command](args)
        report = {"config": {"command": args.command, **config}, "results": results, "summary": summary}
        emit(report, args.format, args.out, text, csv_rows, CSV_HEADERS.get(args.command))
        return code() if callable(code) else code
    except (ValueError, OSError) as exc:
        print(f"modmaj: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"modmaj: internal consistency failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
