"""Command-line interface: tables, characters, verification sweeps, reports.

Subcommands::

    modmaj table    --shape 4,2,1 [--method enumerate|qhook|formula|all]
    modmaj char     --shape 4,2,1 (--ell 2 | --mu 3,3,1)
    modmaj verify   --n-max 12 [--suite classification|fdim-census|ramanujan|fiber-laws|bounds|all]
    modmaj classify --n-max 6
    modmaj bounds   --n-max 14 [--suite fl|equidistribution|dist|fl-log|phi-d|n-cubed|binom|all]

Common flags: --format json|csv|text, --out FILE (report).  ``table``
takes --budget N (enumeration cap).  ``verify`` and ``bounds`` take --jobs
N (worker processes, default from MODMAJ_JOBS; one pool serves the whole
command), and ``verify`` takes --resume FILE (checkpoint for long sweeps:
one JSON line per completed n, read back on restart so an interrupted run
picks up where it left off).

Exit codes: 0 all checks pass, 1 a mathematical mismatch was found,
2 usage error, 3 internal assertion failure.

Reports are deterministic: keys sorted, shapes in lexicographic order of
their part lists, no timestamps.  Same config, same bytes.
"""

import argparse
import csv
import io
import json
import os
import sys

from .characters import mn_character, rect_character
from .modular import (
    BOUND_SUITES,
    VERIFY_CHECKS,
    _bounds_row,
    amod_by_character_formula,
    bound_violations,
    parallel_map,
    predicted_exceptions,
    sweep_pool,
    zero_residues,
)
from .partitions import Partition, dimension, ell_core, partitions_of
from .qpoly import amod_by_qhook, maj_generating_polynomial
from .tableaux import EnumerationBudgetExceeded, amod_by_enumeration

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


def _n_max(text: str) -> int:
    """An ``--n-max`` value, a whole number >= 1."""
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
            p.add_argument("--n-max", type=_n_max, required=True, dest="n_max")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        if jobs:
            p.add_argument("--jobs", type=_jobs, default=os.environ.get("MODMAJ_JOBS", "1"))
        p.add_argument("--out", help="write the report to this file")

    p_table = sub.add_parser("table", help="residue counts for one shape")
    common(p_table, shape=True)
    p_table.add_argument(
        "--method", choices=("enumerate", "qhook", "formula", "all"), default="qhook"
    )
    p_table.add_argument("--budget", type=int, default=10**7, help="enumeration cap")

    p_char = sub.add_parser("char", help="character value for one shape")
    common(p_char, shape=True)
    group = p_char.add_mutually_exclusive_group(required=True)
    group.add_argument("--ell", type=int, help="cycle length of a rectangular type")
    group.add_argument("--mu", help="full cycle type as a partition")

    p_verify = sub.add_parser("verify", help="exhaustive verification sweeps")
    common(p_verify, nmax=True, jobs=True)
    p_verify.add_argument("--suite", choices=VERIFY_SUITES, default="classification")
    p_verify.add_argument("--resume", help="checkpoint file, one JSON line per finished n")

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


# ---------------------------------------------------------------- reports


def _emit(report: dict, fmt: str, out: str | None, text_lines: list[str], csv_rows=None) -> None:
    if fmt == "json":
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        payload = _to_csv(csv_rows or [])
    else:
        payload = "\n".join(text_lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------- table


def cmd_table(args) -> int:
    lam = _parse_shape(args.shape)
    n = lam.n
    methods = ["enumerate", "qhook", "formula"] if args.method == "all" else [args.method]
    vectors = {}
    poly = None
    for method in methods:
        if method == "enumerate":
            try:
                vectors[method] = amod_by_enumeration(lam, budget=args.budget)
            except EnumerationBudgetExceeded as exc:
                print(f"modmaj table: {exc}; use --method qhook or formula", file=sys.stderr)
                return 2
        elif method == "qhook":
            poly = maj_generating_polynomial(lam)
            vectors[method] = amod_by_qhook(lam, poly)
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
    report = {
        "config": {"command": "table", "shape": list(lam.parts), "method": args.method},
        "results": results,
        "summary": summary,
    }
    csv_rows = [
        {"shape": str(lam), "n": n, "r": r, **{m: vectors[m][r] for m in sorted(vectors)}}
        for r in range(n)
    ]
    text = [f"shape {lam}  n={n}  dimension={summary['dimension']}"]
    for m, v in sorted(vectors.items()):
        text.append(f"  {m:<9} {list(v)}")
    if "maj_polynomial" in summary:
        text.append(f"  maj polynomial: {summary['maj_polynomial']}")
    if args.method == "all":
        text.append(f"  agreement: {'OK' if agree else 'MISMATCH'}")
    _emit(report, args.format, args.out, text, csv_rows)
    return 0 if agree else 1


# ---------------------------------------------------------------- char


def cmd_char(args) -> int:
    lam = _parse_shape(args.shape)
    n = lam.n
    if args.mu is not None:
        mu = _parse_shape(args.mu)
        if mu.n != n:
            print(f"modmaj char: cycle type {mu} does not have size {n}", file=sys.stderr)
            return 2
        value = mn_character(lam, mu)
        result = {"shape": list(lam.parts), "cycle_type": list(mu.parts), "value": value}
        text = [f"chi({lam}) at cycle type {mu} = {value}"]
    else:
        ell = args.ell
        if ell is None or ell < 1 or n % ell != 0:
            print(f"modmaj char: --ell must divide n={n}", file=sys.stderr)
            return 2
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
    config = {"command": "char", "shape": list(lam.parts)}
    if args.mu is not None:
        config["mu"] = list(mu.parts)
    else:
        config["ell"] = args.ell
    report = {
        "config": config,
        "results": [result],
        "summary": {"value": result["value"]},
    }
    csv_rows = [
        {k: (",".join(map(str, v)) if isinstance(v, list) else v) for k, v in result.items()}
    ]
    _emit(report, args.format, args.out, text, csv_rows)
    return 0


# ---------------------------------------------------------------- verify


def _checkpoint_read(path: str, suite: str) -> dict[int, dict]:
    """Checkpoint entries of one suite, keyed by n.

    A last line with no newline that does not parse is a write torn by a
    kill: it is cut from the file, so its n is computed again.  A malformed
    line anywhere else is a ValueError, and so is an entry whose ``n`` or
    ``small_dimension`` (if present) is no int, bool included, or whose ``mismatches`` is no list.
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
            if type(entry.get("small_dimension", 0)) is not int:
                raise ValueError('"small_dimension" is not a whole number')
        except ValueError as exc:
            raise ValueError(f"checkpoint {path}, line {number}: {exc}") from None
        if entry.get("suite") == suite:
            done[entry["n"]] = entry
    return done


def _checkpoint_append(path: str | None, entry: dict) -> None:
    if path:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def cmd_verify(args) -> int:
    suites = list(VERIFY_CHECKS) if args.suite == "all" else [args.suite]
    results = []
    total_mismatches = 0
    with sweep_pool(args.jobs) as pool_map:
        for suite in suites:
            done = _checkpoint_read(args.resume, suite) if args.resume else {}
            for n in range(1, args.n_max + 1):
                if n in done:
                    entry = done[n]
                else:
                    entry = VERIFY_CHECKS[suite](n, pool_map)
                    _checkpoint_append(args.resume, entry)
                results.append(entry)
                total_mismatches += len(entry["mismatches"])
    summary = {"ok": total_mismatches == 0, "mismatches": total_mismatches}
    census_suite = next((s for s in ("classification", "fdim-census") if s in suites), None)
    if census_suite:
        summary["small_dimension_total"] = sum(
            e.get("small_dimension", 0) for e in results if e["suite"] == census_suite
        )
    report = {
        "config": {"command": "verify", "n_max": args.n_max, "suite": args.suite},
        "results": results,
        "summary": summary,
    }
    csv_rows = [
        {
            "suite": e["suite"],
            "n": e["n"],
            "mismatches": len(e["mismatches"]),
            "small_dimension": e.get("small_dimension", ""),
        }
        for e in results
    ]
    text = [f"verify up to n={args.n_max}, suite={args.suite}"]
    for e in results:
        extra = f"  shapes-with-small-dimension={e['small_dimension']}" if "small_dimension" in e else ""
        text.append(f"  n={e['n']:>3} {e['suite']:<15} mismatches={len(e['mismatches'])}{extra}")
    text.append(f"total mismatches: {total_mismatches}")
    if "small_dimension_total" in summary:
        text.append(f"shapes with dimension below n^3: {summary['small_dimension_total']}")
    _emit(report, args.format, args.out, text, csv_rows)
    return 0 if total_mismatches == 0 else 1


# ---------------------------------------------------------------- classify


def cmd_classify(args) -> int:
    results = []
    for n in range(1, args.n_max + 1):
        records = [
            {"shape": list(rec.shape.parts), "residues": sorted(rec.residues)}
            for rec in predicted_exceptions(n)
        ]
        results.append({"n": n, "exceptions": records})
    report = {
        "config": {"command": "classify", "n_max": args.n_max},
        "results": results,
        "summary": {"total_exceptional_shapes": sum(len(e["exceptions"]) for e in results)},
    }
    csv_rows = [
        {"n": e["n"], "shape": ",".join(map(str, rec["shape"])), "residues": " ".join(map(str, rec["residues"]))}
        for e in results
        for rec in e["exceptions"]
    ]
    text = []
    for e in results:
        text.append(f"n={e['n']}:")
        if not e["exceptions"]:
            text.append("  (no vanishing residues predicted)")
        for rec in e["exceptions"]:
            shape = ",".join(map(str, rec["shape"]))
            text.append(f"  ({shape}): {{{', '.join(map(str, rec['residues']))}}}")
    _emit(report, args.format, args.out, text, csv_rows)
    return 0


# ---------------------------------------------------------------- bounds


def cmd_bounds(args) -> int:
    tasks = [
        (lam.parts, args.suite)
        for n in range(1, args.n_max + 1)
        for lam in sorted(partitions_of(n))
    ]
    rows = list(parallel_map(_bounds_row, tasks, args.jobs))
    violations = bound_violations(rows)
    report = {
        "config": {"command": "bounds", "n_max": args.n_max, "suite": args.suite},
        "results": [
            {
                "shape": list(r["shape"]),
                "n": r["n"],
                "dimension": r["dimension"],
                "checks": dict(r["checks"]),
            }
            for r in rows
        ],
        "summary": {"ok": not violations, "violations": violations},
    }
    csv_rows = [
        {
            "shape": ",".join(map(str, r["shape"])),
            "n": r["n"],
            "dimension": r["dimension"],
            **{k: ("" if v is None else v) for k, v in r["checks"].items()},
        }
        for r in rows
    ]
    text = [f"bounds up to n={args.n_max}, suite={args.suite}"]
    by_n: dict[int, int] = {}
    for r in rows:
        by_n[r["n"]] = by_n.get(r["n"], 0) + sum(1 for v in r["checks"].values() if v is False)
    for n, bad in sorted(by_n.items()):
        text.append(f"  n={n:>3} violations={bad}")
    text.append("all bounds hold" if not violations else f"VIOLATIONS: {violations}")
    _emit(report, args.format, args.out, text, csv_rows)
    return 0 if not violations else 1


# ---------------------------------------------------------------- entry


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
        return handlers[args.command](args)
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
