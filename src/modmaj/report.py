"""Report output of the ``modmaj`` command: JSON, CSV or text, to a file or stdout.

A JSON report is exactly ``json.dumps(report, sort_keys=True, indent=2)``
and a newline.  ``json_text`` writes each value without json's
pure-Python indenting encoder, which json.dumps runs whenever ``indent``
is set.

A report may be streamed, so that a long sweep never holds all its rows:
a top-level value of the report that is an iterator is a list given in
chunks (one list per n for ``modmaj bounds``), and the text lines and CSV
rows may be iterators too.  Only the chosen format's output is consumed,
chunk by chunk as it comes.  ``emit`` writes the report's keys in sorted
order, so a value that the sweep completes as it runs, such as a summary
after its results, is written once the sweep is done.

The report goes first to an anonymous spool file, and only a complete
report is copied to ``--out`` or stdout: a run that fails halfway writes
nothing.  A spool rather than a sibling file renamed over ``--out``,
because a rename over ``--out /dev/null`` would replace the device.  The
spool is opened with ``newline=""``, so CSV's ``\\r\\n`` line ends are
read back as they were written.
"""

import csv
import json
import shutil
import sys
import tempfile
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence


def emit(
    report: dict,
    fmt: str,
    out: str | None,
    text_lines: Iterable[str],
    csv_rows: Iterable[dict],
    csv_header: Sequence[str] | None = None,
) -> None:
    """Write the report in one format to the file out, or to stdout when out is None.

    ``csv_rows`` and ``text_lines`` may be generators; each is drained
    only for its own format.  ``csv_header`` is the CSV header, needed
    where there may be no row; without it the first row's keys are the
    header.
    """
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        if fmt == "json":
            _write_json(spool, report)
        elif fmt == "csv":
            _write_csv(spool, csv_rows, csv_header)
        else:
            spool.writelines(line + "\n" for line in text_lines)
        spool.seek(0)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                shutil.copyfileobj(spool, fh)
        else:
            shutil.copyfileobj(spool, sys.stdout)


def _write_json(fh, report: dict) -> None:
    """``json_text(report)`` and a newline, key by key; an iterator value is a list written chunk by chunk."""
    sep = "{\n  "
    for key in sorted(report):
        value = report[key]
        fh.write(f"{sep}{encode_basestring_ascii(key)}: ")
        if isinstance(value, Iterator):
            _write_chunked_list(fh, value, "  ")
        else:
            fh.write(json_text(value, "  "))
        sep = ",\n  "
    fh.write("\n}\n")


def _write_chunked_list(fh, chunks: Iterator[list], pad: str) -> None:
    """``json_text`` of the concatenated chunks, each chunk joined and written once.

    A chunk is let go before the next is asked for, so that only one is
    held while the sweep computes the next.
    """
    inner = pad + "  "
    empty = True
    for chunk in chunks:
        if chunk:
            fh.write(f"{'[' if empty else ','}\n{inner}")
            fh.write((",\n" + inner).join([json_text(value, inner) for value in chunk]))
            empty = False
        del chunk
    fh.write("[]" if empty else f"\n{pad}]")


def json_text(obj, pad: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, each line after the first indented by pad.

    With ``indent`` set, json.dumps runs its pure-Python encoder, so dicts
    with str keys, lists, tuples, str, int, bool and None are written here,
    strings by json's C escaper.  Anything else (floats, subclasses, dicts
    with other keys) goes to json.dumps and its lines are re-indented: a
    JSON text has no raw newline but between lines.  Each level joins its
    items once and formats them into one f-string, so a large report is
    copied as few times as possible; a list of plain ints, such as a
    shape, is joined with no call per item.
    """
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = pad + "  "
        if all(type(value) is int for value in obj):
            body = (",\n" + inner).join(map(int.__repr__, obj))
        else:
            body = (",\n" + inner).join([json_text(value, inner) for value in obj])
        return f"[\n{inner}{body}\n{pad}]"
    if kind is dict and all(type(key) is str for key in obj):
        if not obj:
            return "{}"
        inner = pad + "  "
        body = (",\n" + inner).join(
            [f"{encode_basestring_ascii(key)}: {json_text(obj[key], inner)}" for key in sorted(obj)]
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _write_csv(fh, rows: Iterable[dict], header: Sequence[str] | None = None) -> None:
    """CSV row by row under header (by default the first row's keys); a list or tuple cell is joined with ",".

    With no header and no row nothing is written.
    """
    rows = iter(rows)
    if header is None:
        first = next(rows, None)
        if first is None:
            return
        header = list(first)
        rows = chain([first], rows)
    writer = csv.DictWriter(fh, fieldnames=header)
    writer.writeheader()
    writer.writerows(
        {k: ",".join(map(str, v)) if type(v) in (list, tuple) else v for k, v in row.items()} for row in rows
    )
