"""Report output of the ``modmaj`` command: JSON, CSV or text, to a file or stdout.

A JSON report is exactly ``json.dumps(report, sort_keys=True, indent=2)``
and a newline.  ``json_text`` writes each value without json's
pure-Python indenting encoder, which json.dumps runs whenever ``indent``
is set.  A report repeats a few key sets at a few depths (a bounds row and
its checks, say, at every shape), so each dict is written from a cached
layout of its key set at its indent: the sorted keys, and the comma, line
break, indent and escaped key before each value, built once by
``_layout``.  The cache holds the 64 layouts used last.  A value that is
None, a bool or a plain int is written in place, with no call; only
lists, tuples, nested dicts, strings and anything else recurse.

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
from functools import lru_cache
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


# The one item type of a list of plain ints, and the one key type of a dict
# that ``json_text`` writes itself.
_INT = {int}
_STR = {str}


def json_text(obj, pad: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, each line after the first indented by pad.

    With ``indent`` set, json.dumps runs its pure-Python encoder, so dicts
    with str keys, lists, tuples, str, int, bool and None are written here,
    strings by json's C escaper.  Anything else (floats, subclasses, dicts
    with other keys) goes to json.dumps and its lines are re-indented: a
    JSON text has no raw newline but between lines.  Each level joins its
    items once, so a large report is copied as few times as possible.  A
    list or tuple of plain ints, such as a shape, is joined with no call
    per item.  A dict with str keys takes its sorted keys and the text
    before each value from ``_layout``, and writes each value that is None,
    a bool or a plain int in place; only other values recurse.
    """
    kind = type(obj)
    if kind is dict:
        if not obj:
            return "{}"
        if {*map(type, obj)} == _STR:
            keys, heads, inner = _layout(tuple(obj), pad)
            pieces = ["{"]
            append = pieces.append
            for key, head in zip(keys, heads):
                value = obj[key]
                append(head)
                if value is None:
                    append("null")
                elif value is True:
                    append("true")
                elif value is False:
                    append("false")
                elif type(value) is int:
                    append(int.__repr__(value))
                else:
                    append(json_text(value, inner))
            append(f"\n{pad}}}")
            return "".join(pieces)
    elif kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = pad + "  "
        if {*map(type, obj)} == _INT:
            body = (",\n" + inner).join(map(int.__repr__, obj))
        else:
            body = (",\n" + inner).join([json_text(value, inner) for value in obj])
        return f"[\n{inner}{body}\n{pad}]"
    elif kind is str:
        return encode_basestring_ascii(obj)
    elif kind is int:
        return int.__repr__(obj)
    elif obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)


@lru_cache(maxsize=64)
def _layout(keys: tuple[str, ...], pad: str) -> tuple[tuple[str, ...], tuple[str, ...], str]:
    """The sorted keys of a dict written at pad, the head before each value, and the values' pad.

    A head is the comma before every entry but the first, the line break
    and indent, and the escaped key and colon.  Reports repeat a few key
    sets at a few depths, so the cache is small.
    """
    inner = pad + "  "
    keys = tuple(sorted(keys))
    heads = tuple(f"{',' if i else ''}\n{inner}{encode_basestring_ascii(key)}: " for i, key in enumerate(keys))
    return keys, heads, inner


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
