"""Report output of the ``modmaj`` command: JSON, CSV or text, to a file or stdout.

A JSON report is exactly ``json.dumps(report, sort_keys=True, indent=2)``
and a newline.  ``json_text`` writes it without json's pure-Python
indenting encoder, which json.dumps runs whenever ``indent`` is set.
"""

import csv
import io
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterable


def emit(report: dict, fmt: str, out: str | None, text_lines: list[str], csv_rows: Iterable[dict]) -> None:
    """Write the report in one format to the file out, or to stdout when out is None.

    ``csv_rows`` may be a generator; it is drained only for csv.
    """
    if fmt == "json":
        payload = json_text(report) + "\n"
    elif fmt == "csv":
        payload = _to_csv(list(csv_rows))
    else:
        payload = "\n".join(text_lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


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


def _to_csv(rows: list[dict]) -> str:
    """CSV with the first row's keys as header; a list or tuple cell is joined with ","."""
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(
            {k: ",".join(map(str, v)) if type(v) in (list, tuple) else v for k, v in row.items()}
            for row in rows
        )
    return buf.getvalue()
