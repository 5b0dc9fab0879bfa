"""Machine-readable report format shared by the CLI and the sweep.

Every ``--json`` payload is one JSON object carrying ``schema`` and
``command`` keys.  Findings files are JSON Lines: a header object first,
then one record per spec, so partial results survive interruption.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, TextIO

SCHEMA = "geodetic-report/1"


class ReportError(ValueError):
    """Raised when a report or findings file does not match the schema."""


def make_report(command: str, payload: dict) -> dict:
    report = {"schema": SCHEMA, "command": command}
    report.update(payload)
    return report


def dump_report(report: dict) -> str:
    """The text of ``json.dumps(report, indent=2)``, byte for byte: keys in
    insertion order, two spaces per level, every string escaped to ASCII.
    ``json`` renders an indented dump in pure Python, one generator per
    container; this writes the same text into one list of pieces."""
    out: list[str] = []
    _render(report, "\n", out)
    return "".join(out)


_escape = json.encoder.encode_basestring_ascii


def _render(value: object, newline: str, out: list[str]) -> None:
    """Append the text of ``value`` at the indent ``newline`` ends with,
    testing its type in the order ``json`` tests it."""
    if isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(json.dumps(value))  # json's spelling of NaN and the infinities
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _render(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                    )
                key = json.dumps(key)  # json's spelling of a number, bool or None key
            out.append(sep + _escape(key) + ": ")
            _render(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def load_report(text: str) -> dict:
    """Parse and check one report object (the round-trip reader)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ReportError("report must be a JSON object")
    if data.get("schema") != SCHEMA:
        raise ReportError(f"unsupported schema {data.get('schema')!r}, expected {SCHEMA!r}")
    if "command" not in data:
        raise ReportError("report is missing its command field")
    return data


def write_findings(out: TextIO, header: dict, records: Iterable[dict]) -> int:
    """Stream a findings file: header line, then one record per line."""
    out.write(json.dumps(make_report("sweep-findings", header)) + "\n")
    written = 0
    for record in records:
        out.write(json.dumps(record) + "\n")
        written += 1
    return written


def _findings(path: str | Path) -> Iterator[dict]:
    """Yield the checked header of a findings file, then its records, one
    line at a time; a line that is not UTF-8 text or not valid JSON raises
    ReportError with its line number."""
    with open(path, encoding="utf-8", errors="surrogateescape") as text:
        lines = ((lineno, line) for lineno, line in enumerate(text, start=1) if line.strip())
        first = next(lines, None)
        if first is None:
            raise ReportError("findings file has no header line")
        yield load_report(_utf8(*first))
        for lineno, line in lines:
            try:
                yield json.loads(_utf8(lineno, line))
            except json.JSONDecodeError as exc:
                raise ReportError(f"line {lineno}: not valid JSON: {exc}") from None


def _utf8(lineno: int, line: str) -> str:
    """``line``, unless the file held bytes there that are not UTF-8:
    decoding turned each into a lone surrogate, which cannot be encoded.
    Checked line by line, so the records before such a line are still
    read."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise ReportError(f"line {lineno}: not UTF-8 text") from None
    return line


def iter_findings(path: str | Path) -> Iterator[dict]:
    """Stream the records of a findings file, so records before a bad or
    cut-off line are still seen."""
    findings = _findings(path)
    next(findings)
    yield from findings


def read_findings(path: str | Path) -> tuple[dict, list[dict]]:
    findings = _findings(path)
    header = next(findings)
    return header, list(findings)
