"""Compare two artifact trees file by file, numerically.

    python3 tools/artifact_diff.py OLD NEW

OLD and NEW are artifact directories, for instance two listings of
``tools/artifact_digests.py`` or two ``simulate`` outputs.  For every file
under either tree the script prints one line:

- ``identical``: the bytes agree;
- ``max rel <x>``: the text files (CSV, JSON, the report and config text)
  agree in everything but their numbers, and <x> is the largest relative
  difference |a - b| / max(|a|, |b|) over their numeric cells; raw record
  files (``.bin``) are compared the same way over their samples when their
  headers agree.  For a text file an indented line ``at <where>`` follows,
  naming the first cell with that difference: its key path in a JSON file
  (``fits[0].iterations``), its column in a CSV file's rows
  (``column psd``), else its line (``line 3``).  For a JSON or CSV file a
  second indented line, ``non-integer max rel <y> at <where>``, gives the
  largest difference over the cells that are not integers in both trees,
  so a moved count such as a fit's ``iterations`` does not hide how far
  the values moved;
- ``non-numeric difference``: anything else differs;
- ``missing in NEW`` / ``extra in NEW``: the file is in one tree only.

It then lists every report check (the ``checks`` of a ``report.json``)
whose ``passed`` differs between the trees.  The exit status is 1 on a
flipped check, a missing or extra file or a non-numeric difference, else 0.
Only the standard library and numpy are needed.
"""

from __future__ import annotations

import json
import math
import re
import struct
import sys
from pathlib import Path

import numpy as np

# A number standing alone: not part of a word such as ``rep00`` or a hash.
NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan|Infinity|NaN)(?![\w.])"
)
INTEGER = re.compile(r"[-+]?\d+")
RECORD_MAGIC = b"PORC"
RECORD_HEADER = struct.Struct("<4sIdQII")


def rel_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _token_diff(a: str, b: str, where: str) -> tuple[float, str, bool]:
    """(relative difference, where, whether both are integers) of two
    numbers as written."""
    integer = INTEGER.fullmatch(a) is not None and INTEGER.fullmatch(b) is not None
    return rel_diff(float(a), float(b)), where, integer


def _json_diffs(old, new, path: str = ""):
    """(relative difference, key path, whether both are integers) of every
    pair of numbers at the same place of two parsed JSON documents of the
    same shape, in file order; numbers inside strings count under the
    string's path."""
    if isinstance(old, dict):
        for key in old:
            yield from _json_diffs(old[key], new[key], f"{path}.{key}" if path else key)
    elif isinstance(old, list):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _json_diffs(a, b, f"{path}[{i}]")
    elif isinstance(old, str):
        for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
            yield _token_diff(a, b, path)
    elif isinstance(old, (int, float)) and not isinstance(old, bool):
        yield rel_diff(float(old), float(new)), path, isinstance(old, int) and isinstance(new, int)


def _line_place(text: str, pos: int, csv: bool) -> str:
    """Where the character at pos lies: the column of a CSV data row, named
    by the header (the first line not starting with '#'), else the line."""
    before = text[:pos].split("\n")
    if csv:
        lines = text.split("\n")
        header = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
        names = lines[header].split(",") if header < len(lines) else []
        column = before[-1].count(",")
        if len(before) - 1 > header and column < len(names):
            return f"column {names[column]}"
    return f"line {len(before)}"


def _text_diff(old: bytes, new: bytes, name: str):
    """((largest relative difference, where), the same over the numbers
    that are not integers in both texts, or None but for a JSON or CSV
    file) over the numbers of two texts that agree elsewhere; None when
    they differ in anything but their numbers.  Where is a JSON key path, a
    CSV column or a line."""
    try:
        old_text, new_text = old.decode("utf-8"), new.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if NUMBER.split(old_text) != NUMBER.split(new_text):
        return None
    diffs = None
    if name.endswith(".json"):
        try:
            diffs = list(_json_diffs(json.loads(old_text), json.loads(new_text)))
        except ValueError:
            pass
    if diffs is None:
        # placed by the number's offset, named only for the largest
        diffs = [_token_diff(a.group(), b.group(), b.start())
                 for a, b in zip(NUMBER.finditer(old_text), NUMBER.finditer(new_text))]

    def largest(ds):
        diff, where, _ = max(ds, key=lambda d: d[0], default=(0.0, "", False))
        if not diff:
            return 0.0, ""
        if isinstance(where, int):
            where = _line_place(new_text, where, name.endswith(".csv"))
        return diff, where

    fractional = largest(d for d in diffs if not d[2]) if name.endswith((".json", ".csv")) else None
    return largest(diffs), fractional


def _record_diff(old: bytes, new: bytes) -> float | None:
    """Largest relative difference over the samples of two raw records with
    the same header; None when they are not such a pair."""
    size = RECORD_HEADER.size
    if not (old[:4] == RECORD_MAGIC and old[:size] == new[:size] and len(old) == len(new)):
        return None
    a = np.frombuffer(old[size:], dtype="<f8")
    b = np.frombuffer(new[size:], dtype="<f8")
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel[a == b] = 0.0
    return float(np.max(rel, initial=0.0)) if not np.isnan(rel).any() else math.inf


def file_diff(old: bytes, new: bytes, name: str):
    """((0.0, ""), None) for equal bytes; ((the largest relative difference
    of the numbers, where it lies), the same over the non-integer numbers
    of a JSON or CSV file, else None) when only numbers differ; else None.
    Where is the key path in a JSON file, the column in a CSV file's rows,
    the line of another text and empty for a raw record."""
    if old == new:
        return (0.0, ""), None
    diff = _record_diff(old, new)
    return ((diff, ""), None) if diff is not None else _text_diff(old, new, name)


def flipped_checks(old_report: Path, new_report: Path) -> list[str]:
    """'name: old -> new' for every check whose passed differs; a check
    present in one report only counts as flipped."""
    def passed(path):
        try:
            checks = json.loads(path.read_text(encoding="utf-8")).get("checks", [])
        except (OSError, ValueError):
            return {}
        return {c["name"]: c["passed"] for c in checks}

    old, new = passed(old_report), passed(new_report)
    return [
        f"{name}: {old.get(name)} -> {new.get(name)}"
        for name in sorted(old.keys() | new.keys())
        if old.get(name) != new.get(name)
    ]


def compare(old_root: Path, new_root: Path, out=sys.stdout) -> int:
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    old_files, new_files = files(old_root), files(new_root)
    failed = False
    flips = []
    for name in sorted(old_files | new_files):
        where, fractional = "", None
        if name not in new_files:
            status, failed = "missing in NEW", True
        elif name not in old_files:
            status, failed = "extra in NEW", True
        else:
            diff = file_diff((old_root / name).read_bytes(), (new_root / name).read_bytes(), name)
            if diff is None:
                status, failed = "non-numeric difference", True
            elif diff[0][0] == 0.0:
                status = "identical"
            else:
                (largest, where), fractional = diff
                status = f"max rel {largest:.3g}"
            if Path(name).name == "report.json":
                flips += [f"{name}: {f}" for f in flipped_checks(old_root / name, new_root / name)]
        print(f"{status:<24} {name}", file=out)
        if where:
            print(f"{'':<24} at {where}", file=out)
        if fractional is not None:
            at = f" at {fractional[1]}" if fractional[1] else ""
            print(f"{'':<24} non-integer max rel {fractional[0]:.3g}{at}", file=out)
    print(f"checks flipped: {len(flips)}", file=out)
    for flip in flips:
        print(f"  {flip}", file=out)
    return 1 if failed or flips else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(Path(argv[0]), Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
