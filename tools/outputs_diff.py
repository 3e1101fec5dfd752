#!/usr/bin/env python3
"""Say which digits moved between two output trees of the bundled scenarios:

    python tools/outputs_digest.py OLD_DIR    # in the old checkout
    python tools/outputs_digest.py NEW_DIR    # in the new one
    python tools/outputs_diff.py OLD_DIR NEW_DIR

For each file under the two directories that differs, prints its row count,
how many rows changed, and per column the changed cells with the largest
absolute change and the largest change relative to the larger magnitude.
CSV columns are named by the header; ``summary.json`` fields by their path,
list indices dropped (``runs[].iterations``); a text report's by the
whitespace-separated position on the line. Prints nothing when the trees
are equal.

Only a float may move. The exit code is 1 if a file is on one side only, a
row count differs, or a cell that is not a float on both sides differs: a
CSV or text cell such as a stage, a mask or an iteration (a cell written as
an integer counts as text), or a
``summary.json`` field that is not a float such as ``converged``,
``iterations`` or ``final_state``. Otherwise it is 0.
"""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path


def _value(cell: str):
    """A CSV or text cell as a float when it holds a number that is not
    written as an integer, else as the text it is."""
    if cell.lstrip("+-").isdigit():
        return cell
    try:
        return float(cell)
    except ValueError:
        return cell


def _table(path: Path) -> tuple:
    """(column names, rows of cells) of a CSV or text output file."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        return header, rows
    rows = [line.split() for line in text.splitlines()]
    return [f"field {k}" for k in range(max(map(len, rows), default=0))], rows


def _json_leaves(value, path=""):
    """(path, leaf) pairs of a parsed JSON document, list indices dropped."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from _json_leaves(item, f"{path}[]")
    else:
        yield path, value


def _rows(old: Path, new: Path) -> tuple:
    """(row count, rows of (column, old value, new value), problems) of two
    versions of one file; a ``summary.json`` row is one field."""
    if old.suffix == ".json":
        a, b = (list(_json_leaves(json.loads(path.read_text(encoding="utf-8"))))
                for path in (old, new))
        if [path for path, _ in a] != [path for path, _ in b]:
            return len(b), [], [f"fields: {len(a)} -> {len(b)}"]
        return len(b), [[(path, x, y)] for (path, x), (_, y) in zip(a, b)], []
    (header, rows_a), (header_b, rows_b) = _table(old), _table(new)
    if len(rows_a) != len(rows_b):
        return len(rows_b), [], [f"row count: {len(rows_a)} -> {len(rows_b)}"]
    if header != header_b or any(len(x) != len(y) for x, y in zip(rows_a, rows_b)):
        return len(rows_b), [], ["header or cells per row"]
    return len(rows_b), [[(name, _value(x), _value(y)) for name, x, y in zip(header, *pair)]
                         for pair in zip(rows_a, rows_b)], []


def compare(old: Path, new: Path) -> tuple:
    """(row count, changed rows, {column: (cells, max abs, max rel)},
    problems) of two versions of one output file; a problem is a change
    to anything but a float."""
    count, rows, problems = _rows(old, new)
    columns = dict.fromkeys(column for row in rows for column, _, _ in row)  # file order
    changed = 0
    for row in rows:
        moved = False
        for column, a, b in row:
            if type(a) is not float or type(b) is not float:
                if a != b or type(a) is not type(b):
                    problems.append(f"{column}: {a!r} -> {b!r}")
            elif a != b and not (math.isnan(a) and math.isnan(b)):
                cells, absolute, relative = columns[column] or (0, 0.0, 0.0)
                change = abs(b - a)
                columns[column] = (cells + 1, max(absolute, change),
                                   max(relative, change / max(abs(a), abs(b))))
                moved = True
        changed += moved
    return count, changed, {name: entry for name, entry in columns.items() if entry}, problems


def report(old_dir: Path, new_dir: Path) -> tuple:
    """(report lines, whether anything but a float moved) for two trees."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    old_files, new_files = files(old_dir), files(new_dir)
    lines = [f"{name}: only in {side}" for side, names in
             (("OLD_DIR", old_files - new_files), ("NEW_DIR", new_files - old_files))
             for name in sorted(names)]
    bad = bool(lines)
    for name in sorted(old_files & new_files):
        old, new = old_dir / name, new_dir / name
        if old.read_bytes() == new.read_bytes():
            continue
        rows, changed, columns, problems = compare(old, new)
        unit = "fields" if old.suffix == ".json" else "rows"
        lines.append(f"{name}: {rows} {unit}, {changed} changed")
        for column, (cells, absolute, relative) in columns.items():
            lines.append(f"  {column}: {cells} cells, max abs {absolute:.3g}, "
                         f"max rel {relative:.3g}")
        lines += [f"  not a float: {problem}" for problem in problems]
        bad = bad or bool(problems)
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_dir", type=Path, metavar="OLD_DIR")
    parser.add_argument("new_dir", type=Path, metavar="NEW_DIR")
    args = parser.parse_args(argv)
    for directory in (args.old_dir, args.new_dir):
        if not directory.is_dir():
            parser.error(f"not a directory: {directory}")
    lines, bad = report(args.old_dir, args.new_dir)
    for line in lines:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
