"""The golden output files under tests/data, the command that prints each, and
a cell-by-cell differ for reviewing a re-capture.

    PYTHONPATH=src python tests/golden.py --diff    # run each command, compare with its file
    PYTHONPATH=src python tests/golden.py --write   # the same report, then re-capture the files
    PYTHONPATH=src python tests/golden.py OLD NEW   # two outputs: CSV or JSON files, or
                                                    # directories of them, matched by name

The report gives, per file: whether its structure (columns, and the rows in
order, each known by its key cells) is the same; every text cell that
changed (a label, an error, a null, a non-finite value); the number of
numeric cells that moved; and the largest absolute and relative move per
column.  The key cells of a row are its parameter, `measure` and `t` cells,
so a row that moved is a structure change, and its cells are compared with
those of the row that has its key.  `--diff` exits 1 when any file differs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tridephase import cli
from tridephase.analysis import PARAM_FIELDS

GOLDEN_DIR = Path(__file__).parent / "data"

# Closed-form Gamma and the gmc / l1_coherence measures only, so no value
# depends on eigvalsh or quad rounding.
GOLDEN_RUNS = {
    "evolve_zero_t.json": [
        "evolve", "--format", "json", "--set", "x=0.8", "--set", "eta=0.2",
        "--set", "t_stop=2", "--set", "t_count=3",
    ],
    # the same run as CSV: rows with an empty prefix
    "evolve_zero_t.csv": [
        "evolve", "--set", "x=0.8", "--set", "eta=0.2", "--set", "t_stop=2", "--set", "t_count=3",
    ],
    "measure_zero_t.csv": [
        "measure", "--set", "x=[0.5,0.9]", "--set", "eta=0.2",
        "--set", 'measures=["gmc","l1_coherence"]', "--set", "t_stop=3", "--set", "t_count=11",
    ],
    "timescales_low_t.csv": [
        "timescales", "--set", "x=[0.6,0.9]", "--set", "eta=[0.1,0.3]", "--set", "method=low_t",
        "--set", "beta_a=20", "--set", "k1=4", "--set", "k2=16",
        "--set", 'measures=["gmc","l1_coherence"]', "--set", "t_stop=4", "--set", "t_count=21",
    ],
    "sweep_w_timescales.csv": [
        "sweep", "--set", "state=w", "--set", "timescales=true", "--set", "x=[0.7,0.95]",
        "--set", "eta=0.2", "--set", 'measures=["gmc","l1_coherence"]', "--set", "t_stop=3",
        "--set", "t_count=6",
    ],
    # the gmc rows of the W state carry ShapeError and null values
    "sweep_w_timescales.json": [
        "sweep", "--format", "json", "--set", "state=w", "--set", "timescales=true",
        "--set", "x=[0.7,0.95]", "--set", "eta=0.2", "--set", 'measures=["gmc","l1_coherence"]',
        "--set", "t_stop=3", "--set", "t_count=6",
    ],
    # t_p is infinite at x = 1: null plus t_p_infinite
    "timescales_x1.json": [
        "timescales", "--format", "json", "--set", "x=1.0",
        "--set", 'measures=["gmc","l1_coherence"]', "--set", "t_stop=2", "--set", "t_count=5",
    ],
    # omega_c != 1: one freezing interval, printed on the configured grid
    "timescales_w_freezing_omega_c3.csv": [
        "timescales", "--set", "omega_c=3", "--set", "state=w", "--set", "x=1",
        "--set", "eta=0.001", "--set", "beta_a=0.001", "--set", "k1=1e5", "--set", "k2=1e5",
        "--set", "method=low_t", "--set", "t_start=0.1", "--set", "t_stop=3.3",
        "--set", "t_count=41", "--set", 'measures=["l1_coherence"]',
    ],
    # omega_c != 1: (0.9 / 3) * 3 is not 0.9, and t_start > 0
    "measure_low_t_omega_c3.json": [
        "measure", "--format", "json", "--set", "omega_c=3", "--set", "beta_a=[0.9,3.1]",
        "--set", "method=low_t", "--set", "t_start=0.5", "--set", "t_stop=3.7",
        "--set", "t_count=9", "--set", 'measures=["gmc","l1_coherence"]', "--set", "x=0.9",
        "--set", "eta=0.02",
    ],
}

KEY_COLUMNS = (*PARAM_FIELDS, "measure", "t")
ABSENT = "<absent>"  # a JSON row without this column


def run(argv: list[str]) -> str:
    """What `tridephase <argv>` prints on standard output; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"tridephase {' '.join(argv)} exited with code {code}")
    return out.getvalue()


def table(text: str) -> tuple[list[str], list[list]]:
    """The columns and rows of a JSON array of row objects, or of a CSV text.

    A JSON row lacking a column has ABSENT there; a CSV cell is its text."""
    if text.lstrip().startswith("["):
        items = json.loads(text)
        columns = list(dict.fromkeys(name for item in items for name in item))
        return columns, [[item.get(name, ABSENT) for name in columns] for item in items]
    header, *rows = csv.reader(io.StringIO(text))
    return header, rows


def number(cell) -> float | None:
    """A cell's value if it is a finite number, else None (a text cell)."""
    if isinstance(cell, bool) or cell is None or cell == ABSENT:
        return None
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


@dataclass
class Diff:
    """What changed from one output to another."""

    rows: int = 0  # in the new output
    structure: list[str] = field(default_factory=list)  # empty: the same columns and rows
    # (row, column, old cell, new cell) of each changed text cell
    texts: list[tuple[int, str, object, object]] = field(default_factory=list)
    moved: dict[str, list[float]] = field(default_factory=dict)  # column -> [count, abs, rel]

    @property
    def same(self) -> bool:
        return not (self.structure or self.texts or self.moved)


def diff(old: str, new: str) -> Diff:
    """Compare two outputs of one command, cell by cell."""
    (old_columns, old_rows), (new_columns, new_rows) = table(old), table(new)
    result = Diff(len(new_rows))
    if old_columns != new_columns:
        result.structure.append(f"columns {old_columns} -> {new_columns}")
    columns = [name for name in old_columns if name in new_columns]

    def keyed(names, rows):
        """Each row under its key cells and its occurrence of that key."""
        at = [names.index(name) for name in KEY_COLUMNS if name in names and name in columns]
        seen = Counter()
        out = {}
        for row_no, row in enumerate(rows, 1):
            key = tuple(str(row[i]) for i in at)
            seen[key] += 1
            out[key, seen[key]] = row_no, row
        return out

    old_keyed, new_keyed = keyed(old_columns, old_rows), keyed(new_columns, new_rows)
    if len(old_rows) != len(new_rows):
        result.structure.append(f"{len(old_rows)} rows -> {len(new_rows)}")
    gone = [k for k in old_keyed if k not in new_keyed]
    added = [k for k in new_keyed if k not in old_keyed]
    for name, keys, rows in (("gone", gone, old_keyed), ("new", added, new_keyed)):
        if keys:
            result.structure.append(f"{name} rows {[rows[k][0] for k in keys]}")
    common = [k for k in old_keyed if k in new_keyed]
    moved_rows = [old_keyed[k][0] for k in common if old_keyed[k][0] != new_keyed[k][0]]
    if moved_rows and not (gone or added):
        result.structure.append(f"rows reordered: old rows {moved_rows} are elsewhere")
    for key in common:
        (row_no, old_row), (_, new_row) = old_keyed[key], new_keyed[key]
        for name in columns:
            a, b = old_row[old_columns.index(name)], new_row[new_columns.index(name)]
            if a == b and type(a) is type(b):
                continue
            x, y = number(a), number(b)
            if x is None or y is None or x == y:  # x == y: one value, written another way
                result.texts.append((row_no, name, a, b))
                continue
            change = abs(y - x)
            relative = change / abs(x) if x else math.inf
            count, largest, largest_rel = result.moved.get(name, [0, 0.0, 0.0])
            result.moved[name] = [count + 1, max(largest, change), max(largest_rel, relative)]
    return result


def report(name: str, d: Diff) -> str:
    """The review text of one file."""
    if d.same:
        return f"{name}: the same ({d.rows} rows)"
    lines = [f"{name}: " + ("structure the same" if not d.structure else "structure changed")]
    lines += [f"  structure: {text}" for text in d.structure]
    lines += [f"  text cell, row {row} {column}: {a!r} -> {b!r}" for row, column, a, b in d.texts]
    total = sum(count for count, _, _ in d.moved.values())
    lines.append(f"  {len(d.texts)} text cells changed, {total} numeric cells moved")
    lines += [
        f"  {column}: {count} moved, largest {largest:.2g} absolute, {largest_rel:.2g} relative"
        for column, (count, largest, largest_rel) in d.moved.items()
    ]
    return "\n".join(lines)


def compare(name: str, old: str, new: str) -> bool:
    """Print the report of one file; True when it is the same."""
    d = diff(old, new)
    print(report(name, d))
    return d.same


def main(argv: list[str]) -> int:
    if argv in (["--diff"], ["--write"]):
        same = True
        for name, command in GOLDEN_RUNS.items():
            new = run(command)
            same &= compare(name, (GOLDEN_DIR / name).read_bytes().decode(), new)
            if argv == ["--write"]:
                (GOLDEN_DIR / name).write_bytes(new.encode())
        return 0 if same or argv == ["--write"] else 1
    if len(argv) == 2:
        old, new = map(Path, argv)
        if old.is_dir() and new.is_dir():
            names = sorted({p.name for p in (*old.iterdir(), *new.iterdir())})
            pairs = [(n, old / n, new / n) for n in names]
        else:
            pairs = [(new.name, old, new)]
        same = True
        for name, a, b in pairs:
            if not (a.is_file() and b.is_file()):
                print(f"{name}: only in {a.parent if a.is_file() else b.parent}")
                same = False
                continue
            same &= compare(name, a.read_bytes().decode(), b.read_bytes().decode())
        return 0 if same else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
