"""The golden-file differ of tests/golden.py reports each kind of change as that kind."""

import csv
import io
import json
import math

from golden import GOLDEN_DIR, diff, main


def text_of(name: str) -> str:
    return (GOLDEN_DIR / name).read_bytes().decode()


def test_the_committed_files_differ_from_themselves_in_nothing():
    for path in sorted(GOLDEN_DIR.iterdir()):
        assert diff(text_of(path.name), text_of(path.name)).same


def test_a_one_ulp_move_in_a_csv_value_cell_is_one_moved_cell():
    old = text_of("measure_zero_t.csv")
    rows = list(csv.reader(io.StringIO(old)))
    column = rows[0].index("value")
    row = next(r for r in rows[1:] if float(r[column]) > 0.0)
    value = float(row[column])
    moved = math.nextafter(value, math.inf)
    line = ",".join(row) + "\n"
    assert old.count(line) == 1
    d = diff(old, old.replace(line, ",".join([*row[:column], f"{moved:.17g}", *row[column + 1:]]) + "\n"))
    assert d.structure == [] and d.texts == []
    assert d.moved == {"value": [1, math.ulp(value), math.ulp(value) / value]}
    assert math.ulp(value) / value <= 2.3e-16


def test_a_one_ulp_move_in_a_json_value_cell_is_one_moved_cell():
    items = json.loads(text_of("measure_low_t_omega_c3.json"))
    value = items[0]["value"]
    items[0]["value"] = math.nextafter(value, -math.inf)
    d = diff(text_of("measure_low_t_omega_c3.json"), json.dumps(items, indent=2) + "\n")
    assert d.structure == [] and d.texts == []
    assert d.moved == {"value": [1, value - items[0]["value"], (value - items[0]["value"]) / value]}


def test_a_changed_error_text_is_a_text_change():
    old = text_of("sweep_w_timescales.csv")
    error = list(csv.reader(io.StringIO(old)))[1][-1]
    assert error.startswith("ShapeError: ") and old.count(error) == 1
    changed = error.replace("ShapeError", "ParameterError")
    d = diff(old, old.replace(error, changed))
    assert d.structure == [] and d.moved == {}
    assert d.texts == [(1, "error", error, changed)]


def test_a_null_that_becomes_a_number_is_a_text_change():
    items = json.loads(text_of("timescales_x1.json"))
    assert items[0]["t_p"] is None
    items[0]["t_p"] = 5.0
    d = diff(text_of("timescales_x1.json"), json.dumps(items))
    assert d.texts == [(1, "t_p", None, 5.0)] and d.moved == {} and d.structure == []


def test_a_reordered_row_is_a_structure_change_and_moves_no_value():
    header, *lines = text_of("measure_zero_t.csv").splitlines(keepends=True)
    lines[2], lines[7] = lines[7], lines[2]
    d = diff(text_of("measure_zero_t.csv"), header + "".join(lines))
    assert d.structure == ["rows reordered: old rows [3, 8] are elsewhere"]
    assert d.texts == [] and d.moved == {}


def test_a_dropped_row_is_a_structure_change():
    header, *lines = text_of("timescales_low_t.csv").splitlines(keepends=True)
    d = diff(header + "".join(lines), header + "".join(lines[:-1]))
    assert d.structure == [f"{len(lines)} rows -> {len(lines) - 1}", f"gone rows [{len(lines)}]"]


def test_two_directories_compare_file_by_file(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    for name in ("measure_zero_t.csv", "timescales_x1.json"):
        (old / name).write_bytes((GOLDEN_DIR / name).read_bytes())
        (new / name).write_bytes((GOLDEN_DIR / name).read_bytes())
    assert main([str(old), str(new)]) == 0
    (new / "timescales_x1.json").write_text("[]\n")
    assert main([str(old), str(new)]) == 1
    out = capsys.readouterr().out
    assert "measure_zero_t.csv: the same (44 rows)" in out
    assert "timescales_x1.json: structure changed" in out
