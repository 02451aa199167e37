from src_size import KINDS, SRC, line_kinds, main, sizes


def test_each_line_is_one_kind():
    source = (
        '"""Doc.\n'
        "\n"
        'more"""\n'
        "\n"
        "# a comment\n"
        "x = 1  # and a trailing one\n"
        "def f():\n"
        '    """One line."""\n'
        '    return """a string,\n'
        'not a docstring"""\n'
    )
    assert line_kinds(source) == {"code": 4, "docstring": 3, "comment": 1, "blank": 2}


def test_the_four_counts_sum_to_each_files_lines():
    table = sizes()
    paths = sorted(SRC.glob("*.py"))
    assert list(table) == [path.name for path in paths] + ["total"]
    for path in paths:
        assert sum(table[path.name].values()) == len(path.read_text().splitlines())
    assert table["total"] == {kind: sum(table[path.name][kind] for path in paths) for kind in KINDS}


def test_main_counts_the_package_directory_it_is_given(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\n\nx = 1  # one\n# two\n')
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert rows == ["| a.py | 4 | 1 | 1 | 1 | 1 |", "| total | 4 | 1 | 1 | 1 | 1 |"]
    # without one it counts src/tridephase
    assert main([]) == 0
    total = sizes()["total"]
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"| total | {sum(total.values()):,} | " + " | ".join(f"{total[kind]:,}" for kind in KINDS) + " |"
    )
