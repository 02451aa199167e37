from src_size import KINDS, SRC, line_kinds, sizes


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
