"""No error rule is written twice: every raise site in the package has its own message.

A message's skeleton is its literal text with each placeholder written as
`{}`.  Two raise sites with one skeleton are one rule written twice, unless
the skeleton starts with a placeholder (`{} must be positive, got {}`): such
a message names its subject, so its sites state different rules.
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tridephase"


def skeleton(node: ast.expr) -> str | None:
    """The message skeleton of a str or f-string literal, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "{}" for part in node.values
        )
    return None


def raise_sites(source: str, name: str) -> dict[str, list[str]]:
    """Skeleton -> the `name:line` of every `raise X("...")` that uses it."""
    sites = defaultdict(list)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            text = skeleton(node.exc.args[0])
            if text is not None:
                sites[text].append(f"{name}:{node.lineno}")
    return sites


def repeated_rules(sites: dict[str, list[str]]) -> dict[str, list[str]]:
    return {
        text: where
        for text, where in sites.items()
        if len(where) > 1 and not text.startswith("{}")
    }


def test_checker_reads_skeletons_and_exempts_a_leading_placeholder():
    source = (
        'raise ValueError(f"x must lie in [0, 1], got {x!r}")\n'
        'raise ValueError(f"x must lie in [0, 1], " f"got {y}")\n'
        'raise ValueError(f"{name} must be positive, got {v}")\n'
        'raise ValueError(f"{other} must be positive, got {w}")\n'
        'raise ValueError("plain text")\n'
        "raise ValueError\n"
        "raise ValueError(message)\n"
    )
    sites = raise_sites(source, "m")
    assert sites["x must lie in [0, 1], got {}"] == ["m:1", "m:2"]
    assert sites["plain text"] == ["m:5"]
    assert repeated_rules(sites) == {"x must lie in [0, 1], got {}": ["m:1", "m:2"]}


def test_no_error_rule_is_written_twice():
    sites = defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        for text, where in raise_sites(path.read_text(), path.name).items():
            sites[text] += where
    assert repeated_rules(sites) == {}
