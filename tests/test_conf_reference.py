"""Every ``DEFAULT_CONF`` key earns its place: read, documented, exercised.

A session option is a configuration somebody has to test and measure, so
the dict may only hold keys that (1) some module under ``src/repro`` reads,
(2) some page under ``docs/`` documents, and (3) at least one test,
benchmark or example sets to something other than the default -- a key only
ever run at its default is a constant.  The benchmark under
``benchmarks/e2e`` does not count as a setter: it may not change with the
source, so it cannot be what keeps a key alive.

The reference runs the other way too: the "Session options" table in
``docs/architecture.md`` lists exactly the dict's keys, and its prose
states how many there are, so a retired key cannot linger in the docs.
"""

from __future__ import annotations

import ast
import operator
import re
from pathlib import Path
from typing import Iterator, Set, Tuple

from repro.sql.session import DEFAULT_CONF

REPO = Path(__file__).resolve().parent.parent
SETTER_ROOTS = ("tests", "benchmarks", "examples")
ARCHITECTURE = REPO / "docs" / "architecture.md"
_NUMBER_WORDS = ("zero one two three four five six seven eight nine ten "
                 "eleven twelve").split()


def _trees(root: Path) -> Iterator[ast.AST]:
    for path in sorted(root.rglob("*.py")):
        if "e2e" in path.relative_to(REPO).parts:
            continue
        yield ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _key(node: ast.expr):
    if isinstance(node, ast.Constant) and node.value in DEFAULT_CONF:
        return node.value
    return None


def keys_read(root: Path) -> Set[str]:
    """Keys some ``<conf>.get("key", ...)`` or ``<conf>["key"]`` looks up."""
    found: Set[str] = set()
    for tree in _trees(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node.args \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "get":
                found.add(_key(node.args[0]))
            elif isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, ast.Load):
                found.add(_key(node.slice))
    return found - {None}


def settings(root: Path) -> Iterator[Tuple[str, ast.expr]]:
    """Every ``{"key": value}`` entry and ``x["key"] = value`` under ``root``."""
    for tree in _trees(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if key is not None and _key(key) is not None:
                        yield _key(key), value
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) \
                            and _key(target.slice) is not None:
                        yield _key(target.slice), node.value


_ARITHMETIC = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv,
               ast.FloorDiv: operator.floordiv, ast.Pow: operator.pow}


def _constant(node: ast.expr):
    """The value of a literal or of arithmetic over literals (``128 * 1024``)."""
    if isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
        return _ARITHMETIC[type(node.op)](_constant(node.left),
                                          _constant(node.right))
    return ast.literal_eval(node)


def _differs_from_default(key: str, value: ast.expr) -> bool:
    try:
        return _constant(value) != DEFAULT_CONF[key]
    except ValueError:
        # a name (a parameter, a loop variable) may well be the default: a
        # key is exercised by a setting that can be read off the page
        return False


def test_every_key_is_read_by_the_source():
    unread = set(DEFAULT_CONF) - keys_read(REPO / "src" / "repro")
    assert not unread, f"DEFAULT_CONF keys no module reads: {sorted(unread)}"


def test_every_key_is_documented():
    docs = "\n".join(path.read_text(encoding="utf-8")
                     for path in sorted((REPO / "docs").glob("*.md")))
    missing = sorted(key for key in DEFAULT_CONF if f"`{key}`" not in docs)
    assert not missing, f"DEFAULT_CONF keys docs/ never mentions: {missing}"


def test_every_key_is_set_to_a_non_default_value_somewhere():
    exercised = {key for root in SETTER_ROOTS
                 for key, value in settings(REPO / root)
                 if _differs_from_default(key, value)}
    constants = sorted(set(DEFAULT_CONF) - exercised)
    assert not constants, (
        f"DEFAULT_CONF keys no test, benchmark or example sets to a "
        f"non-default value (make them constants beside their reader): "
        f"{constants}")


def _session_options_section() -> str:
    text = ARCHITECTURE.read_text(encoding="utf-8")
    start = text.index("## Session options")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_session_options_table_lists_exactly_the_keys():
    section = _session_options_section()
    tabled = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert len(tabled) == len(set(tabled)), f"a key is tabled twice: {tabled}"
    assert set(tabled) == set(DEFAULT_CONF), (
        f"tabled but not in DEFAULT_CONF: {sorted(set(tabled) - set(DEFAULT_CONF))}; "
        f"in DEFAULT_CONF but not tabled: {sorted(set(DEFAULT_CONF) - set(tabled))}")


def test_session_options_prose_counts_the_keys():
    match = re.search(r"understands (\w+) keys", _session_options_section())
    assert match, "the Session options prose no longer states the key count"
    word = match.group(1)
    stated = int(word) if word.isdigit() else _NUMBER_WORDS.index(word)
    assert stated == len(DEFAULT_CONF)
