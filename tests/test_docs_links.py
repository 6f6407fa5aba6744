"""Intra-repo markdown links and file paths must point at files that exist.

Scans every tracked ``*.md`` page (repo root and ``docs/``) for inline
``[text](target)`` links, resolves relative targets against the page's own
directory, and fails on any that point nowhere.  External URLs and pure
in-page anchors are out of scope.  Backticked ``tests/``, ``src/``,
``benchmarks/`` and ``docs/`` paths (a ``::test`` or ``:line`` suffix
allowed) must exist from the repo root, except in CHANGES.md and
ROADMAP.md, whose history and plans name files that are gone or not yet
made.  Likewise a backticked ``Class.member`` in the documentation, where
``Class`` is a class under ``src/repro``, must name a member the class has.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_LINK_RE = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
_CODE_RE = re.compile(r"`[^`]*`")
_PATH_RE = re.compile(r"`((?:tests|src|benchmarks|docs)/[\w./-]*)(?:::?[\w\[\]-]+)?`")
_EXTERNAL = ("http://", "https://", "mailto:")
_PLANS = ("CHANGES.md", "ROADMAP.md")


def _markdown_pages():
    pages = sorted(REPO.glob("*.md")) + sorted(REPO.glob("docs/*.md"))
    assert pages, "no markdown pages found -- wrong repo root?"
    return pages


def _prose_lines(page: Path):
    inside_fence = False
    for line in page.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            inside_fence = not inside_fence
            continue
        if not inside_fence:
            yield line


def _intra_repo_links(page: Path):
    for line in _prose_lines(page):
        # a link spelled inside backticks is code, not a link
        for target in _LINK_RE.findall(_CODE_RE.sub("", line)):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            yield target


def test_intra_repo_markdown_links_resolve():
    broken = []
    for page in _markdown_pages():
        for target in _intra_repo_links(page):
            path = target.split("#", 1)[0]
            resolved = (REPO / path if path.startswith("/")
                        else page.parent / path)
            if not resolved.exists():
                broken.append(f"{page.relative_to(REPO)} -> {target}")
    assert not broken, "broken intra-repo markdown links:\n" + "\n".join(broken)


def test_backticked_repo_paths_resolve():
    missing = [f"{page.relative_to(REPO)} -> {path}"
               for page in _markdown_pages() if page.name not in _PLANS
               for line in _prose_lines(page)
               for path in _PATH_RE.findall(line)
               if not (REPO / path).exists()]
    assert not missing, "backticked paths that name nothing:\n" + "\n".join(missing)


#: a backticked span that starts with ``Class.member``
_SYMBOL_RE = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)")
_SYMBOL_PAGES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def _class_members():
    """Every class under ``src/repro`` by name: its members (methods,
    class-level assignments, nested classes, ``self.x`` assignments in its
    methods) and its bases' names.  Two classes of one name share an entry."""
    members, bases = {}, {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            names = members.setdefault(node.name, set())
            for base in node.bases:
                if isinstance(base, (ast.Name, ast.Attribute)):
                    bases.setdefault(node.name, set()).add(
                        base.id if isinstance(base, ast.Name) else base.attr)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = (item.targets if isinstance(item, ast.Assign)
                               else [item.target])
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
            for inner in ast.walk(node):
                targets = (inner.targets if isinstance(inner, ast.Assign)
                           else [inner.target]
                           if isinstance(inner, (ast.AnnAssign, ast.AugAssign))
                           else [])
                names.update(t.attr for t in targets
                             if isinstance(t, ast.Attribute)
                             and isinstance(t.value, ast.Name)
                             and t.value.id == "self")
    return members, bases


def _has_member(members, bases, cls, member, seen=()):
    if member in members.get(cls, ()):
        return True
    return any(_has_member(members, bases, base, member, seen + (cls,))
               for base in bases.get(cls, ()) if base not in seen)


def test_backticked_class_members_exist():
    members, bases = _class_members()
    pages = [REPO / name for name in _SYMBOL_PAGES] + sorted(REPO.glob("docs/*.md"))
    checked, missing = 0, []
    for page in pages:
        for line in _prose_lines(page):
            for cls, member in _SYMBOL_RE.findall(line):
                if cls not in members:
                    continue
                checked += 1
                if not _has_member(members, bases, cls, member):
                    missing.append(f"{page.relative_to(REPO)} -> {cls}.{member}")
    assert checked, "no backticked Class.member found -- wrong pattern?"
    assert not missing, "backticked members that name nothing:\n" + "\n".join(missing)
