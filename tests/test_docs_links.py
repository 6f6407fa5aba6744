"""Intra-repo markdown links and file paths must point at files that exist.

Scans every tracked ``*.md`` page (repo root and ``docs/``) for inline
``[text](target)`` links, resolves relative targets against the page's own
directory, and fails on any that point nowhere.  External URLs and pure
in-page anchors are out of scope.  Backticked ``tests/``, ``src/``,
``benchmarks/`` and ``docs/`` paths (a ``::test`` or ``:line`` suffix
allowed) must exist from the repo root, except in CHANGES.md and
ROADMAP.md, whose history and plans name files that are gone or not yet
made.
"""

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
