"""Every ```python fence in docs/*.md must actually run.

Blocks execute in file order sharing one namespace per document, so a
doc can set the stage once (build a cluster, load data) and let later
examples build on it -- exactly how a reader would follow the chapter.

Output a doc presents as a real run is one: docs/observability.md's
EXPLAIN ANALYZE block is compared with what its example prints.
"""

import contextlib
import io
import pathlib
import re

import pytest

DOCS = pathlib.Path(__file__).parents[1] / "docs"


def _python_blocks(path):
    return re.findall(r"```python\n(.*?)```", path.read_text(), re.DOTALL)


def _docs_with_examples():
    return [p for p in sorted(DOCS.glob("*.md")) if _python_blocks(p)]


def test_the_book_has_python_examples():
    names = {p.name for p in _docs_with_examples()}
    # chapters whose examples must never silently disappear
    for expected in ("caching.md", "fault_tolerance.md", "observability.md",
                     "optimizer.md", "serving.md"):
        assert expected in names, f"{expected} lost its python examples"


@pytest.mark.parametrize("doc", _docs_with_examples(), ids=lambda p: p.name)
def test_doc_examples_execute(doc):
    namespace = {"__name__": f"docs.{doc.stem}"}
    for index, block in enumerate(_python_blocks(doc)):
        code = compile(block, f"{doc.name}[example {index}]", "exec")
        exec(code, namespace)  # noqa: S102 - the docs are ours


#: a row of EXPLAIN ANALYZE's stage table: stage kind tasks local sim_s
#: wall_s output scan
_STAGE_ROW = re.compile(r"^\s*\d+\s+[\w-]+\s+\d+\s+\d+\s+[\d.]+\s+[\d.]+\s+\S+\s+\S+$")
_REPORT_HEAD = "== Physical Plan (EXPLAIN ANALYZE) =="


def _masked(line):
    """``line`` without its wall-clock values, the only part of an EXPLAIN
    ANALYZE report that varies between runs of one plan (operator ids are
    positions in the plan, so they do not)."""
    if _STAGE_ROW.match(line):
        fields = line.split()
        fields[5] = "<wall>"
        return " ".join(fields)
    return re.sub(r"wall-clock: [\d.]+s", "wall-clock: <wall>s", line)


def test_observability_report_is_a_real_run_of_its_example():
    doc = DOCS / "observability.md"
    example = next(b for b in _python_blocks(doc) if "explain(analyze=True)" in b)
    documented = re.search(rf"^```\n({re.escape(_REPORT_HEAD)}\n.*?)^```$",
                           doc.read_text(), re.M | re.S).group(1).splitlines()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, f"{doc.name}[report example]", "exec"),
             {"__name__": "docs.observability"})
    printed = out.getvalue().splitlines()
    start = printed.index(_REPORT_HEAD)
    ran = printed[start:start + len(documented)]
    assert [_masked(line) for line in ran] == \
        [_masked(line) for line in documented]
