"""Every source file belongs to exactly one layer group."""

import os

import repro
from layers import GROUPS, LAYER_FILES, RUNTIME, LayerClassifier, groups_of


def _source_files():
    root = os.path.dirname(repro.__file__)
    for folder, __, names in os.walk(root):
        for name in names:
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(folder, name), root)


def test_every_source_file_is_in_exactly_one_group():
    files = list(_source_files())
    assert len(files) > 80  # the walk found the package
    wrong = {path: groups_of(path) for path in files
             if len(groups_of(path)) != 1}
    assert not wrong, (
        "map these files to exactly one group in layers.LAYER_FILES "
        f"(otherwise their time is misattributed): {wrong}")


def test_every_pattern_still_matches_a_file():
    files = list(_source_files())
    for group, patterns in LAYER_FILES.items():
        for pattern in patterns:
            assert any(group in groups_of(path) and _matches(path, pattern)
                       for path in files), (group, pattern)


def _matches(path, pattern):
    import fnmatch

    return fnmatch.fnmatchcase(path.replace(os.sep, "/"), pattern)


def test_classifier_sends_outside_files_to_runtime():
    root = os.path.dirname(repro.__file__)
    classifier = LayerClassifier(root)
    assert classifier.group(os.path.join(root, "sql", "parser.py")) == "sql_frontend"
    assert classifier.group(os.path.join(root, "hbase", "hbytes.py")) == "core_codec"
    assert classifier.group(os.path.join(root, "core", "coders", "primitive.py")) \
        == "core_codec"
    assert classifier.group(os.__file__) == RUNTIME
    assert RUNTIME in GROUPS and RUNTIME not in LAYER_FILES
