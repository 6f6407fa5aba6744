"""Which layer a source file belongs to, and self time per layer from cProfile.

The groups are the packages under ``src/repro/`` cut where a later
optimisation would cut them: the SQL front end apart from the operators,
SHC's planning half apart from its codec half, the HBase client apart from
the region servers and from the log tailers.  ``tests/test_e2e_layers.py``
asserts every ``src/repro/**/*.py`` matches exactly one group, so a new
module cannot fall silently into ``runtime``.
"""

from __future__ import annotations

import fnmatch
import os
from typing import Dict, List

#: group -> patterns relative to src/repro (fnmatch; ``*`` crosses ``/``)
LAYER_FILES: Dict[str, List[str]] = {
    "sql_frontend": [
        "sql/__init__.py", "sql/parser.py", "sql/analyzer.py",
        "sql/optimizer.py", "sql/cbo.py", "sql/stats.py", "sql/planner.py",
        "sql/logical.py", "sql/session.py", "sql/dataframe.py",
        "sql/sources.py", "sql/functions.py", "sql/types.py",
        "sql/fingerprint.py", "sql/explain.py", "sql/dbapi.py",
    ],
    "sql_exec": [
        "sql/physical.py", "sql/vectorized.py", "sql/columnar.py",
        "sql/expressions.py", "sql/row.py", "sql/adaptive.py",
    ],
    "sql_views": ["sql/views.py"],
    "core_plan": [
        "core/__init__.py", "core/ranges.py", "core/pushdown.py",
        "core/partitions.py", "core/relation.py", "core/catalog.py",
        "core/conncache.py", "core/credentials.py", "core/hbase_context.py",
    ],
    "core_codec": [
        "core/scan_rdd.py", "core/keys.py", "core/coders/*",
        "core/writer.py", "hbase/hbytes.py",
    ],
    "engine": ["engine/*"],
    "hbase_client": [
        "hbase/__init__.py", "hbase/client.py", "hbase/zookeeper.py",
        "hbase/security.py",
    ],
    "hbase_server": [
        "hbase/regionserver.py", "hbase/region.py", "hbase/hfile.py",
        "hbase/memstore.py", "hbase/blockcache.py", "hbase/filters.py",
        "hbase/cell.py", "hbase/hdfs.py", "hbase/master.py",
        "hbase/cluster.py",
    ],
    "hbase_log": ["hbase/wal.py", "hbase/cdc.py", "hbase/replication.py"],
    "common": ["common/*"],
    # code no workload's cycle should spend time in: the loader and
    # generators (set-up), the serving front door (its own probe), the
    # comparators, the CLI
    "other": [
        "__init__.py", "_version.py", "cli.py", "baselines/*", "bench/*",
        "extensions/*", "serving/*", "workloads/*",
    ],
}

#: everything outside src/repro: the interpreter, builtins, the stdlib
RUNTIME = "runtime"
GROUPS = list(LAYER_FILES) + [RUNTIME]


def groups_of(relative_path: str) -> List[str]:
    """Every group whose patterns match a path relative to ``src/repro``."""
    path = relative_path.replace(os.sep, "/")
    return [group for group, patterns in LAYER_FILES.items()
            if any(fnmatch.fnmatchcase(path, p) for p in patterns)]


class LayerClassifier:
    """Absolute file name -> group, memoised (profiles repeat file names)."""

    def __init__(self, package_root: str) -> None:
        self._root = os.path.realpath(package_root) + os.sep
        self._memo: Dict[str, str] = {}

    def group(self, filename: str) -> str:
        group = self._memo.get(filename)
        if group is None:
            real = os.path.realpath(filename)
            if real.startswith(self._root):
                matches = groups_of(real[len(self._root):])
                # an unmapped repro file is still the program's time; the
                # coverage test, not the profile, is where that is caught
                group = matches[0] if matches else "other"
            else:
                group = RUNTIME
            self._memo[filename] = group
        return group


def profile_by_layer(stats, classifier: LayerClassifier) -> Dict[str, Dict[str, float]]:
    """Fold ``cProfile.Profile.getstats()`` into per-group totals.

    Returns ``{group: {"self_s": seconds, "calls": count}}``.  Self time is
    cProfile's ``inlinetime`` (time in the function itself, callees
    excluded); builtins and C functions have no file and count as runtime.
    """
    out = {group: {"self_s": 0.0, "calls": 0.0} for group in GROUPS}
    for entry in stats:
        code = entry.code
        group = RUNTIME if isinstance(code, str) \
            else classifier.group(code.co_filename)
        out[group]["self_s"] += entry.inlinetime
        out[group]["calls"] += entry.callcount
    return out
