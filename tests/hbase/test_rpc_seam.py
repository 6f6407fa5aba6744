"""The client's RPC seam stays the only way to a region server's data.

``Table._rpc`` (``repro/hbase/client.py``) is where a data request leaves
the client: auth, the ``hbase.rpc`` fault point, the server lookup, the
request's bill, and the replica id the server answers for.  A second place
that looks a server up in ``cluster.region_servers`` and reads or writes
through it would skip all of that -- which is how ``check_and_put`` came to
be unfaultable and a stale client came to read a secondary.  This scan of
``src/repro`` holds the line: outside the listed control-plane modules only
the seam looks a server up, and nobody at all pairs a lookup with a
data-plane call.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SEAM = ("hbase/client.py", "Table._rpc")
DATA_PLANE = {"scan", "get", "put", "increment", "check_and_put"}

#: modules that may look a region server up, and why that is not a data RPC
EXCEPTIONS: Dict[str, str] = {
    "hbase/master.py": "control plane: assigns, moves, splits, recovers regions",
    "hbase/cluster.py": "control plane: wiring, admin flush/compact, kill",
    "hbase/replication.py": "control plane: places, syncs, promotes replicas",
    "hbase/cdc.py": "control plane: reads every server's log, no region data",
    "common/faults.py": "fault action: crashes the server a faulted call named",
    "extensions/huawei.py": "coprocessor endpoint: runs inside the server "
                            "(exec_coprocessor), the mechanism under test",
}


def _functions(tree: ast.AST, prefix: str = "") -> Iterator[Tuple[str, ast.AST]]:
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node


def _is_servers(node: ast.AST, aliases: Set[str]) -> bool:
    """``<x>.region_servers``, or a local name bound to it."""
    if isinstance(node, ast.Attribute):
        return node.attr == "region_servers"
    return isinstance(node, ast.Name) and node.id in aliases


def _is_lookup(node: ast.AST, aliases: Set[str]) -> bool:
    """``<servers>[...]`` or ``<servers>.get(...)``: one server in hand."""
    if isinstance(node, ast.Subscript):
        return _is_servers(node.value, aliases)
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and _is_servers(node.func.value, aliases))


def _scan(function: ast.AST) -> Tuple[bool, Set[str]]:
    """Whether ``function`` looks a server up, and the data-plane calls it
    makes on a server it looked up (directly or through a local name)."""
    aliases: Set[str] = set()
    servers: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            if _is_servers(node.value, set()):
                aliases.add(node.targets[0].id)
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and _is_lookup(node.value, aliases):
            servers.add(node.targets[0].id)
    looks_up = any(_is_lookup(node, aliases) for node in ast.walk(function))
    calls = {
        node.func.attr for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in DATA_PLANE
        and (_is_lookup(node.func.value, aliases)
             or (isinstance(node.func.value, ast.Name)
                 and node.func.value.id in servers))
    }
    return looks_up, calls


def _survey() -> Dict[Tuple[str, str], Set[str]]:
    """``(module, function) -> data-plane calls`` for every function under
    ``src/repro`` that looks a region server up."""
    found: Dict[Tuple[str, str], Set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, function in _functions(tree):
            looks_up, calls = _scan(function)
            if looks_up:
                found[(module, name)] = calls
    return found


def test_only_the_seam_looks_a_server_up_outside_the_control_plane():
    outside = {where for where in _survey() if where[0] not in EXCEPTIONS}
    assert outside == {SEAM}


def test_nobody_pairs_a_lookup_with_a_data_plane_call():
    """Not even the seam: it hands the server to the operation's ``call``;
    and a control-plane module that started reading or writing region data
    through a server it looked up would be a second, unguarded client."""
    paired = {where: calls for where, calls in _survey().items() if calls}
    assert paired == {}


def test_every_listed_exception_still_looks_a_server_up():
    modules = {module for module, __ in _survey()}
    assert set(EXCEPTIONS) <= modules
    assert all(reason.strip() for reason in EXCEPTIONS.values())


def test_the_scan_sees_what_it_is_looking_for():
    """The detector on the shape it exists to catch (the parent's ``get``)."""
    parent_get = ast.parse('''
def get(self, get, ledger=None):
    location = self._locate(get.row)
    server = self.cluster.region_servers[location.server_id]
    return server.get(location.region_name, get.row)
''')
    (function,) = [f for __, f in _functions(parent_get)]
    assert _scan(function) == (True, {"get"})
    aliased = ast.parse('''
def logs(self):
    servers = self.cluster.region_servers
    return [servers[s].scan("r") for s in sorted(servers)]
''')
    (function,) = [f for __, f in _functions(aliased)]
    assert _scan(function) == (True, {"scan"})
