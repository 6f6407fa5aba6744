"""Documentation guardrails: every public module/class/function has a docstring."""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _iter_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        out.append(info.name)
    return sorted(out)


MODULES = _iter_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), \
        f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module_name:
            continue  # re-exported from elsewhere
        if inspect.isclass(member) or inspect.isfunction(member):
            if not (member.__doc__ and member.__doc__.strip()):
                missing.append(name)
    assert not missing, f"{module_name}: undocumented public items {missing}"


def test_every_package_exports_all_or_is_leaf():
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        if hasattr(module, "__path__"):  # a package
            assert hasattr(module, "__all__") or module.__doc__, module_name


def test_counter_api_methods_are_documented():
    """The counter API docs/metrics.md points readers at -- including the
    operator-scoped reader EXPLAIN ANALYZE's notes come from -- documents
    every public method, not only its classes."""
    from repro.common.metrics import CostLedger, MetricsRegistry

    for cls in (MetricsRegistry, CostLedger):
        for name, member in vars(cls).items():
            if not name.startswith("_") and inspect.isfunction(member):
                assert member.__doc__ and member.__doc__.strip(), \
                    f"{cls.__name__}.{name} lacks a docstring"
    assert "operator" in MetricsRegistry.for_op.__doc__
