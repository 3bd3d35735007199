"""The package's public names: each is written once, in its module's ``__all__``."""

import ast
import importlib
from pathlib import Path

import amnocr

MODULES = [importlib.import_module(f"amnocr.{name}")
           for name in ("bench", "bmp", "core", "errors", "parallel", "patterns", "recognize")]


def test_package_names_are_the_module_names():
    assert amnocr.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(amnocr.__all__)) == len(amnocr.__all__) == 49
    for module in MODULES:
        for name in module.__all__:
            assert getattr(amnocr, name) is getattr(module, name)
    namespace = {}
    exec("from amnocr import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(amnocr.__all__)


def test_recognize_is_the_function_and_bench_the_module():
    assert amnocr.recognize is importlib.import_module("amnocr.recognize").recognize
    assert amnocr.bench is importlib.import_module("amnocr.bench")


def test_limits_have_one_copy_in_their_module():
    # A copy elsewhere would not follow a change to amnocr.errors.MAX_WEIGHT_BYTES.
    for name in ("MAX_WEIGHT_BYTES", "MAX_THREADS"):
        assert name not in amnocr.__all__
        assert not hasattr(amnocr, name)
    assert [module.__name__ for module in MODULES if hasattr(module, "MAX_WEIGHT_BYTES")] == ["amnocr.errors"]


# Each module imports only modules before it here, so none imports another back.
IMPORT_ORDER = ("errors", "bmp", "patterns", "core", "parallel", "recognize", "bench", "cli")


def test_modules_import_in_one_direction():
    package = Path(amnocr.__file__).parent
    modules = sorted(path.stem for path in package.glob("*.py") if path.stem not in ("__init__", "__main__"))
    assert modules == sorted(IMPORT_ORDER)
    for name in IMPORT_ORDER:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            assert node.level == 1, f"{name}.py:{node.lineno} imports from outside the package"
            imported = [node.module] if node.module else [alias.name for alias in node.names]
            for other in imported:
                assert IMPORT_ORDER.index(other) < IMPORT_ORDER.index(name), (
                    f"{name}.py:{node.lineno} imports {other}, which comes after it in {IMPORT_ORDER}"
                )
