"""The package's public names: each is written once, in its module's ``__all__``."""

import importlib

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
    # A package-level copy would not follow a change to amnocr.core.MAX_WEIGHT_BYTES.
    for name in ("MAX_WEIGHT_BYTES", "MAX_THREADS"):
        assert name not in amnocr.__all__
        assert not hasattr(amnocr, name)
