"""Unit tests for the whole-program model (repro.lint.flow.model)."""

import ast

from repro.lint.flow.model import ModuleInfo, build_model


def _records(*files):
    out = []
    for path, logical, source in files:
        out.append(ModuleInfo(path, logical, ast.parse(source), tuple(source.splitlines())))
    return out


def test_module_naming_and_packages():
    model = build_model(
        _records(
            ("a.py", "core/averaging.py", "x = 1"),
            ("b.py", "system/broadcast/__init__.py", "y = 2"),
        )
    )
    assert "repro.core.averaging" in model.modules
    pkg = model.modules["repro.system.broadcast"]
    assert pkg.is_package
    assert model.by_logical["core/averaging.py"].name == "repro.core.averaging"


def test_relative_and_function_level_imports_resolve():
    src = (
        "from ..geometry.norms import validate_p\n"
        "def gate(n, f):\n"
        "    from .bounds import rbc_min_n\n"
        "    return n >= rbc_min_n(f)\n"
    )
    model = build_model(_records(("m.py", "core/algo.py", src)))
    mod = model.modules["repro.core.algo"]
    assert mod.imports["validate_p"] == "repro.geometry.norms.validate_p"
    # Function-level import is in the table too (bracha-style cycles).
    assert mod.imports["rbc_min_n"] == "repro.core.bounds.rbc_min_n"
    assert model.resolve(mod, "rbc_min_n") == "repro.core.bounds.rbc_min_n"


def test_same_module_symbols_and_function_lookup():
    src = "def helper():\n    return 1\n"
    model = build_model(_records(("m.py", "core/mod.py", src)))
    mod = model.modules["repro.core.mod"]
    assert model.resolve(mod, "helper") == "repro.core.mod.helper"
    found = model.function("repro.core.mod.helper")
    assert found is not None and found[1].name == "helper"


def test_mro_and_merged_methods_derived_wins():
    base = (
        "class Base(SyncProcess):\n"
        "    def on_round(self, ctx, round):\n"
        "        return 'base'\n"
        "    def shared(self):\n"
        "        return 'base'\n"
    )
    derived = (
        "from .basemod import Base\n"
        "class Derived(Base):\n"
        "    def shared(self):\n"
        "        return 'derived'\n"
    )
    model = build_model(
        _records(
            ("b.py", "core/basemod.py", base),
            ("d.py", "core/derivedmod.py", derived),
        )
    )
    cls = model.modules["repro.core.derivedmod"].classes["Derived"]
    table = model.merged_methods(cls)
    assert table["shared"][0].name == "Derived"
    assert table["on_round"][0].name == "Base"
    # Transitive SyncProcess base makes Derived a process class.
    names = {c.name for c in model.process_classes()}
    assert names == {"Base", "Derived"}


def test_module_level_mutable_bindings_collected():
    src = "_CACHE: dict = {}\nTABLE = dict(a=1)\nFROZEN = (1, 2)\n"
    model = build_model(_records(("m.py", "system/mod.py", src)))
    mutables = model.modules["repro.system.mod"].global_mutables
    assert "_CACHE" in mutables and "TABLE" in mutables
    assert "FROZEN" not in mutables


def test_out_of_program_logical_paths_excluded():
    model = build_model(_records(("t.py", "tests/test_x.py", "x = 1")))
    assert model.modules == {}
