"""Whole-program model: modules, imports, symbols, classes, call edges.

Every linted file is parsed once into a :class:`ModuleInfo`; the rules
in :mod:`repro.lint.rules` read one of them at a time, while the flow
families (FLOW/TNT/QUO/XPT) need to follow a value across files — a tag
helper defined in ``core/averaging.py`` and called from a method three
hops away, a bounds predicate imported function-level inside
``system/broadcast/bracha.py``.  :class:`ProgramModel` is the shared
substrate: every module keyed by its dotted name, an import table mapping
every local alias to its fully-qualified target (module-level *and*
function-level imports — the protocol modules import
:mod:`repro.core.bounds` inside ``__init__`` to avoid a package cycle),
top-level functions and classes, and best-effort base-class resolution
(:meth:`ProgramModel.mro`).

Resolution is name-based and deliberately conservative: anything that
cannot be resolved statically resolves to ``None`` and the rules treat it
as out of reach rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from ..rules.common import dotted_name

__all__ = ["ClassInfo", "ModuleInfo", "ProgramModel", "build_model"]

#: Logical-path prefixes that form the analysed program (tests,
#: benchmarks and examples drive the program; they are not part of it).
PROGRAM_PREFIXES = (
    "core/",
    "system/",
    "geometry/",
    "obs/",
    "dst/",
    "exec/",
    "analysis/",
    "lint/",
)


@dataclass
class ClassInfo:
    """One class definition plus its resolved context."""

    name: str
    qualname: str  # fully qualified: "repro.core.averaging.VerifiedAveragingProcess"
    module: "ModuleInfo"
    node: ast.ClassDef
    base_names: tuple[str, ...]  # dotted names as written at the def site
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed file plus its symbol/import tables."""

    path: str
    logical_path: str
    tree: ast.Module
    lines: tuple[str, ...]
    #: every node of ``tree`` in ``ast.walk`` order, walked once for all rules
    nodes: list[ast.AST] = field(init=False)
    name: str = field(init=False)  # dotted module name, e.g. "repro.core.averaging"
    is_package: bool = field(init=False)
    #: local alias -> fully qualified target (module or module.symbol);
    #: includes function-level imports.
    imports: dict[str, str] = field(init=False, default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(init=False, default_factory=dict)
    classes: dict[str, ClassInfo] = field(init=False, default_factory=dict)
    #: module-level names bound to mutable values -> lineno of the binding
    global_mutables: dict[str, int] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.nodes = list(ast.walk(self.tree))
        self.name, self.is_package = _module_name(self.logical_path)
        _collect_imports(self)
        _collect_symbols(self)


def _module_name(logical_path: str) -> tuple[str, bool]:
    """Dotted module name (rooted at ``repro``) for a logical path."""
    parts = logical_path[:-3].split("/") if logical_path.endswith(".py") else [
        logical_path
    ]
    if parts and parts[-1] == "__init__":
        return ".".join(["repro", *parts[:-1]]), True
    return ".".join(["repro", *parts]), False


def _import_anchor(info_name: str, is_package: bool, level: int) -> list[str]:
    """Package path a relative import of ``level`` resolves against."""
    parts = info_name.split(".")
    anchor = parts if is_package else parts[:-1]
    if level > 1:
        anchor = anchor[: max(0, len(anchor) - (level - 1))]
    return anchor


_MUTABLE_VALUE_TYPES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTABLE_CTORS = frozenset({"dict", "list", "set", "defaultdict", "deque", "Counter"})


def _is_mutable_binding(value: ast.AST) -> bool:
    if isinstance(value, _MUTABLE_VALUE_TYPES):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CTORS
    return False


def _collect_imports(info: ModuleInfo) -> None:
    for node in info.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                info.imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            anchor = (
                _import_anchor(info.name, info.is_package, node.level)
                if node.level
                else []
            )
            base = [*anchor, *(node.module.split(".") if node.module else [])]
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = ".".join([*base, alias.name])


def _collect_symbols(info: ModuleInfo) -> None:
    for node in info.tree.body:
        if isinstance(node, ast.FunctionDef):
            info.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            bases = tuple(
                name for name in (dotted_name(b) for b in node.bases) if name is not None
            )
            cls = ClassInfo(
                name=node.name,
                qualname=f"{info.name}.{node.name}",
                module=info,
                node=node,
                base_names=bases,
            )
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    cls.methods[item.name] = item
            info.classes[node.name] = cls
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if value is not None and _is_mutable_binding(value):
                for t in targets:
                    if isinstance(t, ast.Name):
                        info.global_mutables[t.id] = node.lineno


class ProgramModel:
    """The resolved whole-program view the flow rules run over."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.by_logical: dict[str, ModuleInfo] = {}
        #: what the rules derive from the model, built once per model
        #: (see ``repro.lint.flow.rules._once``)
        self.derived: dict[object, object] = {}

    # ------------------------------------------------------------- resolution
    def resolve(self, module: ModuleInfo, dotted: str) -> Optional[str]:
        """Fully-qualified name of ``dotted`` as seen from ``module``.

        ``bounds.rbc_min_n`` resolves through the import table;
        ``rb_tag`` resolves to a same-module symbol; unresolvable names
        return ``None``.
        """
        head, _, rest = dotted.partition(".")
        if head in module.imports:
            target = module.imports[head]
            return f"{target}.{rest}" if rest else target
        if head in module.functions or head in module.classes:
            return f"{module.name}.{dotted}"
        return None

    def function(self, qualname: str) -> Optional[tuple[ModuleInfo, ast.FunctionDef]]:
        """Top-level function def for a fully-qualified name, if modelled."""
        mod_name, _, func = qualname.rpartition(".")
        info = self.modules.get(mod_name)
        if info is not None and func in info.functions:
            return info, info.functions[func]
        # The symbol may be re-exported: follow one import hop.
        if info is not None and func in info.imports:
            return self.function(info.imports[func])
        return None

    def class_info(self, qualname: str) -> Optional[ClassInfo]:
        mod_name, _, cls = qualname.rpartition(".")
        info = self.modules.get(mod_name)
        if info is not None and cls in info.classes:
            return info.classes[cls]
        if info is not None and cls in info.imports:
            return self.class_info(info.imports[cls])
        return None

    def mro(self, cls: ClassInfo) -> list[ClassInfo]:
        """Best-effort linearisation: the class, then resolved bases."""
        out: list[ClassInfo] = []
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            out.append(current)
            for base in current.base_names:
                resolved = self.resolve(current.module, base)
                base_cls = self.class_info(resolved) if resolved else None
                if base_cls is not None:
                    stack.append(base_cls)
        return out

    def base_name_closure(self, cls: ClassInfo) -> set[str]:
        """Every base name (resolved or raw) in the transitive base chain."""
        names: set[str] = set()
        for c in self.mro(cls):
            for base in c.base_names:
                names.add(base.rpartition(".")[2])
                resolved = self.resolve(c.module, base)
                if resolved:
                    names.add(resolved)
        return names

    def process_classes(self) -> Iterator[ClassInfo]:
        """Classes that (transitively) subclass SyncProcess/AsyncProcess."""
        for info in self.modules.values():
            for cls in info.classes.values():
                bases = self.base_name_closure(cls)
                if any(
                    b in ("SyncProcess", "AsyncProcess")
                    or b.endswith((".SyncProcess", ".AsyncProcess"))
                    for b in bases
                ):
                    yield cls

    def merged_methods(self, cls: ClassInfo) -> dict[str, tuple[ClassInfo, ast.FunctionDef]]:
        """Method table of ``cls`` with inherited methods (derived wins)."""
        table: dict[str, tuple[ClassInfo, ast.FunctionDef]] = {}
        for owner in self.mro(cls):
            for name, node in owner.methods.items():
                table.setdefault(name, (owner, node))
        return table


def build_model(modules: Iterable[ModuleInfo]) -> ProgramModel:
    """Assemble a model from parsed modules.

    Only files whose logical path falls under a program prefix join the
    model; fixture files opt in via ``# repro: lint-as core/...``.
    """
    model = ProgramModel()
    for info in modules:
        if info.logical_path.startswith(PROGRAM_PREFIXES):
            model.modules[info.name] = info
            model.by_logical[info.logical_path] = info
    return model
