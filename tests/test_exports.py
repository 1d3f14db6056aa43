"""Every exported name resolves: ``__all__`` of every ``repro`` module and
every entry of the transport-seam allowlist.

A deletion that forgets a re-export, an ``__all__`` entry or a seam entry
fails here instead of at a user's import.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.lint.flow.seams import TRANSPORT_SEAMS

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def _module_for(path: str) -> str:
    """``system/broadcast/__init__.py`` -> ``repro.system.broadcast``."""
    dotted = path.removesuffix(".py").replace("/", ".")
    return "repro." + dotted.removesuffix(".__init__")


@pytest.mark.parametrize("name", ["repro", *MODULES])
def test_every_all_name_resolves(name):
    module = importlib.import_module(name)
    missing = [
        export for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("path", sorted(TRANSPORT_SEAMS))
def test_every_seam_name_resolves(path):
    module = importlib.import_module(_module_for(path))
    missing = sorted(n for n in TRANSPORT_SEAMS[path] if not hasattr(module, n))
    assert not missing, f"seam {path} names missing attributes: {missing}"
