"""Every public name and console script of the package resolves.

Catches a re-export in a package ``__all__`` or a ``[project.scripts]``
entry left dangling when the module behind it is deleted.
"""

from __future__ import annotations

import importlib
import pathlib
import pkgutil

import pytest

import repro

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_package_exports_resolve():
    packages = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
    ]
    missing = []
    for name in packages:
        package = importlib.import_module(name)
        exports = getattr(package, "__all__", ())
        missing += [f"{name}.{attr}" for attr in exports if not hasattr(package, attr)]
    assert len(packages) > 1
    assert not missing


def test_console_scripts_resolve():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts
    for script, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr, None)), script
