"""Every name a ``repro`` module lists in ``__all__`` must resolve.

A stale ``__all__`` entry only fails at ``from module import *``; this
walks every module of the package and checks each listed name with
``getattr``.
"""

import importlib
import pkgutil

import pytest

import repro


def _modules_with_all():
    names = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    for name in names:
        module = importlib.import_module(name)
        if hasattr(module, "__all__"):
            yield name


MODULES = list(_modules_with_all())


def test_the_harness_declares_its_exports():
    assert "repro.harness" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__), "duplicate entries"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
