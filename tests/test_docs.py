"""Cross-references in the package's docstrings and comments name real objects."""

import importlib
import inspect
import pkgutil
import re

import pytest

import cubesec

ROLE = re.compile(r":(?:func|class|meth):`~?([\w.]+)`")
# a double-backticked UPPER_CASE name of two characters or more, a constant
CONSTANT = re.compile(r"``([A-Z][A-Z0-9_]+)``")
MODULES = [name for _, name, _ in pkgutil.iter_modules(cubesec.__path__, "cubesec.")]


@pytest.mark.parametrize("name", ["cubesec", *MODULES])
def test_references_resolve(name):
    # every :func:, :class: and :meth: role resolves on its own module, a
    # dotted name part by part
    module = importlib.import_module(name)
    missing = []
    for ref in sorted(set(ROLE.findall(inspect.getsource(module)))):
        target = module
        for part in ref.split("."):
            target = getattr(target, part, None)
            if target is None:
                missing.append(ref)
                break
    assert not missing, f"{name}: unresolved references {missing}"


@pytest.mark.parametrize("name", ["cubesec", *MODULES])
def test_constants_resolve(name):
    # every constant named in double backticks is an attribute of some
    # cubesec module, so a deleted constant leaves no mention behind
    modules = [importlib.import_module(m) for m in ["cubesec", *MODULES]]
    named = set(CONSTANT.findall(inspect.getsource(importlib.import_module(name))))
    missing = sorted(c for c in named if not any(hasattr(m, c) for m in modules))
    assert not missing, f"{name}: unresolved constants {missing}"
