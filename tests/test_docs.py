"""Cross-references in the package's docstrings and comments name real objects."""

import importlib
import inspect
import pathlib
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


def test_layout_names_every_module():
    # README's Layout block names every module of the package and every
    # tool under tests/ that is not a test file
    root = pathlib.Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    layout = readme.split("## Layout", 1)[1].split("```")[1]
    named = set(re.findall(r"[\w.]+\.py", layout))
    modules = {name.rsplit(".", 1)[1] + ".py" for name in MODULES}
    tools = {p.name for p in (root / "tests").glob("*.py") if not p.name.startswith("test_")}
    assert {"oracles.py", "restart_digest.py", "volume_digest.py"} <= tools
    missing = sorted((modules | tools) - named)
    assert not missing, f"README Layout does not name {missing}"
