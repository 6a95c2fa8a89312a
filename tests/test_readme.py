"""The README's code references name what the package defines."""

import importlib
import pkgutil
import re
from pathlib import Path

import simplex_stdp

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_code_references_resolve():
    """Every backticked `module.name` in README.md whose module is one of
    the package's names an attribute of that module."""
    modules = {m.name for m in pkgutil.iter_modules(simplex_stdp.__path__)}
    refs = {(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)", README.read_text())
            if mod in modules}
    assert refs
    missing = sorted("%s.%s" % ref for ref in refs
                     if not hasattr(importlib.import_module("simplex_stdp." + ref[0]), ref[1]))
    assert not missing, "README.md names what the package does not define: %s" % missing
