"""The README's code references name what the package defines."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import simplex_stdp
from simplex_stdp import _kernel, cli

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


def test_readme_names_the_kernel_functions():
    """The backticked `simplex_<name>` symbols of README.md, the package's
    own name aside, are the functions that `_kernel.c` defines: none gone,
    none left out."""
    defined = set(re.findall(r"^\w[\w *]*?\b(simplex_\w+)\(", Path(_kernel.SOURCE).read_text(),
                             re.M))
    named = set(re.findall(r"`(simplex_\w+)`", README.read_text())) - {simplex_stdp.__name__}
    assert defined and named == defined


def _flags(text):
    return set(re.findall(r"--[a-z][\w-]*", text))


def test_cli_synopses_match_the_parser(capsys):
    """The options in README's CLI synopsis and in the cli module's usage
    line are those of the parser's own usage: none missing, none that it
    does not take."""
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    parser_usage = capsys.readouterr().out.split("\n\n")[0]
    readme = re.search(r"## CLI\s+```sh\n(.*?)```", README.read_text(), re.S).group(1)
    docstring = cli.__doc__.split("Usage:")[1].split("\n\n")[0]
    assert "--set" in _flags(parser_usage)
    assert _flags(readme) == _flags(parser_usage)
    assert _flags(docstring) == _flags(parser_usage)
