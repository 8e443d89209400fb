"""Source checks on the package, made with the standard library's ast."""

import ast
from pathlib import Path

import pytest

import phonon_forge

_PACKAGE = Path(phonon_forge.__file__).parent
# the package's __init__ imports names to export them, not to use them
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    """The names a module imports but never reads, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_modules_found():
    assert {p.stem for p in _MODULES} >= {"cli", "params", "simulator"}


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from dataclasses import dataclass, replace\n"
              "import os.path\n"
              "from .errors import ConfigError as Bad\n"
              "@dataclass\nclass A:\n    x: int = 0\n")
    assert _unused_imports(source) == ["replace", "os", "Bad"]


def _environment_reads(source):
    """The lines on which a module reads the environment through os."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES:
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(a.name in _ENV_NAMES for a in node.names):
            lines.add(node.lineno)
    return sorted(lines)


_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    # every setting comes from the config file or a flag
    assert _environment_reads(path.read_text()) == []


def test_the_check_sees_an_environment_read():
    source = ("import os\nn = os.environ.get('N')\nfrom os import getenv as g\n"
              "m = os.getenv('M')\nk = os.cpu_count()\n")
    assert _environment_reads(source) == [2, 3, 4]
