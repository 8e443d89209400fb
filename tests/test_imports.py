"""Source checks on the package and the tests' oracles, made with the
standard library's ast."""

import ast
import importlib
import inspect
import typing
from pathlib import Path

import numpy as np
import pytest

import phonon_forge
from phonon_forge.params import HERALD_KINDS, UNITS

_PACKAGE = Path(phonon_forge.__file__).parent
_MODULES = sorted(_PACKAGE.glob("*.py"))


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


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _sibling_private_names(source):
    """(line, name) of each private name a module imports from a sibling
    module (from .x import _y) or reads off one it imported (x._y)."""
    tree = ast.parse(source)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                siblings |= {a.asname or a.name for a in node.names}
            else:
                found += [(node.lineno, a.name) for a in node.names if _is_private(a.name)]
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _is_private(node.attr)
              and getattr(node.value, "id", None) in siblings]
    return sorted(found)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_sibling_private_names(path):
    # a name another module needs is public, in the one module that owns it
    assert _sibling_private_names(path.read_text()) == []


def test_the_check_sees_a_sibling_private_name():
    source = ("from . import simulator as sim, dynamics\n"
              "from .phase_space import _VALID_UNITS, wigner_s\n"
              "from ._formats import write_csv\n"
              "k = sim._HERALD_KINDS\nd = dynamics.__doc__\nr = self._rate\n"
              "def f():\n    from .params import _hidden\n    return dynamics._fit()\n")
    assert _sibling_private_names(source) == [(2, "_VALID_UNITS"), (4, "_HERALD_KINDS"),
                                              (8, "_hidden"), (9, "_fit")]


def _config_name_literals(source):
    """(line, value) of each string literal that spells a herald kind or a
    unit name, which params owns."""
    names = set(HERALD_KINDS + UNITS)
    return sorted((node.lineno, node.value) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and node.value in names)


@pytest.mark.parametrize("path", [p for p in _MODULES if p.name != "params.py"],
                         ids=lambda p: p.name)
def test_no_config_name_literals(path):
    # the herald kinds and unit names are spelled once, in params
    assert _config_name_literals(path.read_text()) == []


def test_the_check_sees_a_config_name_literal():
    source = ("units = 'zero_point'\nif kind == \"single\":\n    pass\n"
              "k = HERALD_SINGLE\nd = {'coincidence': 2, 'none': 0}\n"
              "s = 'a single herald'\nu = f'heterodyne_vacuum'\n")
    assert _config_name_literals(source) == [(1, "zero_point"), (2, "single"),
                                             (5, "coincidence"), (5, "none"),
                                             (7, "heterodyne_vacuum")]


_RECORD_FACTS = {"margin_cols", "cols", "sigma_inf"}


def _record_fact_reads(source):
    """(line, name) of each use of a record's margin_cols, cols or
    sigma_inf that is not handed straight to a simulator function, which
    owns the rules that use them (the steady-state columns, the analytic
    steady state)."""
    tree = ast.parse(source)
    passed = {id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and getattr(node.func.value, "id", None) == "simulator"
              for arg in [*node.args, *(k.value for k in node.keywords)]}
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in _RECORD_FACTS
                  and id(node) not in passed)


def test_cli_keeps_no_copy_of_a_record_rule():
    # cli asks simulator which columns hold the steady state
    assert _record_fact_reads((_PACKAGE / "cli.py").read_text()) == []


def test_the_check_sees_a_record_fact_read():
    source = ("usable = slice(plan.margin_cols, plan.cols.size - plan.margin_cols)\n"
              "r = {'analytic': plan.sigma_inf}\n"
              "w = simulator.steady_columns(plan.taus, plan.margin_cols, order=ens.cols)\n"
              "m = other.f(ens.margin_cols)\nplan.cols = 1\n")
    assert _record_fact_reads(source) == [(1, "cols"), (1, "margin_cols"),
                                          (1, "margin_cols"), (2, "sigma_inf"),
                                          (4, "margin_cols"), (5, "cols")]


def _annotated(module):
    """Every function, class and method that module defines."""
    found = []
    for obj in vars(module).values():
        if (inspect.isfunction(obj) or inspect.isclass(obj)) \
                and obj.__module__ == module.__name__:
            found.append(obj)
            if inspect.isclass(obj):      # methods and property getters
                found += [f for f in (getattr(m, "fget", m) for m in vars(obj).values())
                          if inspect.isfunction(f)]
    return found


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_annotation_resolves(path):
    # with postponed annotations a misspelt or unimported name only fails
    # when something reads the hints
    for obj in _annotated(importlib.import_module(f"phonon_forge.{path.stem}")):
        typing.get_type_hints(obj)


def test_the_annotation_check_sees_functions_methods_and_properties():
    from phonon_forge import simulator as sim
    found = _annotated(sim)
    for obj in (sim._draw_block, sim.DemodPlan, sim.DemodPlan.predicted_ratio,
                sim.TraceEnsemble.n_traces.fget):
        assert any(obj is f for f in found)
    assert not any(f is sim.write_csv for f in found)      # imported, not defined


def _is_number(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _domain_checks(source, exempt=False):
    """The lines of hand-written domain checks: a chained comparison with a
    number at both ends (0.0 < x <= 1.0), and an `if x not in ...:` whose
    body raises ConfigError.  With exempt, the bodies of require_* functions,
    the validators themselves, are not searched."""
    lines = set()

    def visit(node):
        if exempt and isinstance(node, ast.FunctionDef) \
                and node.name.startswith("require_"):
            return
        if isinstance(node, ast.Compare) and len(node.ops) > 1 \
                and _is_number(node.left) and _is_number(node.comparators[-1]):
            lines.add(node.lineno)
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare) \
                and isinstance(node.test.ops[0], ast.NotIn) \
                and any(isinstance(sub, ast.Raise) and "ConfigError" in ast.dump(sub)
                        for stmt in node.body for sub in ast.walk(stmt)):
            lines.add(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return sorted(lines)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_hand_written_domain_check(path):
    # every rate, efficiency, order and choice is checked by a params.require_*
    assert _domain_checks(path.read_text(), exempt=path.name == "params.py") == []


def test_the_check_sees_a_hand_written_domain_check():
    source = ("if not 0.0 < eta <= 1.0:\n    raise ConfigError('eta')\n"
              "ok = 0 < x < y\nbad = -1 <= s < 1\n"
              "if kind not in KINDS:\n    raise ConfigError('kind')\n"
              "if kind not in KINDS:\n    kind = None\n"
              "if a in KINDS:\n    raise ConfigError('a')\n"
              "def require_fraction(name, value):\n"
              "    if not 0.0 < value <= 1.0:\n        raise ConfigError(name)\n"
              "    if value not in (1,):\n        raise ConfigError(name)\n"
              "def f(x):\n    if x not in (1, 2):\n"
              "        if x:\n            raise ConfigError('x')\n")
    assert _domain_checks(source) == [1, 4, 5, 12, 14, 17]
    assert _domain_checks(source, exempt=True) == [1, 4, 5, 17]


def _int_self_comparisons(source):
    """The lines on which a module compares int(x) with x: an integer check
    of its own instead of params.require_integer, which refuses NaN, inf and
    bools cleanly."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        sides = [ast.dump(side) for side in (node.left, *node.comparators)]
        for side in (node.left, *node.comparators):
            if isinstance(side, ast.Call) and getattr(side.func, "id", None) == "int" \
                    and len(side.args) == 1 and ast.dump(side.args[0]) in sides:
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_integer_check_of_its_own(path):
    assert _int_self_comparisons(path.read_text()) == []


def test_the_check_sees_an_integer_check_of_its_own():
    source = ("if int(n) != n or n < 0:\n    pass\nok = int(self.n) == self.n\n"
              "m = int(m_max)\nif n == int(n):\n    pass\nif int(a) != b:\n    pass\n"
              "bad = 0 <= int(k) != k\n")
    assert _int_self_comparisons(source) == [1, 3, 5, 9]


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


# every bit generator numpy.random offers, and its two shortcuts to one
_RNG_MAKERS = {name for name, obj in vars(np.random).items()
               if isinstance(obj, type) and issubclass(obj, np.random.BitGenerator)}
_RNG_MAKERS |= {"default_rng", "RandomState"}


def _rng_constructions(source):
    """(enclosing function, line) of each call, or import from numpy.random,
    of a name in _RNG_MAKERS; the function is None at module level."""
    found = []

    def visit(node, func):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        elif isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else \
                getattr(callee, "id", None)
            if name in _RNG_MAKERS:
                found.append((func, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random" \
                and any(a.name in _RNG_MAKERS for a in node.names):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_stream_builds_a_bit_generator(path):
    # every simulation stream is a node of the seed's spawn-key tree on one
    # bit generator, built in one place: simulator._stream
    allowed = {"_stream"} if path.name == "simulator.py" else set()
    assert {func for func, _ in _rng_constructions(path.read_text())} <= allowed


def test_the_check_sees_a_bit_generator():
    source = ("import numpy as np\nfrom numpy.random import PCG64\n"
              "def f(s):\n    return np.random.Generator(np.random.Philox(s))\n"
              "def _stream(s):\n    return np.random.default_rng(s)\n"
              "rng = np.random.RandomState(1)\nx = np.random.SeedSequence(2)\n")
    assert _rng_constructions(source) == [(None, 2), ("f", 4), ("_stream", 6), (None, 7)]


def _private_names(source):
    """(line, name) of each _-prefixed, non-dunder attribute a module reads
    and each such name it imports from phonon_forge."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").startswith("phonon_forge"):
            names = node.module.split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names if a.name.startswith("phonon_forge")
                     for part in a.name.split(".")]
        found += [(node.lineno, name) for name in names if _is_private(name)]
    return sorted(found)


def test_oracles_use_no_private_name():
    # an oracle that reads the package's internals follows its route, so it
    # is a second copy of the code, not an independent check
    source = (Path(__file__).parent / "oracles.py").read_text()
    assert _private_names(source) == []


def test_the_check_sees_a_private_name():
    source = ("import phonon_forge._formats\nfrom phonon_forge import _formats\n"
              "from phonon_forge.simulator import _stream, run_ensemble\n"
              "from phonon_forge import simulator as sim\n"
              "n = sim._slab_rows(16)\nh = plan._band_response\nd = sim.__doc__\n"
              "x = sim.DemodPlan\nfrom os import _exit\n")
    assert _private_names(source) == [(1, "_formats"), (2, "_formats"), (3, "_stream"),
                                      (5, "_slab_rows"), (6, "_band_response")]
