"""Library modules use only each other's public names and import no name
they leave unread, and the CLI runs without numpy and without loading
``dataclasses`` or ``inspect``, nor ``argparse`` or ``gettext`` for a
well-formed command line."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import heunops

SRC = Path(heunops.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(tree: ast.Module) -> list[str]:
    """Private names that ``tree`` imports from, or reads off, a heunops module."""
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "heunops":
                continue
            package = module in ("", "heunops")  # ``from . import x`` or ``from heunops import x``
            for alias in node.names:
                if package and alias.name in MODULES:
                    bound.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"from {'.' * node.level}{module} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("heunops.") and alias.asname:
                    bound.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_detector_sees_both_forms():
    tree = ast.parse("from . import specfun\nfrom heunops import bspline as bs\n"
                     "from .exactalg import _a, b\nspecfun._b(bs._c, specfun.d, specfun.__name__)\n")
    assert private_uses(tree) == ["from .exactalg import _a", "specfun._b", "bs._c"]


def test_no_private_names_across_modules():
    uses = {path.name: private_uses(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in uses.items() if found} == {}


def unused_imports(tree: ast.Module) -> list[str]:
    """Names that a module-level import of ``tree`` binds and that the
    module never reads; a name in an annotation is read."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_import_detector():
    tree = ast.parse("from __future__ import annotations\nimport os.path, sys\nimport math as m\n"
                     "from typing import Callable, Iterable\nfrom .errors import A, B as C\n"
                     "def f(g: Callable) -> None:\n    import json\n    return os.sep, A, json\n")
    assert unused_imports(tree) == ["sys", "m", "Iterable", "C"]


def test_no_unused_imports():
    unused = {path.name: unused_imports(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}


def test_cli_runs_without_numpy():
    # verify --all takes the trapezoid rules of I22 and I31, and a rule is
    # built and applied without numpy as well
    code = ("import io, sys, contextlib\n"
            "import heunops, heunops.cli\n"
            "from heunops import specfun\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert heunops.cli.main(['verify', '--all']) == 0\n"
            "specfun.quadrature(specfun.periodic_trapezoid(8, 0, 1), lambda t: t)\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    _run_fresh(code)


def test_commands_load_neither_dataclasses_nor_inspect():
    # importing dataclasses loads inspect, ast and dis: ~10 ms of start-up;
    # the eval grid builds a SeriesResult and the entropy table an
    # EntropyPoint per point, and verify builds its mode and report
    code = ("import io, sys, contextlib\n"
            "import heunops, heunops.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert heunops.cli.main(['verify', '--id', 'I39']) == 0\n"
            "    assert heunops.cli.main(['entropy', '--op', 'bspline', '--n', '4', '--sigma', 'quad:1:1/2',\n"
            "                             '--grid=-1:1:9']) == 0\n"
            "    assert heunops.cli.main(['eval', 'hl', 'a=2', 'q=1/2', 'alpha=1/2', 'beta=3/2', 'gamma=1',\n"
            "                             'delta=1', '--grid=-1/2:1/2:9']) == 0\n"
            "loaded = {'dataclasses', 'inspect'} & set(sys.modules)\n"
            "assert not loaded, sorted(loaded)\n")
    _run_fresh(code)


def test_well_formed_commands_load_neither_argparse_nor_gettext():
    # a well-formed command line is parsed without argparse, whose import
    # loads gettext, and the first gettext lookup locale; an unknown
    # argument still gets argparse's usage error
    code = ("import io, sys, contextlib\n"
            "import heunops, heunops.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert heunops.cli.main(['eval', 'c_n', 'n=3', '--exact', '--json']) == 0\n"
            "    assert heunops.cli.main(['verify', '--id', 'I39', '--mode', 'exact']) == 0\n"
            "    assert heunops.cli.main(['entropy', '--op', 'kantorovich', '--n', '3',\n"
            "                             '--grid', '0:1:3']) == 0\n"
            "    assert heunops.cli.main(['registry']) == 0\n"
            "loaded = {'argparse', 'gettext'} & set(sys.modules)\n"
            "assert not loaded, sorted(loaded)\n"
            "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    try:\n"
            "        heunops.cli.main(['registry', '--bogus'])\n"
            "    except SystemExit as stop:\n"
            "        assert stop.code == 2\n"
            "assert err.getvalue().endswith('heunops registry: error: unrecognized arguments: --bogus\\n')\n"
            "assert 'argparse' in sys.modules\n")
    _run_fresh(code)


def _run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports heunops from here."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=False)
    assert proc.returncode == 0, proc.stderr
