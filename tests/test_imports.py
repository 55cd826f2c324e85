"""Import guards: no qset path loads scipy or fractions, the package imports
its own modules at module level but for one cycle, and every name in a
module's ``__all__`` exists.

The scipy check runs in a fresh interpreter, since the test process itself
may have imported either already (the test extra installs scipy, and the
tests check the LP against exact rational arithmetic).
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import qset

from conftest import NONALT, TSIRELSON, qset_env

PACKAGE = Path(qset.__file__).parent

BODY = """
import json, sys

def loaded():
    return [name for name in ("scipy", "fractions") if name in sys.modules]

seen = {}
from qset import (CHSH, QubitRealization, bell_max_q2, born_point,
                  decomposition_search, local_membership_lp)
from qset.cli import main
seen["import qset"] = loaded()
p = born_point(QubitRealization(*json.loads(sys.argv[1])))
local_membership_lp(p)
seen["local_membership_lp"] = loaded()
bell_max_q2(CHSH)
seen["bell_max_q2"] = loaded()
r = QubitRealization(*json.loads(sys.argv[2]))
found = decomposition_search(born_point(r), trials=100, seed=7, hint=r).found
seen["decomposition_search"] = loaded()
with open(sys.argv[3], "w") as fh:
    json.dump(p.to_json_dict(), fh)
code = main(["oracle", "decompose", "--input", sys.argv[3], "--trials", "50",
             "--output", sys.argv[4]])
seen["qset oracle decompose"] = loaded()
print(json.dumps({"seen": seen, "found": found, "code": code}))
"""


def _args(r) -> str:
    return json.dumps([r.theta, list(r.a), list(r.b)])


def test_no_path_loads_scipy(tmp_path):
    path, out = tmp_path / "behavior.json", tmp_path / "out.json"
    proc = subprocess.run([sys.executable, "-c", BODY, _args(TSIRELSON), _args(NONALT),
                           str(path), str(out)],
                          capture_output=True, text=True, env=qset_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["found"] is True  # the NONALT search polishes its way to a split
    assert result["code"] == 0
    assert "found" in json.loads(out.read_text())
    assert result["seen"] == {"import qset": [], "local_membership_lp": [],
                              "bell_max_q2": [], "decomposition_search": [],
                              "qset oracle decompose": []}


def function_level_imports(tree: ast.Module) -> list[tuple[str, str, tuple[str, ...]]]:
    """(function, module, names) of each import of a qset module inside a function."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if function is not None:
                if isinstance(child, ast.ImportFrom) and (
                        child.level or (child.module or "").split(".")[0] == "qset"):
                    found.append((function, child.module, tuple(a.name for a in child.names)))
                elif isinstance(child, ast.Import) and any(
                        a.name.split(".")[0] == "qset" for a in child.names):
                    found.append((function, None, tuple(a.name for a in child.names)))
            visit(child, function)

    visit(tree, None)
    return found


def test_the_only_function_level_import_is_the_selftest_cycle():
    # extremality and selftest import each other: stage 4 of a classify batch
    # runs selftest.reconstruct_rows, and selftest reads the batch classify keeps
    found = {path.stem: function_level_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {stem: imports for stem, imports in found.items() if imports}
    assert found == {"extremality": [("_reconstruct", "selftest", ("reconstruct_rows",))]}


def test_every_name_in_all_resolves():
    checked = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        name = "qset" if path.stem == "__init__" else f"qset.{path.stem}"
        module = importlib.import_module(name)
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"{name}.__all__ names missing {public!r}"
            checked += 1
    assert checked > 50
