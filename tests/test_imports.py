"""Cold-import guard: scipy.optimize loads only when a decomposition polish runs.

Each check runs in a fresh interpreter, since the test process itself may
have imported scipy already.
"""

import json
import subprocess
import sys

from conftest import NONALT, TSIRELSON, qset_env

PRELUDE = """
import json, sys
from qset import (CHSH, QubitRealization, bell_max_q2, born_point,
                  decomposition_search, local_membership_lp)
from qset.cli import main

def loaded():
    return "scipy.optimize" in sys.modules
"""


def _run(body: str, *args: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", PRELUDE + body, *args],
                          capture_output=True, text=True, env=qset_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _literal(r) -> str:
    return f"QubitRealization({r.theta!r}, {tuple(r.a)!r}, {tuple(r.b)!r})"


def test_paths_without_a_polish_leave_scipy_optimize_unloaded(tmp_path):
    path = tmp_path / "behavior.json"
    out = tmp_path / "out.json"
    body = f"""
r = {_literal(TSIRELSON)}
p = born_point(r)
seen = {{"import qset": loaded()}}
local_membership_lp(p)
seen["local_membership_lp"] = loaded()
bell_max_q2(CHSH)
seen["bell_max_q2"] = loaded()
decomposition_search(p, trials=300, seed=1, hint=r)
seen["decomposition_search"] = loaded()
with open(sys.argv[1], "w") as fh:
    json.dump(p.to_json_dict(), fh)
seen["cli exit code"] = main(["oracle", "local", "--input", sys.argv[1],
                              "--output", sys.argv[2]])
seen["cli"] = loaded()
print(json.dumps(seen))
"""
    seen = _run(body, str(path), str(out))
    assert seen.pop("cli exit code") == 0
    assert json.loads(out.read_text())["local"] is False
    assert seen == {"import qset": False, "local_membership_lp": False,
                    "bell_max_q2": False, "decomposition_search": False, "cli": False}


def test_polishing_search_loads_scipy_optimize():
    body = f"""
r = {_literal(NONALT)}
res = decomposition_search(born_point(r), trials=100, seed=7, hint=r)
print(json.dumps({{"found": res.found, "loaded": loaded()}}))
"""
    assert _run(body) == {"found": True, "loaded": True}
