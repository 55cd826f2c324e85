"""Cold-import guard: no qset path loads scipy or fractions.

The check runs in a fresh interpreter, since the test process itself may
have imported either already (the test extra installs scipy, and the tests
check the LP against exact rational arithmetic).
"""

import json
import subprocess
import sys

from conftest import NONALT, TSIRELSON, qset_env

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
