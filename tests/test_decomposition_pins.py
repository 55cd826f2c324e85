"""Exact ``decomposition_search`` results, pinned bit for bit.

Each call's fields were recorded with ``float.hex`` at commit 1d81ff5.  A
change to the Born map's evaluation, the stochastic phase's draws or the
polish that is meant to keep every output must leave this file as it is.
"""

import numpy as np
import pytest

from qset import Behavior, born_point, decomposition_search

from conftest import NONALT, PI8_EDGE, TSIRELSON
from test_oracles import FEW_SEEDS

FEW_SEEDS_REAL, FEW_SEEDS_SEED = FEW_SEEDS[0]

#: name: (behavior, keyword arguments, found, residual, separation, nfev,
#: capped, p1 and p2 components as float.hex or None)
PINS = {
    # strictly alternating: no structured seed, a 1000-trial stochastic phase
    "tsirelson-1000": (
        born_point(TSIRELSON), dict(trials=1000, seed=0, hint=TSIRELSON),
        False, "0x1.acd8129b868e0p-5", "0x1.8baaaf2dec8cbp-2", 0, 0, None),
    "nonalt-hint": (
        born_point(NONALT), dict(trials=300, seed=1, hint=NONALT),
        True, "0x1.7a40000000000p-43", "0x1.551427fb2d9f4p-4", 128, 0,
        (["0x1.a883b0d703c0ap-1", "0x1.551427fb2d86fp-5", "0x1.2f931c61e2fe0p-1",
          "-0x1.2a7949773dde2p-1", "0x1.6bb0c538d2402p-1", "-0x1.6a835ded5587ap-1",
          "0x1.b509ab409a51fp-2", "0x1.72e4e134c3524p-2"],
         ["0x1.a4a116b206f3bp-1", "-0x1.551427fb2db7ap-5", "0x1.26083c2aa0c0cp-1",
          "-0x1.2b220f1545de0p-1", "0x1.6863079714ccap-1", "-0x1.69906ee29134cp-1",
          "0x1.7ca6e14f76d34p-2", "0x1.becbab5b4dd78p-2"])),
    # seeds polished, then the stochastic phase's best rows polished
    "pi8-edge-hint": (
        born_point(PI8_EDGE), dict(trials=300, seed=1, hint=PI8_EDGE),
        False, "0x1.19f2154172000p-13", "0x1.6869063d95a74p-4", 3080, 0, None),
    # no hint: found by polishing the stochastic phase's best rows
    "zero-no-hint": (
        Behavior.from_vector(np.zeros(8)), dict(trials=50, seed=0),
        True, "0x1.8000000000000p-54", "0x1.2eb43d6a98c01p-1", 33, 0,
        (["0x1.c12c26af71d72p-57", "0x1.441985a938d30p-57", "-0x1.c8547dddea98cp-55",
          "0x1.083352a02be97p-54", "-0x1.b0a9dfe418b82p-3", "0x1.2eb43d6a98c00p-2",
          "-0x1.09921bd86ec16p-2", "0x1.07b51ba26b490p-4"],
         ["-0x1.4a0f5ee66ef7ap-54", "0x1.13004f39a91bep-53", "0x1.300bcceb7581fp-53",
          "-0x1.ee09d67ccd724p-54", "0x1.b0a9dfe418b88p-3", "-0x1.2eb43d6a98c02p-2",
          "0x1.09921bd86ec17p-2", "-0x1.07b51ba26b49ap-4"])),
    "few-seeds-seed2": (
        born_point(FEW_SEEDS_REAL), dict(trials=200, seed=FEW_SEEDS_SEED, hint=FEW_SEEDS_REAL),
        True, "0x1.981c000000000p-39", "0x1.e847e359612d0p-6", 232, 0,
        (["0x1.2a2cfa0449db2p-5", "-0x1.c917285832148p-5", "-0x1.ed40dff934cf2p-5",
          "-0x1.07fed28aa1afep-4", "0x1.fde5d14129680p-2", "0x1.cb55aeb96da46p-2",
          "0x1.fd9bc92b37beep-1", "0x1.fb40120e69653p-1"],
         ["0x1.51042816c6a4cp-7", "-0x1.5e9d8d0271558p-4", "-0x1.69e1399452ccap-4",
          "-0x1.77d1b59b21510p-4", "0x1.013745261038ep-1", "0x1.d0bb87b5816fbp-2",
          "0x1.fe75db7ea8c20p-1", "0x1.fc8784fa4fb12p-1"])),
}


@pytest.mark.parametrize("name", list(PINS))
def test_decomposition_result_is_pinned(name):
    p, kwargs, found, residual, separation, nfev, capped, parts = PINS[name]
    res = decomposition_search(p, **kwargs)
    assert res.found is found
    assert res.residual.hex() == residual
    assert res.separation.hex() == separation
    assert (res.nfev, res.capped, res.lam) == (nfev, capped, 0.5)
    got = None if res.p1 is None else \
        tuple([float(v).hex() for v in q.vector] for q in (res.p1, res.p2))
    assert got == parts
