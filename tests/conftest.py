import math
import os
from pathlib import Path

import numpy as np
import pytest

import qset
from qset import Behavior, QubitRealization, born_point, validate
from qset.extremality import _kept

PI = math.pi


@pytest.fixture(autouse=True)
def fresh_classify_memo():
    """Start and end each test without a kept batch of one, so a test that
    counts or patches the pipeline's stages sees them run whatever test came
    before it."""
    _kept.clear()
    yield
    _kept.clear()


#: theta = pi/8, a = (0, pi/2), b = (pi/4, 3pi/4): extremal non-exposed, two
#: alternation margins exactly zero.
PI8_EDGE = QubitRealization(PI / 8, (0.0, PI / 2), (PI / 4, 3 * PI / 4))

#: Maximally entangled, strictly alternating: the CHSH maximizer.
TSIRELSON = QubitRealization(PI / 4, (0.0, PI / 2), (PI / 4, 3 * PI / 4))

#: Nonlocal but not fully alternating (atilde_1^+ < b0): non-extremal.
#: (theta = pi/16 in this family is already local, so tests use theta = 0.3.)
NONALT = QubitRealization(0.3, (0.0, PI / 2), (PI / 4, 3 * PI / 4))


#: The PR box, built from ints: nonlocal beyond Tsirelson's bound.
PR_BOX = Behavior(marg_a=(0, 0), marg_b=(0, 0), corr=((1, 1), (1, -1)))

#: Valid nonlocal behaviors just off the quantum boundary whose steered
#: correlators leave [-1, 1]: the first on Alice's side only, the second on
#: Bob's side only (its criterion fails, so Bob's error is the verdict).
STEERING_FAILS = np.array([
    [-0.9492718433274033, 0.9636374142412445, 0.9639064968633358, -0.39478791087298326,
     -0.9840914831464109, 0.4455160687984358, 0.9996550068357416, -0.40291841767490627],
    [-0.28115549352172625, 0.8692535744467842, 0.877522353228444, -0.8720797252498801,
     -0.30360479240860844, 0.37096342753963557, 0.9917312220139138, -0.975234205578611]])


#: Pauli matrices of the measurement operators.
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def measurement_operator(angle: float) -> np.ndarray:
    """cos(angle) sigma_z + sin(angle) sigma_x."""
    return math.cos(angle) * SIGMA_Z + math.sin(angle) * SIGMA_X


def born_point_matrix(r: QubitRealization) -> Behavior:
    """Independent Born-rule oracle: explicit |phi_theta> and 4x4 operators."""
    phi = np.array([math.cos(r.theta), 0.0, 0.0, math.sin(r.theta)])
    eye = np.eye(2)
    a_ops = [measurement_operator(x) for x in r.a]
    b_ops = [measurement_operator(y) for y in r.b]

    def ev(m: np.ndarray) -> float:
        return float(phi @ m @ phi)

    vec = [ev(np.kron(a_ops[0], eye)), ev(np.kron(a_ops[1], eye)),
           ev(np.kron(eye, b_ops[0])), ev(np.kron(eye, b_ops[1]))]
    for x in range(2):
        for y in range(2):
            vec.append(ev(np.kron(a_ops[x], b_ops[y])))
    return Behavior.from_vector(vec)


#: Weight and realizations of a mixture of two qubit behaviors (so a point of
#: Q) that fails both sides' pure-qubit necessary conditions.
MIX_LAMBDA = 0.30832986332825785
MIX_R1 = QubitRealization(1.89233952000138, (0.21815744894943617, 2.3932810664956445),
                          (2.4133677203233024, 2.7453125956657063))
MIX_R2 = QubitRealization(2.6763253042801587, (0.30143517266040626, 1.669074124569635),
                          (1.7969009809597003, 3.085037014339876))


def fails_necessary_mixture() -> Behavior:
    return Behavior.from_vector(MIX_LAMBDA * born_point(MIX_R1).vector
                                + (1 - MIX_LAMBDA) * born_point(MIX_R2).vector)


def random_valid_behavior(rng: np.random.Generator) -> Behavior:
    """Rejection-sample a valid behavior from the cube, mixing in structured draws."""
    kind = rng.integers(0, 3)
    if kind == 0:
        # behavior of a random realization (always valid)
        theta = rng.uniform(0.0, PI)
        angles = rng.uniform(0.0, PI, 4)
        return born_point(QubitRealization(theta, (angles[0], angles[1]),
                                           (angles[2], angles[3])))
    if kind == 1:
        # random mixture of deterministic vertices (always valid, local)
        from qset import enumerate_vertices
        w = rng.dirichlet(np.ones(16))
        vecs = np.array([v.behavior.vector for v in enumerate_vertices()])
        return Behavior.from_vector(w @ vecs)
    while True:
        v = rng.uniform(-1.0, 1.0, 8)
        p = Behavior.from_vector(v)
        if not validate(p):
            return p


def qset_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the same qset as the tests.

    ``pythonpath`` in pyproject.toml reaches only the pytest process, so
    subprocesses get the directory holding the imported package prepended
    to ``PYTHONPATH``.
    """
    src = str(Path(qset.__file__).resolve().parent.parent)
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + os.pathsep + rest if rest else src
    return env
