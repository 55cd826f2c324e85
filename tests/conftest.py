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


def classification_bits(res) -> tuple:
    """A Classification with its floats, arrays and realization as bytes."""
    return res.verdict, {
        k: np.asarray(v.params() if isinstance(v, QubitRealization) else v).tobytes()
        if isinstance(v, (float, np.ndarray, QubitRealization)) else v
        for k, v in res.details.items()}


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


def reference_born_vector(theta, a0, a1, b0, b1):
    """``born_vector`` as it was before the parameter-major kernel: ten trig
    calls on the broadcast parameters, float32 when every one is float32."""
    single = getattr(theta, "dtype", None) == np.float32 \
        and all(getattr(v, "dtype", None) == np.float32 for v in (a0, a1, b0, b1))
    dtype = np.float32 if single else float
    theta, a0, a1, b0, b1 = np.broadcast_arrays(
        np.asarray(theta, dtype), np.asarray(a0, dtype), np.asarray(a1, dtype),
        np.asarray(b0, dtype), np.asarray(b1, dtype))
    c2 = np.cos(2 * theta)
    s2 = np.sin(2 * theta)
    ca0, ca1, cb0, cb1 = np.cos(a0), np.cos(a1), np.cos(b0), np.cos(b1)
    sa0, sa1, sb0, sb1 = np.sin(a0), np.sin(a1), np.sin(b0), np.sin(b1)
    comps = [
        c2 * ca0, c2 * ca1, c2 * cb0, c2 * cb1,
        ca0 * cb0 + s2 * sa0 * sb0,
        ca0 * cb1 + s2 * sa0 * sb1,
        ca1 * cb0 + s2 * sa1 * sb0,
        ca1 * cb1 + s2 * sa1 * sb1,
    ]
    return np.stack(comps, axis=-1)


def reference_born_jacobian(theta, a0, a1, b0, b1):
    """``born_jacobian`` as it was before the parameter-major kernel: (..., 8, 5)."""
    params = (theta, a0, a1, b0, b1)
    shape = np.broadcast(*params).shape
    q = np.empty(shape + (5,))
    for k, v in enumerate(params):
        q[..., k] = v
    q *= np.array([2.0, 1.0, 1.0, 1.0, 1.0])
    c, s = np.cos(q), np.sin(q)
    c2, s2 = c[..., :1, None], s[..., :1, None]
    ca, sa = c[..., 1:3, None], s[..., 1:3, None]
    cb, sb = c[..., None, 3:], s[..., None, 3:]
    jac = np.zeros(shape + (8, 5))
    jac[..., :4, 0] = -2 * s[..., :1] * c[..., 1:]
    jac[..., :4, 1:] = -c2 * s[..., None, 1:] * np.eye(4)
    jac[..., 4:, 0] = (2 * c2 * sa * sb).reshape(shape + (4,))
    d_a = s2 * ca * sb - sa * cb
    jac[..., 4:6, 1] = d_a[..., 0, :]
    jac[..., 6:8, 2] = d_a[..., 1, :]
    d_b = s2 * sa * cb - ca * sb
    jac[..., 4::2, 3] = d_b[..., :, 0]
    jac[..., 5::2, 4] = d_b[..., :, 1]
    return jac
