"""The per-step path multiplies through ``ndarray.dot``, not ``@``.

On the small operands of a control step, ``a.dot(b)`` costs about half of
``a @ b``: the matmul ufunc's dispatch, not the BLAS call, is most of the
time. The switch is only sound while the two give the same bytes, so the
first test checks that identity for each operand layout the step path
multiplies, and names the layout when a numpy or BLAS build breaks it.
The second keeps ``@`` out of the per-step functions.
"""

import ast
import inspect
import textwrap

import numpy as np
import pytest

from softarm import controller, vision, workflow
from softarm.geometry import default_geometry
from softarm.jacobian import jacobian, pinv
from softarm.kinematics import Pose
from softarm.plant import Plant

DRAWS = 3000


def _values(rng, shape):
    """Normal draws spread over six decades, so that products of terms of
    unlike size round differently under a different summation order."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)


def _rows_of_6x9(rng, rows):
    """Rows of a C-contiguous 6x9 array, as the task blocks J[rows] are."""
    return _values(rng, (6, 9))[rows]


def _and_transpose(a):
    return a, a.T


def _svd_factors(rng, rows):
    """The two factors jacobian.pinv multiplies for a (rows, 9) matrix: vt.T,
    (9, rows) in Fortran order, and S^-1 U^T, (rows, rows)."""
    u, s, vt = np.linalg.svd(_values(rng, (rows, 9)), full_matrices=False)
    return vt.T, (1.0 / s)[:, None] * u.T


# Layout name -> rng -> (a, b). Each names where the step path forms it.
LAYOUTS = {
    # _pinv: G = A A^T, the Gram form's A^T G^-1, the correction X (A X).
    "(3,9).(9,3)": lambda rng: (_values(rng, (3, 9)), _values(rng, (9, 3))),
    "(3,9).(3,9).T": lambda rng: _and_transpose(_values(rng, (3, 9))),
    "(3,9).T.(3,3)": lambda rng: (_values(rng, (3, 9)).T, _values(rng, (3, 3))),
    "(9,3).(3,3)": lambda rng: (_values(rng, (9, 3)), _values(rng, (3, 3))),
    # step_full on the task blocks J[rows] of the C-contiguous Jacobian.
    "J[0:3].J[0:3].T": lambda rng: _and_transpose(_rows_of_6x9(rng, slice(0, 3))),
    "J[3:6].J[3:6].T": lambda rng: _and_transpose(_rows_of_6x9(rng, slice(3, 6))),
    "J[3:6].(9,3)": lambda rng: (_rows_of_6x9(rng, slice(3, 6)), _values(rng, (9, 3))),
    "J[0:3].(9,)": lambda rng: (_rows_of_6x9(rng, slice(0, 3)), _values(rng, 9)),
    "J[3:6].(9,)": lambda rng: (_rows_of_6x9(rng, slice(3, 6)), _values(rng, 9)),
    "(3,9).(9,)": lambda rng: (_values(rng, (3, 9)), _values(rng, 9)),
    "(9,3).(3,)": lambda rng: (_values(rng, (9, 3)), _values(rng, 3)),
    "(3,3).(3,9)": lambda rng: (_values(rng, (3, 3)), _values(rng, (3, 9))),
    "(9,).(9,3)": lambda rng: (_values(rng, 9), _values(rng, (9, 3))),
    "(3,).(3,9)": lambda rng: (_values(rng, 3), _values(rng, (3, 9))),
    # jacobian.pinv, the step's SVD fallback on a task block and the
    # pseudoinverse of the stacked J: V times S^-1 U^T.
    "vt.T(9,3).(3,3)": lambda rng: _svd_factors(rng, 3),
    "vt.T(9,6).(6,6)": lambda rng: _svd_factors(rng, 6),
    # Rotations: pose errors, the plant's filter, vision and Pose.
    "(3,3).(3,3)": lambda rng: (_values(rng, (3, 3)), _values(rng, (3, 3))),
    "(3,3).(3,3).T": lambda rng: (_values(rng, (3, 3)), _values(rng, (3, 3)).T),
    "(3,3).(3,)": lambda rng: (_values(rng, (3, 3)), _values(rng, 3)),
    "(3,3).T.(3,)": lambda rng: (_values(rng, (3, 3)).T, _values(rng, 3)),
    "(3,).(3,)": lambda rng: (_values(rng, 3), _values(rng, 3)),
    # jacobian(): the local columns, transposed, times du/dq.
    "(9,6).T.(9,9)": lambda rng: (_values(rng, (9, 6)).T, _values(rng, (9, 9))),
    "(9,6).T.actuator_map": lambda rng: (_values(rng, (9, 6)).T,
                                         default_geometry().actuator_map),
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_dot_gives_the_bytes_of_matmul(layout):
    rng = np.random.default_rng(list(LAYOUTS).index(layout))
    for draw in range(DRAWS):
        a, b = LAYOUTS[layout](rng)
        assert a.dot(b).tobytes() == (a @ b).tobytes(), (
            f"{layout}: a.dot(b) and a @ b differ on draw {draw} "
            f"(numpy {np.__version__})")


# The functions every control, plant or vision step runs.
PER_STEP = [
    controller.step_full,
    controller._pinv,
    pinv,
    controller.pose_error,
    workflow._placement_error,
    controller.solve,
    jacobian,
    Plant._filter,
    vision.simulate_observation,
    vision.berry_to_base,
    vision._ee_blocks_ray,
    Pose.transform_point,
]


def matmul_lines(function) -> list:
    """File line numbers of the ``@`` and ``@=`` operators in ``function``,
    nested functions included."""
    lines, first = inspect.getsourcelines(inspect.unwrap(function))
    tree = ast.parse(textwrap.dedent("".join(lines)))
    return sorted(first + node.lineno - 1 for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.MatMult))


def test_matmul_lines_finds_the_operator():
    def products(a, b):
        c = a.dot(b)
        c @= b
        return a @ (b @ c)

    first = inspect.getsourcelines(products)[1]
    assert matmul_lines(products) == [first + 2, first + 3, first + 3]


@pytest.mark.parametrize("function", PER_STEP, ids=lambda f: f.__qualname__)
def test_per_step_functions_multiply_through_dot(function):
    path = inspect.getsourcefile(function)
    found = [f"{path}:{line}" for line in matmul_lines(function)]
    assert not found, (f"{function.__qualname__} uses @ at {', '.join(found)}: "
                       "use ndarray.dot, which gives the same bytes at half the call cost")
