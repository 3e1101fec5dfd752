import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softarm.geometry import RobotGeometry, SectionGeometry, default_geometry
from softarm.jacobian import SV_TOL, jacobian, pinv
from softarm.kinematics import forward_kinematics, section_chain

from conftest import section_fields
from oracles import fd_jacobian, random_feasible_q
from strategies import actuator_vectors, with_straight_sections

GEOM = default_geometry()
LIMITS = GEOM.joint_limits()


def assert_matches_fd_oracle(q):
    """Criterion 2: J against the independent oracle's central differences,
    to 1e-5 relative."""
    J = jacobian(q, GEOM)
    Jv_ref, Jw_ref = fd_jacobian(q, GEOM, h=1e-6)
    assert np.linalg.norm(J.J[:3] - Jv_ref) / np.linalg.norm(Jv_ref) < 1e-5
    assert np.linalg.norm(J.J[3:] - Jw_ref) / np.linalg.norm(Jw_ref) < 1e-5
    return J


@pytest.mark.parametrize("q, sv", [
    (np.zeros(9), (30.19, 30.19, 3.857, 3.857, 1.0)),
    (np.full(9, 0.05), (30.65, 30.65, 4.917, 4.917, 1.0)),
], ids=["zero", "equal-0.05"])
def test_exactly_straight_matches_fd_oracle(q, sv):
    # The closed form has no straight branch: with every section straight it
    # meets the oracle (7.5e-10 absolute at 0.05) and has rank 5, the
    # torsion direction lost and position at full rank.
    J = assert_matches_fd_oracle(q)
    s = np.linalg.svd(J.J, compute_uv=False)
    np.testing.assert_allclose(s[:5], sv, rtol=1e-3)
    assert s[5] <= 1e-12 * s[0]
    assert np.linalg.svd(J.J[:3], compute_uv=False)[-1] == pytest.approx(1.0, rel=1e-12)


def test_equal_elongations_on_a_grid_are_exactly_straight():
    # Every equal triple on a 0.1 mm grid walks with c exactly (0, 0); a
    # tenth of them, the ends included, are checked against the oracle.
    grid = np.round(np.arange(0.0, 0.0981, 0.0001), 4)
    for c in grid:
        for section in map(section_fields, section_chain(np.full(9, c), GEOM)[2]):
            assert section.c == (0.0, 0.0)
    for c in grid[::10]:
        assert_matches_fd_oracle(np.full(9, c))


@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-7])
def test_rank_next_to_fully_straight(delta):
    # Position keeps full rank next to (and at) straight; the 6x9 stack
    # loses the torsion direction, its smallest singular value shrinking
    # linearly with the distance from straight, to 0 at straight
    # (test_exactly_straight_matches_fd_oracle).
    q = np.full(9, 0.05)
    q[0] += delta
    J = jacobian(q, GEOM)
    assert np.linalg.svd(J.J[:3], compute_uv=False)[-1] == pytest.approx(1.0, rel=1e-5)
    assert np.linalg.svd(J.J, compute_uv=False)[-1] / delta == pytest.approx(36.8, rel=2e-3)


def test_tiny_perturbation_restores_full_rank():
    q = np.zeros(9)
    q[0] = 1e-6
    J = jacobian(q, GEOM)
    assert np.all(np.isfinite(J.J))
    assert np.linalg.matrix_rank(J.J[:3], tol=1e-9) == 3


def test_matches_independent_fd_oracle():
    # Different differencing step and an independent FK implementation.
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert_matches_fd_oracle(random_feasible_q(rng, LIMITS))


def test_angular_column_for_pure_single_section_bend():
    # With only actuator 1 of the proximal section elongated the end
    # effector rotates about the (fixed) bending-plane normal, so the Jw
    # column is the closed-form derivative of Rot_y(phi(l)) conjugated to
    # that plane: axis (0, -1, 0), magnitude dphi/dl = 2/(3 r).
    q = np.zeros(9)
    q[0] = 0.02
    Jw = jacobian(q, GEOM).J[3:]
    expected = np.array([0.0, -2.0 / (3.0 * GEOM.sections[0].radius), 0.0])
    np.testing.assert_allclose(Jw[:, 0], expected, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("n_straight", [1, 2, 3])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_matches_fd_oracle_with_straight_sections(n_straight, data):
    # Criterion 2's tolerance with exactly straight sections, where the
    # finite difference sees bending of the order of the step.
    assert_matches_fd_oracle(data.draw(with_straight_sections(n_straight)))


def vee(S):
    """The vector w of a skew matrix S, S @ v = w x v."""
    return 0.5 * np.array([S[2, 1] - S[1, 2], S[0, 2] - S[2, 0], S[1, 0] - S[0, 1]])


def central_differences(q, h):
    """Jv and Jw by central differences of forward_kinematics."""
    Jv, Jw = np.zeros((3, 9)), np.zeros((3, 9))
    R = forward_kinematics(q, GEOM).rotation
    for m in range(9):
        step = np.zeros(9)
        step[m] = h
        plus, minus = forward_kinematics(q + step, GEOM), forward_kinematics(q - step, GEOM)
        Jv[:, m] = (plus.position - minus.position) / (2 * h)
        Jw[:, m] = vee((plus.rotation - minus.rotation) / (2 * h) @ R.T)
    return Jv, Jw


@settings(max_examples=60, deadline=None)
@given(actuator_vectors())
def test_matches_central_differences_of_the_fk(q):
    # Bent, exactly straight and near-straight sections; the closed form has
    # no step, so it meets the differences' own error (~1e-10).
    J = jacobian(q, GEOM)
    Jv_fd, Jw_fd = central_differences(q, h=1e-6)
    assert np.linalg.norm(J.J[:3] - Jv_fd) / np.linalg.norm(Jv_fd) < 1e-8
    assert np.linalg.norm(J.J[3:] - Jw_fd) / np.linalg.norm(Jw_fd) < 1e-8


@settings(max_examples=50, deadline=None)
@given(q=actuator_vectors())
def test_same_bytes_from_a_list_and_a_strided_view(q):
    # J is built from one flat list of the local columns; every form of the
    # same q, each on a fresh geometry so no walk is shared, gives the same
    # C-order bytes.
    strided = np.repeat(q, 2)[::2]
    assert not strided.flags.c_contiguous
    J = jacobian(q, default_geometry()).J
    assert J.shape == (6, 9)
    for same_q in (q.tolist(), strided):
        assert jacobian(same_q, default_geometry()).J.tobytes() == J.tobytes()


def test_small_random_perturbation_scale():
    rng = np.random.default_rng(4)
    assert_matches_fd_oracle(np.full(9, 0.05) + rng.uniform(-1e-4, 1e-4, 9))


def test_length_scale_invariance():
    # All lengths are homogeneous in the kinematics, so scaling the
    # geometry and the elongations together leaves Jv unchanged: the
    # displacement from a scaled perturbation scales with k.
    rng = np.random.default_rng(5)
    q = random_feasible_q(rng, LIMITS)
    k = 2.0
    scaled = RobotGeometry(sections=tuple(
        SectionGeometry(
            radius=k * s.radius,
            initial_length=k * s.initial_length,
            plate_offset_length=k * s.plate_offset_length,
            plate_offset_angle=s.plate_offset_angle,
            actuator_max_elongation=k * s.actuator_max_elongation,
        ) for s in GEOM.sections))
    Jv = jacobian(q, GEOM).J[:3]
    Jv_scaled = jacobian(k * q, scaled).J[:3]
    delta = rng.normal(size=9)
    np.testing.assert_allclose(Jv_scaled @ (k * delta), k * (Jv @ delta), rtol=1e-6)


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(pinv(np.eye(3)), np.eye(3), atol=1e-12)

    def test_rank_one_projector_is_own_pseudoinverse(self):
        u = np.array([1.0, 2.0, -2.0])
        u = u / np.linalg.norm(u)
        M = np.outer(u, u)
        np.testing.assert_allclose(pinv(M), M, atol=1e-12)

    def test_wide_full_rank_right_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            M = rng.normal(size=(3, 9))
            np.testing.assert_allclose(M @ pinv(M), np.eye(3), atol=1e-10)
            # minimal-norm solution agrees with a direct least-squares solve
            b = rng.normal(size=3)
            lstsq = np.linalg.lstsq(M, b, rcond=None)[0]
            np.testing.assert_allclose(pinv(M) @ b, lstsq, atol=1e-10)

    def test_sv_tolerance_zeroes_small_directions(self):
        M = np.diag([1.0, 1e-12, 0.5])
        Minv = pinv(M)
        assert Minv[1, 1] == 0.0

    def test_bit_identical_to_numpy(self):
        rng = np.random.default_rng(10)
        matrices = [np.zeros((3, 9)), np.zeros((6, 9))]
        for shape in ((3, 9), (6, 9), (9, 3)):
            matrices += [rng.normal(size=shape) for _ in range(20)]
        for _ in range(20):
            # Rank deficient: a projected wide matrix and repeated rows.
            M, N = rng.normal(size=(3, 9)), rng.normal(size=(4, 9))
            matrices.append(M @ (np.eye(9) - pinv(N) @ N))
            matrices.append(np.vstack([M, M[:1] * 3.0, M[1:2]]))
        for M in matrices:
            assert pinv(M).tobytes() == np.linalg.pinv(M, rcond=SV_TOL).tobytes()


class TestNullProjector:
    def test_jacobian_null_space_invisible_to_task(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            q = random_feasible_q(rng, LIMITS)
            Jv = jacobian(q, GEOM).J[:3]
            assert np.linalg.norm(Jv @ (np.eye(9) - pinv(Jv) @ Jv)) < 1e-8
