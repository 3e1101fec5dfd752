from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from softarm import plant as plant_module
from softarm.config import plant_config_from_dict
from softarm.geometry import default_geometry
from softarm.kinematics import Pose, forward_kinematics
from softarm.plant import Plant, PlantConfig
from softarm.rotations import matrix_to_rotvec, rotvec_to_matrix, rotvec_to_rows

from oracles import rotation_angle_between

GEOM = default_geometry()
Q0 = np.tile([0.051, 0.050, 0.049], 3)
Q1 = np.tile([0.030, 0.060, 0.050], 3)


class TestIdentityPlant:
    def test_true_pose_matches_nominal_fk_exactly(self):
        plant = Plant(PlantConfig())
        plant.reset(Q0)
        nominal = forward_kinematics(Q0, GEOM)
        np.testing.assert_array_equal(plant.true_pose().position, nominal.position)
        np.testing.assert_array_equal(plant.true_pose().rotation, nominal.rotation)

    def test_filter_initialized_at_reset(self):
        # Noise-free, the first measured pose is the true pose, and the
        # filter starts there.
        plant = Plant(PlantConfig())
        obs = plant.reset(Q0)
        np.testing.assert_array_equal(obs.pose_filtered.position, plant.true_pose().position)
        np.testing.assert_array_equal(obs.pose_filtered.rotation, plant.true_pose().rotation)

    def test_reset_then_reapply_is_stationary(self):
        plant = Plant(PlantConfig())
        first = plant.reset(Q0)
        first_true = plant.true_pose()
        second = plant.apply_command(Q0)
        np.testing.assert_array_equal(first_true.position, plant.true_pose().position)
        np.testing.assert_array_equal(first.pose_filtered.position,
                                      second.pose_filtered.position)


class TestFilter:
    def test_step_response_converges_to_dc(self):
        # After a (measurement-scale) step change the filtered pose
        # approaches the new constant pose; past five time constants the
        # residual is below 0.1% of the pose magnitude.
        cfg = PlantConfig(dt=0.05, filter_cutoff=10.0)
        plant = Plant(cfg)
        plant.reset(Q0)
        q_step = Q0 + np.tile([0.004, -0.002, 0.001], 3)
        target = forward_kinematics(q_step, GEOM)
        steps_for_5_tau = int(np.ceil(5.0 / (cfg.filter_cutoff * cfg.dt)))
        for _ in range(steps_for_5_tau):
            obs = plant.apply_command(q_step)
        residual = np.linalg.norm(obs.pose_filtered.position - target.position)
        assert residual < 1e-3 * np.linalg.norm(target.position)
        assert rotation_angle_between(obs.pose_filtered.rotation, target.rotation) < 1e-3

    def test_unit_dc_gain(self):
        # A constant command, held: the filtered pose settles on the true one.
        plant = Plant(PlantConfig())
        plant.reset(Q0)
        for _ in range(500):
            obs = plant.apply_command(Q1)
        np.testing.assert_allclose(obs.pose_filtered.position, plant.true_pose().position,
                                   rtol=0, atol=1e-9)

    def test_filtered_rotation_stays_orthonormal(self):
        plant = Plant(PlantConfig(rotation_noise_std=0.01, rng_seed=3))
        plant.reset(Q0)
        for _ in range(50):
            obs = plant.apply_command(Q1)
            R = obs.pose_filtered.rotation
            assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-9


class TestInfeasibleCommands:
    def test_negative_command_flagged(self):
        plant = Plant(PlantConfig())
        q = Q0.copy()
        q[2] = -0.01
        obs = plant.apply_command(q)
        assert obs.infeasible_flags[2]
        assert not obs.infeasible_flags[[0, 1, 3, 4, 5, 6, 7, 8]].any()
        # the physical arm saturates at the lower actuator limit
        saturated = q.copy()
        saturated[2] = 0.0
        np.testing.assert_array_equal(plant.true_pose().position,
                                      forward_kinematics(saturated, GEOM).position)

    def test_over_limit_command_flagged_and_saturated(self):
        plant = Plant(PlantConfig())
        q = Q0.copy()
        q[7] = 0.15
        obs = plant.apply_command(q)
        assert obs.infeasible_flags[7]
        # the physical arm saturates at the actuator limit
        saturated = Q0.copy()
        saturated[7] = 0.10
        np.testing.assert_array_equal(plant.true_pose().position,
                                      forward_kinematics(saturated, GEOM).position)


# Commands a little past both actuator bounds, so some come back flagged.
COMMANDS = st.lists(st.lists(st.floats(-0.01, 0.11), min_size=9, max_size=9),
                    min_size=1, max_size=6)
SEEDS = st.integers(0, 2**32 - 1)
NOISE_STD = st.floats(1e-4, 1e-2)


def observe(plant, commands):
    return [plant.reset(Q0)] + [plant.apply_command(np.array(q)) for q in commands]


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(commands=COMMANDS, seed=SEEDS, position_std=NOISE_STD, rotation_std=NOISE_STD)
    def test_same_seed_same_observations(self, commands, seed, position_std, rotation_std):
        cfg = PlantConfig(position_noise_std=position_std, rotation_noise_std=rotation_std,
                          length_scale_error=np.full(9, 0.01), rng_seed=seed)
        for oa, ob in zip(observe(Plant(cfg), commands), observe(Plant(cfg), commands),
                          strict=True):
            np.testing.assert_array_equal(oa.pose_filtered.position, ob.pose_filtered.position)
            np.testing.assert_array_equal(oa.pose_filtered.rotation, ob.pose_filtered.rotation)
            np.testing.assert_array_equal(oa.infeasible_flags, ob.infeasible_flags)

    @settings(max_examples=25, deadline=None)
    @given(commands=COMMANDS, seeds=st.tuples(SEEDS, SEEDS), std=NOISE_STD,
           noisy=st.sampled_from(["position_noise_std", "rotation_noise_std"]))
    def test_different_seeds_differ(self, commands, seeds, std, noisy):
        assume(seeds[0] != seeds[1])
        a, b = (observe(Plant(PlantConfig(rng_seed=seed, **{noisy: std})), commands)
                for seed in seeds)
        part = "position" if noisy == "position_noise_std" else "rotation"
        for oa, ob in zip(a, b, strict=True):
            assert not np.array_equal(getattr(oa.pose_filtered, part),
                                      getattr(ob.pose_filtered, part))

    def test_reset_reseeds(self):
        cfg = PlantConfig(position_noise_std=1e-3, rng_seed=42)
        plant = Plant(cfg)
        plant.reset(Q0)
        first = [plant.apply_command(Q1).pose_filtered.position for _ in range(5)]
        plant.reset(Q0)
        second = [plant.apply_command(Q1).pose_filtered.position for _ in range(5)]
        for fa, fb in zip(first, second):
            np.testing.assert_array_equal(fa, fb)


def observation_bytes(obs) -> tuple:
    return (obs.pose_filtered.position.tobytes(), obs.pose_filtered.rotation.tobytes(),
            obs.infeasible_flags.tobytes())


def pose_bytes(pose) -> tuple:
    return pose.position.tobytes(), pose.rotation.tobytes()


class TestPlayback:
    """``apply_commands`` is N ``apply_command`` calls, byte for byte, as
    stacked arrays."""

    CFG = PlantConfig(length_scale_error=np.linspace(-0.03, 0.03, 9), position_noise_std=1e-3,
                      rotation_noise_std=2e-3, rng_seed=11)

    def test_matches_one_command_at_a_time(self):
        # Mismatch, both noises and commands past both bounds, which the
        # plant saturates and flags.
        commands = np.random.default_rng(4).uniform(-0.02, 0.12, (40, 9))
        commands[::4] = np.random.default_rng(5).uniform(0.01, 0.09, (10, 9))
        one, batch = Plant(self.CFG), Plant(self.CFG)
        one.reset(Q0)
        batch.reset(Q0)
        lanes = batch.apply_commands(commands)
        assert [(a.dtype, a.shape) for a in lanes] == [
            (bool, (40, 9)), (float, (40, 3)), (float, (40, 3)), (float, (40, 3, 3))]
        flagged = 0
        for q, *lane in zip(commands, *lanes, strict=True):
            want = one.apply_command(q)
            assert [a.tobytes() for a in lane] == [
                want.infeasible_flags.tobytes(), one.true_pose().position.tobytes(),
                want.pose_filtered.position.tobytes(), want.pose_filtered.rotation.tobytes()]
            flagged += bool(want.infeasible_flags.any())
        assert 0 < flagged < len(commands)
        assert pose_bytes(batch.true_pose()) == pose_bytes(one.true_pose())
        # The filter state and the noise stream after the last command.
        for q in (Q1, Q0):
            assert observation_bytes(batch.apply_command(q)) == observation_bytes(
                one.apply_command(q))

    def test_an_empty_batch_leaves_the_plant_as_it_was(self):
        plant, untouched = Plant(self.CFG), Plant(self.CFG)
        plant.reset(Q0)
        untouched.reset(Q0)
        before = plant.true_pose()
        lanes = plant.apply_commands(np.empty((0, 9)))
        assert [a.shape for a in lanes] == [(0, 9), (0, 3), (0, 3), (0, 3, 3)]
        assert plant.true_pose() is before
        assert observation_bytes(plant.apply_command(Q1)) == observation_bytes(
            untouched.apply_command(Q1))

    @pytest.mark.parametrize("q_cmds", [Q1, np.zeros((2, 8)), np.array([Q1, Q1 * np.inf])],
                             ids=["one-vector", "eight-columns", "infinite"])
    def test_a_bad_batch_is_rejected_before_any_command(self, q_cmds):
        plant = Plant(self.CFG)
        plant.reset(Q0)
        before = plant.true_pose()
        with pytest.raises(ValueError, match="actuator"):
            plant.apply_commands(q_cmds)
        assert plant.true_pose() is before

    @pytest.mark.parametrize("corrupt, message", [
        (lambda rows: [[1.001 * x for x in row] for row in rows], "not orthonormal"),
        (lambda rows: [rows[0], rows[1], [-x for x in rows[2]]], "proper"),
    ], ids=["stretched", "reflected"])
    def test_a_filtered_rotation_that_fails_the_check_raises(self, monkeypatch, corrupt,
                                                             message):
        # The batch is checked after its last lane and leaves the plant as
        # it was: the true pose, the filter state and the noise stream.
        plant, untouched = Plant(self.CFG), Plant(self.CFG)
        plant.reset(Q0)
        untouched.reset(Q0)
        before = plant.true_pose()
        with monkeypatch.context() as patch:
            patch.setattr(plant_module, "rotvec_to_rows", lambda *w: corrupt(rotvec_to_rows(*w)))
            with pytest.raises(ValueError, match=message):
                plant.apply_commands(np.array([Q1, Q0]))
        assert plant.true_pose() is before
        assert observation_bytes(plant.apply_command(Q1)) == observation_bytes(
            untouched.apply_command(Q1))


class TestConfigValues:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["position_noise_std", "rotation_noise_std"])
    def test_noise_std_must_be_finite(self, name, value):
        # NaN passes a "< 0" check and runs noise-free.
        with pytest.raises(ValueError, match="finite and non-negative"):
            PlantConfig(**{name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_length_scale_error_must_be_finite(self, value):
        error = np.zeros(9)
        error[4] = value
        with pytest.raises(ValueError, match="length_scale_error must be finite"):
            PlantConfig(length_scale_error=error)


class TestMismatch:
    def test_scale_error_shifts_true_pose(self):
        cfg = PlantConfig(length_scale_error=np.full(9, 0.02))
        plant = Plant(cfg)
        plant.reset(Q0)
        scaled = forward_kinematics(Q0 * 1.02, GEOM)
        np.testing.assert_allclose(plant.true_pose().position, scaled.position,
                                   atol=1e-12)

    def test_uniform_mismatch_factory_is_seeded(self):
        a = plant_config_from_dict({"mismatch": 0.02}, GEOM, seed=7)
        b = plant_config_from_dict({"mismatch": 0.02}, GEOM, seed=7)
        np.testing.assert_array_equal(a.length_scale_error, b.length_scale_error)
        assert np.all(np.abs(a.length_scale_error) <= 0.02)
        assert np.std(a.length_scale_error) > 0


def reference_filtered_poses(cfg: PlantConfig, q0, commands) -> list:
    """The measured poses of a plant reset to q0 and then commanded, as the
    array log/exp and ``Pose()`` write the filter, with ``normal`` drawing
    three values for each part whose noise std is positive."""
    rng = np.random.default_rng(cfg.rng_seed)
    limits = cfg.true_geometry.joint_limits()
    alpha = 1.0 - np.exp(-cfg.filter_cutoff * cfg.dt)
    position_f = rotation_f = None
    poses = []
    for q in [q0, *commands]:
        true = forward_kinematics(
            np.minimum(np.maximum(q * (1.0 + cfg.length_scale_error), limits.lower),
                       limits.upper), cfg.true_geometry)
        position, rotation = true.position, true.rotation
        if cfg.position_noise_std > 0:
            position = position + rng.normal(0.0, cfg.position_noise_std, 3)
        if cfg.rotation_noise_std > 0:
            rotation = rotvec_to_matrix(rng.normal(0.0, cfg.rotation_noise_std, 3)) @ rotation
        if position_f is None:
            position_f, rotation_f = position, rotation
        else:
            position_f = position_f + alpha * (position - position_f)
            increment = matrix_to_rotvec(rotation @ rotation_f.T)
            rotation_f = rotvec_to_matrix(alpha * increment) @ rotation_f
        poses.append(Pose(position_f, rotation_f))
    return poses


class TestFilteredPose:
    CONFIG = PlantConfig(length_scale_error=np.linspace(-0.02, 0.02, 9),
                         position_noise_std=2e-3, rotation_noise_std=2e-2, rng_seed=11)

    @pytest.mark.parametrize("position_std, rotation_std", [(2e-3, 0.0), (0.0, 2e-2),
                                                            (2e-3, 2e-2), (0.0, 0.0)],
                             ids=["position", "rotation", "both", "none"])
    def test_matches_the_array_filter_bit_for_bit(self, position_std, rotation_std):
        # The plant draws the noise of both parts in one call, the
        # reference in one call per part.
        cfg = replace(self.CONFIG, position_noise_std=position_std,
                      rotation_noise_std=rotation_std)
        commands = list(np.random.default_rng(8).uniform(-0.01, 0.11, (200, 9)))
        plant = Plant(cfg)
        observed = [plant.reset(Q0)] + [plant.apply_command(q) for q in commands]
        expected = reference_filtered_poses(cfg, Q0, commands)
        for obs, pose in zip(observed, expected, strict=True):
            for got, want in ((obs.pose_filtered.position, pose.position),
                              (obs.pose_filtered.rotation, pose.rotation)):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda rows: [[1.001 * x for x in row] for row in rows], "not orthonormal"),
        (lambda rows: [rows[0], rows[1], [-x for x in rows[2]]], "proper"),
    ], ids=["stretched", "reflected"])
    def test_a_filtered_rotation_that_fails_the_check_raises(self, monkeypatch, corrupt,
                                                             message):
        plant = Plant(self.CONFIG)
        plant.reset(Q0)
        monkeypatch.setattr(plant_module, "rotvec_to_rows",
                            lambda *w: corrupt(rotvec_to_rows(*w)))
        with pytest.raises(ValueError, match=message):
            plant.apply_command(Q1)
