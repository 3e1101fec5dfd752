import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softarm.geometry import (
    JointLimits,
    RobotGeometry,
    SectionGeometry,
    as_actuator_vector,
    default_geometry,
    ELONGATION_PER_PSI,
    elongation_to_pressure,
    norm,
)
from softarm.kinematics import forward_kinematics, section_chain


@pytest.mark.parametrize("field", [
    "radius", "initial_length", "plate_offset_length", "plate_offset_angle",
    "actuator_max_elongation"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_section_rejects_non_finite_field(field, value):
    with pytest.raises(ValueError, match=f"{field}: must be finite"):
        SectionGeometry(**{"radius": 0.05, field: value})


@pytest.mark.parametrize("field", ["radius", "initial_length", "actuator_max_elongation"])
@pytest.mark.parametrize("value", [0.0, -0.06])
def test_section_rejects_non_positive_size(field, value):
    with pytest.raises(ValueError, match=f"{field}: must be positive"):
        SectionGeometry(**{"radius": 0.05, field: value})


@pytest.mark.parametrize("radius", [1e-300, 1e-3, 0.05, 1e300])
def test_full_stroke_bends_a_section_at_most_one_turn(radius):
    """At l_max = 3 pi r the box corner (0, 0, l_max) bends the section by
    phi = |d| / (3 r) = 2 l_max / (3 r) = 2 pi, and the pose there is
    finite; the next float up is rejected."""
    limit = 3.0 * math.pi * radius
    with pytest.raises(ValueError, match="actuator_max_elongation: must be at most 3 pi radius"):
        SectionGeometry(radius=radius, actuator_max_elongation=math.nextafter(limit, math.inf))
    geom = RobotGeometry(sections=[SectionGeometry(radius=radius,
                                                   actuator_max_elongation=limit)] * 3)
    q = np.zeros(9)
    q[2] = limit
    _, _, ((c0, c1, *_), *_) = section_chain(q, geom)
    assert math.isclose(math.hypot(c0, c1), 2.0 * math.pi, rel_tol=1e-14)
    pose = forward_kinematics(q, geom)
    assert np.isfinite(pose.position).all()


def test_section_accepts_zero_and_negative_plate_offsets():
    sec = SectionGeometry(radius=0.05, plate_offset_length=0.0, plate_offset_angle=-1.0)
    assert sec.plate_offset_length == 0.0 and sec.plate_offset_angle == -1.0


@pytest.mark.parametrize("count", [0, 1, 2, 4])
def test_geometry_rejects_section_count_other_than_three(count):
    sections = (default_geometry().sections * 2)[:count]
    with pytest.raises(ValueError, match=f"sections: must be 3, got {count}"):
        RobotGeometry(sections=sections)


@pytest.mark.parametrize("radii", [(0.04, 0.05, 0.06), (0.06, 0.04, 0.05), (0.05, 0.06, 0.06)])
def test_geometry_rejects_radii_growing_toward_the_tip(radii):
    with pytest.raises(ValueError, match="radii must not grow toward the tip"):
        RobotGeometry([SectionGeometry(radius=r) for r in radii])


def test_geometry_accepts_equal_radii_and_takes_any_sequence():
    geom = RobotGeometry([SectionGeometry(radius=0.05)] * 3)
    assert isinstance(geom.sections, tuple) and len(geom.sections) == 3


def test_joint_limits_lower_bound_is_zero():
    limits = default_geometry().joint_limits()
    assert np.all(limits.lower == 0.0)
    assert np.all(limits.upper == 0.10)


def test_joint_limits_reject_inverted_bounds():
    with pytest.raises(ValueError):
        JointLimits(lower=np.full(9, 0.2), upper=np.full(9, 0.1))


def test_clamp_interior_keeps_margin():
    limits = default_geometry().joint_limits()
    q = np.array([-0.5, 0.0, 0.05, 0.1, 0.7, 0.02, 0.0, 0.1, 0.05])
    clamped = limits.clamp_interior(q)
    assert np.all(clamped > limits.lower)
    assert np.all(clamped < limits.upper)
    assert clamped[2] == 0.05  # interior values untouched


def test_pressure_map_published_ratio():
    assert elongation_to_pressure(0.01) == 21.0
    assert elongation_to_pressure(0.0) == 0.0


def test_pressure_map_round_trip():
    assert elongation_to_pressure(37.5 * ELONGATION_PER_PSI) == pytest.approx(
        37.5, rel=1e-15)


def test_pressure_maps_linear_monotone_inverse():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.0, 60.0, 100)
    e = p * ELONGATION_PER_PSI
    back = elongation_to_pressure(e)
    # linearity and monotonicity
    assert np.allclose(elongation_to_pressure(2.0 * e), 2.0 * back, rtol=1e-15)
    order = np.argsort(e)
    assert np.all(np.diff(back[order]) >= 0)
    # inverse of the elongation per psi to one machine epsilon times magnitude
    assert np.all(np.abs(back - p) <= np.finfo(float).eps * np.maximum(p, 1.0))


def test_actuator_vector_validation():
    with pytest.raises(ValueError):
        as_actuator_vector(np.zeros(8))
    with pytest.raises(ValueError):
        as_actuator_vector(np.array([np.nan] + [0.0] * 8))
    q = as_actuator_vector([0.01] * 9)
    assert q.shape == (9,)


_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
          np.finfo(float).max, np.inf, -np.inf, np.nan]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats() | st.sampled_from(_EDGES), min_size=9, max_size=9))
@example(values=[1.7e308] * 9)
@example(values=[-1.7e308, 1.7e308] * 4 + [5e-324])
@example(values=[-0.0] * 8 + [np.inf])
@example(values=[0.0] * 8 + [np.nan])
@example(values=[np.inf, -np.inf] + [0.0] * 7)
def test_finiteness_check_matches_isfinite(values):
    # Given as an array, a list or a strided view; no floating-point warning
    # on the way (inf * 0 would raise numpy's "invalid value" one).
    q = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for given_q in (q, values, np.repeat(q, 2)[::2]):
            if np.isfinite(q).all():
                assert as_actuator_vector(given_q).tobytes() == q.tobytes()
            else:
                with pytest.raises(ValueError) as raised:
                    as_actuator_vector(given_q)
                assert str(raised.value) == "actuator vector entries must be finite"


def test_constants_leave_eq_hash_repr_unchanged():
    geom, other = default_geometry(), default_geometry()
    before = hash(geom), repr(geom)
    geom.section_constants, geom.actuator_map
    assert (hash(geom), repr(geom)) == before
    assert geom == other and hash(geom) == hash(other)
    assert not geom.actuator_map.flags.writeable
    # A geometry that has walked a configuration keeps the walk on the
    # instance, outside ==, hash and repr, and through a pickle round trip.
    q = np.full(9, 0.03)
    q[0] = 0.07
    pose = forward_kinematics(q, geom)
    assert "_last_walk" in vars(geom) and "_last_walk" not in vars(other)
    assert (hash(geom), repr(geom)) == before
    assert geom == other and hash(geom) == hash(other)
    restored = pickle.loads(pickle.dumps(geom))
    assert restored == geom == other and hash(restored) == hash(other)
    assert repr(restored) == before[1]
    assert forward_kinematics(q, restored).position.tobytes() == pose.position.tobytes()


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_FINITE, min_size=1, max_size=6),
       indices=st.lists(st.integers(0, 5), min_size=1, max_size=3))
@example(values=[-0.0], indices=[0])
@example(values=[5e-324, -2.5e-310, 2.2250738585072014e-308], indices=[0, 2])
@example(values=[1e300, -1e300, 3.0], indices=[0, 2])
def test_norm_is_bit_identical_to_numpy(values, indices):
    v = np.array(values)
    # A fancy-indexed copy, as the orientation tolerance check takes.
    picked = v[[i % v.size for i in indices]]
    for x in (v, picked):
        with np.errstate(over="ignore"):  # squares past 1.8e308 are inf in both
            got, expected = norm(x), np.linalg.norm(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == expected.tobytes()
