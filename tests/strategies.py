"""Hypothesis strategies for actuator vectors of the default geometry.

Each section is drawn as one of three kinds: ``bent`` (three independent
elongations, visibly unequal), ``straight`` (three equal elongations) or
``near`` (a bending vector dx = l2 + l3 - 2 l1, dy = sqrt(3) (l3 - l2)
whose components have magnitudes in [1e-12, 1e-6] m).
"""

import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

KINDS = ("bent", "straight", "near")

_ELONGATION = st.floats(0.01, 0.09)
_TINY = st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                  st.sampled_from((-1.0, 1.0)), st.floats(-12.0, -6.0))


@st.composite
def _section(draw, kind: str) -> list:
    if kind == "bent":
        lengths = [draw(_ELONGATION) for _ in range(3)]
        assume(max(lengths) - min(lengths) > 1e-3)
        return lengths
    c = draw(_ELONGATION)
    if kind == "straight":
        return [c, c, c]
    dx, dy = draw(_TINY), draw(_TINY)
    gap = dy / (2.0 * math.sqrt(3.0))
    return [c, c + 0.5 * dx - gap, c + 0.5 * dx + gap]


@st.composite
def actuator_vectors(draw, kinds=st.lists(st.sampled_from(KINDS), min_size=3, max_size=3)):
    """(9,) elongations; ``kinds`` draws the three section kinds."""
    return np.array([length for kind in draw(kinds) for length in draw(_section(kind))])


def with_straight_sections(n: int):
    """Actuator vectors with exactly ``n`` straight sections, the rest bent."""
    return actuator_vectors(st.permutations(["straight"] * n + ["bent"] * (3 - n)))
