"""Hypothesis profiles.

``ci`` (``pytest --hypothesis-profile=ci``) draws the same examples on
every run of one commit and prints the reproduction blob of a failing
example, so a failure seen in CI can be replayed with ``@reproduce_failure``.
Without the option the default profile applies.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
