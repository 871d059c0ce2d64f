"""Hypothesis profiles. ``pytest --hypothesis-profile=ci`` prints a failing
example's ``@reproduce_failure`` blob, so a red property can be replayed."""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
