"""Hypothesis profiles, selected with ``pytest --hypothesis-profile=NAME``."""

from hypothesis import settings

# A failing example prints the blob that ``@reproduce_failure`` replays, so a
# CI log alone reproduces it.
settings.register_profile("ci", print_blob=True)
