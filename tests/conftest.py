"""Hypothesis runs the same examples on every tier-1 run: they come from a
derandomized stream, and no example database is read or written."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
