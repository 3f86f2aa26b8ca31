"""Shared pytest configuration.

Every hypothesis test draws its examples from a seed derived from the test
itself, with no example database, so repeated runs test the same examples.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
