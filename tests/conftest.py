"""Hypothesis runs derandomized and keeps no example database, so one tree
gives one Tier-1 result: every run draws the same examples."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
