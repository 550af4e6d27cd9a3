"""Test-wide settings.

Hypothesis draws the same examples on every run (``derandomize``), so a
property test cannot pass on one run and fail on the next; no deadline,
because timings on a shared machine are not part of any property.
"""

from hypothesis import settings

settings.register_profile("covband", derandomize=True, deadline=None)
settings.load_profile("covband")
