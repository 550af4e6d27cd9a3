"""Test-wide settings.

Hypothesis draws the same examples on every run (``derandomize``), so a
property test cannot pass on one run and fail on the next; no deadline,
because timings on a shared machine are not part of any property.

Hypothesis also mixes in, now and then, literal constants from the source
of every non-test module imported so far.  Which modules those are depends
on the files a pytest command collects, so a property's examples would
depend on the command line.  The pool is pinned empty, which makes each
property's examples a function of that test alone.
"""

from hypothesis import settings
from hypothesis.internal.conjecture import providers

settings.register_profile("covband", derandomize=True, deadline=None)
settings.load_profile("covband")
providers._get_local_constants = lambda: providers._local_constants
