"""One Hypothesis profile for the whole suite: the same examples on every run.

derandomize=True draws each property test's examples from a seed fixed by
the test itself, so two runs of the suite (on any machine) test the same
inputs; no example database is read or written, and wall-clock deadlines
do not apply.  Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("spacinglab", derandomize=True, database=None, deadline=None)
settings.load_profile("spacinglab")
