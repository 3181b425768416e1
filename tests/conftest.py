"""Hypothesis profiles.

``dev`` is loaded by default and gives every property test its example
budget; ``ci`` is a larger budget for a second run of the tests marked
``budget`` (the CLI fuzz test, the batched bootstrap and IRLS property
tests, the crude log-binomial fit against its closed form, the counts-path
and model-validation property tests and the CSV reader tests)::

    pytest -m budget --hypothesis-profile=ci

Tests that set ``max_examples`` themselves keep it under either profile.
"""

from hypothesis import settings

# 100 is hypothesis's own default, so a test that sets no budget keeps it.
settings.register_profile("dev", max_examples=100)
settings.register_profile("ci", max_examples=1000)
settings.load_profile("dev")
