"""Hypothesis profiles.

``dev`` is loaded by default and gives the CLI fuzz test
(``test_cli_fuzz.py``) and the batched bootstrap property tests
(``test_estimators.py -k batched_statistic``) their example budget; ``ci``
is a larger budget for separate runs of those tests::

    pytest tests/test_cli_fuzz.py --hypothesis-profile=ci
    pytest tests/test_estimators.py -k batched_statistic --hypothesis-profile=ci

Tests that set ``max_examples`` themselves keep it under either profile.
"""

from hypothesis import settings

# 100 is hypothesis's own default, so a test that sets no budget keeps it.
settings.register_profile("dev", max_examples=100)
settings.register_profile("ci", max_examples=1000)
settings.load_profile("dev")
