"""Hypothesis profiles.

``dev`` is loaded by default and gives the CLI fuzz test
(``test_cli_fuzz.py``), the batched bootstrap property tests
(``test_estimators.py -k batched_statistic``), the batched IRLS against its
row-by-row reference (``test_glm.py``), the counts-path property
tests, the model-validation property test and the CSV reader property
tests (``test_scm.py``) their example budget; ``ci`` is a larger budget
for separate runs of those tests::

    pytest tests/test_cli_fuzz.py --hypothesis-profile=ci
    pytest tests/test_estimators.py tests/test_glm.py -k "batched_statistic or fit_batch_matches_reference_fit" --hypothesis-profile=ci
    pytest tests/test_scm.py -k "sample_in_blocks or sample_matches or distinct_rows or validate_model_matches_enumeration" --hypothesis-profile=ci
    pytest tests/test_scm.py tests/test_cli.py -k "from_csv_matches_reference_on_generated_texts or reads_bytes_as_a_text_mode_file or csv_blocks or grid_and_other_blocks or as_grids_only or peak_memory" --hypothesis-profile=ci

Tests that set ``max_examples`` themselves keep it under either profile.
"""

from hypothesis import settings

# 100 is hypothesis's own default, so a test that sets no budget keeps it.
settings.register_profile("dev", max_examples=100)
settings.register_profile("ci", max_examples=1000)
settings.load_profile("dev")
