import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalkit import fixtures
from causalkit.dag import d_separated
from causalkit.errors import (
    CsvFormatError,
    DegenerateArm,
    EmptySelection,
    ModelInvalid,
    ParentOrderViolation,
    ProbabilityOutOfRange,
    TooManyNodes,
    UnknownColumn,
    UnknownParent,
)
from causalkit.estimators import population_estimand
from causalkit.scenario import CASE_STUDY_N, CASE_STUDY_SEED
from causalkit.scm import (
    Dataset,
    NodeEquation,
    SelectionRule,
    StructuralModel,
    apply_selection,
    enumerate_population,
    sample,
    validate_model,
)

E = fixtures.EDUCATION
P = fixtures.PLAYGROUP


# ---------------------------------------------------------------------------
# Model validation


def test_validate_model_accepts_fixtures():
    for model in (
        fixtures.case_study_model(),
        fixtures.confounder_model(),
        fixtures.mediator_model(),
        fixtures.collider_model(),
    ):
        validate_model(model)


def test_validate_model_rejects_probability_out_of_range():
    model = StructuralModel((NodeEquation("A", 1.2),))
    with pytest.raises(ProbabilityOutOfRange) as exc_info:
        validate_model(model)
    assert exc_info.value.node == "A"
    assert exc_info.value.value == pytest.approx(1.2)


def test_validate_model_checks_every_parent_configuration():
    # Valid at all-zero parents but not when both parents are one.
    model = StructuralModel(
        (
            NodeEquation("A", 0.5),
            NodeEquation("B", 0.5),
            NodeEquation("C", 0.4, (("A", 0.4), ("B", 0.4))),
        )
    )
    with pytest.raises(ProbabilityOutOfRange) as exc_info:
        validate_model(model)
    assert exc_info.value.config == {"A": 1, "B": 1}


def test_validate_model_rejects_bad_declarations():
    with pytest.raises(UnknownParent):
        validate_model(StructuralModel((NodeEquation("A", 0.5, (("Z", 0.1),)),)))
    with pytest.raises(ParentOrderViolation):
        validate_model(
            StructuralModel(
                (NodeEquation("A", 0.5, (("B", 0.1),)), NodeEquation("B", 0.5))
            )
        )
    with pytest.raises(ModelInvalid):
        validate_model(
            StructuralModel((NodeEquation("A", 0.5), NodeEquation("A", 0.5)))
        )


def test_case_study_entry_conduct_covers_all_eight_configs():
    # The conduct_entry equation has three parents; validation visits all
    # eight configurations, whose probabilities span 0.05 to 0.95.
    model = fixtures.case_study_model()
    eq = next(e for e in model.equations if e.name == fixtures.CONDUCT_ENTRY)
    probs = []
    for bits in itertools.product((0, 1), repeat=3):
        probs.append(
            eq.intercept + sum(c * b for (_, c), b in zip(eq.parents, bits))
        )
    assert min(probs) == pytest.approx(0.05)
    assert max(probs) == pytest.approx(0.95)
    validate_model(model)


# ---------------------------------------------------------------------------
# Sampling


def test_sample_is_deterministic_and_binary():
    model = fixtures.confounder_model()
    a = sample(model, 500, 13)
    b = sample(model, 500, 13)
    assert np.array_equal(a.values, b.values)
    assert a.columns == ("C", "A", "B")
    assert set(np.unique(a.values)) <= {0, 1}
    c = sample(model, 500, 14)
    assert not np.array_equal(a.values, c.values)


def test_sample_prefix_stability():
    model = fixtures.collider_model()
    small = sample(model, 100, 7)
    large = sample(model, 10_000, 7)
    assert np.array_equal(small.values, large.values[:100])


def test_sample_zero_rows_and_negative():
    d = sample(fixtures.confounder_model(), 0, 1)
    assert d.n == 0
    with pytest.raises(ValueError):
        sample(fixtures.confounder_model(), -1, 1)


def test_sample_rejects_invalid_model_as_model_invalid():
    bad = StructuralModel((NodeEquation("A", 1.5),))
    with pytest.raises(ModelInvalid):
        sample(bad, 10, 0)


def test_sample_means_match_population_marginals():
    # 4-sigma bands around the exact marginals at n = 100k.
    model = fixtures.case_study_model()
    d = sample(model, 100_000, 2024)
    population = enumerate_population(model)
    for name in model.node_names():
        p = float(np.dot(population.weights, population.column(name)))
        se = math.sqrt(p * (1 - p) / d.n)
        assert abs(d.mean(name) - p) < 4 * se


def test_case_study_sample_frozen_statistics():
    d = sample(fixtures.case_study_model(), CASE_STUDY_N, CASE_STUDY_SEED)
    assert d.mean(E) == pytest.approx(0.900009, abs=1e-9)
    selected = apply_selection(d, SelectionRule(P, 1))
    assert selected.n == 695628


# ---------------------------------------------------------------------------
# Selection


def test_apply_selection_filters_and_preserves_order():
    d = sample(fixtures.case_study_model(), 10_000, 3)
    kept = apply_selection(d, SelectionRule(P, 1))
    assert np.all(kept.column(P) == 1)
    again = apply_selection(kept, SelectionRule(P, 1))
    assert np.array_equal(kept.values, again.values)
    dropped = apply_selection(d, SelectionRule(P, 0))
    assert kept.n + dropped.n == d.n


def test_selection_rule_value_check():
    with pytest.raises(ValueError):
        SelectionRule("A", 2)


def test_apply_selection_unknown_column():
    d = sample(fixtures.confounder_model(), 10, 0)
    with pytest.raises(UnknownColumn):
        apply_selection(d, SelectionRule("missing", 1))


# ---------------------------------------------------------------------------
# Enumeration


def test_enumerate_population_confounder_exact():
    population = enumerate_population(fixtures.confounder_model())
    assert population.n == 8
    assert population.weights.sum() == pytest.approx(1.0, abs=1e-15)
    idx = np.flatnonzero((population.values == (1, 1, 1)).all(axis=1))
    assert population.weights[idx[0]] == pytest.approx(0.28125, abs=1e-15)


def test_enumerate_population_case_study_shape():
    population = enumerate_population(fixtures.case_study_model())
    assert population.n == 2**7
    assert population.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_enumerate_population_selection_renormalises():
    model = fixtures.case_study_model()
    selected = enumerate_population(model, SelectionRule(P, 1))
    assert np.all(selected.column(P) == 1)
    assert selected.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_enumerate_population_empty_selection():
    model = StructuralModel((NodeEquation("A", 0.0), NodeEquation("B", 0.5)))
    with pytest.raises(EmptySelection):
        enumerate_population(model, SelectionRule("A", 1))


def test_enumerate_population_node_limit():
    eqs = tuple(NodeEquation(f"n{i}", 0.5) for i in range(25))
    with pytest.raises(TooManyNodes):
        enumerate_population(StructuralModel(eqs))


def test_population_risk_ratio_triples():
    assert population_estimand(fixtures.confounder_model(), "unadjusted", "A", "B") == (
        pytest.approx(5 / 3, abs=1e-12)
    )
    assert population_estimand(fixtures.mediator_model(), "unadjusted", "A", "B") == (
        pytest.approx(5 / 3, abs=1e-12)
    )
    assert population_estimand(fixtures.collider_model(), "unadjusted", "A", "B") == (
        pytest.approx(1.0, abs=1e-12)
    )


def test_population_risk_ratio_degenerate_treatment():
    model = StructuralModel((NodeEquation("A", 0.0), NodeEquation("B", 0.5)))
    with pytest.raises(DegenerateArm):
        population_estimand(model, "unadjusted", "A", "B")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(10_000, 40_000))
def test_sampling_consistent_with_enumeration(seed, n):
    # Sampled outcome mean within 5 sigma of the exact population mean.
    model = fixtures.collider_model()
    population = enumerate_population(model)
    p = float(np.dot(population.weights, population.column("C")))
    d = sample(model, n, seed)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(d.mean("C") - p) < 5 * se


# ---------------------------------------------------------------------------
# d-separation bridge: graph independence shows up in the exact joint


def _conditional_independent(population, x, y, z, tol=1e-12):
    cols = list(z)
    w = population.weights
    values = {c: population.column(c) for c in (x, y, *cols)}
    for bits in itertools.product((0, 1), repeat=len(cols)):
        mask = np.ones(population.n, dtype=bool)
        for c, b in zip(cols, bits):
            mask &= values[c] == b
        for xv in (0, 1):
            arm = mask & (values[x] == xv)
            if w[arm].sum() <= 0:
                continue
        total0 = w[mask & (values[x] == 0)].sum()
        total1 = w[mask & (values[x] == 1)].sum()
        if total0 <= 0 or total1 <= 0:
            continue
        p0 = w[mask & (values[x] == 0) & (values[y] == 1)].sum() / total0
        p1 = w[mask & (values[x] == 1) & (values[y] == 1)].sum() / total1
        if abs(p1 - p0) > tol:
            return False
    return True


def test_dsep_implies_conditional_independence_in_triples():
    cases = [
        (fixtures.confounder_model(), ("A", "B", ("C",))),
        (fixtures.mediator_model(), ("A", "B", ("C",))),
        (fixtures.collider_model(), ("A", "B", ())),
    ]
    for model, (x, y, z) in cases:
        dag = model.to_dag()
        assert d_separated(dag, x, y, z)
        assert _conditional_independent(enumerate_population(model), x, y, z)


def test_dsep_open_paths_show_dependence_in_triples():
    # The reverse direction on the same triples: open implies dependent.
    cases = [
        (fixtures.confounder_model(), ("A", "B", ())),
        (fixtures.mediator_model(), ("A", "B", ())),
        (fixtures.collider_model(), ("A", "B", ("C",))),
    ]
    for model, (x, y, z) in cases:
        dag = model.to_dag()
        assert not d_separated(dag, x, y, z)
        assert not _conditional_independent(enumerate_population(model), x, y, z)


# ---------------------------------------------------------------------------
# Dataset mechanics and CSV round trip


def test_dataset_rejects_malformed_values():
    with pytest.raises(ValueError):
        Dataset(("A",), np.array([[2]]))
    with pytest.raises(ValueError):
        Dataset(("A",), np.array([[0], [1]]), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(("A",), np.array([[0], [1]]), np.array([-1.0, 1.0]))


def test_dataset_with_column_set_and_take():
    d = sample(fixtures.confounder_model(), 100, 5)
    forced = d.with_column_set("A", 1)
    assert np.all(forced.column("A") == 1)
    assert np.array_equal(forced.column("B"), d.column("B"))
    head = d.take(np.arange(10))
    assert head.n == 10


def test_dataset_aggregate_sums_weights():
    d = sample(fixtures.confounder_model(), 10_000, 9)
    compact = d.aggregate()
    assert compact.n <= 8
    assert compact.total_weight() == pytest.approx(d.n)
    # Aggregation is order independent.
    reversed_rows = d.take(np.arange(d.n)[::-1])
    other = reversed_rows.aggregate()
    assert np.array_equal(compact.values, other.values)
    assert np.allclose(compact.weights, other.weights)


@pytest.mark.parametrize("k", [1, 7, 20, 70])
@pytest.mark.parametrize("weighted", [False, True])
def test_dataset_aggregate_matches_row_sort(k, weighted):
    # Reference: np.unique over whole rows.  70 columns would need 2^70
    # slots if anything were sized by the configuration count.
    generator = np.random.default_rng(1000 + k)
    distinct = (generator.random((300, k)) < 0.5).astype(np.uint8)
    rows = distinct[generator.integers(0, 300, size=3_000)]
    weights = None
    if weighted:
        weights = generator.random(rows.shape[0])
        weights[::5] = 0.0
    d = Dataset([f"x{j}" for j in range(k)], rows, weights)
    compact = d.aggregate()
    configs, inverse = np.unique(rows, axis=0, return_inverse=True)
    expected = np.bincount(
        inverse.ravel(), weights=d.effective_weights(), minlength=configs.shape[0]
    )
    assert compact.columns == d.columns
    assert np.array_equal(compact.values, configs)
    assert np.array_equal(compact.weights, expected)


def test_csv_round_trip_unweighted_and_weighted():
    d = sample(fixtures.collider_model(), 500, 11)
    back = Dataset.from_csv(d.to_csv())
    assert back.columns == d.columns
    assert np.array_equal(back.values, d.values)
    assert back.weights is None

    weighted = enumerate_population(fixtures.collider_model())
    back = Dataset.from_csv(weighted.to_csv())
    assert np.array_equal(back.values, weighted.values)
    assert np.array_equal(back.weights, weighted.weights)  # repr round trip


@pytest.mark.parametrize(
    "text",
    [
        "",
        "A,B\n0,1,0\n",
        "A,B\n0,2\n",
        "A,__weight\n1,zero\n",
        "A,__weight\n1,-1\n",
        "A,__weight\n1,nan\n",
        "t,t\n0,1\n",
        "__weight\n1\n",
    ],
)
def test_csv_malformed_inputs(text):
    with pytest.raises(CsvFormatError):
        Dataset.from_csv(text)
