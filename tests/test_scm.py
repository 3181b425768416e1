import csv
import hashlib
import io
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from causalkit import estimators, fixtures, scm
from causalkit.dag import d_separated
from causalkit.errors import (
    CsvFormatError,
    DegenerateArm,
    EmptySelection,
    ModelInvalid,
    NotUtf8Text,
    ParentOrderViolation,
    ProbabilityOutOfRange,
    SelectionInvalid,
    TooManyNodes,
    UnknownColumn,
    UnknownParent,
)
from causalkit.estimators import METHODS, population_estimand
from causalkit.rng import mix
from causalkit.scenario import CASE_STUDY_N, CASE_STUDY_SEED, parse_scenario, write_csv
from causalkit.scm import (
    WEIGHT_COLUMN,
    Dataset,
    NodeEquation,
    SelectionRule,
    StructuralModel,
    apply_selection,
    distinct_rows,
    enumerate_population,
    population_margin,
    sample,
    validate_model,
)
from rows import quote_first_cells, read_csv, sample_rows, scenario_rows

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
    with pytest.raises(ProbabilityOutOfRange) as exc_info:
        StructuralModel((NodeEquation("A", 1.2),))
    assert exc_info.value.node == "A"
    assert exc_info.value.value == pytest.approx(1.2)


def test_validate_model_checks_every_parent_configuration():
    # Valid at all-zero parents but not when both parents are one.
    with pytest.raises(ProbabilityOutOfRange) as exc_info:
        StructuralModel(
            (
                NodeEquation("A", 0.5),
                NodeEquation("B", 0.5),
                NodeEquation("C", 0.4, (("A", 0.4), ("B", 0.4))),
            )
        )
    assert exc_info.value.config == {"A": 1, "B": 1}


def test_validate_model_adds_terms_in_sampling_order():
    # 0.03 + (-0.02 - 0.01) is 0, but sample and enumerate_population add
    # (0.03 - 0.02) - 0.01 < 0; enumerating would give a negative weight.
    with pytest.raises(ProbabilityOutOfRange) as exc_info:
        StructuralModel((
            NodeEquation("P", 0.5), NodeEquation("Q", 0.5),
            NodeEquation("Y", 0.03, (("P", -0.02), ("Q", -0.01))),
        ))
    assert exc_info.value.config == {"P": 1, "Q": 1}
    assert exc_info.value.value < 0.0


def test_node_equation_holds_floats():
    eq = NodeEquation("Y", 0, (("B", 1), ("A", -1)))
    assert eq == NodeEquation("Y", 0.0, (("A", -1.0), ("B", 1.0)))
    assert all(type(x) is float for x in (eq.intercept, *dict(eq.parents).values()))
    # A Python int has no size limit; a float stops near 1.8e308.
    message = "^node 'A': a number too large for a float$"
    with pytest.raises(ModelInvalid, match=message):
        NodeEquation("A", 10**400)
    with pytest.raises(ModelInvalid, match=message):
        NodeEquation("A", 0.5, (("C", -10**400),))


@pytest.mark.parametrize(
    "args, message",
    [
        (("A", "0.5"), "node 'A': intercept must be a number, not '0.5'"),
        (("A", True), "node 'A': intercept must be a number, not True"),
        (("A", None), "node 'A': intercept must be a number, not None"),
        (("A", 0.5, (("C", "0.25"),)), "node 'A': coefficient of 'C' must be a number, not '0.25'"),
        (("A", 0.5, (("C", False),)), "node 'A': coefficient of 'C' must be a number, not False"),
        (("A", 0.5, (("C", None),)), "node 'A': coefficient of 'C' must be a number, not None"),
        ((5, 0.5), "node name must be a string, not 5"),
        ((None, 0.5), "node name must be a string, not None"),
    ],
)
def test_node_equation_refuses_a_value_of_the_wrong_type(args, message):
    with pytest.raises(ModelInvalid) as exc_info:
        NodeEquation(*args)
    assert str(exc_info.value) == message


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
    with pytest.raises(ModelInvalid, match=f"^node name '{WEIGHT_COLUMN}' is reserved"):
        StructuralModel((NodeEquation("A", 0.5), NodeEquation(WEIGHT_COLUMN, 0.5)))


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


# Values that rounding, signed zeros, overflow and NaN make hard to check.
_SPECIAL_VALUES = (0.0, -0.0, 1e-17, -1e-17, 5e-324, -5e-324, 1e308, -1e308,
                   math.inf, -math.inf, math.nan)
_model_numbers = st.integers(-150, 150).map(lambda c: c / 100) | st.sampled_from(_SPECIAL_VALUES)


@pytest.mark.budget
@settings(deadline=None)
@given(intercept=_model_numbers, coefficients=st.lists(_model_numbers, max_size=10))
def test_validate_model_matches_enumeration(intercept, coefficients):
    # The reference is the success probability of every parent
    # configuration, its terms added in parent order here in the test: the
    # model is refused iff a cell is outside [0, 1] or NaN, and the error's
    # value is the cell it names.
    names = [f"p{i}" for i in range(len(coefficients))]
    table = {}
    for bits in itertools.product((0, 1), repeat=len(coefficients)):
        p = intercept
        for coef, bit in zip(coefficients, bits):
            p = p + coef * bit
        table[bits] = p
    bad = {bits for bits, p in table.items() if not 0.0 <= p <= 1.0}
    equations = tuple(NodeEquation(name, 0.5) for name in names) + (
        NodeEquation("Y", intercept, tuple(zip(names, coefficients))),)
    try:
        StructuralModel(equations)
    except ProbabilityOutOfRange as exc:
        cell = tuple(exc.config[name] for name in names)
        assert exc.node == "Y" and sorted(exc.config) == names
        assert cell in bad
        assert exc.value == table[cell] or (math.isnan(exc.value) and math.isnan(table[cell]))
    else:
        assert not bad


def test_validate_model_checks_a_60_parent_node():
    names = [f"p{i:02d}" for i in range(60)]
    roots = tuple(NodeEquation(name, 0.5) for name in names)
    StructuralModel(roots + (NodeEquation("Y", 0.2, tuple((n, 0.01) for n in names)),))
    with pytest.raises(ProbabilityOutOfRange) as exc_info:
        StructuralModel(roots + (NodeEquation("Y", 0.2, tuple((n, 0.02) for n in names)),))
    assert exc_info.value.config == dict.fromkeys(names, 1)
    assert exc_info.value.value == 1.400000000000001  # 0.2 + 0.02 + ... in parent order


# ---------------------------------------------------------------------------
# Sampling


def test_sample_is_deterministic_and_binary():
    model = fixtures.confounder_model()
    a = sample(model, 500, 13)
    b = sample(model, 500, 13)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.weights, b.weights)
    assert a.columns == ("C", "A", "B")
    assert set(np.unique(a.values)) <= {0, 1}
    assert a.total_weight() == 500
    c = sample(model, 500, 14)
    assert not np.array_equal(a.weights, c.weights)


def test_sample_prefix_stability():
    model = fixtures.collider_model()
    small = sample_rows(model, 100, 7)
    large = sample_rows(model, 10_000, 7)
    assert np.array_equal(small.values, large.values[:100])


def test_sample_zero_rows_and_negative():
    d = sample(fixtures.confounder_model(), 0, 1)
    assert d.n == 0
    assert d.total_weight() == 0.0
    with pytest.raises(ValueError):
        sample(fixtures.confounder_model(), -1, 1)


def test_invalid_model_cannot_be_built():
    # Every StructuralModel is valid, so sample and the oracles need not check.
    with pytest.raises(ProbabilityOutOfRange):
        StructuralModel((NodeEquation("A", 1.5),))
    with pytest.raises(ModelInvalid):
        StructuralModel((NodeEquation("A", 0.5), NodeEquation("A", 0.5)))


def test_sample_means_match_population_marginals():
    # 4-sigma bands around the exact marginals at n = 100k.
    model = fixtures.case_study_model()
    d = sample(model, 100_000, 2024)
    population = enumerate_population(model)
    for name in model.node_names():
        p = float(np.dot(population.weights, population.column(name)))
        se = math.sqrt(p * (1 - p) / d.total_weight())
        assert abs(d.mean(name) - p) < 4 * se


def test_case_study_sample_frozen_statistics():
    d = sample(fixtures.case_study_model(), CASE_STUDY_N, CASE_STUDY_SEED)
    assert d.mean(E) == pytest.approx(0.900009, abs=1e-9)
    selected = apply_selection(d, SelectionRule(P, 1))
    assert selected.total_weight() == 695628


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
    assert kept.total_weight() + dropped.total_weight() == d.total_weight()


def test_selection_rule_value_check():
    with pytest.raises(ValueError):
        SelectionRule("A", 2)


@pytest.mark.parametrize(
    "node, value, message",
    [
        ("C", True, "selection value must be 0 or 1, not True"),
        ("C", 1.0, "selection value must be 0 or 1, not 1.0"),
        (5, 1, "selection node must be a string, not 5"),
    ],
)
def test_selection_rule_refuses_a_value_of_the_wrong_type(node, value, message):
    with pytest.raises(SelectionInvalid) as exc_info:
        SelectionRule(node, value)
    assert str(exc_info.value) == message


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


# ---------------------------------------------------------------------------
# Exact margins by variable elimination, against enumeration


def _enumerated_margin(model, columns, selection=None):
    """The reference margin: enumerate the joint, project, collapse."""
    joint = enumerate_population(model, selection)
    values = np.stack([joint.column(c) for c in columns], axis=1)
    return Dataset(columns, values, joint.weights).aggregate()


def _assert_same_margin(margin, reference):
    assert margin.columns == reference.columns
    assert np.array_equal(margin.values, reference.values)
    np.testing.assert_allclose(margin.weights, reference.weights, rtol=1e-12, atol=0.0)


@st.composite
def _small_models(draw, max_nodes=12):
    """Models of 1 to ``max_nodes`` nodes with up to three parents each.
    Intercepts and coefficients are hundredths (0 and 1 included, so zero
    cells occur), kept inside [0, 1] for every parent configuration."""
    k = draw(st.integers(1, max_nodes))
    equations = []
    for j in range(k):
        parents = draw(st.lists(st.integers(0, j - 1), unique=True, max_size=3)) if j else []
        low = high = draw(st.sampled_from([0, 100]) | st.integers(0, 100))
        intercept = low
        coefficients = []
        for parent in parents:
            c = draw(st.integers(-low, 100 - high))
            low, high = low + min(c, 0), high + max(c, 0)
            coefficients.append((f"v{parent}", c / 100))
        equations.append(NodeEquation(f"v{j}", intercept / 100, tuple(coefficients)))
    try:
        return StructuralModel(tuple(equations))
    except ProbabilityOutOfRange:
        # A float sum of hundredths can round past 1.
        assume(False)


@settings(max_examples=300, deadline=None)
@given(model=_small_models(), data=st.data())
def test_population_margin_matches_enumeration(model, data):
    names = model.node_names()
    columns = tuple(data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4)))
    placement = data.draw(st.sampled_from(["none", "inside", "outside"]))
    selection = None
    if placement != "none":
        pool = [n for n in names if (n in columns) == (placement == "inside")]
        assume(pool)
        selection = SelectionRule(data.draw(st.sampled_from(pool)), data.draw(st.integers(0, 1)))
    try:
        reference = _enumerated_margin(model, columns, selection)
    except EmptySelection:
        with pytest.raises(EmptySelection):
            population_margin(model, columns, selection)
        return
    _assert_same_margin(population_margin(model, columns, selection), reference)


def test_population_margin_keeps_zero_cells_and_selected_value():
    # A is never 1, so half the (A, B) cells have probability zero; they
    # stay, as they do in the aggregated joint.
    model = StructuralModel((NodeEquation("A", 0.0), NodeEquation("B", 0.5, (("A", 0.5),))))
    margin = population_margin(model, ("A", "B"))
    assert margin.values.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert margin.weights.tolist() == [0.5, 0.5, 0.0, 0.0]
    selected = population_margin(fixtures.case_study_model(), (P, E), SelectionRule(P, 1))
    assert selected.values.tolist() == [[1, 0], [1, 1]]
    _assert_same_margin(
        selected, _enumerated_margin(fixtures.case_study_model(), (P, E), SelectionRule(P, 1))
    )
    with pytest.raises(UnknownColumn):
        population_margin(model, ["missing"])


def _estimate_or_error(estimator, margin, *args, **options):
    try:
        return estimator(margin, *args, **options).risk_ratio
    except Exception as exc:  # the class is what is compared
        return type(exc)


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("selection", [None, SelectionRule(P, 1)])
@pytest.mark.parametrize(
    "adjust",
    [(fixtures.CHILDCARE,), (fixtures.CONDUCT_SCHOOL,),
     (fixtures.CONDUCT_ENTRY, fixtures.CONDUCT_ENTRY)],
)
def test_population_estimand_repeated_columns_as_enumeration(method, selection, adjust):
    # A column named twice reaches the estimator twice and fails
    # (RankDeficient, ValueError, ...) or succeeds as the public estimator
    # does on the enumerated margin.
    model = fixtures.case_study_model()
    t, y = fixtures.CHILDCARE, fixtures.CONDUCT_SCHOOL
    options = {"adjust": adjust} if "adjust" in METHODS[method].options else {}
    columns = (t, y, *options.get("adjust", ()))
    estimator = getattr(estimators, METHODS[method].estimator)
    margin = _enumerated_margin(model, columns, selection)
    expected = _estimate_or_error(estimator, margin, t, y, **options)
    try:
        value = population_estimand(model, method, t, y, adjust, selection)
    except Exception as exc:
        assert type(exc) is expected
    else:
        assert value == pytest.approx(expected, rel=1e-12)


def _wide_model(extra):
    """A five-node core (U -> C -> T -> Y, C -> Y, W -> Y) followed by
    ``extra`` nodes that are all descendants of the core."""
    core = (
        NodeEquation("U", 0.4),
        NodeEquation("C", 0.2, (("U", 0.5),)),
        NodeEquation("T", 0.3, (("C", 0.4),)),
        NodeEquation("W", 0.6),
        NodeEquation("Y", 0.1, (("C", 0.3), ("T", 0.2), ("W", 0.2))),
    )
    rest = tuple(
        NodeEquation(f"d{i}", 0.3, (("Y" if i == 0 else f"d{i - 1}", 0.4), ("T", 0.2)))
        for i in range(extra)
    )
    return StructuralModel(core + rest), StructuralModel(core)


@pytest.mark.parametrize("method", list(METHODS))
def test_population_estimand_on_a_large_model_with_a_small_ancestral_set(method):
    # 40 nodes: enumeration refuses the model, but the analysis columns have
    # five ancestors, and the oracle equals that ancestral model's enumerated one.
    model, core = _wide_model(35)
    with pytest.raises(TooManyNodes):
        enumerate_population(model)
    options = {"adjust": ("C",), "interactions": True, "family": "poisson"}
    taken = {k: v for k, v in options.items() if k in METHODS[method].options}
    reference = METHODS[method].point(enumerate_population(core), "T", "Y", **taken)
    value = population_estimand(model, method, "T", "Y", **options)
    assert value == pytest.approx(reference, rel=1e-12)


def test_population_margin_width_cap(monkeypatch):
    # Y's table alone spans Y and its three parents: four nodes.  In the
    # triangle every table spans three nodes, but any elimination order
    # spans more.
    model, _ = _wide_model(0)
    triangle = StructuralModel((
        NodeEquation("A", 0.5), NodeEquation("B", 0.4), NodeEquation("C", 0.3),
        NodeEquation("X", 0.1, (("A", 0.3), ("B", 0.3))),
        NodeEquation("Y", 0.2, (("B", 0.3), ("C", 0.3))),
        NodeEquation("Z", 0.3, (("A", 0.3), ("C", 0.3))),
    ))
    _assert_same_margin(
        population_margin(triangle, ("X", "Y", "Z")),
        _enumerated_margin(triangle, ("X", "Y", "Z")),
    )
    monkeypatch.setattr(scm, "ENUMERATION_NODE_LIMIT", 3)
    with pytest.raises(TooManyNodes, match="elimination step over 4 nodes"):
        population_margin(model, ("T", "Y"))
    with pytest.raises(TooManyNodes, match="elimination step over"):
        population_margin(triangle, ("X", "Y", "Z"))
    assert population_margin(triangle, ("X",)).n == 2
    with pytest.raises(ValueError):
        population_margin(triangle, ())


def test_population_margin_refuses_a_wide_table_without_building_it(monkeypatch):
    # Y and its 20 parents would be a 2^21-entry (16 MB) table; validation
    # works in 2^16 blocks and the refusal comes before any table is built.
    parents = tuple((f"p{i:02d}", 0.01) for i in range(20))
    model = StructuralModel(
        tuple(NodeEquation(name, 0.5) for name, _ in parents)
        + (NodeEquation("Y", 0.1, parents),)
    )
    monkeypatch.setattr(scm, "ENUMERATION_NODE_LIMIT", 16)
    tracemalloc.start()
    try:
        with pytest.raises(TooManyNodes, match="elimination step over 21 nodes"):
            population_margin(model, ("Y",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_validate_model_names_the_highest_bad_configuration_of_many_parents():
    # p = (parents at one) / 16 passes 1 from seventeen ones on; the error
    # names the highest configuration, all 18 parents at one.
    parents = tuple((f"p{i:02d}", 0.0625) for i in range(18))
    with pytest.raises(ProbabilityOutOfRange) as exc_info:
        StructuralModel(
            tuple(NodeEquation(name, 0.5) for name, _ in parents)
            + (NodeEquation("Y", 0.0, parents),)
        )
    assert exc_info.value.config == {name: 1 for name, _ in parents}
    assert exc_info.value.value == 1.125


def test_population_margin_einsum_label_limit():
    # 60 ancestors is past einsum's 52 axis labels, though a chain is narrow.
    chain = [NodeEquation("n0", 0.5)] + [
        NodeEquation(f"n{i}", 0.25, ((f"n{i - 1}", 0.5),)) for i in range(1, 60)
    ]
    model = StructuralModel(tuple(chain))
    assert population_margin(model, ("n40",)).n == 2
    with pytest.raises(TooManyNodes, match="einsum labels at most 52"):
        population_margin(model, ("n59",))


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


def _sample_row_by_row(model, n, seed):
    # Reference: each row from its own scalar draws, as the rng contract says.
    names = model.node_names()
    rows = []
    for i in range(n):
        row_seed = mix(seed, i)
        value = {}
        for j, eq in enumerate(model.equations):
            p = eq.intercept
            for parent, coef in eq.parents:
                p += coef * value[parent]
            value[eq.name] = int((mix(row_seed, j) >> 11) * 2.0**-53 < p)
        rows.append([value[name] for name in names])
    return np.array(rows, dtype=np.uint8).reshape(n, len(names))


@pytest.mark.budget
@settings(deadline=None)
@given(
    model=_small_models(max_nodes=8),
    n=st.integers(0, 40),
    seed=st.integers(0, 2**64 - 1),
    block=st.sampled_from([1, 7]),
)
def test_sample_in_blocks_matches_row_by_row(model, n, seed, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scm, "SAMPLE_BLOCK_ROWS", block)
        values = sample_rows(model, n, seed).values
    assert np.array_equal(values, _sample_row_by_row(model, n, seed))


@pytest.mark.budget
@settings(deadline=None)
@given(
    model=_small_models(max_nodes=8),
    seed=st.integers(0, 2**64 - 1),
    block=st.sampled_from([1, 7, "more than n"]),
    kind=st.sampled_from(["none", "a node", "keeps every row", "keeps no row"]),
    data=st.data(),
)
def test_sample_matches_aggregated_rows(model, seed, block, kind, data):
    # Blocks of one row are slow, so they get smaller samples.
    n = data.draw(st.integers(0, 300 if block == 1 else 3_000), label="n")
    selection = None
    if kind == "a node":
        node = data.draw(st.sampled_from(model.node_names()), label="node")
        selection = SelectionRule(node, data.draw(st.integers(0, 1), label="value"))
    elif kind != "none":
        # A node that is always 1, so selecting 1 keeps every row and 0 none.
        model = StructuralModel((*model.equations, NodeEquation("always", 1.0)))
        selection = SelectionRule("always", int(kind == "keeps every row"))
    rows = sample_rows(model, n, seed)
    expected = (rows if selection is None else apply_selection(rows, selection)).aggregate()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scm, "SAMPLE_BLOCK_ROWS", n + 1 if block == "more than n" else block)
        counts = sample(model, n, seed)
    if selection is not None:
        counts = apply_selection(counts, selection)
    assert counts.columns == expected.columns
    assert np.array_equal(counts.values, expected.values)
    assert counts.weights.dtype == np.float64
    assert np.array_equal(counts.weights, expected.weights)
    if kind == "keeps every row":
        assert counts.total_weight() == n
    if kind == "keeps no row":
        assert counts.n == 0


def test_sample_rejects_a_negative_size_and_an_unknown_column():
    with pytest.raises(ValueError):
        sample(fixtures.confounder_model(), -1, 1)
    counts = sample(fixtures.confounder_model(), 10, 1)
    with pytest.raises(UnknownColumn):
        apply_selection(counts, SelectionRule("missing", 1))


@pytest.mark.budget
@settings(deadline=None)
@given(
    kind=st.sampled_from(["bits", "bytes", "floats"]),
    width=st.sampled_from([0, 1, 2, 8, 9, 16, 17, 70]),
    n=st.integers(0, 200),
    pool=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_distinct_rows_matches_numpy_unique(kind, width, n, pool, seed):
    # Widths either side of 8 and 16 columns put 0/1 keys either side of
    # the 2^16 bound; 70 columns, and 9 or more byte columns, re-rank the
    # keys before they overflow.  A byte column spans its own range, from
    # one value (a constant column) to all 256, starting anywhere.  Rows
    # are drawn from a small pool so that they repeat, and half the pool
    # differs from its first row only in the last three columns, so that
    # rows still tie when their keys are re-ranked.
    generator = np.random.default_rng(seed)
    if kind == "bytes":
        spans = generator.integers(1, 257, size=width)
        lows = generator.integers(0, 257 - spans)
        distinct = (lows + generator.integers(0, spans, size=(pool, width))).astype(np.uint8)
    else:
        dtype = np.float64 if kind == "floats" else np.uint8
        distinct = (generator.random((pool, width)) < 0.5).astype(dtype)
    distinct[1::2, :-3] = distinct[0, :-3]
    table = distinct[generator.integers(0, pool, size=n)]
    configs, group = distinct_rows(table)
    expected, first, inverse = np.unique(
        table, axis=0, return_index=True, return_inverse=True
    )
    assert configs.dtype == table.dtype
    assert np.array_equal(configs, expected)
    assert np.array_equal(group, inverse.ravel())
    # The first row of each configuration, read off the inverse.
    assert np.array_equal(np.unique(group, return_index=True)[1], first)


@pytest.mark.budget
@pytest.mark.parametrize("bound", [2**16 - 1, 2**16, 2**16 + 1])
@pytest.mark.parametrize("low", [0, 7])
def test_distinct_rows_groups_keys_either_side_of_2_16(bound, low):
    # One column spanning exactly ``bound`` values next to a constant
    # column: keys up to 2^16 are grouped by bincount, larger ones by
    # np.unique, and both must agree with np.unique over the rows.
    generator = np.random.default_rng(bound + low)
    values = low + np.concatenate([[0, bound - 1], generator.integers(0, bound, 3_000)])
    table = np.column_stack([np.full(len(values), 5), values]).astype(np.uint32)
    table = table[generator.permutation(len(table))]
    configs, group = distinct_rows(table)
    expected, inverse = np.unique(table, axis=0, return_inverse=True)
    assert np.array_equal(configs, expected)
    assert np.array_equal(group, inverse.ravel())


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
    for values in ([[0, 1, 0]], [0, 1]):
        with pytest.raises(ValueError, match=r"values must be an \(n, len\(columns\)\) array"):
            Dataset(("A", "B"), values)
    with pytest.raises(ValueError, match="weights must not sum to zero"):
        Dataset(("A",), [[0], [1]], [0.0, 0.0])
    with pytest.raises(ValueError):
        Dataset(("A",), np.array([[0], [1]]), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(("A",), np.array([[0], [1]]), np.array([-1.0, 1.0]))


@pytest.mark.parametrize("values", [[[0.5, 1.0]], [[256, 1]], [[-255, 1]], [[1.7, 0.2]]])
def test_dataset_checks_values_before_casting_them(values):
    # Cast to uint8 first, these would read as [[0, 1]], [[0, 1]], [[1, 1]]
    # and [[1, 0]].
    with pytest.raises(ValueError, match="dataset values must be 0 or 1"):
        Dataset(("A", "B"), values)


def test_dataset_accepts_bool_values():
    d = Dataset(("A", "B"), np.array([[True, False], [False, False]]))
    assert d.values.dtype == np.uint8
    assert d.values.tolist() == [[1, 0], [0, 0]]


def test_dataset_rejects_weights_that_sum_past_the_largest_float():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="weights sum to more than the largest float"):
            Dataset(("A", "B"), [[0, 0], [0, 1], [1, 0], [1, 1]], [1e308, 1e308, 3.0, 1.0])


def test_dataset_without_weights_weights_every_row_one():
    d = Dataset(("A", "B"), [[0, 1], [0, 1], [1, 1]])
    assert d.weights.dtype == np.float64
    assert d.weights.tolist() == [1.0, 1.0, 1.0]
    assert Dataset(("A",), np.zeros((0, 1))).weights.shape == (0,)


@pytest.mark.parametrize("weights", [None, [1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [0.5, 0.25, 0.25]])
def test_to_csv_writes_weights_unless_every_weight_is_one(weights):
    d = Dataset(("A", "B"), [[0, 1], [1, 1], [0, 1]], weights)
    text = d.to_csv()
    unweighted = weights is None or weights == [1.0, 1.0, 1.0]
    assert text.splitlines()[0] == ("A,B" if unweighted else f"A,B,{WEIGHT_COLUMN}")
    back, compact = read_csv(text), d.aggregate()
    assert np.array_equal(back.values, compact.values)
    assert back.weights.tolist() == compact.weights.tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_weights(bad):
    # NaN passes both the sign and the zero-sum checks, so it needs its own.
    with pytest.raises(ValueError, match="weights must be finite"):
        Dataset(("a", "y"), [[0, 0], [1, 1], [0, 1], [1, 0]], [bad, 1, 2, 3])


def test_dataset_with_column_set_and_selection():
    d = sample(fixtures.confounder_model(), 100, 5)
    forced = d.with_column_set("A", 1)
    assert np.all(forced.column("A") == 1)
    assert np.array_equal(forced.column("B"), d.column("B"))
    assert np.array_equal(forced.weights, d.weights)
    kept = apply_selection(d, SelectionRule("A", 1))
    assert np.array_equal(kept.values, d.values[d.column("A") == 1])
    assert np.array_equal(kept.weights, d.weights[d.column("A") == 1])


def test_dataset_aggregate_sums_weights():
    d = sample_rows(fixtures.confounder_model(), 10_000, 9)
    compact = d.aggregate()
    assert compact.n <= 8
    assert compact.total_weight() == pytest.approx(d.n)
    # Aggregation is order independent.
    reversed_rows = Dataset(d.columns, d.values[::-1])
    other = reversed_rows.aggregate()
    assert np.array_equal(compact.values, other.values)
    assert np.allclose(compact.weights, other.weights)


@pytest.mark.parametrize("k", [1, 7, 20, 70, 130])
@pytest.mark.parametrize("weighted", [False, True])
def test_dataset_aggregate_matches_row_sort(k, weighted):
    # Reference: np.unique over whole rows.  70 columns would need 2^70
    # slots if anything were sized by the configuration count, and past 61
    # columns the rows' integer keys are re-ranked before they overflow.
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
        inverse.ravel(), weights=d.weights, minlength=configs.shape[0]
    )
    assert compact.columns == d.columns
    assert np.array_equal(compact.values, configs)
    assert np.array_equal(compact.weights, expected)


def test_csv_round_trip_unweighted_and_weighted():
    # Reading a CSV gives the counts table of its rows, bit for bit.
    d = sample_rows(fixtures.collider_model(), 500, 11)
    back = read_csv(d.to_csv())
    compact = d.aggregate()
    assert back.columns == d.columns
    assert np.array_equal(back.values, compact.values)
    assert back.weights.tolist() == compact.weights.tolist()

    weighted = enumerate_population(fixtures.collider_model())
    back = read_csv(weighted.to_csv())
    compact = weighted.aggregate()
    assert np.array_equal(back.values, compact.values)
    assert back.weights.tolist() == compact.weights.tolist()  # repr round trip


def test_from_csv_merges_lines_that_spell_one_configuration():
    # Quoted cells and CRLF line ends spell the same configuration as the
    # plain line; their rows are counted together, weights summed in row
    # order.
    back = read_csv('A,B\n0,1\n"0",1\r\n1,1\n0,"1"\n0,1\r\n')
    assert back.values.tolist() == [[0, 1], [1, 1]]
    assert back.weights.tolist() == [4.0, 1.0]
    back = read_csv('A,B,__weight\n0,1,0.1\n"0",1,0.2\r\n1,1,3\n0,"1",0.3\n')
    assert back.values.tolist() == [[0, 1], [1, 1]]
    assert back.weights.tolist() == [(0.1 + 0.2) + 0.3, 3.0]


@pytest.mark.parametrize("text", ["A,B\n", "A,B", "A,B\r\n\r\n\n", "A,B,__weight\n"])
def test_from_csv_header_only_gives_zero_configurations(text):
    back = read_csv(text)
    assert back.columns == ("A", "B")
    assert back.values.shape == (0, 2)
    assert back.weights.shape == (0,)


def test_from_csv_rejects_weights_that_sum_past_the_largest_float():
    with pytest.raises(CsvFormatError, match="weights sum to more than the largest float"):
        read_csv("A,__weight\n1,1e308\n1,1e308\n")


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
        "t,y,__weight\n1,0,0\n0,1,0\n",
        "__weight,A\n0,1\n",
    ],
)
def test_csv_malformed_inputs(text):
    with pytest.raises(CsvFormatError):
        read_csv(text)


# ---------------------------------------------------------------------------
# CSV: the block reader against the row-by-row csv module code it
# replaced, kept here as the reference.

# sha256 of the case-study scenario at n = 10^4, seed 1, and of the
# case-study population, both recorded from the row-by-row writer.
CASE_STUDY_10K_SEED1_SHA256 = (
    "eb9b7d4f07229da008f6aa0cc0ebe8425698b5f20f1ba9d27d554f8b63bee608"
)
CASE_STUDY_POPULATION_SHA256 = (
    "cd8f0a76fd20750b0373a8485bc116a509c4f3fdd01d3d773c3d95a5eff15b8f"
)


def _reference_to_csv(dataset):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # A line without a weight reads as a weight of 1.
    weighted = any(weight != 1.0 for weight in dataset.weights)
    header = list(dataset.columns)
    if weighted:
        header.append(WEIGHT_COLUMN)
    writer.writerow(header)
    for i in range(dataset.n):
        row = [str(int(v)) for v in dataset.values[i]]
        if weighted:
            row.append(repr(float(dataset.weights[i])))
        writer.writerow(row)
    return buf.getvalue()


def _reference_from_csv(text):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(0, "", "empty file") from None
    has_weights = header and header[-1] == WEIGHT_COLUMN
    columns = header[:-1] if has_weights else header
    if not columns:
        raise CsvFormatError(1, "", "no data columns")
    if WEIGHT_COLUMN in columns:
        raise CsvFormatError(1, WEIGHT_COLUMN, "the weight column must be the last column")
    for col in columns:
        if header.count(col) > 1:
            raise CsvFormatError(1, col, "duplicate column name")
    values, weights = [], []
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise CsvFormatError(row_no, "", f"expected {len(header)} cells")
        cells = row[:-1] if has_weights else row
        parsed = []
        for col, cell in zip(columns, cells):
            if cell not in ("0", "1"):
                raise CsvFormatError(row_no, col, f"value {cell!r} is not 0 or 1")
            parsed.append(int(cell))
        values.append(parsed)
        if has_weights:
            try:
                weight = float(row[-1])
            except ValueError:
                weight = math.nan
            if not (math.isfinite(weight) and weight >= 0.0):
                raise CsvFormatError(
                    row_no, WEIGHT_COLUMN,
                    f"weight {row[-1]!r} is not a finite non-negative number",
                )
            weights.append(weight)
    if weights and not sum(weights) > 0.0:
        raise CsvFormatError(row_no, WEIGHT_COLUMN, "weights sum to zero")
    array = np.array(values, dtype=np.uint8).reshape(len(values), len(columns))
    return Dataset(columns, array, np.array(weights) if has_weights else None)


def _text_mode(data):
    """``data`` as a file of these bytes opened in text mode reads:
    strict UTF-8, with universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _reference_counts(text):
    """The reference reader's rows of the text-mode decoding of ``text``'s
    UTF-8 bytes, collapsed to their counts table: what ``read_csv(text)``
    must return."""
    return _reference_from_csv(_text_mode(text.encode())).aggregate()


def _outcome(read, text):
    """What a reader makes of ``text``: its data, or its error and message."""
    try:
        d = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    return d.columns, d.values.shape, d.values.tolist(), d.weights.tolist()


def test_to_csv_matches_recorded_digests():
    path = resources.files("causalkit") / "data" / "case_study.json"
    scenario = replace(parse_scenario(path.read_text()), sample_size=10_000, seed=1)
    text = scenario_rows(scenario).to_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == CASE_STUDY_10K_SEED1_SHA256
    population = enumerate_population(fixtures.case_study_model()).to_csv()
    assert hashlib.sha256(population.encode()).hexdigest() == CASE_STUDY_POPULATION_SHA256


_REPR_SENSITIVE = [0.1, 1e-300, 5e-324, 1 / 3, 0.0, 1.0, 2.0 ** 60, 1.5e300]


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 24),
    n=st.integers(0, 50),
    weighted=st.booleans(),
    data=st.data(),
)
def test_to_csv_matches_csv_writer(k, n, weighted, data):
    bits = data.draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))
    values = np.array(bits, dtype=np.uint8).reshape(n, k)
    weights = None
    if weighted:
        weights = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from(_REPR_SENSITIVE),
                    st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False),
                ),
                min_size=n, max_size=n,
            )
        )
        if n:
            weights[0] = data.draw(st.sampled_from(_REPR_SENSITIVE[:4]))
    d = Dataset([f"x{j}" for j in range(k)], values, weights)
    text = d.to_csv()
    assert text == _reference_to_csv(d)
    # Reading back gives the counts table, bit for bit; with one row per
    # configuration the weights are the written ones (exact repr round trip).
    back = read_csv(text)
    compact = d.aggregate()
    assert back.columns == d.columns
    assert np.array_equal(back.values, compact.values)
    assert back.weights.tolist() == compact.weights.tolist()


_GOOD_ROWS = "".join("0,1\n" if i % 3 else "1,1\n" for i in range(5))


@pytest.mark.parametrize(
    "text",
    [
        # accepted variants
        "A,B\r\n0,1\r\n1,0\r\n",
        "A,B\n0,1\n\n1,0\n\n\n",
        "A,B\r\n0,1\r\n\r\n1,1\r\n",
        'A,B\n"0","1"\n1,"0"\n',
        "A,B\n0,1\n1,0",
        '"A,1",B\n0,1\n',
        '"A\nB",C\n0,1\n1,1\n',
        "A,B\n",
        "A,B",
        "A,__weight\n0,0.5\n1,0.25\n0,0.5",
        'A,__weight\r\n0,"0.5"\r\n\r\n"1",1e-300\r\n',
        "A,B,__weight\n0,1, 2\n1,1,5e-324\n0,0,0\n",
        "A,B\r0,1\r",  # read as A,B\n0,1\n
        # every text of test_csv_malformed_inputs
        "",
        "A,B\n0,1,0\n",
        "A,B\n0,2\n",
        "A,__weight\n1,zero\n",
        "A,__weight\n1,-1\n",
        "A,__weight\n1,nan\n",
        "t,t\n0,1\n",
        "__weight\n1\n",
        "t,y,__weight\n1,0,0\n0,1,0\n",
        # more malformed texts
        "t,y,__weight\r\n1,0,0\r\n0,1,0\r\n\r\n",
        "A,B\n" + _GOOD_ROWS + "1,x\n" + _GOOD_ROWS[:12],
        "A,B\n" + "0,1\n1,1\n" * 5_000 + "0\n1,1\n",
        "A,B,__weight\n" + "0,1,1\n" * 4 + "1,0,-2\n1,2,1\n",
        "A,B,__weight\n" + "0,1,1\n" * 2 + "1,0,inf\n0,1,1\n1,2,x\n",
        "A,B,__weight\n0,1,1\n1,2,x\n1,0,inf\n",
        "A,__weight\n0\n",
        "A,__weight\n0,1,1\n",
        "A,__weight\n,1\n",
        "A,__weight\n0,\n",
        "A,B\n 0,1\n",
        "A,B\n0,1,\n",
        "A,__weight\r\n1,1\r\r\n",
        # a quoted weight with a decimal comma, which the key's cut at the
        # last comma falls inside
        'A,__weight\n1,"1,5"\n0,2\n',
        'A,B,__weight\n0,1,2\n0,1,"2,5"\n',
        # each carriage return ends a line, so a run of them is blank lines
        'A,B\n"0","1"\r\r\n1,1\n',
        "A\n0\r\r\r\r\n1\n",
        "A,B\n0,1\n" + "\r" * 20 + "\n1,1\n",
        "A,__weight\n0,2\n" + "\r" * 20 + "\n1,3\r\r\n",
    ],
)
def test_from_csv_matches_reference_reader(text):
    assert _outcome(read_csv, text) == _outcome(_reference_counts, text)


def test_from_csv_reports_the_first_bad_row():
    text = "A,B\n" + _GOOD_ROWS + "1,x\n" + "0,1\n0,1\n0,1\n"  # 10 data rows
    with pytest.raises(CsvFormatError, match=r"^row 7, column 'B': value 'x' is not 0 or 1$"):
        read_csv(text)
    text = "A,B\n" + "0,1\n" * 10_000 + "0\n"
    with pytest.raises(CsvFormatError, match=r"^row 10002, column '': expected 2 cells$"):
        read_csv(text)


# Every spelling of 0 and 1 first, up to the longest ("" opens and closes
# an empty quote), then bad cells.
_DATA_CELLS = [
    "0", "1", '"0"', '"1"', '""0', '""1', "0", "1", "", "2", " 1", "1 ", "é", "1" * 40,
]
_WEIGHT_CELLS = [
    "1", "0.5", "0", '"2"', "5e-324", " 3", "-1", "nan", "inf", "x", '""', "",
    "１", "2" * 40,
]
# Header names: non-ASCII ones put the body at byte offsets that differ
# from its character offsets.
_NAMES = ["c", "é", "名前", "ß"]


@st.composite
def _csv_texts(draw):
    k = draw(st.integers(1, 3))
    weighted = draw(st.booleans())
    names = [draw(st.sampled_from(_NAMES)) + str(j) for j in range(k)]
    header = names + ([WEIGHT_COLUMN] if weighted else [])
    lines = [",".join(header)]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(0, 12))):
            if draw(st.integers(0, 9)) == 0:
                lines.append("")
                continue
            cells = [draw(st.sampled_from(_DATA_CELLS)) for _ in range(k)]
            if weighted:
                cells.append(draw(st.sampled_from(_WEIGHT_CELLS)))
            if draw(st.integers(0, 9)) == 0:
                cells = cells[:-1] if draw(st.booleans()) else cells + ["0"]
            lines.append(",".join(cells))
    else:
        # Many rows from a few keys and weights, drawn apart: lines of one
        # length repeat, one configuration comes in several spellings and
        # line ends, and one key comes with several weights.
        cell = st.one_of(st.sampled_from(_DATA_CELLS[:6]), st.sampled_from(_DATA_CELLS))
        keys = draw(st.lists(st.lists(cell, min_size=k, max_size=k), min_size=1, max_size=4))
        weights = draw(st.lists(st.sampled_from(_WEIGHT_CELLS), min_size=1, max_size=3))
        rows = st.tuples(st.sampled_from(keys), st.sampled_from(weights))
        for key, weight in draw(st.lists(rows, min_size=20, max_size=200)):
            lines.append(",".join(key + [weight] if weighted else key))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r\r\n"])) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@pytest.mark.budget
@settings(max_examples=400, deadline=None)
@given(text=_csv_texts(), parts=st.integers(2, 12))
def test_from_csv_matches_reference_on_generated_texts(text, parts):
    # No quote in these texts is left open or holds a comma or a line end,
    # so data and messages agree exactly with the reference on the
    # text-mode decoding, where \r\r\n is two line ends: in one block, and
    # in blocks of about 1/parts of the text each.
    expected = _outcome(_reference_counts, text)
    assert _outcome(read_csv, text) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scm, "CSV_BLOCK_CHARS", max(1, len(text) // parts))
        assert _outcome(read_csv, text) == expected


# The messages pinned for some of the texts below: a quote left open in a
# weight after good data cells is the weight's fault.
_OPEN_QUOTE_MESSAGES = {
    'A,B\n0,"1': r"^row 2, column '': quoted cell runs past the end of the line$",
    'A,__weight\n0,"0.5\n"\n':
        r"^row 2, column '__weight': quoted cell runs past the end of the line$",
    'A,__weight\n0,"0.5':
        r"^row 2, column '__weight': quoted cell runs past the end of the line$",
}


@pytest.mark.parametrize(
    "text",
    [
        'A,B\n0,"1\n0"\n',        # quoted line break in a 0/1 cell
        'A,B\n0,"1',               # quote still open at the end of the file
        'A,__weight\n0,"0.5\n"\n',  # quoted line break in a weight
        'A,__weight\n0,"0.5',      # weight quote still open at the end of the file
        'A,__weight\n0,"x,0.5\n1,1\n',  # open quote hiding the last comma
        "A,B\n0,\r1\n",           # a carriage return that splits a row
        "A,__weight\n0,\r1\n",
        "A,__weight\n0,1\r \n",
    ],
)
def test_from_csv_rejects_open_quotes_and_stray_carriage_returns(text):
    with pytest.raises(CsvFormatError, match=_OPEN_QUOTE_MESSAGES.get(text)):
        read_csv(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("A,B\n" + "0,1\n" * 3 + "\n" + "0,\r1\n",
         r"^row 6, column 'B': value '' is not 0 or 1$"),
        ("A,__weight\n\n" + "0,1\n1,2\n" * 3 + "1,x\n",
         r"^row 9, column '__weight': weight 'x' is not a finite non-negative number$"),
        ("é,B\n" + "0,1\r\n" * 3 + '"0",1\n1,é\n',
         r"^row 6, column 'B': value 'é' is not 0 or 1$"),
        ("A,B\n0,1\r\r\n" + "\r" * 20 + "x\n1,1\n",
         r"^row 24, column '': expected 2 cells$"),
    ],
)
def test_from_csv_names_the_first_bad_row_after_repeated_lines(text, message):
    # Each distinct line is checked once, in order of first appearance, so
    # repeats and blank lines before a bad line leave its row number as a
    # row-by-row reader gives it.
    with pytest.raises(CsvFormatError, match=message):
        read_csv(text)


def _count_parsed_lines(monkeypatch):
    """Record the lines handed to the reader's one parse point and the
    errors it builds for bad lines."""
    parsed: list = []
    errors: list = []
    parse, error = scm._parse_lines, scm._line_error

    def counted_parse(lines, *args):
        parsed.extend(lines)
        return parse(lines, *args)

    def counted_error(row_no, line, *args):
        errors.append(line)
        return error(row_no, line, *args)

    monkeypatch.setattr(scm, "_parse_lines", counted_parse)
    monkeypatch.setattr(scm, "_line_error", counted_error)
    return parsed, errors


def test_from_csv_reads_each_distinct_line_once(monkeypatch):
    parsed, errors = _count_parsed_lines(monkeypatch)
    back = read_csv("A,B,__weight\n" + "0,1,2\n1,1,0.5\r\n0,1,3\n" * 1_000)
    assert back.values.tolist() == [[0, 1], [1, 1]]
    assert back.weights.tolist() == [5_000.0, 500.0]
    assert parsed == ["0,1,2", "1,1,0.5", "0,1,3"]  # once per distinct line
    assert errors == []
    parsed.clear()
    with pytest.raises(CsvFormatError, match=r"^row 3002, column 'B': value '2'"):
        read_csv("A,B\n" + "0,1\n1,0\n" * 1_500 + "1,2\n")
    assert parsed == ["0,1", "1,0", "1,2"]
    assert errors == ["1,2"]  # only the first bad line


@pytest.mark.parametrize("weighted", [False, True])
def test_from_csv_reads_keys_of_the_longest_valid_spelling(weighted):
    # ""0 is the longest spelling of a cell, so a key of k such cells and
    # their commas is as long as a valid key can be; the carriage returns
    # after it, however many, end the line.  A key with one more byte is
    # bad, and no line after it is read.
    weight = ",2" if weighted else ""
    header = "A,B,__weight\n" if weighted else "A,B\n"
    text = (
        header + f'""0,""1{weight}\r\n' * 3 + f'""0,""1{weight}\r\r\r\n'
        + f"0,1{weight}\n"
    )
    back = read_csv(text)
    assert back.values.tolist() == [[0, 1]]
    assert back.weights.tolist() == [10.0 if weighted else 5.0]
    for end in ["\n", "\r\r\n"]:
        text = header + f"0,1{weight}\n" + f'""0, ""1{weight}{end}' + f"0,x{weight}\n" * 3
        with pytest.raises(
            CsvFormatError, match=r"^row 3, column 'B': value ' \"\"1' is not 0 or 1$"
        ):
            read_csv(text)


# ---------------------------------------------------------------------------
# CSV: the reader's blocks.  Dataset.from_csv reads CSV_BLOCK_CHARS
# bytes of body at a time; these tests shrink the blocks to a few
# lines so that block boundaries fall everywhere.


def _in_blocks(text, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scm, "CSV_BLOCK_CHARS", block)
        return _outcome(read_csv, text)


@pytest.mark.budget
def test_csv_blocks_name_the_first_bad_row_in_a_later_block():
    good = "0,1\n1,1\n\n" * 40
    for bad, message in [
        ("1,x\n", r"^row 124, column 'B': value 'x' is not 0 or 1$"),
        ("0\n", r"^row 124, column '': expected 2 cells$"),
        ("0,\r1\n", r"^row 124, column 'B': value '' is not 0 or 1$"),
    ]:
        text = "A,B\n" + good + "1,1\n0,1\n" + bad + good
        with pytest.raises(CsvFormatError, match=message):
            read_csv(text)
        expected = _outcome(read_csv, text)
        for block in [1, 4, 9, 16, 50]:
            assert _in_blocks(text, block) == expected
    weighted = "A,__weight\n" + "0,1\n1,2\n" * 40 + "1,-1\n" + "0,1\n" * 10
    expected = _outcome(_reference_counts, weighted)
    assert expected[0] is CsvFormatError and "row 82, column '__weight'" in expected[1]
    for block in [1, 6, 16, 50, 2**20]:
        assert _in_blocks(weighted, block) == expected


@pytest.mark.budget
@pytest.mark.parametrize("end", ["\n", "\r\r\n"])
def test_csv_blocks_stop_at_a_too_long_key_in_a_later_block(end):
    # The key of row 42 is one byte longer than any valid key can be; its
    # block ends there, and no later block is read.
    text = "A,B\n" + "0,1\n" * 40 + f'""0, ""1{end}' + "0,x\n" * 20
    expected = _outcome(_reference_counts, text)
    assert expected == (
        CsvFormatError, "row 42, column 'B': value ' \"\"1' is not 0 or 1"
    )
    for block in [1, 5, 12, 40, 2**20]:
        assert _in_blocks(text, block) == expected


@pytest.mark.budget
@pytest.mark.parametrize(
    "text",
    [
        'A,B\n0,1\r\r\n"1",1\r\r\n\r\r\n0,0\r\n1,1',
        "A,B\n\n\n0,1\n\n1,0\n\n\n1,1\n\n",
        "A,B,__weight\n0,1,2\r\r\n\n1,1,0.5\r\n\r\n0,1,3",
        "A,B,__weight\n\n0,1,0.25\n0,1,0.5\r\r\n1,0,1e-300\n\n",
        "A,__weight\n0,1\n\n0,0\n\n",
    ],
)
def test_csv_blocks_cut_at_every_line_end(text):
    # Every block size up to the whole text puts a boundary next to each
    # \r\r\n end, each blank line and the missing final line break.
    expected = _outcome(_reference_counts, text)
    for block in range(1, len(text) + 1):
        assert _in_blocks(text, block) == expected


@pytest.mark.budget
def test_csv_blocks_keep_weighted_sums_bit_identical():
    # Summed in row order, 1e16 + 1 + 1 + ... stays 1e16 (its float spacing
    # is 2); a sum taken per block and then merged would not.
    rows = [("0,1", 1e16)] + [("0,1", 1.0)] * 30 + [("1,1", 0.1), ("1,1", 0.2), ("1,1", 0.3)] * 10
    text = "A,B,__weight\n" + "".join(f"{key},{weight!r}\n" for key, weight in rows)
    totals = {}
    for key, weight in rows:
        totals[key] = totals.get(key, 0.0) + weight
    expected = [totals["0,1"], totals["1,1"]]
    assert expected[0] == 1e16
    for block in [1, 7, 20, 100, 2**20]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scm, "CSV_BLOCK_CHARS", block)
            back = read_csv(text)
        assert back.values.tolist() == [[0, 1], [1, 1]]
        assert back.weights.tolist() == expected


# ---------------------------------------------------------------------------
# CSV: grid blocks.  A block of an unweighted file whose every line is k
# bare 0/1 cells is read as a byte grid (scm._read_grid); any other block
# goes to scm._read_block.


@st.composite
def _grid_texts(draw):
    """Bare 0/1 rows with LF or CRLF ends, into which a quoted cell, a
    blank line, a bad cell, a short row, a row split by semicolons or a
    missing final line break may be put; and a block size of a few
    lines."""
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.sampled_from("01"), min_size=k, max_size=k),
                         min_size=1, max_size=60))
    lines = [",".join(f"c{j}" for j in range(k))] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        cells = lines[i].split(",")
        fault = draw(st.sampled_from(["quoted", "blank", "bad", "short", "semicolons"]))
        if fault == "quoted":
            cells[0] = f'"{cells[0]}"'
        elif fault == "bad":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(["2", " 1", "é"]))
        elif fault == "short":
            cells = cells[:-1]
        separator = ";" if fault == "semicolons" else ","
        lines[i] = "" if fault == "blank" else separator.join(cells)
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if draw(st.integers(0, 3)) == 0:
        ends[-1] = ""
    block = draw(st.integers(1, 5)) * (2 * k + 1)
    return "".join(line + end for line, end in zip(lines, ends)), block


@pytest.mark.budget
@settings(deadline=None)
@given(case=_grid_texts())
def test_from_csv_reads_grid_and_other_blocks_as_the_reference(case):
    # Blocks of a few lines each, so that grid blocks and blocks that the
    # general reader takes alternate: the table, or the error and message,
    # is the row-by-row reference reader's on the text-mode decoding.
    text, block = case
    assert _in_blocks(text, block) == _outcome(_reference_counts, text)


@pytest.mark.budget
@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("k", [7, 20])
def test_from_csv_reads_bare_0_1_files_as_grids_only(monkeypatch, k, end):
    # A simulate file of the case study (k = 7 columns), and 20 columns of
    # random bits, past the 16 that one bincount code holds: every block is
    # a grid, so the general reader never runs.
    if k == 7:
        path = resources.files("causalkit") / "data" / "case_study.json"
        out = io.StringIO()
        write_csv(replace(parse_scenario(path.read_text()), sample_size=10_000, seed=1), out)
        text = out.getvalue()
    else:
        values = np.random.default_rng(0).integers(0, 2, size=(10_000, k))
        text = Dataset([f"c{j}" for j in range(k)], values).to_csv()
    assert text.count("\n") == 10_001
    text = text.replace("\n", end)
    calls = []
    original = scm._read_block
    monkeypatch.setattr(scm, "_read_block", lambda *args: calls.append(1) or original(*args))
    expected = _outcome(_reference_counts, text)
    assert _outcome(read_csv, text) == expected
    assert _in_blocks(text, 1000) == expected
    assert calls == []


# ---------------------------------------------------------------------------
# CSV: bytes.  Dataset.from_csv reads a buffer of a file's bytes as a file
# opened in text mode reads it: strict UTF-8 and universal newlines.

_BYTE_CELLS = ["0", "1", '"0"', '"1"', "é", "名前", "１", '"0\r"', '"1\n"', '"0\r\n1"', ""]


@st.composite
def _csv_bytes(draw):
    k = draw(st.integers(1, 3))
    weighted = draw(st.booleans())
    names = [draw(st.sampled_from(_NAMES)) + str(j) for j in range(k)]
    lines = [",".join(names + ([WEIGHT_COLUMN] if weighted else []))]
    cell = st.one_of(st.sampled_from(_DATA_CELLS[:4]), st.sampled_from(_BYTE_CELLS))
    for _ in range(draw(st.integers(0, 30))):
        cells = [draw(cell) for _ in range(k)]
        if weighted:
            cells.append(draw(st.sampled_from(_WEIGHT_CELLS[:6])))
        lines.append("" if draw(st.integers(0, 9)) == 0 else ",".join(cells))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + "".join(line + end for line, end in zip(lines, ends))).encode()


@pytest.mark.budget
@settings(deadline=None)
@given(data=_csv_bytes(), block=st.integers(1, 64))
def test_from_csv_reads_bytes_as_a_text_mode_file(data, block):
    # Bare carriage returns, CRLF and line breaks inside quotes, multi-byte
    # cells and a byte-order mark, in blocks of any size: the bytes read as
    # their text-mode decoding, which holds no carriage return, does in one
    # block, data or error and message alike.
    expected = _outcome(read_csv, _text_mode(data))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scm, "CSV_BLOCK_CHARS", block)
        assert _outcome(Dataset.from_csv, data) == expected


@pytest.mark.parametrize("block", [1, 10, 100, 2**20])
def test_from_csv_reports_a_bad_byte_at_its_offset_in_the_file(block):
    data = ("é,B\n" + "0,1\n1,1\r\n" * 30).encode() + b"1,\xe9x\n" + b"0,1\n" * 10
    with pytest.raises(UnicodeDecodeError) as decoded:
        data.decode()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scm, "CSV_BLOCK_CHARS", block)
        with pytest.raises(NotUtf8Text, match=r"^not UTF-8 text \(byte \d+\)$") as read:
            Dataset.from_csv(data)
        assert read.value.byte == decoded.value.start
        # A bad row before the bad byte's block is reported first.
        if block < 50:
            with pytest.raises(CsvFormatError, match=r"^row 3, column 'B': value '2'"):
                Dataset.from_csv(b"A,B\n0,1\n0,2\n" + data[5:])
        with pytest.raises(NotUtf8Text, match=r"^not UTF-8 text \(byte 2\)$"):
            Dataset.from_csv(b"A,\xffB\n0,1\n")


def test_from_csv_drops_one_leading_byte_order_mark():
    assert _outcome(read_csv, "\ufeffA,B\n0,1\n1,1\n") == _outcome(read_csv, "A,B\n0,1\n1,1\n")
    assert _outcome(read_csv, "\ufeff\ufeffA\n1\n")[0] == ("\ufeffA",)
    assert _outcome(read_csv, "\ufeff") == (CsvFormatError, "row 0, column '': empty file")


def test_from_csv_refuses_str():
    # A str has no one reading of its line ends; a file's bytes do.
    message = r"^from_csv reads a file's bytes .*, not str: pass text\.encode\(\)$"
    with pytest.raises(TypeError, match=message):
        Dataset.from_csv("A,B\n0,1\n")


@pytest.mark.skipif(scm._MADV_DONTNEED is None, reason="no MADV_DONTNEED")
def test_from_csv_releases_the_pages_it_has_read(monkeypatch):
    # A map's pages are released in order, whole pages only, each once,
    # as far as the blocks read so far reach.
    calls = []

    class Mapped(bytes):
        def madvise(self, option, start, length):
            calls.append((option, start, length))

    page = scm.mmap.PAGESIZE
    data = Mapped(b"A,B\n" + b"0,1\n1,1\n" * (3 * page // 8) + b"0,0\n")
    monkeypatch.setattr(scm, "CSV_BLOCK_CHARS", page // 3)
    back = Dataset.from_csv(data)
    assert back.weights.sum() == 3 * page // 4 + 1
    options, starts, lengths = zip(*calls)
    assert set(options) == {scm._MADV_DONTNEED}
    ends = [start + length for start, length in zip(starts, lengths)]
    assert list(starts) == [0, *ends[:-1]]
    assert all(start % page == 0 and 0 < length and length % page == 0
               for start, length in zip(starts, lengths))
    assert ends[-1] == len(data) - len(data) % page


def test_from_csv_parses_each_line_once_in_each_block_that_holds_it(monkeypatch):
    # Blocks pass each other nothing but the configurations and their
    # totals: a line that repeats across blocks is parsed again in each
    # block that holds it, once however often it appears there, and the
    # table is the one that a single block gives.
    data = b"A,B\n" + b'"0",1\n1,1\n\n"0",1\n' * 30 + b"0,1\r\n"
    expected = Dataset.from_csv(data)
    blocks = []
    read_block = scm._read_block
    monkeypatch.setattr(
        scm, "_read_block", lambda raw, *args: blocks.append(raw) or read_block(raw, *args)
    )
    parsed, _ = _count_parsed_lines(monkeypatch)
    monkeypatch.setattr(scm, "CSV_BLOCK_CHARS", 24)
    back = Dataset.from_csv(data)
    lines = [raw.decode().split("\n")[:-1] for raw in blocks]
    assert parsed == [line for block in lines for line in dict.fromkeys(block)]
    assert sum(block.count('"0",1') > 1 for block in lines) > 10
    assert back.values.tolist() == expected.values.tolist() == [[0, 1], [1, 1]]
    assert back.weights.tolist() == expected.weights.tolist() == [61.0, 30.0]


def _traced_peak(function, *args):
    """The tracemalloc peak of one call, counted from the call's start."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.budget
@pytest.mark.parametrize("form", ["grid", "quoted", "weighted", "bare_cr"])
def test_from_csv_peak_memory_does_not_grow_with_the_file(form):
    # Case-study rows, 14 bytes a line as grid blocks, 16 with their first
    # cells quoted or with a weight of 1 each, and 14 with bare-CR line
    # ends, which the blocks are cut at, as the bytes estimate passes.
    # Reading holds one block of lines at a time, so four times the lines
    # take no more memory.
    data = sample_rows(fixtures.case_study_model(), 2**20, 3).to_csv().encode()
    width, end = 14, b"\n"
    if form == "quoted":
        data, width = quote_first_cells(data), 16
    elif form == "weighted":
        header, body = data.split(b"\n", 1)
        data, width = header + b",__weight\n" + body.replace(b"\n", b",1\n"), 16
    elif form == "bare_cr":
        data, end = data.replace(b"\n", b"\r"), b"\r"
    short = data[:data.index(end) + 1 + width * 2**18]
    assert short.endswith(end) and short.count(end) == 2**18 + 1
    small = _traced_peak(Dataset.from_csv, short)
    large = _traced_peak(Dataset.from_csv, data)
    assert large <= 1.25 * small
