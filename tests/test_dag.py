import itertools

import pytest
from hypothesis import given, settings, strategies as st

from causalkit import fixtures
from causalkit.dag import (
    AdjustmentQuery,
    CausalDag,
    Path,
    d_separated,
    d_separated_by_paths,
    d_separated_by_reachability,
    enumerate_paths,
    is_valid_adjustment,
    minimal_adjustment_sets,
    parse_dag_text,
    path_open,
)
from causalkit.errors import (
    CandidateViolation,
    CycleDetected,
    DagSyntaxError,
    DuplicateEdge,
    DuplicateNode,
    EndpointConditioned,
    QueryError,
    RoleViolation,
    SelfLoop,
    SemanticError,
    UnknownEdgeEndpoint,
    UnknownNode,
)

T = fixtures.CHILDCARE
Y = fixtures.CONDUCT_SCHOOL
CE = fixtures.CONDUCT_ENTRY
E = fixtures.EDUCATION
P = fixtures.PLAYGROUP


# ---------------------------------------------------------------------------
# Structure and validation


def test_parents_children_descendants_ancestors():
    dag = fixtures.chain_dag()  # A -> C -> B
    assert dag.parents("C") == ("A",)
    assert dag.children("C") == ("B",)
    assert dag.descendants("A") == frozenset({"C", "B"})
    assert dag.ancestors("B") == frozenset({"A", "C"})
    assert dag.descendants("B") == frozenset()


def test_unknown_node_raises():
    with pytest.raises(UnknownNode):
        fixtures.chain_dag().parents("missing")


@pytest.mark.parametrize(
    "nodes, edges, error",
    [
        (("A", "A"), (), DuplicateNode),
        (("A",), (("A", "A"),), SelfLoop),
        (("A", "B"), (("A", "B"), ("A", "B")), DuplicateEdge),
        (("A",), (("A", "B"),), UnknownEdgeEndpoint),
        (("A", "B"), (("A", "B"), ("B", "A")), CycleDetected),
    ],
)
def test_validate_rejects_malformed_graphs(nodes, edges, error):
    # The constructor validates, so an invalid graph cannot be built.
    with pytest.raises(error):
        CausalDag(nodes, edges)


def test_validate_rejects_bad_roles():
    with pytest.raises(RoleViolation):
        CausalDag(("A", "B"), (("A", "B"),), {"A": "exposure"})
    with pytest.raises(RoleViolation):
        CausalDag(("A", "B"), (), {"A": "treatment", "B": "treatment"})
    with pytest.raises(UnknownNode):
        CausalDag(("A", "B"), (), {"C": "treatment"})


def test_cycle_detected_reports_the_cycle():
    with pytest.raises(CycleDetected) as exc_info:
        CausalDag(("A", "B", "C"), (("A", "B"), ("B", "C"), ("C", "A")))
    assert set(exc_info.value.cycle) == {"A", "B", "C"}


@st.composite
def _random_digraphs(draw):
    # Up to 7 nodes declared in a random order, with edges between distinct
    # nodes; half the draws keep only edges that point later in a random
    # ranking, so they are acyclic, and the others may hold cycles.
    names = [f"n{i}" for i in range(draw(st.integers(min_value=1, max_value=7)))]
    nodes = draw(st.permutations(names))
    rank = {n: i for i, n in enumerate(draw(st.permutations(names)))}
    acyclic = draw(st.booleans())
    pairs = [(a, b) for a in names for b in names
             if a != b and (rank[a] < rank[b] or not acyclic)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return tuple(nodes), tuple(edges)


@settings(max_examples=200, deadline=None)
@given(_random_digraphs())
def test_graph_walks_match_networkx(graph):
    nx = pytest.importorskip("networkx")
    nodes, edges = graph
    reference = nx.DiGraph(edges)
    reference.add_nodes_from(nodes)
    try:
        dag = CausalDag(nodes, edges)
    except CycleDetected as exc:
        # The reported cycle is real: each node has an edge to the next, and
        # the last to the first.
        cycle = exc.cycle
        assert 2 <= len(cycle) == len(set(cycle))
        assert all(reference.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        return
    assert nx.is_directed_acyclic_graph(reference)
    for node in nodes:
        assert dag.descendants(node) == nx.descendants(reference, node)
        assert dag.ancestors(node) == nx.ancestors(reference, node)


# ---------------------------------------------------------------------------
# Paths


def test_path_classification_and_repr():
    path = Path(("A", "C", "B"), ("forward", "backward"))
    assert str(path) == "A -> C <- B"
    assert not path.is_backdoor()
    assert not path.is_causal()


def test_path_rejects_malformed_inputs():
    with pytest.raises(ValueError):
        Path(("A",), ())
    with pytest.raises(ValueError):
        Path(("A", "B"), ("forward", "forward"))
    with pytest.raises(ValueError):
        Path(("A", "B", "A"), ("forward", "forward"))


def test_enumerate_paths_case_study_counts():
    dag = fixtures.case_study_dag()
    paths = enumerate_paths(dag, T, Y)
    assert len(paths) == 11
    assert [p.nodes for p in paths] == sorted(p.nodes for p in paths)
    assert sum(p.is_causal() for p in paths) == 1  # only the direct edge


def test_backdoor_paths_case_study():
    dag = fixtures.case_study_dag()
    bd = [p for p in enumerate_paths(dag, T, Y) if p.is_backdoor()]
    assert len(bd) == 5
    assert all(p.is_backdoor() for p in bd)
    assert all(p.nodes[1] == CE for p in bd)  # all enter through the confounder
    assert str(bd[2]) == "childcare <- conduct_entry -> conduct_school"


def test_path_open_blocking_rules():
    dag = fixtures.case_study_dag()
    fork = Path(("A", "C", "B"), ("backward", "forward"))
    chain = Path(("A", "C", "B"), ("forward", "forward"))
    collider = Path(("A", "C", "B"), ("forward", "backward"))
    small = CausalDag(("A", "B", "C", "D"), (("A", "C"), ("B", "C"), ("C", "D")))
    assert path_open(small, fork, set()) is True
    assert path_open(small, fork, {"C"}) is False
    assert path_open(small, chain, {"C"}) is False
    assert path_open(small, collider, set()) is False
    assert path_open(small, collider, {"C"}) is True
    # A collider is also opened by conditioning on a descendant.
    assert path_open(small, collider, {"D"}) is True
    with pytest.raises(EndpointConditioned):
        path_open(small, collider, {"A"})
    del dag


def test_path_open_requires_known_conditioning_nodes():
    dag = fixtures.fork_dag()
    path = enumerate_paths(dag, "A", "B")[0]
    with pytest.raises(UnknownNode):
        path_open(dag, path, {"missing"})


# ---------------------------------------------------------------------------
# d-separation


def test_dsep_building_blocks():
    fork = fixtures.fork_dag()
    assert not d_separated(fork, "A", "B", ())
    assert d_separated(fork, "A", "B", {"C"})
    collider = fixtures.collider_dag()
    assert d_separated(collider, "A", "B", ())
    assert not d_separated(collider, "A", "B", {"C"})
    chain = fixtures.chain_dag()
    assert not d_separated(chain, "A", "B", ())
    assert d_separated(chain, "A", "B", {"C"})
    assert d_separated(fixtures.disconnected_pair_dag(), "A", "B", ())


def test_dsep_collider_descendant_opens():
    dag = CausalDag(("A", "B", "C", "D"), (("A", "C"), ("B", "C"), ("C", "D")))
    assert d_separated(dag, "A", "B", ())
    assert not d_separated(dag, "A", "B", {"D"})


def test_dsep_is_symmetric_on_fixtures():
    for dag in (fixtures.single_edge_dag(), fixtures.disconnected_pair_dag(),
                fixtures.fork_dag(), fixtures.collider_dag(), fixtures.chain_dag(),
                fixtures.structural_quality_dag(), fixtures.case_study_dag(),
                fixtures.case_study_model().to_dag(),
                fixtures.confounder_model().to_dag(),
                fixtures.mediator_model().to_dag(),
                fixtures.collider_model().to_dag()):
        nodes = dag.nodes
        for x, y in itertools.combinations(nodes, 2):
            rest = [n for n in nodes if n not in (x, y)]
            for z in itertools.chain.from_iterable(
                itertools.combinations(rest, k) for k in range(len(rest) + 1)
            ):
                assert d_separated(dag, x, y, z) == d_separated(dag, y, x, z)


def test_dsep_argument_checks():
    dag = fixtures.fork_dag()
    with pytest.raises(ValueError):
        d_separated(dag, "A", "A", ())
    with pytest.raises(EndpointConditioned):
        d_separated(dag, "A", "B", {"A"})
    with pytest.raises(UnknownNode):
        d_separated(dag, "A", "B", {"missing"})


def test_same_endpoints_raise_query_error():
    # QueryError is a FormatError (exit 2) and still a ValueError.
    dag = fixtures.fork_dag()
    for query in (
        lambda: enumerate_paths(dag, "A", "A"),
        lambda: d_separated_by_paths(dag, "A", "A", ()),
        lambda: d_separated_by_reachability(dag, "A", "A", ()),
    ):
        with pytest.raises(QueryError):
            query()
    assert issubclass(QueryError, ValueError)


def test_conditioned_endpoint_raises_query_error():
    # An endpoint that is also conditioned on names one node in two roles.
    dag = fixtures.fork_dag()
    path = enumerate_paths(dag, "A", "B")[0]
    for query in (
        lambda: path_open(dag, path, {"B"}),
        lambda: d_separated_by_paths(dag, "A", "B", {"A"}),
        lambda: d_separated_by_reachability(dag, "A", "B", {"B"}),
    ):
        with pytest.raises(QueryError, match="^path endpoint '[AB]' may not be conditioned on$"):
            query()


def _random_dag(node_count, edge_bits):
    # Nodes n0..n{k-1}; only forward edges (i < j), so acyclic by construction.
    names = tuple(f"n{i}" for i in range(node_count))
    pairs = list(itertools.combinations(range(node_count), 2))
    edges = tuple(
        (names[i], names[j])
        for bit, (i, j) in enumerate(pairs)
        if (edge_bits >> bit) & 1
    )
    return CausalDag(names, edges)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=0, max_value=2**15 - 1),
    st.data(),
)
def test_dsep_implementations_agree_on_random_dags(node_count, edge_bits, data):
    dag = _random_dag(node_count, edge_bits)
    dag.validate()
    x, y = data.draw(
        st.permutations(dag.nodes).map(lambda p: (p[0], p[1]))
    )
    rest = [n for n in dag.nodes if n not in (x, y)]
    z = frozenset(data.draw(st.sets(st.sampled_from(rest))) if rest else ())
    assert d_separated_by_paths(dag, x, y, z) == d_separated_by_reachability(
        dag, x, y, z
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=0, max_value=2**28 - 1),
    st.data(),
)
def test_dsep_by_reachability_matches_networkx(node_count, edge_bits, data):
    # Half the draws condition on one strict descendant of a collider (a node
    # with two parents) and nothing else, the set that opens the collider
    # only through the ancestor rule.
    nx = pytest.importorskip("networkx")
    dag = _random_dag(node_count, edge_bits)
    graph = nx.DiGraph(dag.edges)
    graph.add_nodes_from(dag.nodes)
    x, y = data.draw(st.permutations(dag.nodes).map(lambda p: (p[0], p[1])))
    rest = [n for n in dag.nodes if n not in (x, y)]
    below_colliders = sorted(
        {d for n in dag.nodes if len(dag.parents(n)) > 1 for d in dag.descendants(n)}
        & set(rest)
    )
    if below_colliders and data.draw(st.booleans()):
        z = frozenset({data.draw(st.sampled_from(below_colliders))})
    else:
        z = frozenset(data.draw(st.sets(st.sampled_from(rest))) if rest else ())
    assert d_separated_by_reachability(dag, x, y, z) == nx.is_d_separator(
        graph, {x}, {y}, set(z)
    )


def test_dsep_monotone_in_ancestors_for_chains():
    # Conditioning on any node of a directed chain separates its endpoints.
    names = tuple("abcdef")
    edges = tuple((names[i], names[i + 1]) for i in range(len(names) - 1))
    dag = CausalDag(names, edges)
    assert not d_separated(dag, "a", "f", ())
    for mid in names[1:-1]:
        assert d_separated(dag, "a", "f", {mid})


# ---------------------------------------------------------------------------
# Adjustment sets


def test_adjustment_query_defaults_and_checks():
    dag = fixtures.case_study_dag()
    query = AdjustmentQuery(T, Y)
    assert query.resolved_candidates(dag) == frozenset(dag.nodes) - {T, Y}
    for endpoint in (T, Y):
        with pytest.raises(CandidateViolation):
            is_valid_adjustment(dag, query, {CE, endpoint})
    with pytest.raises(ValueError):
        AdjustmentQuery(T, T)
    with pytest.raises(ValueError):
        AdjustmentQuery(T, Y, forced=frozenset({T}))


def test_latent_nodes_are_not_candidates():
    dag = CausalDag(
        ("U", "A", "B"),
        (("U", "A"), ("U", "B"), ("A", "B")),
        {"U": "latent", "A": "treatment", "B": "outcome"},
    )
    query = AdjustmentQuery("A", "B")
    assert query.resolved_candidates(dag) == frozenset()
    with pytest.raises(CandidateViolation):
        is_valid_adjustment(dag, query, {"U"})
    assert minimal_adjustment_sets(dag, query) == ()


def test_is_valid_adjustment_case_study():
    dag = fixtures.case_study_dag()
    query = AdjustmentQuery(T, Y)
    assert is_valid_adjustment(dag, query, {CE})
    assert is_valid_adjustment(dag, query, {CE, E})
    assert not is_valid_adjustment(dag, query, set())
    # Descendants of the treatment are never valid adjusters.
    assert not is_valid_adjustment(dag, query, {CE, P})


def test_is_valid_adjustment_must_keep_causal_paths_open():
    # Adjusting for a pure mediator blocks the causal path: invalid.
    dag = CausalDag(
        ("A", "M", "B"), (("A", "M"), ("M", "B")),
        {"A": "treatment", "B": "outcome"},
    )
    query = AdjustmentQuery("A", "B")
    assert query.resolved_candidates(dag) == frozenset({"M"})
    assert not is_valid_adjustment(dag, query, {"M"})
    assert is_valid_adjustment(dag, query, set())


def test_minimal_adjustment_sets_case_study():
    dag = fixtures.case_study_dag()
    assert minimal_adjustment_sets(dag, AdjustmentQuery(T, Y)) == (
        frozenset({CE}),
    )
    # Under selection on the playgroup collider, the confounder alone no
    # longer suffices: parent education must be added.
    forced = AdjustmentQuery(T, Y, forced=frozenset({P}))
    assert minimal_adjustment_sets(dag, forced) == (frozenset({CE, E}),)


def test_minimal_adjustment_sets_trivial_and_empty():
    dag = fixtures.single_edge_dag()
    dag = CausalDag(dag.nodes, dag.edges, {"A": "treatment", "B": "outcome"})
    assert minimal_adjustment_sets(dag, AdjustmentQuery("A", "B")) == (
        frozenset(),
    )


def test_minimal_sets_are_minimal_and_valid():
    for dag in (fixtures.case_study_dag(), fixtures.structural_quality_dag()):
        t = dag.nodes_with_role("treatment")[0]
        y = dag.nodes_with_role("outcome")[0]
        query = AdjustmentQuery(t, y)
        for chosen in minimal_adjustment_sets(dag, query):
            assert is_valid_adjustment(dag, query, chosen)
            for node in chosen:
                assert not is_valid_adjustment(dag, query, chosen - {node})


# ---------------------------------------------------------------------------
# Text format


def test_parse_dag_text_comments_and_implicit_nodes():
    dag = parse_dag_text(
        """
        # demo graph
        edge A B   # implicit declarations
        treatment A
        outcome B
        """
    )
    assert dag.nodes == ("A", "B")
    assert dag.role_of("A") == "treatment"


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("edge A", 1),
        ("edge A A", 1),
        ("node A\nedge A B\nedge A B", 3),
        ("node A B", 1),
        ("arrow A B", 1),
        ("treatment A\noutcome A", 2),
    ],
)
def test_parse_dag_text_syntax_errors(text, line_no):
    with pytest.raises(DagSyntaxError) as exc_info:
        parse_dag_text(text)
    assert exc_info.value.line_no == line_no


def test_parse_dag_text_semantic_errors():
    with pytest.raises(SemanticError):
        parse_dag_text("edge A B\nedge B A")
    with pytest.raises(SemanticError):
        parse_dag_text("treatment A\ntreatment B")


def test_bundled_case_study_dag_file_matches_fixture():
    from importlib import resources

    text = (resources.files("causalkit") / "data" / "case_study.dag").read_text()
    assert parse_dag_text(text) == fixtures.case_study_dag()


# ---------------------------------------------------------------------------
# Adjustment search against path-based and networkx oracles


def _path_rule_valid(dag, query, z, paths):
    # The path rule as stated in is_valid_adjustment, on paths listed once.
    if z & dag.descendants(query.treatment):
        return False
    conditioned = z | query.forced
    return all(path_open(dag, p, conditioned) == p.is_causal() for p in paths)


def _minimal_from(valid_sets):
    minimal = [z for z in valid_sets if not any(v < z for v in valid_sets)]
    return tuple(sorted(minimal, key=lambda s: (len(s), sorted(s))))


def _subsets(nodes):
    nodes = sorted(nodes)
    return [
        frozenset(c)
        for size in range(len(nodes) + 1)
        for c in itertools.combinations(nodes, size)
    ]


@st.composite
def _adjustment_queries(draw, forced_descendant):
    # A random DAG on up to 9 nodes with at most 14 forward edges, a
    # treatment-outcome pair and a forced set.  forced_descendant: True adds
    # a descendant of the treatment to the forced set when one is available,
    # False keeps every descendant out, None leaves the draw as it is.
    node_count = draw(st.integers(min_value=3, max_value=9))
    names = tuple(f"n{i}" for i in range(node_count))
    pairs = list(itertools.combinations(names, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=14, unique=True))
    dag = CausalDag(names, tuple(sorted(edges)))
    t, y = draw(st.permutations(names).map(lambda p: (p[0], p[1])))
    rest = [n for n in names if n not in (t, y)]
    forced = set(draw(st.sets(st.sampled_from(rest), max_size=3)) if rest else ())
    harmful = dag.descendants(t) - {y}
    if forced_descendant is False:
        forced -= harmful
    elif forced_descendant and harmful:
        forced.add(draw(st.sampled_from(sorted(harmful))))
    return dag, AdjustmentQuery(t, y, forced=frozenset(forced))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        _adjustment_queries(forced_descendant=None),
        _adjustment_queries(forced_descendant=True),
    )
)
def test_adjustment_search_matches_path_rule(case):
    dag, query = case
    paths = enumerate_paths(dag, query.treatment, query.outcome)
    subsets = _subsets(query.resolved_candidates(dag))
    valid_sets = []
    for z in subsets:
        expected = _path_rule_valid(dag, query, z, paths)
        assert is_valid_adjustment(dag, query, z) == expected
        if expected:
            valid_sets.append(z)
    assert minimal_adjustment_sets(dag, query) == _minimal_from(valid_sets)


def test_forced_descendant_of_treatment_keeps_collider_path_rule():
    # T -> M -> Y with M -> S <- U -> Y and S forced: conditioning on S opens
    # T -> M -> S <- U -> Y, so U must be adjusted for.  The proper back-door
    # graph criterion would accept the empty set here.
    dag = CausalDag(
        ("T", "M", "Y", "S", "U"),
        (("T", "M"), ("M", "Y"), ("M", "S"), ("U", "S"), ("U", "Y")),
    )
    query = AdjustmentQuery("T", "Y", forced=frozenset({"S"}))
    assert minimal_adjustment_sets(dag, query) == (frozenset({"U"}),)
    assert not is_valid_adjustment(dag, query, set())


def _count_path_listings(monkeypatch):
    import causalkit.dag as dag_module

    calls = []
    original = dag_module.enumerate_paths

    def counting(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(dag_module, "enumerate_paths", counting)
    return calls


def test_search_lists_paths_only_for_forced_descendants(monkeypatch):
    dag = fixtures.case_study_dag()
    calls = _count_path_listings(monkeypatch)
    assert minimal_adjustment_sets(dag, AdjustmentQuery(T, Y)) == (
        frozenset({CE}),
    )
    assert calls == []
    forced = AdjustmentQuery(T, Y, forced=frozenset({P}))
    assert minimal_adjustment_sets(dag, forced) == (frozenset({CE, E}),)
    assert calls == [(T, Y)]


@settings(max_examples=100, deadline=None)
@given(_adjustment_queries(forced_descendant=False))
def test_adjustment_search_matches_networkx_backdoor(case):
    nx = pytest.importorskip("networkx")
    dag, query = case
    t, y = query.treatment, query.outcome
    graph = nx.DiGraph()
    graph.add_nodes_from(dag.nodes)
    graph.add_edges_from(dag.edges)
    harmful = nx.descendants(graph, t)
    backdoor = graph.copy()
    backdoor.remove_edges_from(list(graph.out_edges(t)))
    valid_sets = []
    for z in _subsets(query.resolved_candidates(dag)):
        expected = not (z & harmful) and nx.is_d_separator(
            backdoor, {t}, {y}, set(z | query.forced)
        )
        assert is_valid_adjustment(dag, query, z) == expected
        if expected:
            valid_sets.append(z)
    assert minimal_adjustment_sets(dag, query) == _minimal_from(valid_sets)
