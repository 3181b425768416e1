"""Causal diagrams: DAG representation, path semantics and adjustment sets.

The central object is :class:`CausalDag`, an immutable directed acyclic graph
over named nodes with optional role annotations (treatment, outcome,
conditioned, latent).  Its constructor checks every structural invariant,
so a ``CausalDag`` that exists is valid and no query checks it again.  The
acyclicity check and the topological order come from :mod:`graphlib`.  On
top of it this module implements

* simple-path enumeration with per-edge orientation (:func:`enumerate_paths`),
* the path-blocking rule with the descendant-aware collider criterion
  (:func:`path_open`),
* d-separation, implemented twice (by exhaustive path enumeration and by a
  Bayes-ball style reachability search) so the two can be checked against
  each other (:func:`d_separated_by_paths`, :func:`d_separated_by_reachability`),
* back-door path extraction and validity of adjustment sets, including
  forced (selection) nodes (:func:`is_valid_adjustment`),
* minimal adjustment-set search (:func:`minimal_adjustment_sets`).

Adjustment validity is defined by the path rule below, applied to every
treatment-outcome path, but it is decided by one test built once per query.
When no forced node descends from the treatment, the test is one
reachability d-separation check in the graph without the treatment's
out-edges (the back-door criterion), which is exact because nothing
conditioned then lies among the treatment's descendants.  When a forced
node does, the paths are enumerated once per query and the rule is applied
to each; see :func:`is_valid_adjustment`.  Path enumeration otherwise serves
``dag paths`` and the path-based d-separation route.

A collider on a path is opened by conditioning on the collider itself or on
any of its descendants; any other interior node is closed by conditioning on
it.  A path is open iff every interior node is open.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from itertools import combinations
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Tuple

from .errors import (
    CandidateViolation,
    CycleDetected,
    DagSyntaxError,
    DuplicateEdge,
    DuplicateNode,
    EndpointConditioned,
    GraphError,
    QueryError,
    RoleViolation,
    SelfLoop,
    SemanticError,
    UnknownEdgeEndpoint,
    UnknownNode,
)

FORWARD = "forward"
BACKWARD = "backward"

ROLES = ("treatment", "outcome", "conditioned", "latent", "plain")


@dataclass(frozen=True)
class CausalDag:
    """A directed acyclic graph with named nodes and optional node roles;
    the constructor runs :meth:`validate`."""

    nodes: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]
    roles: Mapping[str, str] = field(default_factory=dict)
    # Parent and child lists per declared node in edge order, built once.
    _parents: Dict[str, Tuple[str, ...]] = field(
        init=False, compare=False, repr=False
    )
    _children: Dict[str, Tuple[str, ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple((p, c) for p, c in self.edges))
        object.__setattr__(self, "roles", dict(self.roles))
        parents: dict = {n: [] for n in self.nodes}
        children: dict = {n: [] for n in self.nodes}
        for p, c in self.edges:
            # An edge to an undeclared node is left out; validate() rejects it.
            if p in children and c in parents:
                parents[c].append(p)
                children[p].append(c)
        object.__setattr__(
            self, "_parents", {n: tuple(ps) for n, ps in parents.items()}
        )
        object.__setattr__(
            self, "_children", {n: tuple(cs) for n, cs in children.items()}
        )
        self.validate()

    # -- structure queries -------------------------------------------------

    def parents(self, node: str) -> Tuple[str, ...]:
        self._require(node)
        return self._parents[node]

    def children(self, node: str) -> Tuple[str, ...]:
        self._require(node)
        return self._children[node]

    def descendants(self, node: str) -> FrozenSet[str]:
        """All strict descendants of ``node``."""
        self._require(node)
        return _reachable((node,), self._children)

    def ancestors(self, node: str) -> FrozenSet[str]:
        """All strict ancestors of ``node``."""
        self._require(node)
        return _reachable((node,), self._parents)

    def role_of(self, node: str) -> str:
        return self.roles.get(node, "plain")

    def nodes_with_role(self, role: str) -> Tuple[str, ...]:
        return tuple(n for n in self.nodes if self.roles.get(n) == role)

    def _require(self, node: str) -> None:
        if node not in self._parents:
            raise UnknownNode(node)

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check all structural invariants, raising on the first violation.

        The constructor runs this, so every ``CausalDag`` is valid.  Raises
        :class:`DuplicateNode`, :class:`SelfLoop`, :class:`DuplicateEdge`,
        :class:`UnknownEdgeEndpoint`, :class:`CycleDetected`,
        :class:`UnknownNode` (a role on an undeclared node) or
        :class:`RoleViolation`.
        """
        seen = set()
        for n in self.nodes:
            if n in seen:
                raise DuplicateNode(n)
            seen.add(n)
        seen_edges = set()
        for p, c in self.edges:
            if p == c:
                raise SelfLoop(p)
            for endpoint in (p, c):
                if endpoint not in seen:
                    raise UnknownEdgeEndpoint(endpoint)
            if (p, c) in seen_edges:
                raise DuplicateEdge((p, c))
            seen_edges.add((p, c))
        self._check_acyclic()
        for node, role in self.roles.items():
            if node not in seen:
                raise UnknownNode(node)
            if role not in ROLES:
                raise RoleViolation(f"unknown role {role!r} for node {node!r}")
        for role in ("treatment", "outcome"):
            tagged = self.nodes_with_role(role)
            if len(tagged) > 1:
                raise RoleViolation(
                    f"at most one {role} node allowed, got {list(tagged)}"
                )

    def _sorter(self) -> TopologicalSorter:
        # graphlib visits nodes in the order they were added and a node's
        # children in edge order, so the cycle it reports and the order it
        # gives follow the graph's own order.
        sorter = TopologicalSorter()
        for node in self.nodes:
            sorter.add(node)
        for parent, child in self.edges:
            sorter.add(child, parent)
        return sorter

    def _check_acyclic(self) -> None:
        try:
            self._sorter().prepare()
        except CycleError as exc:
            # graphlib lists the cycle along the edges, first node repeated.
            raise CycleDetected(exc.args[1][:-1]) from None

    def topological_order(self) -> Tuple[str, ...]:
        return tuple(self._sorter().static_order())


def _reachable(
    starts: Iterable[str], links: Mapping[str, Tuple[str, ...]]
) -> FrozenSet[str]:
    """The nodes reached from ``starts`` in one or more steps through
    ``links``, a graph's parent or child lists."""
    seen: set = set()
    stack = list(starts)
    while stack:
        for nxt in links[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


COLLIDER = "collider"
FORK = "fork"
CHAIN = "chain"


@dataclass(frozen=True)
class Path:
    """A simple path with the orientation of each traversed edge.

    ``directions[i]`` is ``forward`` when the edge between ``nodes[i]`` and
    ``nodes[i+1]`` points along the walk and ``backward`` when it points
    against it.  Interior-node classification is derived from the adjacent
    directions rather than stored.
    """

    nodes: Tuple[str, ...]
    directions: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "directions", tuple(self.directions))
        if len(self.nodes) < 2:
            raise ValueError("a path needs at least two nodes")
        if len(self.directions) != len(self.nodes) - 1:
            raise ValueError("direction count must be node count - 1")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("path nodes must be distinct")

    def classify(self, i: int) -> str:
        """Classify interior node ``nodes[i]`` as collider, fork or chain."""
        if not 0 < i < len(self.nodes) - 1:
            raise IndexError(f"node index {i} is not interior")
        before, after = self.directions[i - 1], self.directions[i]
        if before == FORWARD and after == BACKWARD:
            return COLLIDER
        if before == BACKWARD and after == FORWARD:
            return FORK
        return CHAIN

    def is_backdoor(self) -> bool:
        """True when the first step leaves the source against an arrow."""
        return self.directions[0] == BACKWARD

    def is_causal(self) -> bool:
        """True when every edge is traversed along its arrow."""
        return all(d == FORWARD for d in self.directions)

    def reversed(self) -> "Path":
        flip = {FORWARD: BACKWARD, BACKWARD: FORWARD}
        return Path(
            tuple(reversed(self.nodes)),
            tuple(flip[d] for d in reversed(self.directions)),
        )

    def __str__(self) -> str:
        parts = [self.nodes[0]]
        for node, d in zip(self.nodes[1:], self.directions):
            parts.append(" -> " if d == FORWARD else " <- ")
            parts.append(node)
        return "".join(parts)


@dataclass(frozen=True)
class AdjustmentQuery:
    """An adjustment question: which sets block all bias between two nodes.

    ``forced`` holds nodes the data has already conditioned on by design
    (selection nodes).  The candidates an analyst may adjust for are every
    non-latent node other than the treatment, the outcome and the forced
    nodes; give a node the ``latent`` role to keep it out.
    """

    treatment: str
    outcome: str
    forced: FrozenSet[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "forced", frozenset(self.forced))
        if self.treatment == self.outcome:
            raise QueryError("treatment and outcome must differ")
        if self.forced & {self.treatment, self.outcome}:
            raise QueryError("forced nodes may not include treatment or outcome")

    def resolved_candidates(self, dag: CausalDag) -> FrozenSet[str]:
        excluded = {self.treatment, self.outcome} | self.forced
        return frozenset(
            n
            for n in dag.nodes
            if n not in excluded and dag.role_of(n) != "latent"
        )


# ---------------------------------------------------------------------------
# Path-level operations


def enumerate_paths(dag: CausalDag, x: str, y: str) -> Tuple[Path, ...]:
    """All simple paths between ``x`` and ``y``, lexicographic by node sequence."""
    dag._require(x)
    dag._require(y)
    if x == y:
        raise QueryError("path endpoints must differ")
    neighbours: dict = {n: [] for n in dag.nodes}
    for p, c in dag.edges:
        neighbours[p].append((c, FORWARD))
        neighbours[c].append((p, BACKWARD))
    for n in neighbours:
        neighbours[n].sort()
    found: list = []

    def walk(node, trail, dirs, visited):
        for nxt, direction in neighbours[node]:
            if nxt == y:
                found.append(Path(tuple(trail + [nxt]), tuple(dirs + [direction])))
            elif nxt not in visited:
                visited.add(nxt)
                walk(nxt, trail + [nxt], dirs + [direction], visited)
                visited.remove(nxt)

    walk(x, [x], [], {x, y})
    found.sort(key=lambda p: p.nodes)
    return tuple(found)


def path_open(dag: CausalDag, path: Path, z: Iterable[str]) -> bool:
    """Apply the blocking rule to ``path`` under conditioning set ``z``.

    A chain or fork node is open iff it is not in ``z``; a collider is open
    iff it or at least one of its descendants is in ``z``.  The path is open
    iff every interior node is open.
    """
    z = frozenset(z)
    for node in z:
        dag._require(node)
    for endpoint in (path.nodes[0], path.nodes[-1]):
        if endpoint in z:
            raise EndpointConditioned(endpoint)
    for i in range(1, len(path.nodes) - 1):
        node = path.nodes[i]
        if path.classify(i) == COLLIDER:
            if node not in z and not (dag.descendants(node) & z):
                return False
        elif node in z:
            return False
    return True


def backdoor_paths(dag: CausalDag, treatment: str, outcome: str) -> Tuple[Path, ...]:
    """Paths between treatment and outcome whose first edge points into treatment."""
    return tuple(
        p for p in enumerate_paths(dag, treatment, outcome) if p.is_backdoor()
    )


# ---------------------------------------------------------------------------
# d-separation, twice


def d_separated_by_paths(dag: CausalDag, x: str, y: str, z: Iterable[str]) -> bool:
    """d-separation by brute force: every simple path must be closed."""
    z = frozenset(z)
    _check_dsep_args(dag, x, y, z)
    return all(not path_open(dag, p, z) for p in enumerate_paths(dag, x, y))


def d_separated_by_reachability(
    dag: CausalDag, x: str, y: str, z: Iterable[str]
) -> bool:
    """d-separation by a linear-time Bayes-ball style reachability search.

    States are (node, arrival) pairs where arrival is 'head' when the
    traversed edge points into the node and 'tail' when it points out of it.
    A node passes head-to-tail or tail-to-anything when unconditioned, and
    head-to-head (collider) when it is in ``z`` or has a descendant in ``z``.
    """
    z = frozenset(z)
    _check_dsep_args(dag, x, y, z)
    parents, children = dag._parents, dag._children
    # Nodes with a descendant in z (or in z themselves) open as colliders.
    opens_collider = z | _reachable(z, parents)

    seen = set()
    frontier = [(c, "head") for c in children[x]] + [(p, "tail") for p in parents[x]]
    while frontier:
        state = frontier.pop()
        if state in seen:
            continue
        seen.add(state)
        node, arrival = state
        if node == y:
            return False
        via_tail = via_head = False
        if arrival == "tail":
            via_tail = via_head = node not in z
        else:
            via_tail = node not in z
            via_head = node in opens_collider
        if via_tail:
            frontier.extend((c, "head") for c in children[node])
        if via_head:
            frontier.extend((p, "tail") for p in parents[node])
    return True


def d_separated(dag: CausalDag, x: str, y: str, z: Iterable[str] = ()) -> bool:
    """Whether ``x`` and ``y`` are d-separated given ``z`` (reachability route)."""
    return d_separated_by_reachability(dag, x, y, z)


def _check_dsep_args(dag, x, y, z):
    dag._require(x)
    dag._require(y)
    for node in z:
        dag._require(node)
    if x == y:
        raise QueryError("d-separation endpoints must differ")
    if x in z or y in z:
        raise EndpointConditioned(x if x in z else y)


# ---------------------------------------------------------------------------
# Adjustment validity and minimal sets


def _adjustment_test(
    dag: CausalDag, query: AdjustmentQuery
) -> Callable[[FrozenSet[str]], bool]:
    """Build the validity test of :func:`is_valid_adjustment` for one query.

    Everything that does not depend on the adjustment set is computed here
    once: the descendants of the treatment and either the back-door graph
    or the stored treatment-outcome paths (see :func:`is_valid_adjustment`
    for which and why).  The returned callable checks nothing about its
    argument; :func:`is_valid_adjustment` checks a set given from outside.
    """
    treatment, outcome, forced = query.treatment, query.outcome, query.forced
    for node in (treatment, outcome, *sorted(forced)):
        dag._require(node)
    harmful = dag.descendants(treatment)
    by_paths = bool(forced & harmful)
    if by_paths:
        paths = tuple(
            (path, path.is_causal())
            for path in enumerate_paths(dag, treatment, outcome)
        )
    else:
        backdoor_graph = CausalDag(
            dag.nodes, tuple(e for e in dag.edges if e[0] != treatment)
        )

    def valid(z: FrozenSet[str]) -> bool:
        if z & harmful:
            return False
        conditioned = z | forced
        if by_paths:
            return all(
                path_open(dag, path, conditioned) == causal
                for path, causal in paths
            )
        return d_separated_by_reachability(
            backdoor_graph, treatment, outcome, conditioned
        )

    return valid


def is_valid_adjustment(
    dag: CausalDag, query: AdjustmentQuery, z: Iterable[str]
) -> bool:
    """Whether ``z`` (on top of forced nodes) meets Pearl's back-door
    criterion, which is sufficient for adjusting for ``z`` to identify the
    causal effect but not necessary: some sets it rejects give the effect.

    The rule: (i) no member of ``z`` descends from the treatment, (ii) every
    non-causal path between treatment and outcome is closed under
    ``z | forced`` and (iii) no fully directed causal path is closed.  Forced
    nodes are exempt from rule (i): they are facts of the data collection,
    and the question is whether some ``z`` rescues identification given them.

    The rule is decided without listing paths unless a forced node descends
    from the treatment.  When none does, nothing conditioned lies in
    ``De(T)``: every causal path is open, and every other path that leaves
    the treatment forwards meets its first collider inside ``De(T)``, where
    nothing conditioned can open it.  What remains are the back-door paths,
    exactly the treatment-outcome paths of the graph without the treatment's
    out-edges, so (ii) and (iii) reduce to one d-separation test there
    (Pearl's back-door criterion).  A forced descendant of the treatment can
    open such a collider, or close a causal path, so then the paths are
    enumerated once per query and the rule is applied to each of them.

    Raises :class:`UnknownNode`, or :class:`CandidateViolation` for a member
    of ``z`` outside the candidates, the treatment and outcome included.
    """
    valid = _adjustment_test(dag, query)
    z = frozenset(z)
    for node in z:
        dag._require(node)
    candidates = query.resolved_candidates(dag)
    if not z <= candidates:
        raise CandidateViolation(z - candidates)
    return valid(z)


def minimal_adjustment_sets(
    dag: CausalDag, query: AdjustmentQuery
) -> Tuple[FrozenSet[str], ...]:
    """All inclusion-minimal valid adjustment sets within the candidates.

    Subsets are tried by size, then lexicographically, and supersets of a
    set already found are skipped; each try is one call of a validity test
    built once for the query (one reachability search, or the rule applied
    to paths enumerated once; see :func:`is_valid_adjustment`).  The number
    of subsets still grows as 2^candidates.  Returns ``(frozenset(),)`` when
    no adjustment is needed and ``()`` when no valid set exists.
    """
    valid = _adjustment_test(dag, query)
    candidates = sorted(query.resolved_candidates(dag))
    minimal: list = []
    for size in range(len(candidates) + 1):
        for subset in combinations(candidates, size):
            chosen = frozenset(subset)
            if any(found <= chosen for found in minimal):
                continue
            if valid(chosen):
                minimal.append(chosen)
    minimal.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(minimal)


# ---------------------------------------------------------------------------
# Text format
#
# Line-based, UTF-8, '#' starts a comment.  Directives:
#   node <name>            declare a plain node (optional if it appears in an edge)
#   treatment <name>       declare a node with the given role
#   outcome <name>
#   conditioned <name>
#   latent <name>
#   edge <parent> <child>


def parse_dag_text(text: str) -> CausalDag:
    """Parse the line-based DAG format into a :class:`CausalDag`.

    A graph the constructor rejects (a cycle, a bad role) is malformed
    input here, so its :class:`GraphError` is re-raised as a
    :class:`SemanticError`.
    """
    nodes: list = []
    roles: dict = {}
    edges: list = []

    def declare(name, line_no, role=None):
        if name not in nodes:
            nodes.append(name)
        if role is not None:
            if roles.get(name, role) != role:
                raise DagSyntaxError(
                    line_no, f"node {name!r} given conflicting roles"
                )
            roles[name] = role

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        if keyword == "edge":
            if len(args) != 2:
                raise DagSyntaxError(line_no, "edge takes exactly two node names")
            parent, child = args
            if parent == child:
                raise DagSyntaxError(line_no, f"self-loop on node {parent!r}")
            declare(parent, line_no)
            declare(child, line_no)
            if (parent, child) in edges:
                raise DagSyntaxError(line_no, f"duplicate edge {parent} -> {child}")
            edges.append((parent, child))
        elif keyword in ("node", "treatment", "outcome", "conditioned", "latent"):
            if len(args) != 1:
                raise DagSyntaxError(line_no, f"{keyword} takes exactly one node name")
            declare(args[0], line_no, None if keyword == "node" else keyword)
        else:
            raise DagSyntaxError(line_no, f"unknown directive {keyword!r}")

    try:
        return CausalDag(tuple(nodes), tuple(edges), roles)
    except GraphError as exc:
        raise SemanticError(str(exc)) from exc


def serialize_dag(dag: CausalDag) -> str:
    """Canonical text for ``dag``; parsing it back yields an equal graph."""
    lines = []
    for node in dag.nodes:
        role = dag.role_of(node)
        lines.append(f"node {node}" if role == "plain" else f"{role} {node}")
    for parent, child in dag.edges:
        lines.append(f"edge {parent} {child}")
    return "\n".join(lines) + "\n"
