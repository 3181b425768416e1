"""Causal diagrams: DAG representation, path semantics and adjustment sets.

The central object is :class:`CausalDag`, an immutable directed acyclic graph
over named nodes with optional role annotations (treatment, outcome,
conditioned, latent).  Its constructor checks every structural invariant,
so a ``CausalDag`` that exists is valid and no query checks it again; the
acyclicity check comes from :mod:`graphlib`.  It also indexes the nodes:
node sets are bitmasks of node indices, each node's parents and children
among them, and queries decode names only at the API boundary.  This
module implements simple-path enumeration, the path-blocking rule,
d-separation by path enumeration and by a Bayes-ball reachability search
(each the other's check), adjustment validity with forced (selection)
nodes and the minimal adjustment-set search.

A collider on a path is opened by conditioning on it or on any of its
descendants, that is when it lies in ``z | An(z)``; any other interior node
is closed by conditioning on it.  A path is open iff every interior node is
open.  Each query builds its test once: ``z | An(z)`` per conditioning set,
one validity test per adjustment query (see :func:`is_valid_adjustment`).
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
    # Node indices, and per index the bitmasks of parents and children.
    _index: Dict[str, int] = field(init=False, compare=False, repr=False)
    _parent_masks: Tuple[int, ...] = field(init=False, compare=False, repr=False)
    _child_masks: Tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple((p, c) for p, c in self.edges))
        object.__setattr__(self, "roles", dict(self.roles))
        index = {n: i for i, n in enumerate(self.nodes)}
        size = len(self.nodes)
        parents, children = [0] * size, [0] * size
        for p, c in self.edges:
            # An edge to an undeclared node is left out; validate() rejects it.
            if p in index and c in index:
                parents[index[c]] |= 1 << index[p]
                children[index[p]] |= 1 << index[c]
        self.__dict__.update(
            _index=index,
            _parent_masks=tuple(parents),
            _child_masks=tuple(children),
        )
        self.validate()

    # -- structure queries -------------------------------------------------

    def parents(self, node: str) -> Tuple[str, ...]:
        self._require(node)
        return tuple(p for p, c in self.edges if c == node)

    def children(self, node: str) -> Tuple[str, ...]:
        self._require(node)
        return tuple(c for p, c in self.edges if p == node)

    def descendants(self, node: str) -> FrozenSet[str]:
        """All strict descendants of ``node``."""
        self._require(node)
        return self._names(_reachable(1 << self._index[node], self._child_masks))

    def ancestors(self, node: str) -> FrozenSet[str]:
        """All strict ancestors of ``node``."""
        self._require(node)
        return self._names(_reachable(1 << self._index[node], self._parent_masks))

    def role_of(self, node: str) -> str:
        return self.roles.get(node, "plain")

    def nodes_with_role(self, role: str) -> Tuple[str, ...]:
        return tuple(n for n in self.nodes if self.roles.get(n) == role)

    def _require(self, node: str) -> None:
        if node not in self._index:
            raise UnknownNode(node)

    def _mask(self, names: FrozenSet[str]) -> int:
        return sum({1 << self._index[n] for n in names})

    def _names(self, mask: int) -> FrozenSet[str]:
        return frozenset(n for i, n in enumerate(self.nodes) if mask >> i & 1)

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
        # children in edge order, so the cycle it reports follows the
        # graph's own order.
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


def _union(mask: int, masks: Tuple[int, ...]) -> int:
    """The union of ``masks[i]`` over the bits ``i`` set in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= masks[low.bit_length() - 1]
        mask ^= low
    return out


def _reachable(mask: int, links: Tuple[int, ...]) -> int:
    """The nodes reached from ``mask`` in one or more steps through
    ``links``, a graph's parent or child masks."""
    seen = 0
    while mask:
        mask = _union(mask, links) & ~seen
        seen |= mask
    return seen


@dataclass(frozen=True)
class Path:
    """A simple path with the orientation of each traversed edge.

    ``directions[i]`` is ``forward`` when the edge between ``nodes[i]`` and
    ``nodes[i+1]`` points along the walk and ``backward`` when it points
    against it.  Whether an interior node is a collider follows from the
    directions on either side of it (:func:`path_open_test`).
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

    def is_backdoor(self) -> bool:
        """True when the first step leaves the source against an arrow."""
        return self.directions[0] == BACKWARD

    def is_causal(self) -> bool:
        """True when every edge is traversed along its arrow."""
        return all(d == FORWARD for d in self.directions)

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
    found, trail, dirs, visited = [], [x], [], {x, y}
    # Neighbours are visited in name order, so paths are found in order.  A
    # walk's nodes are distinct, so its Path needs no constructor checks.
    # The stack holds one neighbour iterator per node of the trail, so a
    # path may be longer than Python's recursion limit.
    stack = [iter(neighbours[x])]
    while stack:
        for nxt, direction in stack[-1]:
            if nxt == y:
                path = object.__new__(Path)
                path.__dict__.update(nodes=(*trail, y), directions=(*dirs, direction))
                found.append(path)
            elif nxt not in visited:
                visited.add(nxt)
                trail.append(nxt)
                dirs.append(direction)
                stack.append(iter(neighbours[nxt]))
                break
        else:
            stack.pop()
            if stack:
                visited.remove(trail.pop())
                dirs.pop()
    return tuple(found)


def path_open(dag: CausalDag, path: Path, z: Iterable[str]) -> bool:
    """Apply the blocking rule to ``path`` under conditioning set ``z``.

    A chain or fork node is open iff it is not in ``z``; a collider is open
    iff it or at least one of its descendants is in ``z``.  The path is open
    iff every interior node is open.
    """
    z = frozenset(z)
    is_open = path_open_test(dag, z)
    for endpoint in (path.nodes[0], path.nodes[-1]):
        if endpoint in z:
            raise EndpointConditioned(endpoint)
    return is_open(path)


def path_open_test(dag: CausalDag, z: Iterable[str]) -> Callable[[Path], bool]:
    """The blocking rule of :func:`path_open` under ``z``, with ``z | An(z)``
    computed once; the returned test does not check the path's endpoints."""
    z = frozenset(z)
    for node in z:
        dag._require(node)
    opens = z | dag._names(_reachable(dag._mask(z), dag._parent_masks))

    def is_open(path: Path) -> bool:
        dirs = path.directions
        for node, before, after in zip(path.nodes[1:], dirs, dirs[1:]):
            if before == FORWARD and after == BACKWARD:
                if node not in opens:
                    return False
            elif node in z:
                return False
        return True

    return is_open


# ---------------------------------------------------------------------------
# d-separation, twice


def d_separated_by_paths(dag: CausalDag, x: str, y: str, z: Iterable[str]) -> bool:
    """d-separation by brute force: every simple path must be closed."""
    z = frozenset(z)
    _check_dsep_args(dag, x, y, z)
    is_open = path_open_test(dag, z)
    return not any(is_open(p) for p in enumerate_paths(dag, x, y))


def d_separated_by_reachability(
    dag: CausalDag, x: str, y: str, z: Iterable[str]
) -> bool:
    """d-separation by a linear-time Bayes-ball reachability search
    (Shachter 1998) on bitmasks of node indices; see :func:`_bayes_ball`."""
    z = frozenset(z)
    _check_dsep_args(dag, x, y, z)
    return _bayes_ball(dag._parent_masks, dag._child_masks,
                       dag._index[x], dag._index[y], dag._mask(z))


def _bayes_ball(parents, children, x: int, y: int, z: int) -> bool:
    """Whether node indices ``x`` and ``y`` are d-separated given the mask ``z``.

    Nodes reached by an edge into them ('head') and out of them ('tail') are
    one mask each, searched a level at a time.  A node not in ``z`` passes
    the search to its children, and to its parents after a tail arrival; a
    node in ``z`` passes it to its parents after a head arrival.  So a
    collider whose descendant is in ``z`` opens without an ancestor rule:
    the search goes down to that descendant, bounces, and comes back up
    through tail arrivals, which pass on to the parents."""
    head = new_head = children[x]
    tail = new_tail = parents[x]
    while new_head | new_tail:
        if (new_head | new_tail) >> y & 1:
            return False
        down = (new_head | new_tail) & ~z
        up = (new_tail & ~z) | (new_head & z)
        new_head, new_tail = _union(down, children) & ~head, _union(up, parents) & ~tail
        head, tail = head | new_head, tail | new_tail
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


def _adjustment_test(dag: CausalDag, query: AdjustmentQuery) -> Callable[[int], bool]:
    """The validity test of :func:`is_valid_adjustment` for one query, on a
    set given as a mask, which it does not check.  The treatment's
    descendants and the back-door graph's masks or the treatment-outcome
    paths are computed once, here."""
    treatment, outcome, forced = query.treatment, query.outcome, query.forced
    for node in (treatment, outcome, *sorted(forced)):
        dag._require(node)
    t, y, forced_mask = dag._index[treatment], dag._index[outcome], dag._mask(forced)
    harmful = _reachable(1 << t, dag._child_masks)
    by_paths = bool(forced_mask & harmful)
    if by_paths:
        paths = enumerate_paths(dag, treatment, outcome)
        paths = tuple((path, path.is_causal()) for path in paths)
    else:
        # The back-door graph's masks: the treatment's out-edges removed.
        parents = tuple(m & ~(1 << t) for m in dag._parent_masks)
        children = dag._child_masks[:t] + (0,) + dag._child_masks[t + 1:]

    def valid(z: int) -> bool:
        if z & harmful:
            return False
        if by_paths:
            is_open = path_open_test(dag, dag._names(z | forced_mask))
            return all(is_open(path) == causal for path, causal in paths)
        return _bayes_ball(parents, children, t, y, z | forced_mask)

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
    return valid(dag._mask(z))


def minimal_adjustment_sets(
    dag: CausalDag, query: AdjustmentQuery
) -> Tuple[FrozenSet[str], ...]:
    """All inclusion-minimal valid adjustment sets within the candidates.

    Subsets are tried as masks by size, then lexicographically, and supersets
    of a set already found are skipped; each try is one call of a validity
    test built once for the query (see :func:`is_valid_adjustment`).  The
    number of subsets still grows as 2^candidates.  Returns ``(frozenset(),)``
    when no adjustment is needed and ``()`` when no valid set exists.
    """
    valid = _adjustment_test(dag, query)
    bits = [1 << dag._index[n] for n in sorted(query.resolved_candidates(dag))]
    minimal: list = []
    for size in range(len(bits) + 1):
        for subset in combinations(bits, size):
            chosen = sum(subset)
            for found in minimal:
                if found & ~chosen == 0:
                    break
            else:
                if valid(chosen):
                    minimal.append(chosen)
    return tuple(dag._names(found) for found in minimal)


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
    # Insertion-ordered dicts used as sets, so that each membership test
    # takes constant time and the order of first mention is kept.
    nodes: dict = {}
    roles: dict = {}
    edges: dict = {}

    def declare(name, line_no, role=None):
        nodes.setdefault(name)
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
            edges[parent, child] = None
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

