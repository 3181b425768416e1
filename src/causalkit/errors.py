"""Exception hierarchy for causalkit.

All library errors derive from :class:`CausalKitError` so callers (and the
CLI) can catch one base class.  Graph, model, GLM and estimator errors get
their own intermediate bases.
"""


class CausalKitError(Exception):
    """Base class for all causalkit errors."""


# ---------------------------------------------------------------------------
# Graph errors


class GraphError(CausalKitError):
    pass


class DuplicateNode(GraphError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"duplicate node {node!r}")


class SelfLoop(GraphError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"self-loop on node {node!r}")


class DuplicateEdge(GraphError):
    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"duplicate edge {edge[0]!r} -> {edge[1]!r}")


class UnknownEdgeEndpoint(GraphError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"edge endpoint {node!r} is not a declared node")


class CycleDetected(GraphError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cycle detected: " + " -> ".join(self.cycle))


class UnknownNode(GraphError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"unknown node {node!r}")


class CandidateViolation(GraphError):
    def __init__(self, nodes):
        self.nodes = sorted(nodes)
        super().__init__(f"adjustment nodes outside the candidate set: {self.nodes}")


class RoleViolation(GraphError):
    pass


# ---------------------------------------------------------------------------
# Structural-model / dataset errors


class ModelError(CausalKitError):
    pass


class ProbabilityOutOfRange(ModelError):
    def __init__(self, node, config, value):
        self.node = node
        self.config = dict(config)
        self.value = value
        super().__init__(
            f"node {node!r}: success probability {value:g} outside [0, 1] "
            f"for parent configuration {self.config}"
        )


class ParentOrderViolation(ModelError):
    def __init__(self, node, parent):
        self.node = node
        self.parent = parent
        super().__init__(f"node {node!r} is declared before its parent {parent!r}")


class UnknownParent(ModelError):
    def __init__(self, node, parent):
        self.node = node
        self.parent = parent
        super().__init__(f"node {node!r} references undeclared parent {parent!r}")


class ModelInvalid(ModelError):
    pass


class SelectionInvalid(ModelInvalid, ValueError):
    """A selection rule whose node is not a string or whose value is not
    the int 0 or 1.  Also a ValueError, so callers that catch ValueError
    around a ``SelectionRule`` keep working."""


class UnknownColumn(ModelError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"unknown column {column!r}")


class TooManyNodes(ModelError):
    """An exact computation spanning more binary nodes at once than its
    limit: every node of a model to enumerate, or the widest step of an
    exact margin.  ``message`` says which; by default it is enumeration."""

    def __init__(self, count, limit, message=None):
        super().__init__(message or (
            f"cannot enumerate {2 ** count} joint configurations "
            f"({count} nodes; limit is {limit})"
        ))


class EmptySelection(ModelError):
    def __init__(self, rule):
        self.rule = rule
        super().__init__(f"selection {rule.node}={rule.value} has probability zero")


# ---------------------------------------------------------------------------
# GLM errors


class GlmError(CausalKitError):
    pass


class RankDeficient(GlmError):
    def __init__(self, rank, ncols):
        self.rank = rank
        self.ncols = ncols
        super().__init__(f"design matrix has rank {rank} < {ncols} columns")


class NoConvergence(GlmError):
    def __init__(self, iterations):
        self.iterations = iterations
        super().__init__(f"IRLS did not converge in {iterations} iterations")


class SeparationSuspected(GlmError):
    def __init__(self, term, value):
        self.term = term
        super().__init__(
            f"coefficient for {term!r} diverged to {value:.1f}; "
            "data may be separable"
        )


class WeightOverflow(GlmError):
    def __init__(self):
        super().__init__(
            "IRLS working weights are not finite; the row weights are too large to fit"
        )


class IntervalOverflow(GlmError):
    """A Wald interval whose upper end is past the largest float, as on a fit
    heading for a maximum-likelihood estimate that is not finite."""

    def __init__(self, term, se):
        self.term = term
        super().__init__(
            f"the Wald interval for {term!r} overflows (standard error {se:.4g}); "
            "the fit may have no finite maximum"
        )


class UnknownTerm(GlmError):
    def __init__(self, term):
        self.term = term
        super().__init__(f"term {term!r} not in fitted model")


# ---------------------------------------------------------------------------
# Estimator errors


class EstimatorError(CausalKitError):
    pass


class DegenerateArm(EstimatorError):
    def __init__(self, treatment, arm):
        self.arm = arm
        super().__init__(f"treatment arm {treatment}={arm} is empty")


class ZeroRiskControlArm(EstimatorError):
    def __init__(self, outcome):
        super().__init__(f"control-arm risk of {outcome!r} is zero; ratio undefined")


class PropensityAtBound(EstimatorError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"estimated propensity {value:g} is at the boundary of (0, 1)")


class InsufficientReplicates(EstimatorError):
    def __init__(self, replicates, required):
        super().__init__(
            f"{replicates} bootstrap replicates; percentile interval needs >= {required}"
        )


class InconsistentFit(EstimatorError):
    def __init__(self, fitted, crude):
        super().__init__(
            f"the log-binomial fit gives a risk ratio of {fitted:.6g} where the arm "
            f"means give {crude:.6g}; the fit is not trustworthy on these weights"
        )


class BootstrapDegenerate(EstimatorError):
    def __init__(self, failures, replicates, fraction):
        self.failures = failures
        self.replicates = replicates
        super().__init__(
            f"{failures}/{replicates} bootstrap replicates failed (> {fraction:.0%} tolerated)"
        )


# ---------------------------------------------------------------------------
# File-format / scenario errors


class FormatError(CausalKitError):
    pass


class DagSyntaxError(FormatError):
    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class SemanticError(FormatError):
    pass


class ScenarioError(FormatError):
    pass


# The four below are also ValueErrors, so callers that catch ValueError
# around a graph query, a BootstrapSpec or bootstrap_ci keep working.


class QueryError(FormatError, ValueError):
    """A graph query that names the same node in two roles (path or
    d-separation endpoints, an endpoint and a conditioned node, adjustment
    treatment, outcome and forced nodes)."""


class EndpointConditioned(QueryError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"path endpoint {node!r} may not be conditioned on")


class NotFrequencyWeighted(FormatError, ValueError):
    """Bootstrap resampling was asked of data whose weights are not counts."""

    def __init__(self):
        super().__init__(
            "bootstrap intervals (g_computation, ipw) need integer frequency "
            "weights summing to at most 2^53; these weights are not"
        )


class BootstrapSpecError(ScenarioError, ValueError):
    """A bootstrap asked for without a positive whole replicate count, an
    integer seed or a coverage level in (0, 1)."""


class CsvFormatError(FormatError):
    def __init__(self, row, column, message):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: {message}")


class NotUtf8Text(FormatError):
    """Input bytes that are not UTF-8, with the offset of the first bad byte."""

    def __init__(self, byte):
        self.byte = byte
        super().__init__(f"not UTF-8 text (byte {byte})")
