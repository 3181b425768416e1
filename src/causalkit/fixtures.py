"""Built-in graphs and structural models used by the CLI, docs and tests.

The case-study model simulates childcare attendance and school conduct
problems with five upstream variables; it is a no-effect model (the outcome
equation has no treatment term), so its true causal risk ratio is exactly
one and any estimate away from one measures estimator bias.  The analysis
graph nevertheless carries the treatment -> outcome arrow, because the
analyst does not get to assume the answer.

The three small triples (confounder, mediator, collider) are the classic
building blocks, with coefficients chosen to make the biases large.
"""

from __future__ import annotations

from .dag import CausalDag
from .scm import NodeEquation, StructuralModel

# Case-study node names.
GENETIC = "genetic_effect"
EDUCATION = "parent_education"
INTERACTION = "carer_interaction"
CONDUCT_ENTRY = "conduct_entry"
CHILDCARE = "childcare"
PLAYGROUP = "weekend_playgroup"
CONDUCT_SCHOOL = "conduct_school"


def case_study_model() -> StructuralModel:
    """The seven-node no-effect childcare model."""
    return StructuralModel(
        (
            NodeEquation(GENETIC, 0.1),
            NodeEquation(EDUCATION, 0.9),
            NodeEquation(INTERACTION, 0.1, ((EDUCATION, 0.85),)),
            NodeEquation(
                CONDUCT_ENTRY,
                0.65,
                ((EDUCATION, -0.3), (INTERACTION, -0.3), (GENETIC, 0.3)),
            ),
            NodeEquation(CHILDCARE, 0.25, ((CONDUCT_ENTRY, 0.5),)),
            NodeEquation(PLAYGROUP, 0.1, ((CHILDCARE, 0.34), (EDUCATION, 0.54))),
            NodeEquation(
                CONDUCT_SCHOOL,
                0.65,
                ((EDUCATION, -0.3), (CONDUCT_ENTRY, 0.3), (INTERACTION, -0.3)),
            ),
        )
    )


def case_study_dag() -> CausalDag:
    """The analysis graph for the case study: the model's graph with the
    assumed childcare -> conduct_school arrow."""
    return case_study_model().to_dag(
        roles={CHILDCARE: "treatment", CONDUCT_SCHOOL: "outcome"},
        analysis_edge=(CHILDCARE, CONDUCT_SCHOOL),
    )


# ---------------------------------------------------------------------------
# Building-block triples (shared by the small-graph demos and the estimator
# bias experiments)


def confounder_model() -> StructuralModel:
    return StructuralModel(
        (
            NodeEquation("C", 0.5),
            NodeEquation("A", 0.25, (("C", 0.5),)),
            NodeEquation("B", 0.25, (("C", 0.5),)),
        )
    )


def mediator_model() -> StructuralModel:
    return StructuralModel(
        (
            NodeEquation("A", 0.5),
            NodeEquation("C", 0.25, (("A", 0.5),)),
            NodeEquation("B", 0.25, (("C", 0.5),)),
        )
    )


def collider_model() -> StructuralModel:
    return StructuralModel(
        (
            NodeEquation("A", 0.1),
            NodeEquation("B", 0.1),
            NodeEquation("C", 0.15, (("A", 0.4), ("B", 0.4))),
        )
    )


def fork_dag() -> CausalDag:
    return CausalDag(("A", "B", "C"), (("C", "A"), ("C", "B")))


def collider_dag() -> CausalDag:
    return CausalDag(("A", "B", "C"), (("A", "C"), ("B", "C")))


def chain_dag() -> CausalDag:
    return CausalDag(("A", "B", "C"), (("A", "C"), ("C", "B")))


def disconnected_pair_dag() -> CausalDag:
    return CausalDag(("A", "B"), ())


def single_edge_dag() -> CausalDag:
    return CausalDag(("A", "B"), (("A", "B"),))


def structural_quality_dag() -> CausalDag:
    """Confounding demo: centre finances drive both structural quality and,
    via process quality, child development."""
    return CausalDag(
        ("finances", "structural_quality", "process_quality", "development"),
        (
            ("finances", "structural_quality"),
            ("finances", "process_quality"),
            ("process_quality", "development"),
        ),
        {"structural_quality": "treatment", "development": "outcome"},
    )

