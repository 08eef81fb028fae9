"""Exception types shared across the package."""

from __future__ import annotations


class GraphFormatError(ValueError):
    """Malformed graph6 / edge-list / assignment input."""


class SizeGuardExceeded(ValueError):
    """An exact routine was asked to run above its documented size guard."""


class NotInClass(Exception):
    """Input graph is outside the required hereditary class.

    Carries the forbidden-pattern witness that certifies the violation.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"induced {witness.pattern} on vertices {' '.join(map(str, witness.vertices))}"
        )


class UnclassifiableVertex(Exception):
    """A vertex fits no class of an anchor decomposition.

    Only possible when the input violates the hereditary-class precondition,
    so this doubles as a certificate of that violation.
    """

    def __init__(self, vertex: int, anchor_neighbors):
        self.vertex = vertex
        self.anchor_neighbors = tuple(sorted(anchor_neighbors))
        super().__init__(
            f"vertex {vertex} has anchor neighborhood {self.anchor_neighbors}, "
            "which matches no decomposition class"
        )


class InternalCaseFailure(Exception):
    """A case branch emitted a non-coloring or no branch matched.

    Never expected on valid input; signals an implementation bug or a
    violated precondition.
    """

    def __init__(self, case: str, detail: str, vertices=()):
        self.case = case
        self.detail = detail
        self.vertices = tuple(vertices)
        msg = f"[{case}] {detail}"
        if self.vertices:
            msg += f" (vertices {self.vertices})"
        super().__init__(msg)


class ChordalityViolation(Exception):
    """A subgraph that must be chordal is not."""

    def __init__(self, detail: str, violation=None):
        self.violation = violation
        super().__init__(detail if violation is None else f"{detail}: {violation}")


class GenerationError(Exception):
    """Instance generation failed: a retry budget ran out, or a start graph
    or construction does not fit the requested class or size."""


class ReinsertionConflict(Exception):
    """Replaying a reduction trace produced an improper color (trace corruption)."""
