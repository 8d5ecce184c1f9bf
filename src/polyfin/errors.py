"""Exception types shared across the package."""


class PolyfinError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateElement(PolyfinError):
    """A set constructor received the same element twice."""


class IllFormedFunction(PolyfinError):
    """A function's graph is not a total map into its codomain."""


class IllFormedMorphism(PolyfinError):
    """A morphism's defining triangle or square does not commute."""


class NotComposable(PolyfinError):
    """Boundary objects of two constructions do not match."""


class NotASquare(PolyfinError):
    """A would-be commuting square does not commute."""


class NotAPullbackAround(PolyfinError):
    """Candidate data is not a pullback around the given composable pair."""


class NotASection(PolyfinError):
    """A seed map is not a section of the arrow it should split."""


class IllFormedPolynomial(PolyfinError):
    """The three legs of a polynomial diagram do not share boundaries."""


class NotCartesian(PolyfinError):
    """A morphism of polynomials fails the cartesian conditions."""


class NotNameable(PolyfinError):
    """Boundary elements are not atoms, so they cannot name variables."""


class ParseError(PolyfinError):
    """Polynomial text is not in the accepted grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class OutputError(PolyfinError):
    """An output file cannot be written."""


class IncompleteAssignment(PolyfinError):
    """A numeric assignment is missing one of the input variables."""
