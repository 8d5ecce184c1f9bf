"""Polynomial diagrams over finite sets, with a law-checking harness."""

from .errors import (
    DuplicateElement,
    IllFormedFunction,
    IllFormedMorphism,
    IllFormedPolynomial,
    IncompleteAssignment,
    NotAPullbackAround,
    NotASection,
    NotASquare,
    NotCartesian,
    NotComposable,
    NotNameable,
    OutputError,
    ParseError,
    PolyfinError,
)
from .finset import (
    Atom,
    Element,
    FinFn,
    FinSetObj,
    Pair,
    PullbackSquare,
    Sect,
    check_pullback,
    compose_fn,
    identity_fn,
    mk_finset,
    pullback,
)
from .slices import (
    DistPB,
    SliceMor,
    SliceObj,
    check_dpb_terminal,
    delta,
    delta_component,
    dist_pullback,
    induce_sections,
    pi,
    sigma,
    terminal_slice,
)
from .poly import (
    CartesianMorphism,
    Polynomial,
    SdCMorphism,
    SubdividedComposite,
    associated_polynomial,
    associator,
    compose2,
    compose_seq,
    embed_map,
    hom_project,
    hom_pullback,
    identity_poly,
    is_cartesian,
    mk_poly,
    terminal_sdc,
)
from .extension import (
    EvalTrace,
    NatComponentTrace,
    coherence_component,
    eval_mor,
    eval_obj,
    nat_component,
)
from .oracles import extend_left
from .symbolic import (
    SymPoly,
    decode,
    encode,
    eval_sym,
    eval_via_extension,
    parse_poly,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
