"""Toolkit for universal word sequences over the alphabet {a, b}.

The package decides sufficient conditions for a family of words to realize
every sequence of self-maps of an infinite set simultaneously, computes the
family's least closed submonoid with its irredundant generators, and
verifies the realization constructively by running the underlying stack
machine on an exact finite encoding of its infinite state space.  Two side
kernels, a brute-force equation solver over small full transformation
monoids and a partial-permutation orbit analyzer, serve as independent
sanity oracles.
"""

__version__ = "0.1.0"

from . import errors
from .families import (
    ALTERNATING,
    BANACH,
    BUILTIN_FAMILIES,
    SIERPINSKI,
    Literal,
    Power,
    SequenceFamily,
    explicit_family,
    family_from_json,
    family_to_json,
    instantiate,
    instantiate_many,
    load_family,
    substitute,
)
from .submonoid import (
    ClosureResult,
    GeneratorSet,
    Round,
    closure,
    cross_factors,
    factorize,
    irredundant_generators,
    member,
    repeated_factors,
)
from .conditions import (
    Decomposition,
    FamilyAnalysis,
    Verdict,
    Violation,
    analyze_family,
    check_corollary,
    check_sandwich,
    check_theorem,
    decompose,
)
from .witness import (
    BASE,
    TARGETED,
    Atom,
    SeededTarget,
    StackState,
    TableTarget,
    WitnessContext,
    WitnessReport,
    eval_hom,
    sample_states,
    seeded_targets,
    step,
    verify_witness,
)
from .equations import evaluate, solve
from .actions import (
    PartialPerm,
    block_equivalent,
    blocks,
    compose,
    invert,
    lift,
    partial_perm,
)
