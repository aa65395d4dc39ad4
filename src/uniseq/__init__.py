"""Toolkit for universal word sequences over the alphabet {a, b}.

The package decides sufficient conditions for a family of words to realize
every sequence of self-maps of an infinite set simultaneously, computes the
family's least closed submonoid with its irredundant generators, and
verifies the realization constructively by running the underlying stack
machine on an exact finite encoding of its infinite state space.  Two side
kernels, a brute-force equation solver over small full transformation
monoids and a partial-permutation orbit analyzer, serve as independent
sanity oracles.

The package namespace holds the API the README documents, listed in
``__all__``; everything else is imported from its module, such as
``uniseq.submonoid.closure`` or ``uniseq.conditions.check_corollary``.
"""

__version__ = "0.1.0"

from .conditions import analyze_family
from .families import ALTERNATING, instantiate_many, substitute
from .witness import sample_states, seeded_targets, verify_witness

__all__ = [
    "ALTERNATING",
    "analyze_family",
    "instantiate_many",
    "sample_states",
    "seeded_targets",
    "substitute",
    "verify_witness",
]
