"""Exact distributions of weighted integer sums and their approximants.

The package computes exact laws of weighted sums of independent lattice
blocks and of Markov-Binomial counts, builds matched-moment approximants
(negative binomial, signed compound-geometric), evaluates structural
error-bound factors against measured Kolmogorov distances, and stress
tests the underlying inequalities on seeded random instances.

Each public name is listed once, in the ``__all__`` of the module that
defines it; the package exports their union.
"""

from . import approximants, bounds, checks, harness, lattice, markov, weighted
from .approximants import *  # noqa: F403
from .bounds import *  # noqa: F403
from .checks import *  # noqa: F403
from .harness import *  # noqa: F403
from .lattice import *  # noqa: F403
from .markov import *  # noqa: F403
from .weighted import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (approximants, bounds, checks, harness, lattice, markov, weighted)
    for name in module.__all__
]
