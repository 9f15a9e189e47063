"""Regularized solvers for first-kind Fredholm integral equations with noisy data."""

# each module's __all__ is its public API; the package re-exports all of them
from .eigensystem import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .selection import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .synthesis import *  # noqa: F401,F403
from .variational import *  # noqa: F401,F403

__version__ = "0.1.0"
