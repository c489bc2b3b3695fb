"""Weighted composition operators between the Lipschitz space and the
bounded functions on rooted trees, computed on finite truncations and
cross-checked by brute-force extremal oracles.

Each module's ``__all__`` is the public API; the package re-exports them
all.
"""

from .certificate import *
from .classify import *
from .functions import *
from .io import *
from .operators import *
from .oracle import *
from .trees import *

__version__ = "0.1.0"
