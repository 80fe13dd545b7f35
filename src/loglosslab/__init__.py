"""Finite-alphabet lossy compression under logarithmic loss.

Exact small-instance solvers, a distortion-targeted alternating-minimization
solver for the rate-distortion function, the log-loss surrogate of one-shot
coding, successive-refinement constructions, and a CLI front end.  All
rates, entropies, and log losses are in nats.

Every name in a library module's ``__all__`` is importable from here;
``problemio`` and ``cli`` are not imported, so this package loads neither
PyYAML nor argparse.
"""

from . import equivalence, errors, oneshot, probability, ratedistortion, refinement
from .errors import *
from .probability import *
from .ratedistortion import *
from .oneshot import *
from .equivalence import *
from .refinement import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *probability.__all__, *ratedistortion.__all__,
           *oneshot.__all__, *equivalence.__all__, *refinement.__all__]
