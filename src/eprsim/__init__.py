"""Interferometric photon-number correlations for multimode bosonic states.

Truncated-Fock simulation of two-station interference measurements:
correlation amplitudes, CHSH/Bell maxima, stochastic-field bounds,
local-oscillator coherence analysis, example states, and classical
Monte Carlo counterparts. The package re-exports every name in each
module's ``__all__``, so that list is the one place a name is made public.
"""

from .correlation import *
from .errors import *
from .fock import *
from .homodyne import *
from .inequalities import *
from .network import *
from .classical import *
from .zoo import *

__version__ = "0.1.0"
