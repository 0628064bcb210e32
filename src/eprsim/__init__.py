"""Interferometric photon-number correlations for multimode bosonic states.

README's "Library overview" maps the modules. The package re-exports every
name in each module's ``__all__``, so that list is the one place a name is
made public.
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
