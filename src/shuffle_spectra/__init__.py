"""Card-cyclic-to-random shuffling with relabeling.

Simulators for the CCRR shuffle and baselines, the idealized single-card
round kernel and its spectral certificates, exact mixing tables at tiny
deck sizes, and the eigenvector-statistic lower-bound experiment.
"""

__version__ = "0.1.0"

from .batch import *
from .deck import *
from .ideal import *
from .mixing import *
from .shuffles import *
from .spectral import *

__all__ = ["__version__", *batch.__all__, *deck.__all__, *ideal.__all__,
           *mixing.__all__, *shuffles.__all__, *spectral.__all__]
