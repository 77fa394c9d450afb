"""Distortion analysis and design of diffusive molecular communication links.

A transmitter releases signaling molecules into a 1-D diffusive medium
and a receiver at distance x_r binds them with first-order kinetics.
This package evaluates the frequency response of both stages, condenses
their in-band distortion into two scalar indices (gain spread in dB and
period-normalized delay spread), and inverts those indices into design
rules: how far the receiver may sit for given distortion budgets, and
how high a frequency band a given link can carry cleanly.  Two
independent time-domain solvers (Fourier synthesis and Crank-Nicolson
finite differences) cross-check the frequency-domain picture.

Units: micrometers, seconds, micromolar; angular frequencies in rad/s.
"""

from .systems import *
from .distortion import *
from .design import *
from .timedomain import *
from .config import *
from . import config, design, distortion, systems, timedomain

__version__ = "0.1.0"

# Each module's __all__ is its public API, re-exported here whole.
__all__ = ["__version__", *systems.__all__, *distortion.__all__,
           *design.__all__, *timedomain.__all__, *config.__all__]
