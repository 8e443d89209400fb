"""Heralded phonon subtraction from a thermal mechanical state.

Fock-space statistics, s-parameterized phase-space distributions under
inefficient heterodyne readout, heralded variance dynamics, a stochastic
experiment emulator, and the photon-counting budget.  Import what you need
from its module: phonon_forge.params holds the configuration schema.
"""

__version__ = "0.1.0"
