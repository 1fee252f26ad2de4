"""Exactly solvable oscillator/Coulomb dual spectra on flat and curved spaces,
their position-dependent-mass reinterpretations, and an independent
finite-difference Sturm-Liouville oracle that cross-checks every closed form.

The submodules are the API: ``models`` (the model classes, each carrying its
own closed forms), ``duality``, ``quadrature``, ``oracle``, ``kernels`` and
``cli``.  The model types are re-exported here.
"""

from .models import (
    BD,
    MM,
    CoulombLike,
    EuclideanCoulomb,
    EuclideanOscillator,
    NonlinearOscillator,
    PdmOrdering,
    QuantumNumbers,
    RadialState,
)

__version__ = "0.1.0"
