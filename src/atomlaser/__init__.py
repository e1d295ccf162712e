"""Non-Markovian output-coupling dynamics of pulsed and cw atom lasers.

The package splits along the physics:

* model: trap parameters, the reservoir correlation, the Markov constants
* quad: uniform-grid product integration (running, convolution)
* volterra: exact single-atom amplitude via the memory integro-differential equation
* tcl: perturbative time-local decay rates, order 2/4/6, by the series route
* cw: pumped two-mode number dynamics with the time-dependent output rate
* cli: scenario runner emitting CSV + metadata sidecars

Import each name from the module that defines it
(`from atomlaser.model import TrapParams`); the package itself holds only the
error types, so `import atomlaser` loads neither numpy nor scipy.
"""

from .errors import (  # noqa: F401
    ConfigError,
    DomainError,
    GeneratorError,
    GridError,
    NumericalFailure,
    ParameterError,
)

__version__ = "0.1.0"
