"""Exact dephasing dynamics and multipartite-correlation measures for three
qubits coupled to independent thermal bosonic reservoirs."""

from .analysis import (
    CharacteristicTime,
    CurveResult,
    SweepGrid,
    TimescaleResult,
    characteristic_time,
    freezing_intervals,
    make_reservoirs,
    preservation_time_numeric,
    preservation_time_zero_t,
    run_sweep,
)
from .evolution import dephasing_factors, evolve
from .exceptions import (
    HermiticityViolation,
    MethodError,
    NoCorrelationError,
    ParameterError,
    QuadratureError,
    ShapeError,
    TridephaseError,
)
from .linalg import hermitian_eigenvalues, partial_trace, partial_transpose, purity
from .measures import (
    gmc_ghz_werner,
    gmc_pure,
    gmc_x_state,
    l1_coherence,
    negativity,
    tripartite_negativity,
)
from .reservoir import (
    ZERO_TEMPERATURE,
    CustomSpectralDensity,
    GammaMethod,
    OhmicSpectralDensity,
    ReservoirSpec,
    gamma,
    gamma_exact,
    gamma_low_t,
    gamma_zero_t,
)
from .states import ghz_state, maximally_mixed, projector, w_state, werner

__version__ = "0.1.0"

__all__ = [
    "CharacteristicTime",
    "CurveResult",
    "CustomSpectralDensity",
    "GammaMethod",
    "HermiticityViolation",
    "MethodError",
    "NoCorrelationError",
    "OhmicSpectralDensity",
    "ParameterError",
    "QuadratureError",
    "ReservoirSpec",
    "ShapeError",
    "SweepGrid",
    "TimescaleResult",
    "TridephaseError",
    "ZERO_TEMPERATURE",
    "characteristic_time",
    "dephasing_factors",
    "evolve",
    "freezing_intervals",
    "gamma",
    "gamma_exact",
    "gamma_low_t",
    "gamma_zero_t",
    "ghz_state",
    "gmc_ghz_werner",
    "gmc_pure",
    "gmc_x_state",
    "hermitian_eigenvalues",
    "l1_coherence",
    "make_reservoirs",
    "maximally_mixed",
    "negativity",
    "partial_trace",
    "partial_transpose",
    "preservation_time_numeric",
    "preservation_time_zero_t",
    "projector",
    "purity",
    "run_sweep",
    "tripartite_negativity",
    "w_state",
    "werner",
]
