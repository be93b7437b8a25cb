"""Direct characterization of density-matrix elements for multi-qudit systems.

The library builds measurement plans that extract individual
density-matrix elements with one coupling per qudit (the ``res``
scheme) or with the two-coupling sequential baseline (``seq``),
evaluates their exact outcome statistics, and quantifies estimation
precision under a Poisson photon-counting model with Haar-averaged
Monte Carlo.
"""

from .elements import (
    ElementIndex,
    all_offdiagonal_elements,
    completely_offdiagonal_elements,
    element_from_flat,
    precision_element_set,
)
from .errors import (
    CalibrationError,
    DimensionLimitError,
    DmresError,
    InvalidCouplingError,
    InvalidElementError,
    InvalidStateError,
    StateFormatError,
)
from .linalg import DensityMatrix, Ket, Observable, UnitaryMatrix
from .operators import (
    make_involution,
    make_subspace_hadamard,
    reflection,
)
from .plans import MeasurementSetting, ProtocolPlan, plan_document
from .prepare import PrepParams, dephase, prepare_qutrit, prepare_two_qubit
from .precision import (
    PrecisionReport,
    SystemSpec,
    default_g_grid,
    error_histogram,
    g_sweep,
    reference_comparison,
    resource_report,
)
from .res import (
    characterize,
    diagonal_element,
    extract_element,
    outcome_distribution,
    plan_res,
)
from .sampling import random_mixed_state, stream
from .scenarios import ScenarioSpec, default_spec, run_scenario
from .seq import calibrate_estimator, plan_seq, response_map
from .shots import ShotPolicy, element_variance, simulate_shots
from .stateio import read_state, write_state

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "DensityMatrix",
    "DimensionLimitError",
    "DmresError",
    "ElementIndex",
    "InvalidCouplingError",
    "InvalidElementError",
    "InvalidStateError",
    "Ket",
    "MeasurementSetting",
    "Observable",
    "PrecisionReport",
    "PrepParams",
    "ProtocolPlan",
    "ScenarioSpec",
    "ShotPolicy",
    "StateFormatError",
    "SystemSpec",
    "UnitaryMatrix",
    "all_offdiagonal_elements",
    "calibrate_estimator",
    "characterize",
    "completely_offdiagonal_elements",
    "default_g_grid",
    "default_spec",
    "dephase",
    "diagonal_element",
    "element_from_flat",
    "element_variance",
    "error_histogram",
    "extract_element",
    "g_sweep",
    "make_involution",
    "make_subspace_hadamard",
    "outcome_distribution",
    "plan_document",
    "plan_res",
    "plan_seq",
    "precision_element_set",
    "prepare_qutrit",
    "prepare_two_qubit",
    "random_mixed_state",
    "read_state",
    "reference_comparison",
    "reflection",
    "resource_report",
    "response_map",
    "run_scenario",
    "simulate_shots",
    "stream",
    "write_state",
]
