"""Floquet dynamics of the driven two-level system.

Four mutually cross-validating routes: exact truncated Floquet
diagonalization, direct time integration, the self-consistent
rotating-wave analytic solution, and the perturbative effective
two-level reduction, plus the dissipative open-system extension.
"""

from .chrw import (
    ChrwCoefficients,
    ChrwSolution,
    SolutionCountMap,
    chrw_coefficients,
    chrw_solution,
    chrw_solutions,
    p1_chrw,
    solution_count_map,
    solve_xi,
    xi_roots,
)
from .errors import (
    AmbiguousSolutionError,
    ClusteringError,
    ContractViolationError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    InternalConsistencyError,
    MultiphotonResonanceError,
    NoSolutionError,
    RabiFloquetError,
)
from .floquet import (
    FloquetMatrix,
    FrequencyComb,
    QuasienergySpectrum,
    build_floquet_matrix_lab,
    dynamic_base,
    fold_to_even_comb,
    fold_to_zone,
    lab_parity_chain,
    p1_direct,
    p1_floquet,
    quasienergies,
)
from .gvv import (
    GvvEffective,
    build_floquet_matrix_dut,
    frame_unitary,
    gvv_effective,
    gvv_effectives,
    gvv_shifts,
)
from .model import (
    DensityMatrix,
    DriveParams,
    PureState,
    TimeSeries,
    hamiltonian_lab,
)
from .numerics import (
    BesselTable,
    EigenDecomposition,
    bessel_j,
    bessel_table,
    bessel_tables,
    count_roots,
    dominant_peaks,
    eig_hermitian,
    evolve_linear,
    evolve_ode,
    find_roots,
)
from .open_system import (
    DecayRates,
    RotatedRates,
    evolve_gvv_lindblad,
    evolve_lab_lindblad,
    rotated_rates,
)

__version__ = "0.1.0"
