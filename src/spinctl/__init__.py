"""spinctl: time-optimal control of small spin systems.

Dense su(2)/su(3)/su(4) operator algebra, quantum brachistochrone flows on
a partitioned generator basis, closed-form time-dependent Hamiltonian
families with their unitary conjugators, an independent time-ordered
exponential oracle, and a numerical audit of every convention the closed
forms rely on.
"""
from .brachistochrone import (
    ControlSplit,
    NonFiniteStateError,
    OperatorPair,
    Trajectory,
    brachistochrone_rhs,
    canonical_split,
    integrate,
)
from .closedforms import (
    AUDITED_CONVENTIONS,
    DiracParameters,
    EigenFrame,
    UnitaryFamily,
    dirac_hamiltonian,
    epsilon_product,
    isotropic_energy,
    su2_family,
    su3_family,
    su3_gate,
    su3_hamiltonian,
    su3_propagator,
    su4_constraint_t,
    su4_eigenframe,
    su4_family,
    su4_propagator,
)
from .generators import (
    DiracOperators,
    GeneratorBasis,
    PAULI,
    assemble_dirac,
    build_basis,
    dirac_operators,
    project_coefficients,
    reconstruct,
    verify_algebra,
)
from .matrixcore import dagger, expm_unitary
from .oracle import (
    energy_variance,
    evolve_state,
    fs_speed_check,
    rotating_frame_propagator,
    schrodinger_propagator,
    time_ordered_exponential,
)
from .audit import CheckResult, catalog_ids, format_report, full_report, run_check

__version__ = "0.1.0"
