"""Photonic band structures of anisotropic honeycomb dipole lattices.

Library layout:
    lattice      geometry, reciprocal vectors, Brillouin-zone paths
    greens       free-space dyadic propagator and pairwise couplings
    latticesums  Ewald-summed Bloch lattice sums and diagnostics
    bloch        6x6 Bloch matrix assembly, band connection
    dispersion   degeneracy search, cone taxonomy, beta sweeps
    cli          command-line front end
"""

from .bloch import (
    BandSet,
    BlochMatrix,
    EigenFailure,
    IN_PLANE,
    OUT_OF_PLANE,
    assemble,
    bands_on_grid,
    bands_on_path,
    eigensolve,
    solve_k,
)
from .dispersion import (
    ConeTrajectory,
    DegeneracyReport,
    FitDegenerate,
    NoClosure,
    classify,
    classify_all,
    critical_beta,
    dos_histogram,
    find_degeneracies,
    tilt_transition_scan,
)
from .greens import (
    CouplingPair,
    ZeroDisplacement,
    coupling,
    green_quasistatic,
    green_retarded,
)
from .lattice import (
    BETA_MAX,
    BETA_MIN,
    BetaOutOfRange,
    LatticeSpec,
    ReciprocalSpec,
    UnknownLabel,
    build_lattice,
    reciprocal,
    reduce_to_bz,
    sample_path,
    solve_intracell_distance,
    standard_path,
)
from .latticesums import (
    LatticeSumRequest,
    LatticeSumResult,
    NonConvergent,
    RayleighAnomaly,
    default_splitting,
    direct_sum_quasistatic,
    ewald_sum,
    sum_diagnostics,
)

__version__ = "0.1.0"

__all__ = [
    "BETA_MAX",
    "BETA_MIN",
    "BandSet",
    "BetaOutOfRange",
    "BlochMatrix",
    "ConeTrajectory",
    "CouplingPair",
    "DegeneracyReport",
    "EigenFailure",
    "FitDegenerate",
    "IN_PLANE",
    "LatticeSpec",
    "LatticeSumRequest",
    "LatticeSumResult",
    "NoClosure",
    "NonConvergent",
    "OUT_OF_PLANE",
    "RayleighAnomaly",
    "ReciprocalSpec",
    "UnknownLabel",
    "ZeroDisplacement",
    "assemble",
    "bands_on_grid",
    "bands_on_path",
    "build_lattice",
    "classify",
    "classify_all",
    "coupling",
    "critical_beta",
    "default_splitting",
    "direct_sum_quasistatic",
    "dos_histogram",
    "eigensolve",
    "ewald_sum",
    "find_degeneracies",
    "green_quasistatic",
    "green_retarded",
    "reciprocal",
    "reduce_to_bz",
    "sample_path",
    "solve_intracell_distance",
    "solve_k",
    "standard_path",
    "sum_diagnostics",
    "tilt_transition_scan",
]
