"""Simulation and verification toolkit for marked Gibbs models in R^d.

Configurations carry normed marks (radii or planar paths); energies include
hard cores, non-negative pair potentials, grain-union geometry, and a
path-interaction model. Samplers are exact (rejection) where the energy sign
permits and Metropolis birth-death-move-remark otherwise, with estimators and
exactly enumerable micro-instances to verify both.
"""

__version__ = "0.1.0"

from .audits import (
    LocalStabilityReport,
    StabilityReport,
    local_stability_audit,
    stability_audit,
)
from .discrete import DiscreteInstance, kernel_compatibility_check, tv_distance
from .energy import (
    DiffusionModel,
    EnergyModel,
    HardSphereModel,
    IdealModel,
    PairPotentialModel,
    QuermassModel,
    additivity_check,
    conditional_energy,
    interaction_range,
    lj_pair,
)
from .errors import ConfigError, NumericalFailure, PreconditionError
from .estimators import (
    DlrReport,
    EntropyCurve,
    EntropyReport,
    FieldDraw,
    JStatistic,
    PartitionReport,
    dlr_residual,
    empirical_field_draw,
    j_statistic,
    partition_estimate,
    relative_entropy_estimate,
    specific_entropy_curve,
)
from .functionals import LIBRARY_VERSION, LocalFunctional, build_library
from .geometry import (
    Disc,
    euler_characteristic,
    mc_geometry_oracle,
    random_disc_system,
    raster_euler,
    union_area_perimeter,
)
from .marks import (
    LangevinSpec,
    MarkLaw,
    PathMark,
    PointMassLaw,
    TableLaw,
    TruncatedSubbotinLaw,
    UniformLaw,
    langevin_invariant_check,
    law_from_descriptor,
    super_exp_moment_estimate,
)
from .points import (
    Ball,
    Box,
    Configuration,
    MarkedPoint,
    Window,
    mark_statistic,
    mark_sup,
    restrict,
    restrict_complement,
    tame_statistic,
    window_contains,
)
from .rng import stream
from .sampler import (
    ChainResult,
    ChainState,
    ProposalMix,
    RejectionResult,
    bdm_step,
    rejection_sample,
    run_chain,
    sample_cutoff_kernel,
    sample_poisson,
)
from .tempered import (
    TemperednessReport,
    in_underline_M,
    is_tempered,
    l1,
    l_range,
    minimal_t,
    range_separation_check,
)
