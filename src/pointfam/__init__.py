"""Exact solutions for the four-parameter family of point interactions in 1D.

Bound-state spectra, transmission/reflection amplitudes, N-body bound
states, and the three-body no-diffraction test, each backed by
independent first-principles oracles.
"""

__version__ = "0.1.0"

from .core import (
    InteractionParams,
    boundary_matrix,
    canonical_interaction,
    params_from_dict,
    validate_params,
)
from .diffraction import (
    DiffractionReport,
    RayKinematics,
    no_diffraction_scan,
    outgoing_amplitudes,
    ray_kinematics,
)
from .many_body import (
    NBodyBoundState,
    eval_nbody_wavefunction,
    mcguire_reference,
    nbody_bound_states,
    symmetry_class,
)
from .one_body import (
    BoundState,
    bound_spectrum,
    orthogonality_sum,
    phase_diagram_count,
)
from .scattering import ScatteringAmplitudes, amplitudes, unitarity_defect
from .verify import (
    ResidualReport,
    boundary_residual_nbody,
    interior_residual,
    oracle_bound_kappas,
    scattering_matching_oracle,
)

__all__ = [
    "BoundState",
    "DiffractionReport",
    "InteractionParams",
    "NBodyBoundState",
    "RayKinematics",
    "ResidualReport",
    "ScatteringAmplitudes",
    "amplitudes",
    "boundary_matrix",
    "boundary_residual_nbody",
    "bound_spectrum",
    "canonical_interaction",
    "eval_nbody_wavefunction",
    "interior_residual",
    "mcguire_reference",
    "nbody_bound_states",
    "no_diffraction_scan",
    "oracle_bound_kappas",
    "orthogonality_sum",
    "outgoing_amplitudes",
    "params_from_dict",
    "phase_diagram_count",
    "ray_kinematics",
    "scattering_matching_oracle",
    "symmetry_class",
    "unitarity_defect",
    "validate_params",
]
