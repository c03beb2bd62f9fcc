"""Approximate quantum cloaking toolkit.

Synthesizes layered cloaking media and gauge potentials, solves the radial
channel problems, locates interior/exterior eigenvalues and almost trapped
states, and turns channel data into scattering observables.
"""

from .errors import (
    ConfigurationError,
    DomainError,
    EigenvalueProximityRefusal,
    GeometryError,
    NearEigenvalueError,
    QcloakError,
    ResolutionError,
    SingularRegionError,
)
from .media import (
    AnisotropicRadialMedium,
    CorePotential,
    DOUBLED_CORE,
    LayeredMedium,
    PotentialShell,
    RadialPotential,
    Shell,
    UNIT_CORE,
    attach_core,
    forward_map,
    gauge_potential,
    homogenize,
    ideal_cloak_at,
    inverse_map,
    mollify_medium,
    truncate,
)
from .propagate import (
    AcousticSystem,
    ChannelSolution,
    KERNEL_BACKEND,
    default_l_max,
    propagate_acoustic,
    propagate_schrodinger,
    solve_channel,
    solve_core_channel,
)
from .special import SpecialFunctionValue, spherical_bessel

__version__ = "0.1.0"

from .observables import (  # noqa: E402
    DNSpectrum,
    PhaseShifts,
    amplitude,
    dn_spectrum,
    free_dn_spectrum,
    optical_theorem_defect,
    phase_shifts,
    plane_wave_field,
    radial_mode,
    total_cross_section,
    unwrap_phases,
)
from .spectral import (  # noqa: E402
    ResonanceReport,
    SpectralPoint,
    dirichlet_eigenvalues,
    fit_pole_exponent,
    free_dirichlet_eigenvalues,
    interior_trap_energies,
    neumann_core_eigenvalues,
    resonance_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
