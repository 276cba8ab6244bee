"""N-point minimizers of hypersingular Riesz energies with external fields.

Submodules: geometry (compact sets), constants (C(s, d) table),
equilibrium (limiting density solver), fields (field catalog + design),
optimizer (projected descent), diagnostics (quality metrics), cli.

Attribute access is lazy: importing the package loads no submodule,
and so neither numpy nor scipy, until one of these names is first used.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # geometry
    "CompactSet": "geometry",
    "make_interval": "geometry",
    "make_sphere": "geometry",
    "make_torus": "geometry",
    "make_param_set": "geometry",
    "register_param_set": "geometry",
    "set_from_descriptor": "geometry",
    "covering_mesh": "geometry",
    # constants
    "RieszConstant": "constants",
    "riesz_constant": "constants",
    "m_constant": "constants",
    "zeta": "constants",
    "epstein_zeta_hex": "constants",
    # equilibrium
    "EquilibriumError": "equilibrium",
    "EquilibriumMeasure": "equilibrium",
    "solve_equilibrium": "equilibrium",
    "integrate_adaptive": "equilibrium",
    # fields
    "ExternalField": "fields",
    "DensityMap": "fields",
    "FieldDesign": "fields",
    "PerturbedDensity": "fields",
    "catalog": "fields",
    "design_field": "fields",
    "perturbed_density": "fields",
    "field_from_descriptor": "fields",
    "density_from_descriptor": "fields",
    # optimizer
    "Configuration": "optimizer",
    "OptimizerSettings": "optimizer",
    "OptimizerFailure": "optimizer",
    "MinimizeResult": "optimizer",
    "tau": "optimizer",
    "energy": "optimizer",
    "energy_gradient": "optimizer",
    "minimize": "optimizer",
    # diagnostics
    "DiagnosticsReport": "diagnostics",
    "separation": "diagnostics",
    "covering_radius": "diagnostics",
    "empirical_density": "diagnostics",
    "weak_star_error": "diagnostics",
    "build_report": "diagnostics",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'rieszfield' has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
