"""Symmetry-aware discovery of sparse symbolic ODEs from trajectories."""

__version__ = "0.1.0"

from .expressions import Expr, ExprSyntaxError, differentiate, evaluate, parse, to_string
from .library import (FunctionLibrary, NotInSpanError, TermKey, build_library,
                      canonicalize, from_canonical, m_theta)
from .symmetry import (DegenerateLossError, Generator, GroupElement,
                       check_infinitesimal_criterion, commutator_sensitivity,
                       loss_fgfe, loss_fgie, loss_igfe, loss_igie,
                       matrix_exponential, precompute_transforms,
                       symmetry_loss, symmetry_loss_grad)
from .constraint import (EquivariantBasis, assemble_equivariant_basis,
                         constraint_residual, materialize, unvec, vec)
from .dynamics import (Dataset, DataSpec, NoiseSpec, OdeSystem, SYSTEMS,
                       SindyModel, Trajectory, estimate_derivatives,
                       get_system, gp_smooth_series, load_dataset,
                       make_dataset, sample_initial, save_dataset, split_rng)

__all__ = [name for name in dir() if not name.startswith("_")]
