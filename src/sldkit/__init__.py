"""Symmetric logarithmic derivatives and quantum Fisher geometry.

Solves the defining equation drho = 1/2 {rho, L} for arbitrary n-level mixed
states by expanding everything on a generalized Gell-Mann basis and solving
the resulting structure-constant linear system, with a closed form at
diagonal base points, an independent spectral cross-check, and Fisher
index/tensor computation on the isospectral orbits.
"""

from .fisher import (FisherTensorResult, chart_tangents, closed_form_deviation,
                     closed_form_fisher, fisher_tensor,
                     horizontal_transversal_split_check, qfi_index)
from .lie_basis import (GeneratorBasis, StructureConstants, StructureTensor,
                        build_basis, compute_structure_constants, verify_basis)
from .oracle import qfi_eigenbasis, sld_eigenbasis
from .sld_solver import (InconsistentSystemError, KernelInconsistentError,
                         NumericalError, SLDSolution, SLDSystem, assemble,
                         closed_form, solve)
from .state_space import (DensityState, MixingWeights, TangentForm,
                          adjoint_transport, base_point, expand,
                          numeric_tangent, reconstruct,
                          tangent_from_generator, transversal_tangent)

__version__ = "0.1.0"

__all__ = [
    "GeneratorBasis", "StructureConstants", "StructureTensor",
    "build_basis", "compute_structure_constants", "verify_basis",
    "MixingWeights", "DensityState", "TangentForm",
    "base_point", "expand", "reconstruct", "adjoint_transport",
    "tangent_from_generator", "numeric_tangent", "transversal_tangent",
    "SLDSystem", "SLDSolution", "assemble", "solve", "closed_form",
    "NumericalError", "InconsistentSystemError", "KernelInconsistentError",
    "sld_eigenbasis", "qfi_eigenbasis",
    "FisherTensorResult", "qfi_index", "fisher_tensor",
    "horizontal_transversal_split_check", "chart_tangents",
    "closed_form_fisher", "closed_form_deviation",
]
