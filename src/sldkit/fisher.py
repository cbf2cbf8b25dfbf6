"""Quantum Fisher information index, Fisher tensor, and closed-form coefficients.

The scalar index along one direction is I = Tr(rho L^2).  Over several
directions the complex tensor

    F_mn = Tr(rho L_m L_n)

is Hermitian; its real part g is the symmetric (metric) component, with the
scalar index on the diagonal, and its imaginary part omega is antisymmetric
(1/2 Tr(rho {L_m, L_n}) is real symmetric; 1/2 Tr(rho [L_m, L_n]) is imaginary
antisymmetric).

At a diagonal base point each level pair (a, b) contributes an SU(2) copy of
the tensor with coefficients

    g     = 4 (k_a - k_b)^2 / (k_a + k_b)
    omega = -4 (k_a - k_b)^3 / (k_a + k_b)^2

for every n; a 0/0 pair (k_a = k_b = 0) contributes zero because the
corresponding coordinate direction collapses.

The three-level chart exponentiates the off-diagonal generators,
U(z1, z2, z3) = exp(i sum x_k t_k) with z1 = x1 + i x2 pairing levels (1,2),
z2 pairing (1,3) and z3 pairing (2,3).  At the diagonal base point the
coordinate tangents are r-weighted pair generators with gaps
r1 = k1 - k2, r2 = k1 - k3, r3 = k2 - k3, so the six-direction tensor is
block diagonal with the pair coefficients above on the blocks (1,2), (1,3),
(2,3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lie_basis import GeneratorBasis
from .sld_solver import DegenerateWeightsError, SLDSolution
from .state_space import DensityState, MixingWeights, TangentForm, _resolve_basis

_LEVEL_PAIRS = ((0, 1), (0, 2), (1, 2))
#: eigenvalue gaps at or below this collapse the three-level chart
GAP_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class FisherTensorResult:
    """Fisher tensor over a finite list of directions."""

    directions: int
    components: np.ndarray
    symmetric: np.ndarray
    antisymmetric: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "F_re": [[float(v) for v in row] for row in self.components.real],
            "F_im": [[float(v) for v in row] for row in self.components.imag],
            "g": [[float(v) for v in row] for row in self.symmetric],
            "omega": [[float(v) for v in row] for row in self.antisymmetric],
            "directions": int(self.directions),
        }


@dataclass(frozen=True, eq=False)
class FlagChartU3:
    """Exponential chart of the three-level orbit at a diagonal base point.

    ``dz`` holds the complex displacement slots (dz1, dz2, dz3); the default
    unit slots make :func:`chart_tangents_u3` return the six unit coordinate
    directions d(Re z_i), d(Im z_i).
    """

    weights: MixingWeights
    dz: tuple = (1.0 + 1.0j, 1.0 + 1.0j, 1.0 + 1.0j)

    @property
    def gaps(self) -> tuple:
        k = self.weights.values
        return tuple(float(k[a] - k[b]) for a, b in _LEVEL_PAIRS)


def qfi_index(state: DensityState, sld: SLDSolution) -> float:
    """Scalar quantum Fisher information Tr(rho L^2) along one direction."""
    if sld.dimension != state.dimension:
        raise ValueError("state and SLD dimensions do not match")
    L = sld.matrix
    return float(np.real(np.trace(state.matrix @ L @ L)))


def fisher_tensor(state: DensityState, slds) -> FisherTensorResult:
    """Fisher tensor F_mn = Tr(rho L_m L_n) over a direction list.

    All solutions must belong to the same state; the symmetric part is
    positive semidefinite and carries the scalar index on its diagonal, the
    antisymmetric part vanishes for a single direction.
    """
    slds = list(slds)
    if not slds:
        raise ValueError("at least one direction is required")
    n = state.dimension
    for sol in slds:
        if sol.dimension != n:
            raise ValueError("all SLDs must match the state dimension")
    Ls = np.stack([sol.matrix for sol in slds])
    # F_mn = sum_ac (rho L_m)_ac (L_n^T)_ac: one batched and one plain matmul
    k = len(slds)
    F = ((state.matrix @ Ls).reshape(k, -1)
         @ Ls.transpose(0, 2, 1).reshape(k, -1).T)
    g = 0.5 * (F.real + F.real.T)
    omega = 0.5 * (F.imag - F.imag.T)
    g.setflags(write=False)
    omega.setflags(write=False)
    F.setflags(write=False)
    return FisherTensorResult(len(slds), F, g, omega)


def horizontal_transversal_split_check(state: DensityState,
                                       horizontal: SLDSolution,
                                       transversal: SLDSolution) -> float:
    """Cross term Tr(rho {L_h, L_T}) of the orbit/weight split.

    Vanishes at a diagonal base point because diagonal and off-diagonal
    generator products are trace-orthogonal, and is conjugation invariant.
    """
    Lh, Lt = horizontal.matrix, transversal.matrix
    return float(np.real(np.trace(state.matrix @ (Lh @ Lt + Lt @ Lh))))


def chart_tangents_u3(chart: FlagChartU3,
                      basis: GeneratorBasis | None = None) -> list:
    """The six real coordinate tangents of the three-level chart.

    Ordered (Re z1, Im z1, Re z2, Im z2, Re z3, Im z3) and scaled by the
    matching real component of the chart's displacement slots.  Direction
    Re z_i carries the symmetric pair generator and Im z_i the antisymmetric
    one, each weighted by the eigenvalue gap r_i.

    Raises
    ------
    DegenerateWeightsError
        If any two weights coincide (the chart collapses: the corresponding
        gap vanishes and the coordinate pair is no longer independent).
    """
    basis = _resolve_basis(3, basis)
    if chart.weights.dimension != 3:
        raise ValueError("chart_tangents_u3 applies to three-level systems only")
    gaps = chart.gaps
    if min(abs(g) for g in gaps) <= GAP_FLOOR:
        raise DegenerateWeightsError(
            "repeated weights collapse the chart (vanishing eigenvalue gap)")
    forms = []
    for i, (a, b) in enumerate(_LEVEL_PAIRS):
        r = gaps[i]
        dz = complex(chart.dz[i])
        sym = np.zeros((3, 3), dtype=complex)
        sym[a, b] = sym[b, a] = 1.0
        antisym = np.zeros((3, 3), dtype=complex)
        antisym[a, b] = -1j
        antisym[b, a] = 1j
        forms.append(TangentForm.from_matrix(r * dz.real * sym, basis))
        forms.append(TangentForm.from_matrix(r * dz.imag * antisym, basis))
    return forms


def _pair_coefficients(ka: float, kb: float):
    s = ka + kb
    if s <= 0.0:
        # both weights vanish: the coordinate direction collapses
        return 0.0, 0.0
    r = ka - kb
    return 4.0 * r * r / s, -4.0 * r ** 3 / (s * s)


def closed_form_fisher(weights: MixingWeights) -> tuple:
    """Per-pair (g, omega) Fisher coefficients at a diagonal base point.

    Returns one (g, omega) pair for every level pair a < b in lexicographic
    order, which at n = 3 is (1,2), (1,3), (2,3).  The values are those of a
    unit chart factor; a caller with chart factor |mu|^2 scales both.
    Degenerate weights are handled by continuity: a repeated pair gives
    zero coefficients, and k_a = k_b = 0 is defined as zero.
    """
    k = weights.values
    return tuple(_pair_coefficients(k[a], k[b])
                 for a, b in itertools.combinations(range(k.size), 2))


def closed_form_deviation(tensor: FisherTensorResult, coefficients) -> float:
    """Largest deviation of a six-direction tensor from the closed-form shape.

    Checks, per level pair: the two diagonal g entries against g_i, the
    in-pair off-diagonal g entry against zero, and |omega| against |omega_i|;
    plus every cross-pair entry of g and omega against zero.
    """
    if tensor.directions != 6:
        raise ValueError("expected a six-direction chart tensor")
    g, omega = tensor.symmetric, tensor.antisymmetric
    dev = 0.0
    for i, (gc, wc) in enumerate(coefficients):
        a, b = 2 * i, 2 * i + 1
        dev = max(dev,
                  abs(g[a, a] - gc),
                  abs(g[b, b] - gc),
                  abs(g[a, b]),
                  abs(abs(omega[a, b]) - abs(wc)))
    for i in range(6):
        for j in range(6):
            if i // 2 != j // 2:
                dev = max(dev, abs(g[i, j]), abs(omega[i, j]))
    return float(dev)
