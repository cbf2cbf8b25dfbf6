"""Property tests: the closed form, the general solver and the oracle agree.

The orbit chart's Fisher tensor, solved direction by direction, is the
closed form on the kept level pairs for any n, repeated and zero weights
included.

Diagonal weights are drawn from small integer counts, so zeros and repeated
values are common; forms are random Hermitian matrices that vanish on the
kernel block, the only forms with an SLD there.  Near-cutoff spectra put
levels just below and just above the tolerance next to O(1) weights, under
random unitaries, where solver and oracle must make the same rank decision;
their orbit forms -i[K, rho] may also couple the small levels, which is
rejected exactly when one of them is kernel.
"""

import contextlib
import io
import json
import os
import tempfile
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (KAPPA_C, assert_same_modulo_gauge,
                     assert_within_kappa_bound, haar_unitary, kappa_bound,
                     random_hermitian)

from sldkit import (DensityState, KernelInconsistentError, MixingWeights,
                    cli, sld_solver,
                    TangentForm, assemble, base_point, build_basis,
                    chart_tangents, closed_form, closed_form_fisher,
                    compute_structure_constants, fisher_tensor,
                    sld_eigenbasis, solve, tangent_from_generator)
from sldkit.fisher import GAP_FLOOR
from sldkit.state_space import DEFAULT_TOL, kernel_mask


@st.composite
def diagonal_weights(draw):
    n = draw(st.integers(2, 6))
    counts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                  .filter(any))
    return MixingWeights(np.array(counts, dtype=float) / sum(counts))


@st.composite
def diagonal_problems(draw):
    weights = draw(diagonal_weights())
    n = weights.dimension
    parts = draw(arrays(float, (2, n, n), elements=st.floats(-1.0, 1.0)))
    D = parts[0] + 1j * parts[1]
    D = D + D.conj().T
    kernel = weights.values == 0.0
    D[np.ix_(kernel, kernel)] = 0.0
    return weights, TangentForm.from_matrix(D)


@settings(deadline=None)
@given(diagonal_problems())
def test_closed_form_matches_solver_and_oracle(problem):
    weights, form = problem
    n = weights.dimension
    state = base_point(weights)
    constants = compute_structure_constants(build_basis(n))
    closed = closed_form(weights, form)
    assert_same_modulo_gauge(closed,
                             solve(assemble(state, form, constants), state))
    assert np.abs(closed.matrix - sld_eigenbasis(state, form).matrix).max() \
        <= 1e-12
    assert closed.residual <= 1e-10
    assert closed.gauge_dim == (n - weights.rank) ** 2


@settings(deadline=None)
@given(diagonal_weights())
def test_chart_tensor_is_the_closed_form_on_kept_pairs(weights):
    n = weights.dimension
    k = weights.values
    basis = build_basis(n)
    constants = compute_structure_constants(basis)
    state = base_point(weights, basis)
    tangents = chart_tangents(weights, basis)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    kept = [abs(k[a] - k[b]) > GAP_FLOOR for a, b in pairs]
    assert len(tangents) == 2 * sum(kept)
    tensor = fisher_tensor(state, [solve(assemble(state, form, constants),
                                         state) for form in tangents])
    # the pair blocks of the closed form, in the chart's direction order;
    # (Re z, Im z) carries omega_{2i, 2i+1} = -omega_i
    coefficients = [c for c, keep in zip(closed_form_fisher(weights), kept)
                    if keep]
    g = np.zeros((len(tangents),) * 2)
    omega = np.zeros_like(g)
    for i, (gc, wc) in enumerate(coefficients):
        g[2 * i, 2 * i] = g[2 * i + 1, 2 * i + 1] = gc
        omega[2 * i, 2 * i + 1], omega[2 * i + 1, 2 * i] = -wc, wc
    assert np.abs(tensor.symmetric - g).max(initial=0.0) <= 1e-12
    assert np.abs(tensor.antisymmetric - omega).max(initial=0.0) <= 1e-12
    assert np.linalg.eigvalsh(tensor.symmetric).min(initial=0.0) >= -1e-12
    assert np.array_equal(tensor.antisymmetric, -tensor.antisymmetric.T)


#: small levels, in units of the tolerance, on both sides of the cutoff
CUTOFF_LEVELS = (0.0, 0.3, 0.5, 0.9, 0.99, 1.01, 1.1, 1.5, 2.0)


@st.composite
def near_cutoff_problems(draw):
    n = draw(st.integers(2, 6))
    big = draw(st.integers(1, n))
    small = DEFAULT_TOL * np.array(
        draw(st.lists(st.sampled_from(CUTOFF_LEVELS),
                      min_size=n - big, max_size=n - big)))
    counts = np.array(draw(st.lists(st.integers(1, 3), min_size=big,
                                    max_size=big)), dtype=float)
    weights = MixingWeights(np.concatenate(
        (counts / counts.sum() * (1.0 - small.sum()), small)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    U = haar_unitary(n, rng)
    state = DensityState.from_matrix((U * weights.values) @ U.conj().T)
    form = tangent_from_generator(random_hermitian(n, rng), state).matrix
    if draw(st.booleans()):
        # couple the small levels: rejected iff one of them is kernel
        V = U[:, big:]
        form = form + 1e-3 * V @ random_hermitian(n - big, rng) @ V.conj().T
    return weights, state, TangentForm.from_matrix(form)


def _solve_or_reject(call):
    try:
        return call()
    except KernelInconsistentError:
        return None


@settings(deadline=None)
@given(near_cutoff_problems())
def test_solver_and_oracle_share_the_rank_rule(problem):
    weights, state, form = problem
    n = weights.dimension
    constants = compute_structure_constants(build_basis(n))
    sol = _solve_or_reject(
        lambda: solve(assemble(state, form, constants), state))
    spectral = _solve_or_reject(lambda: sld_eigenbasis(state, form))
    assert (sol is None) == (spectral is None)
    if sol is None:
        return
    assert sol.gauge_dim == spectral.gauge_dim == (n - weights.rank) ** 2
    # The error of an LU solve grows as 1 / (smallest kept pair sum).
    k = weights.values
    kernel = k <= DEFAULT_TOL
    kept = ~(kernel[:, None] & kernel[None, :])
    smallest_kept = (k[:, None] + k[None, :])[kept].min()
    scale = max(1.0, np.abs(spectral.matrix).max())
    assert np.abs(sol.matrix - spectral.matrix).max() * smallest_kept \
        <= 1e-13 * scale


#: c of the solver-against-oracle bound.  KAPPA_C bounds one solve's L
#: against the exact L; the oracle's L has an error of its own, so two
#: algorithms may differ by the sum.  Over 45,000 near-cutoff states at
#: n = 2..8 the solver and the oracle differed by up to 6.3 kappa eps
#: max(1, |L|) (n = 5, one O(1) level and four at or just below the
#: cutoff, kappa = 2), more than KAPPA_C alone allows
SOLVER_ORACLE_C = 2 * KAPPA_C


@settings(deadline=None)
@given(near_cutoff_problems())
def test_solver_within_the_kappa_bound_of_the_oracle(problem):
    # the library solve against the oracle near the rank threshold
    weights, state, form = problem
    constants = compute_structure_constants(build_basis(weights.dimension))
    sol = _solve_or_reject(
        lambda: solve(assemble(state, form, constants), state))
    if sol is not None:
        assert_within_kappa_bound(sol, sld_eigenbasis(state, form),
                                  state.eigenvalues, DEFAULT_TOL,
                                  SOLVER_ORACLE_C)


@settings(deadline=None)
@given(near_cutoff_problems(), st.integers(0, 2 ** 32 - 1))
def test_held_directions_within_the_kappa_bound_of_the_oracle(problem, seed):
    # later directions at a held state (the problem's form, then four
    # random orbit tangents): the held inverse and its refinement steps,
    # against the oracle near the rank threshold
    weights, state, form = problem
    n = weights.dimension
    basis = build_basis(n)
    constants = compute_structure_constants(basis)
    rng = np.random.default_rng(seed)
    solve(assemble(state, TangentForm.from_coefficients(
        0.0, np.zeros(n * n - 1)), constants), state)
    for form in [form] + [
            tangent_from_generator(random_hermitian(n, rng), state, basis)
            for _ in range(4)]:
        sol = _solve_or_reject(
            lambda: solve(assemble(state, form, constants), state))
        spectral = _solve_or_reject(lambda: sld_eigenbasis(state, form))
        assert (sol is None) == (spectral is None)
        if sol is not None:
            assert_within_kappa_bound(sol, spectral, state.eigenvalues,
                                      DEFAULT_TOL, SOLVER_ORACLE_C)
    assert state._operator.inverse is not None


@st.composite
def near_cutoff_families(draw):
    """An exp_generator family whose weights put levels next to the
    cutoff, and a few thetas in [0, 2]."""
    weights, _, _ = draw(near_cutoff_problems())
    n = weights.dimension
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = {"kind": "exp_generator", "n": n,
              "weights": weights.values.tolist(),
              "generator_coeffs": rng.normal(size=n * n - 1).tolist()}
    thetas = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4))
    return family, sorted(thetas)


def _cli_json(argv):
    """The command's JSON, or None when it fails (its error line kept off
    the test's stderr)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        return json.loads(out.getvalue()) if cli.main(argv) == 0 else None


@settings(deadline=None, max_examples=50)
@given(near_cutoff_families())
def test_sld_and_the_sweep_within_the_kappa_bound_of_the_oracle(problem):
    # sldkit sld (method general against oracle) and the stacked solve of
    # sldkit qfi (against the oracle's pair rule) near the rank threshold;
    # an orbit direction may couple levels on both sides of the cutoff,
    # which both methods reject alike
    family, thetas = problem
    spec = cli.parse_family(family)
    states, forms = cli.family_state_and_tangent(spec, np.array(thetas))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "family.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(family, fh)
        for i, theta in enumerate(thetas):
            a, b = (_cli_json(["sld", "--input", path, "--theta", repr(theta),
                               "--method", method])
                    for method in ("general", "oracle"))
            assert (a is None) == (b is None)
            if a is None:
                continue
            a, b = SimpleNamespace(**a), SimpleNamespace(**b)
            for sol in (a, b):  # the printed fields as SLDSolution's
                sol.coeff_identity = sol.L_identity
                sol.coeffs = np.array(sol.L)
                sol.matrix = np.array(sol.matrix) @ [1.0, 1j]
            assert_within_kappa_bound(a, b, states.eigenvalues[i],
                                      DEFAULT_TOL, SOLVER_ORACLE_C)
    basis = build_basis(spec.n)
    stacked = _solve_or_reject(lambda: sld_solver._solve_stack(
        states, forms, compute_structure_constants(basis), DEFAULT_TOL, basis))
    spectral = _solve_or_reject(lambda: sld_solver._pair_rule(
        states.eigenvalues, states.eigenvectors,
        sld_solver._in_frame(states.eigenvectors, forms.matrix),
        DEFAULT_TOL)[0])
    assert (stacked is None) == (spectral is None)
    if stacked is None:
        return
    for L, reference, lam in zip(stacked, spectral, states.eigenvalues):
        assert np.abs(L - reference).max() <= kappa_bound(
            reference, lam, DEFAULT_TOL, SOLVER_ORACLE_C)


#: tolerances a sequence of solves switches between: the default, one that
#: moves the cutoff across CUTOFF_LEVELS, and one above every small level
SWITCH_TOLS = (DEFAULT_TOL, 1.2 * DEFAULT_TOL, 1e-6)


@st.composite
def direction_sequences(draw):
    weights, state, _ = draw(near_cutoff_problems())
    n = weights.dimension
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    U = state.eigenvectors
    big = int(np.count_nonzero(weights.values > 1e-6))
    forms = []
    for _ in range(draw(st.integers(1, 6))):
        form = tangent_from_generator(random_hermitian(n, rng), state).matrix
        if draw(st.booleans()):
            # couple the small levels (the lowest eigenvalues of the state)
            V = U[:, :n - big]
            coupling = V @ random_hermitian(n - big, rng) @ V.conj().T
            form = form + 1e-3 * coupling
        forms.append(TangentForm.from_matrix(form))
    order = draw(st.permutations(range(len(forms))))
    tols = draw(st.lists(st.sampled_from(SWITCH_TOLS), min_size=len(forms),
                         max_size=len(forms)))
    return state, [(forms[i], tol) for i, tol in zip(order, tols)]


@settings(deadline=None)
@given(direction_sequences())
def test_shared_state_matches_fresh_states(problem):
    state, sequence = problem
    n = state.dimension
    constants = compute_structure_constants(build_basis(n))
    lam = state.eigenvalues
    for form, tol in sequence:
        fresh = DensityState.from_matrix(state.matrix)
        for at in (state, fresh):
            # ascending eigenvalues, so the kernel is a prefix of the
            # eigenframe, as the solver takes it
            assert np.all(np.diff(at.eigenvalues) >= 0)
            mask = kernel_mask(at.eigenvalues, tol)
            assert np.array_equal(mask, np.arange(n) < np.count_nonzero(mask))
        shared, alone = (
            _solve_or_reject(
                lambda at=at: solve(assemble(at, form, constants), at, tol))
            for at in (state, fresh))
        spectral = _solve_or_reject(lambda: sld_eigenbasis(state, form, tol))
        assert (shared is None) == (alone is None) == (spectral is None)
        if shared is None:
            continue
        assert shared.gauge_dim == alone.gauge_dim == spectral.gauge_dim
        kernel = lam <= tol
        kept = ~(kernel[:, None] & kernel[None, :])
        smallest_kept = (lam[:, None] + lam[None, :])[kept].min()
        scale = 1e-13 * max(1.0, np.abs(alone.matrix).max()) / smallest_kept
        assert abs(shared.coeff_identity - alone.coeff_identity) <= scale
        assert np.abs(shared.coeffs - alone.coeffs).max() <= scale
        assert np.abs(shared.matrix - alone.matrix).max() <= scale
        assert abs(shared.residual - alone.residual) <= scale


def _solve_or_message(call):
    try:
        return call()
    except KernelInconsistentError as exc:
        return str(exc)


@st.composite
def stacked_problems(draw):
    """A near-cutoff state, 1-6 forms (some coupling its small levels) and
    one tolerance for all of them."""
    state, sequence = draw(direction_sequences())
    return state, [form for form, _ in sequence], \
        draw(st.sampled_from(SWITCH_TOLS))


@settings(deadline=None)
@given(stacked_problems())
def test_stacked_forms_match_single_solves(problem):
    # one LU solve for every form against one per form: the same rejection,
    # the first form's, else each SLD within the kappa-scaled LU bound
    state, forms, tol = problem
    constants = compute_structure_constants(build_basis(state.dimension))
    singles = [_solve_or_message(
        lambda form=form: solve(assemble(state, form, constants), state, tol))
        for form in forms]
    stacked = _solve_or_message(
        lambda: solve(assemble(state, forms, constants), state, tol))
    rejected = [s for s in singles if isinstance(s, str)]
    if rejected:
        assert stacked == rejected[0]
        return
    assert len(stacked) == len(singles)
    for a, b in zip(stacked, singles):
        assert_within_kappa_bound(a, b, state.eigenvalues, tol)


@settings(deadline=None)
@given(diagonal_weights())
def test_chart_stack_matches_single_solves(weights):
    # the chart of sldkit tensor in one call, repeated and zero weights too
    basis = build_basis(weights.dimension)
    constants = compute_structure_constants(basis)
    state = base_point(weights, basis)
    tangents = chart_tangents(weights, basis)
    stacked = solve(assemble(state, tangents, constants), state)
    assert len(stacked) == len(tangents)
    for form, sol in zip(tangents, stacked):
        assert_within_kappa_bound(
            sol, solve(assemble(state, form, constants), state),
            state.eigenvalues, DEFAULT_TOL)
