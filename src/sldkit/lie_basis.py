"""Generalized Gell-Mann bases for su(n) and their structure constants.

The basis for dimension ``n`` consists of the ``n**2 - 1`` traceless Hermitian
generators ``t_i`` normalized so that ``Tr(t_i t_j) = 2 delta_ij``.  For
``n = 2`` the ordering is the Pauli triple (sigma_1, sigma_2, sigma_3) and for
``n = 3`` the standard Gell-Mann numbering lambda_1..lambda_8.  For ``n > 3``
the off-diagonal symmetric/antisymmetric pairs come first, ordered
lexicographically by ``(j, k)``, with the ``n - 1`` diagonal generators
appended; the ``labels`` field records the slot assignment.

Structure constants are defined by traces of (anti)commutators,

    c_ijk = Tr([t_i, t_j] t_k) / (4i)      (totally antisymmetric)
    f_ijk = Tr({t_i, t_j} t_k) / 4         (totally symmetric)

so that ``[t_i, t_j] = 2i sum_k c_ijk t_k`` and
``{t_i, t_j} = (4/n) delta_ij 1 + 2 sum_k f_ijk t_k``.  Hermiticity gives
``Tr(t_j t_i t_k) = conj Tr(t_i t_j t_k)``, so ``f_ijk = Re T_ijk / 2`` and
``c_ijk = Im T_ijk / 2`` with ``T_ijk = Tr(t_i t_j t_k)``.  Each generator
has at most two nonzero entries (n for a diagonal one), so T is summed over
chains of nonzero entries ``t_i[a, b] t_j[b, d] t_k[d, a]`` found by sorting
on the shared indices: O(n^4) work where the dense trace costs O(n^9).  Only
sorted triples i <= j <= k are summed, and entries below ``DROP_TOL`` are
dropped.  A :class:`StructureTensor` stores every nonzero entry of the full
tensor, each orbit expanded from its sorted triple, as coordinate arrays.
All indices are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

#: entries below this magnitude are treated as exact zeros of the trace algebra
DROP_TOL = 1e-12


def matrix_to_pairs(matrix) -> list:
    """Encode a complex matrix as nested lists of [re, im] pairs."""
    m = np.asarray(matrix, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()


def _frozen(*arrays) -> tuple:
    """The arrays, each made read-only."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


def pairs_to_matrix(data) -> np.ndarray:
    """Decode the nested [re, im] pair representation back into an array."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("expected a nested list of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


#: the orderings of an index triple, each with its parity
_PERMUTATIONS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                 ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1))


def _join(left: np.ndarray, right: np.ndarray):
    """All index pairs (p, q) with ``left[p] == right[q]``, for integer keys."""
    order = np.argsort(right, kind="stable")
    ordered = right[order]
    lo = np.searchsorted(ordered, left, "left")
    counts = np.searchsorted(ordered, left, "right") - lo
    p = np.repeat(np.arange(left.size), counts)
    first = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return p, order[first + np.arange(p.size)]


class StructureTensor:
    """Sparse rank-3 tensor that is totally symmetric or totally antisymmetric.

    Built from the canonical (sorted) index triple and value of each nonzero
    orbit.  It stores every nonzero entry of the full tensor in coordinate
    form: ``keys`` holds the flat indices ``(i*size + j)*size + k`` in
    ascending order and ``values`` the matching entries, each ordering of a
    triple carrying its value (times the permutation parity when
    antisymmetric).  Each key's row i and flat column ``j*size + k`` are
    split once here, so :meth:`contract` is one gather and one ``bincount``.
    ``items``, ``len`` and ``to_json_list`` report the canonical triples
    only.
    """

    def __init__(self, size: int, triples, values, symmetric: bool):
        self.size = int(size)
        self.symmetric = bool(symmetric)
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        values = np.asarray(values, dtype=float).reshape(-1)
        i, j, k = triples.T
        if not self.symmetric and np.any((i == j) | (j == k) | (i == k)):
            raise ValueError("antisymmetric entries need distinct indices")
        keys, signed = [], []
        for perm, parity in _PERMUTATIONS:
            i, j, k = triples[:, perm].T
            keys.append((i * self.size + j) * self.size + k)
            signed.append(values if self.symmetric else parity * values)
        # orderings of a triple with a repeated index coincide; keep one
        self.keys, first = np.unique(np.concatenate(keys), return_index=True)
        self.values = np.concatenate(signed)[first]
        self._rows, self._columns = np.divmod(self.keys, self.size ** 2)
        _frozen(self.keys, self.values, self._rows, self._columns)

    def _canonical(self):
        i, j, k = np.unravel_index(self.keys, (self.size,) * 3)
        canonical = (i <= j) & (j <= k)
        return np.stack((i, j, k), axis=1)[canonical], self.values[canonical]

    def __len__(self) -> int:
        return len(self._canonical()[1])

    def items(self) -> list:
        """(canonical triple, value) pairs in ascending triple order."""
        triples, values = self._canonical()
        return list(zip(map(tuple, triples.tolist()), values.tolist()))

    def get(self, i: int, j: int, k: int) -> float:
        if not all(0 <= x < self.size for x in (i, j, k)):
            raise IndexError(f"index ({i}, {j}, {k}) out of range for size "
                             f"{self.size}")
        key = (int(i) * self.size + int(j)) * self.size + int(k)
        pos = int(np.searchsorted(self.keys, key))
        if pos < self.keys.size and self.keys[pos] == key:
            return float(self.values[pos])
        return 0.0

    def contract(self, vector) -> np.ndarray:
        """``sum_i vector[i] T[i, j, k]`` as a (size, size) array over (j, k).

        A stack of vectors along leading axes gives the stack of results
        from one ``bincount``, each vector's columns offset by its position
        times size^2; every entry sums the same terms in the same order as
        for that vector alone.
        """
        vector = np.asarray(vector, dtype=float)
        lead, square = vector.shape[:-1], self.size ** 2
        # take keeps a stack's gather C-ordered, so the ravel below is a view
        weights = np.take(vector, self._rows, axis=-1) * self.values
        columns, count = self._columns, math.prod(lead)
        if lead:
            columns = (columns + square * np.arange(count)[:, None]).ravel()
        return np.bincount(columns, weights.ravel(),
                           minlength=count * square).reshape(
                               lead + (self.size, self.size))

    def to_dense(self) -> np.ndarray:
        """Expand to a new dense (size, size, size) array."""
        dense = np.zeros(self.size ** 3)
        dense[self.keys] = self.values
        return dense.reshape((self.size,) * 3)

    def to_json_list(self) -> list:
        """Canonical entries as [i, j, k, value] rows, sorted by triple."""
        return [[i, j, k, v] for (i, j, k), v in self.items()]


@dataclass(frozen=True, eq=False)
class GeneratorBasis:
    """Ordered traceless Hermitian generators of su(n).

    Attributes
    ----------
    dimension : int
        Matrix dimension n.
    generators : numpy.ndarray
        Read-only array of shape (n**2 - 1, n, n).
    diagonal_indices : tuple of int
        Slots holding diagonal generators (n - 1 of them).
    offdiagonal_indices : tuple of int
        The complementary slots.
    labels : tuple
        One entry per slot: ("sym", j, k), ("antisym", j, k) for the pair
        generators acting on rows/columns j < k, or ("diag", l) for the
        diagonal generator sqrt(2/(l(l+1))) * diag(1,...,1,-l,0,...,0).
    """

    dimension: int
    generators: np.ndarray
    diagonal_indices: tuple
    offdiagonal_indices: tuple
    labels: tuple

    def generator(self, i: int) -> np.ndarray:
        return self.generators[i]

    @cached_property
    def _real_rows(self) -> np.ndarray:
        """The generators as an (n^2 - 1) x 2n^2 real matrix, one flat
        generator's real and imaginary parts per row: a view of the
        C-contiguous stack, made once per basis."""
        n = self.dimension
        return self.generators.view(float).reshape(n * n - 1, 2 * n * n)

    def to_json_dict(self) -> dict:
        return {
            "n": int(self.dimension),
            "generators": [matrix_to_pairs(g) for g in self.generators],
        }


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Antisymmetric (c) and symmetric (f) structure constants of a basis,
    with the basis's diagonal-generator slots."""

    dimension: int
    c: StructureTensor
    f: StructureTensor
    diagonal_indices: tuple

    def to_json_dict(self) -> dict:
        return {
            "n": int(self.dimension),
            "c": self.c.to_json_list(),
            "f": self.f.to_json_list(),
        }


def _ordered_labels(n: int) -> tuple:
    if n <= 3:
        # Diagonal generator l follows the pairs confined to the first l+1
        # basis vectors; this reproduces the Pauli / Gell-Mann numbering.
        labels = []
        for d in range(1, n):
            for j in range(d):
                labels.append(("sym", j, d))
                labels.append(("antisym", j, d))
            labels.append(("diag", d))
        return tuple(labels)
    labels = []
    for j in range(n):
        for k in range(j + 1, n):
            labels.append(("sym", j, k))
            labels.append(("antisym", j, k))
    labels.extend(("diag", l) for l in range(1, n))
    return tuple(labels)


def _fill_generator(mat: np.ndarray, label) -> None:
    """Write the generator of ``label`` into the zero matrix ``mat``."""
    kind = label[0]
    if kind == "sym":
        _, j, k = label
        mat[j, k] = mat[k, j] = 1.0
    elif kind == "antisym":
        _, j, k = label
        mat[j, k] = -1j
        mat[k, j] = 1j
    elif kind == "diag":
        _, l = label
        scale = np.sqrt(2.0 / (l * (l + 1)))
        for i in range(l):
            mat[i, i] = scale
        mat[l, l] = -l * scale
    else:  # pragma: no cover - labels are produced internally
        raise ValueError(f"unknown generator label {label!r}")


@lru_cache(maxsize=None)
def build_basis(n: int) -> GeneratorBasis:
    """Construct the generator basis for dimension ``n``.

    Parameters
    ----------
    n : int
        Matrix dimension, at least 2.

    Returns
    -------
    GeneratorBasis
        Immutable basis satisfying Tr(t_i t_j) = 2 delta_ij; instances are
        cached per dimension and safe to share.

    Raises
    ------
    MemoryError
        Naming n and the stack's 16 n^4 bytes, when the stack cannot be
        allocated.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    # the stack before the labels: a size that cannot be allocated fails
    # here at once, not after n^2 - 1 labels are made in Python
    try:
        generators = np.zeros((n * n - 1, n, n), dtype=complex)
    except (ValueError, MemoryError):  # ValueError: numpy's "array is too big"
        raise MemoryError(f"the generator basis at n = {n} takes 16 n^4 = "
                          f"{16 * n ** 4:.3g} bytes") from None
    labels = _ordered_labels(n)
    for mat, label in zip(generators, labels):
        _fill_generator(mat, label)
    generators.setflags(write=False)
    diag = tuple(i for i, lab in enumerate(labels) if lab[0] == "diag")
    offdiag = tuple(i for i, lab in enumerate(labels) if lab[0] != "diag")
    return GeneratorBasis(n, generators, diag, offdiag, labels)


@lru_cache(maxsize=32)
def compute_structure_constants(basis: GeneratorBasis) -> StructureConstants:
    """Compute the c and f tensors of a basis from triple-product traces.

    ``T_abc = Tr(t_a t_b t_c)`` is summed over the generators' nonzero
    entries for sorted triples a <= b <= c; then ``f = Re T / 2`` and
    ``c = Im T / 2``.  Entries with magnitude below ``DROP_TOL`` arise only
    from rounding and are not stored.

    Raises
    ------
    MemoryError
        Naming n and the structure constants, when their arrays cannot be
        allocated.
    """
    t = basis.generators
    size, n, _ = t.shape
    try:
        g, row, col = np.nonzero(t)
        value = t[g, row, col]
        # t_a[i, j] t_b[j, k]: a's column meets b's row, with a <= b ...
        a, b = _join(col, row)
        keep = g[a] <= g[b]
        a, b = a[keep], b[keep]
        # ... closed by t_c[k, i]: c's (row, column) is (b's column, a's row)
        pair, c = _join(col[b] * n + row[a], row * n + col)
        a, b = a[pair], b[pair]
        keep = g[b] <= g[c]
        a, b, c = a[keep], b[keep], c[keep]
        keys, slot = np.unique((g[a] * size + g[b]) * size + g[c],
                               return_inverse=True)
        product = value[a] * value[b] * value[c]
        trace = (np.bincount(slot, product.real)
                 + 1j * np.bincount(slot, product.imag))
        triples = np.stack(np.unravel_index(keys, (size,) * 3), axis=1)
        f_vals, c_vals = trace.real / 2.0, trace.imag / 2.0
        f_keep = np.abs(f_vals) >= DROP_TOL
        c_keep = ((np.abs(c_vals) >= DROP_TOL)
                  & (triples[:, 0] < triples[:, 1])
                  & (triples[:, 1] < triples[:, 2]))
        return StructureConstants(
            dimension=basis.dimension,
            c=StructureTensor(size, triples[c_keep], c_vals[c_keep],
                              symmetric=False),
            f=StructureTensor(size, triples[f_keep], f_vals[f_keep],
                              symmetric=True),
            diagonal_indices=basis.diagonal_indices,
        )
    except MemoryError:  # the joins' index arrays are the largest
        raise MemoryError(f"the structure constants at n = {n}") from None


def _jacobi_sums(c: StructureTensor):
    """Nonzero ``sum_m (c_ijm c_mkl + c_jkm c_mil + c_kim c_mjl)`` entries.

    Yields flat (i, j, k, l) keys and their sums one last index l at a
    time: the entries c_mkl that end in l join the stored c_ijm on m, and
    each product is added at its three cyclic placements of (i, j, k).
    """
    size = c.size
    first, second, third = np.unravel_index(c.keys, (size,) * 3)
    for l in range(size):
        ends = np.flatnonzero(third == l)
        left, right = _join(third, first[ends])  # c_ijm meets c_mkl on m
        right = ends[right]
        i, j, k = first[left], second[left], second[right]
        keys = np.concatenate([((x * size + y) * size + z) * size + l
                               for x, y, z in ((i, j, k), (k, i, j), (j, k, i))])
        keys, slot = np.unique(keys, return_inverse=True)
        product = c.values[left] * c.values[right]
        yield keys, np.bincount(slot, np.tile(product, 3))


def verify_basis(basis: GeneratorBasis, constants: StructureConstants,
                 tol: float = 1e-10) -> list:
    """Check every basis/constants invariant, returning violation messages.

    An empty list means all identities hold within ``tol``.  Each entry names
    the violated identity and the offending (0-based) indices; aggregate
    identities (Jacobi, product reconstruction) report only the worst
    offender.  Both run over the stored entries one index at a time, so no
    array grows as m^3 (m = n^2 - 1): n = 16 takes about 1 s and 40 MB.
    """
    if constants.dimension != basis.dimension:
        raise ValueError("basis and constants dimensions do not match")
    report = []
    t = basis.generators
    n = basis.dimension
    size = t.shape[0]

    for i in range(size):
        herm = np.abs(t[i] - t[i].conj().T).max()
        if herm > tol:
            report.append(f"generator {i} not Hermitian (max deviation {herm:.3e})")
        trace = abs(np.trace(t[i]))
        if trace > tol:
            report.append(f"generator {i} not traceless (|trace| {trace:.3e})")

    gram = np.einsum("aij,bji->ab", t, t).real
    gram_dev = gram - 2.0 * np.eye(size)
    for i, j in zip(*np.nonzero(np.abs(gram_dev) > tol)):
        report.append(
            f"trace orthonormality violated at ({i}, {j}): Tr = {gram[i, j]:.12g}")

    off_part = np.abs(t * (1.0 - np.eye(n))).max(axis=(1, 2))
    report += [f"diagonal generator {i} has off-diagonal entries"
               for i in basis.diagonal_indices if off_part[i] > tol]
    diagonal_part = np.abs(np.diagonal(t, axis1=1, axis2=2)).max(axis=1)
    report += [f"off-diagonal generator {i} has nonzero diagonal"
               for i in basis.offdiagonal_indices if diagonal_part[i] > tol]

    jacobi = None  # the worst sum; ties go to the smallest (i, j, k, l)
    for keys, sums in _jacobi_sums(constants.c):
        if sums.size:
            p = int(np.argmax(np.abs(sums)))
            entry = (abs(sums[p]), -int(keys[p]), float(sums[p]))
            jacobi = max(jacobi or entry, entry)
    if jacobi and jacobi[0] > tol:
        idx = tuple(int(v) for v in np.unravel_index(-jacobi[1], (size,) * 4))
        report.append(f"Jacobi identity violated at {idx}: {jacobi[2]:.3e}")

    diagonal = np.isin(np.arange(size), basis.diagonal_indices)
    offdiagonal = np.isin(np.arange(size), basis.offdiagonal_indices)
    triples, values = constants.c._canonical()
    hit = diagonal[triples].all(axis=1) & (np.abs(values) > tol)
    report += [f"c nonzero on diagonal triple {tuple(x)}"
               for x in triples[hit].tolist()]
    # f holds every ordering: its entries (i, k, j) ascend in the i, k, j order
    triples = np.stack(np.unravel_index(constants.f.keys, (size,) * 3), 1)
    hit = (diagonal[triples[:, :2]].all(axis=1) & offdiagonal[triples[:, 2]]
           & (np.abs(constants.f.values) > tol))
    report += [f"f nonzero on mixed diagonal triple ({i}, {j}, {k})"
               for i, k, j in triples[hit].tolist()]

    # t_i t_j = (2/n) delta_ij 1 + sum_l (f_ijl + i c_ijl) t_l, for each i
    flat = t.reshape(size, n * n)
    recon = np.empty((size, size))  # the largest deviation per (i, j)
    for i in range(size):
        expected = np.zeros((size, n * n), dtype=complex)
        for tensor, unit in ((constants.f, 1.0), (constants.c, 1j)):
            row = slice(*np.searchsorted(tensor._rows, (i, i + 1)))
            j, l = np.divmod(tensor._columns[row], size)
            first = np.flatnonzero(np.diff(j, prepend=-1))  # j ascends
            expected[j[first]] += np.add.reduceat(
                unit * tensor.values[row, None] * flat[l], first)
        expected[i] += (2.0 / n) * np.eye(n).ravel()
        recon[i] = np.abs((t[i] @ t).reshape(size, n * n) - expected).max(1)
    i, j = np.unravel_index(np.argmax(recon), recon.shape)
    if recon[i, j] > tol:
        report.append(f"product reconstruction violated at ({i}, {j}): "
                      f"max deviation {recon[i, j]:.3e}")

    return report
