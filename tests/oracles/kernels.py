"""Per-row golden models of the solver kernels (paper Sec. II-A).

The triangular-solve oracles are the per-row
:func:`repro.sparse.ops.sptrsv_lower` / :func:`~repro.sparse.ops.sptrsv_upper`
loops, which stay in production for ILU(0), SSOR, Gauss-Seidel and
``verify_iteration``.  :func:`ic0_attempt_reference` is the classic
up-looking IC(0) row scan.  :func:`use_reference_kernels` swaps all
three in for the level-scheduled kernels that
:class:`~repro.solvers.kernels.KernelCounter`,
:func:`~repro.precond.ic0.ic0` and
:class:`~repro.precond.ic0.IncompleteCholesky` call, so the kernel
equivalence tests and the ``solver_kernels`` reference benchmarks run
whole solves on the golden loops.
"""

from __future__ import annotations

from importlib import import_module
from typing import Optional

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import sptrsv_lower, sptrsv_upper

# ``repro.precond`` re-exports the ``ic0`` function under the module's
# name, so the modules are looked up by their dotted names.
ic0_module = import_module("repro.precond.ic0")
kernels_module = import_module("repro.solvers.kernels")


def ic0_attempt_reference(lower: CSRMatrix,
                          diag_shift: float = 0.0) -> Optional[np.ndarray]:
    """One up-looking IC(0) attempt; returns factor data or None on breakdown.

    Operates in-place on a copy of the lower triangle's data array,
    using the standard row-by-row update:

        L[i,j] = (A[i,j] - sum_k L[i,k] L[j,k]) / L[j,j]   for j < i
        L[i,i] = sqrt(A[i,i] - sum_k L[i,k]^2)
    """
    n = lower.n_rows
    indptr, indices = lower.indptr, lower.indices
    data = lower.data.copy()
    # Apply the diagonal shift before factoring.
    if diag_shift != 0.0:
        for i in range(n):
            end = indptr[i + 1]
            if end > indptr[i] and indices[end - 1] == i:
                data[end - 1] *= 1.0 + diag_shift
    # Row-major position of each row's diagonal entry (last in row).
    for i in range(n):
        row_start, row_end = indptr[i], indptr[i + 1]
        if row_end == row_start or indices[row_end - 1] != i:
            return None  # structurally missing diagonal
        for pos in range(row_start, row_end - 1):
            j = indices[pos]
            # data[pos] currently holds A[i,j] minus prior updates.
            # Subtract sum_k<j L[i,k] * L[j,k] using merged row scan.
            acc = data[pos]
            pi, pj = row_start, indptr[j]
            j_end = indptr[j + 1] - 1  # exclude L[j,j]
            while pi < pos and pj < j_end:
                ci, cj = indices[pi], indices[pj]
                if ci == cj:
                    acc -= data[pi] * data[pj]
                    pi += 1
                    pj += 1
                elif ci < cj:
                    pi += 1
                else:
                    pj += 1
            pivot = data[indptr[j + 1] - 1]
            if pivot == 0.0:
                return None
            data[pos] = acc / pivot
        # Diagonal entry.
        diag_pos = row_end - 1
        acc = data[diag_pos]
        for pos in range(row_start, diag_pos):
            acc -= data[pos] * data[pos]
        if acc <= 0.0:
            return None
        data[diag_pos] = np.sqrt(acc)
    return data


def use_reference_kernels(monkeypatch) -> None:
    """Run solver and IC(0) kernels on the per-row golden loops."""
    for module in (kernels_module, ic0_module):
        monkeypatch.setattr(module, "level_sptrsv_lower", sptrsv_lower)
        monkeypatch.setattr(module, "level_sptrsv_upper", sptrsv_upper)
    monkeypatch.setattr(ic0_module, "level_ic0_attempt",
                        ic0_attempt_reference)
