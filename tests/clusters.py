"""Eigenvalue clusters: compares two spectra whose defective eigenvalues scatter.

The tests compare the spectrum of the dense iteration matrix with the block
spectra through these helpers; the program itself checks the similarity
entry by entry (``analysis.tc_similarity_residual``).
"""

import numpy as np


def _single_linkage(vals: np.ndarray):
    """Single-linkage tree of eigenvalues in the complex plane; None for a single value."""
    from scipy.cluster.hierarchy import linkage
    from scipy.spatial.distance import pdist

    if len(vals) == 1:
        return None
    return linkage(pdist(np.column_stack([vals.real, vals.imag])), method="single")


def _clusters(vals: np.ndarray, tree, tol: float) -> list[tuple[int, complex]]:
    """Eigenvalue clusters at one linkage distance, cut from the tree; (multiplicity, mean).

    The iteration matrix has defective eigenvalues of high multiplicity; a
    double-precision eigensolver scatters each into a ring of radius roughly
    eps^(1/p) around the true value.  Individual ring members are therefore
    meaningless to compare, but the cluster mean cancels the ring scatter and
    is accurate to round-off.  Single-linkage clustering at a tolerance
    above the scatter radius and below the cluster gaps recovers the true
    (value, multiplicity) pairs.
    """
    from scipy.cluster.hierarchy import fcluster

    if tree is None:
        return [(1, complex(vals[0]))]
    labels = fcluster(tree, tol, criterion="distance")
    out = []
    for c in np.unique(labels):
        sel = vals[labels == c]
        out.append((len(sel), complex(sel.mean())))
    return out


def matched_cluster_distance(
    a: np.ndarray, b: np.ndarray, tols: tuple[float, ...] = (1e-4, 2e-4, 5e-4, 1e-3)
) -> float:
    """Max distance between matched eigenvalue clusters of two spectra.

    Each clustering tolerance in ``tols`` is tried; the best (smallest)
    matched distance over tolerances at which both spectra produce the same
    cluster structure is returned, inf if no tolerance does.  The right
    linkage scale sits between the eigensolver scatter radius and the
    cluster gaps, and both vary with the problem size; scanning a ladder
    avoids hand-tuning, and cannot produce a false match because the
    returned distance itself measures the agreement of the cluster means.
    Each spectrum's linkage tree is built once and cut at every tolerance.
    """
    a, b = np.asarray(a), np.asarray(b)
    tree_a, tree_b = _single_linkage(a), _single_linkage(b)
    best = float("inf")
    for tol in tols:
        best = min(best, _matched_distance(_clusters(a, tree_a, tol), _clusters(b, tree_b, tol)))
    return best


def _matched_distance(ca: list[tuple[int, complex]], cb: list[tuple[int, complex]]) -> float:
    from scipy.optimize import linear_sum_assignment

    if len(ca) != len(cb):
        return float("inf")
    if sorted(m for m, _ in ca) != sorted(m for m, _ in cb):
        return float("inf")
    mult_a = np.array([m for m, _ in ca])
    mult_b = np.array([m for m, _ in cb])
    mean_a = np.array([v for _, v in ca])
    mean_b = np.array([v for _, v in cb])
    cost = np.abs(mean_a[:, None] - mean_b[None, :])
    cost = np.where(mult_a[:, None] == mult_b[None, :], cost, np.inf)
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError:  # infeasible: no multiplicity-respecting matching
        return float("inf")
    return float(cost[rows, cols].max())
