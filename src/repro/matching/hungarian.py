"""Kuhn-Munkres (Hungarian) algorithm for optimal assignment.

SpotServe's device mapper formulates the "which GPU goes to which
pipeline-stage-shard position" decision as maximum-weight bipartite matching
and solves it with the Kuhn-Munkres algorithm (Section 3.3).  This module
implements the O(n^3) Jonker-style shortest-augmenting-path variant from
scratch (no scipy dependency in the library code; the test-suite
cross-checks against ``scipy.optimize.linear_sum_assignment``).

Two public entry points are provided:

* :func:`minimum_cost_assignment` -- classic rectangular assignment
  minimising total cost.
* :func:`maximum_weight_assignment` -- the form the device mapper uses:
  maximise the total amount of reusable context.

Both accept an optional *warm start* (``initial_assignment=``): an
:class:`AssignmentState` captured from a previous solve
(``return_state=True``).  Consecutive adaptation rounds solve nearly
identical matrices -- the fleet changes by a few instances, so most cost
rows are byte-for-byte unchanged -- and the warm path resumes the
row-by-row sweep after the longest unchanged row prefix instead of
starting from scratch (the sweep's state after ``k`` rows is a pure
function of the first ``k`` cost rows).  Because the warm path replays the
reference arithmetic exactly from a recorded intermediate state, its
result is **bit-identical** to a cold solve of the same matrix -- never
merely "another optimal assignment" (pinned by
``tests/test_mapper_fast_path.py``).

Every solve, cold or warm, runs the same row sweep on plain Python lists;
``tests/test_matching_bruteforce.py`` pins its assignments against a
verbatim copy of the original solver.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

_INF = float("inf")

#: Per-row sweep state ``(u, v, match_col)``: row potentials, column
#: potentials and the 1-based row matched to each column.
_Snapshot = Tuple[List[float], List[float], List[int]]


class AssignmentState:
    """Warm-start state of a Kuhn-Munkres solve.

    Captures, for one solved (padded, 1-based) cost matrix, the row/column
    potentials and the partial matching after every row of the sweep, plus
    the final assignment.  Feeding the state of round ``t`` into the solve
    of round ``t+1`` seeds the potentials and partial matching from the
    previous solution: the rows that are byte-identical between the two
    matrices are skipped entirely and the sweep resumes from the first
    changed row.

    ``resumed_from`` records how many leading rows the *producing* solve
    reused from its seed (0 for a cold solve, ``n`` for a full cache hit).
    """

    __slots__ = ("padded", "snapshots", "assignment", "resumed_from")

    def __init__(
        self,
        padded: List[List[float]],
        snapshots: List[_Snapshot],
        assignment: List[int],
        resumed_from: int,
    ) -> None:
        self.padded = padded
        self.snapshots = snapshots
        self.assignment = assignment
        self.resumed_from = resumed_from


def _jv_sweep(
    padded: List[List[float]],
    n: int,
    u: List[float],
    v: List[float],
    match_col: List[int],
    start_row: int,
    snapshots: Optional[List[_Snapshot]],
) -> None:
    """Process rows ``start_row+1 .. n`` of the shortest-augmenting-path sweep.

    Mutates ``u``/``v``/``match_col`` in place.  When *snapshots* is given,
    appends a copy of the state after every processed row (the sweep's state
    after ``k`` rows depends only on the first ``k`` cost rows, which is what
    makes prefix-resume warm starts exact).  Plain Python lists beat numpy
    at every size the device mapper produces (4x4 intra-instance blocks up
    to ~30x30 outer and component solves), where per-call overhead dominates.
    """
    way = [0] * (n + 1)
    for row in range(start_row + 1, n + 1):
        match_col[0] = row
        j0 = 0
        minv = [_INF] * (n + 1)
        # Used columns in the order they joined the tree (column 0 holds the
        # current row); free columns stay ascending, so the strict ``<``
        # running minimum below picks the lowest-index minimiser.
        used = [0]
        free = list(range(1, n + 1))
        while True:
            i0 = match_col[j0]
            row_i0 = padded[i0]
            u_i0 = u[i0]
            delta = _INF
            j1 = -1
            # Relax every free column against the newly used column j0.
            for j in free:
                cur = row_i0[j] - u_i0 - v[j]
                best = minv[j]
                if cur < best:
                    minv[j] = best = cur
                    way[j] = j0
                if best < delta:
                    delta = best
                    j1 = j
            for j in used:
                u[match_col[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
            used.append(j0)
            free.remove(j0)
        # Augment along the found path.
        while True:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
            if j0 == 0:
                break
        if snapshots is not None:
            snapshots.append((u[:], v[:], match_col[:]))


def _extract_assignment(match_col: List[int], n: int) -> List[int]:
    """Row -> column assignment (0-based) from the 1-based matched columns."""
    assignment = [0] * n
    for j in range(1, n + 1):
        if match_col[j] != 0:
            assignment[match_col[j] - 1] = j - 1
    return assignment


def _solve_padded(
    padded: List[List[float]],
    n: int,
    seed: Optional[AssignmentState],
    record: bool,
) -> Tuple[List[int], Optional[AssignmentState]]:
    """Solve the padded ``n x n`` problem, optionally warm-started.

    Finds the longest prefix of cost rows that equals the *seed* state's
    matrix row for row, restores the recorded potentials and partial
    matching after that prefix, and sweeps only the remaining rows.  A full
    prefix is a cache hit: the previous assignment is returned without any
    work.  Falls back to a cold sweep when the seed is absent or its shape
    differs (config or fleet-size change).
    """
    prefix = 0
    if seed is not None and len(seed.padded) == n + 1 and seed.snapshots:
        # Longest run of equal leading *cost* rows (row 0 is the shared
        # zero padding), capped by how many snapshots the seed recorded.
        limit = min(n, len(seed.snapshots) - 1)
        seed_rows = seed.padded
        while prefix < limit and seed_rows[prefix + 1] == padded[prefix + 1]:
            prefix += 1
        if prefix == n:
            # Identical matrix: the previous solution is *the* solution.
            seed.resumed_from = n
            return list(seed.assignment), seed

    if prefix > 0:
        u0, v0, mc0 = seed.snapshots[prefix]
        u, v, match_col = u0[:], v0[:], mc0[:]
        snapshots = seed.snapshots[: prefix + 1] if record else None
    else:
        u = [0.0] * (n + 1)
        v = [0.0] * (n + 1)
        match_col = [0] * (n + 1)
        snapshots = [(u[:], v[:], match_col[:])] if record else None

    _jv_sweep(padded, n, u, v, match_col, prefix, snapshots)
    assignment = _extract_assignment(match_col, n)
    state = None
    if record:
        state = AssignmentState(
            padded=padded,
            snapshots=snapshots,
            assignment=assignment,
            resumed_from=prefix,
        )
    return assignment, state


def minimum_cost_assignment(
    cost_matrix: Sequence[Sequence[float]],
    initial_assignment: Optional[AssignmentState] = None,
    return_state: bool = False,
):
    """Minimum-cost assignment on a rectangular cost matrix.

    Returns a list of ``(row, column)`` pairs covering ``min(n_rows, n_cols)``
    assignments with the smallest possible total cost.

    ``initial_assignment`` warm-starts the solve from a previous round's
    :class:`AssignmentState` (bit-identical to a cold solve by construction);
    ``return_state=True`` returns ``(pairs, state)`` so the caller can seed
    the next round.
    """
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.size == 0:
        return ([], None) if return_state else []
    if cost.ndim != 2:
        raise ValueError("cost_matrix must be two-dimensional")
    if not np.isfinite(cost).all():
        raise ValueError("cost_matrix entries must be finite")
    rows, cols = cost.shape
    size = max(rows, cols)
    # Pad to a square matrix with zeros (padded cells are "dummy"
    # assignments), then prepend the zero row and column of 1-based indexing.
    zero_row = [0.0] * (size + 1)
    pad = [0.0] * (size - cols)
    padded = [zero_row] + [[0.0] + row + pad for row in cost.tolist()]
    padded += [zero_row] * (size - rows)
    assignment, state = _solve_padded(
        padded, size, initial_assignment, record=return_state
    )
    pairs = [
        (row, col)
        for row, col in enumerate(assignment)
        if row < rows and col < cols
    ]
    if return_state:
        return pairs, state
    return pairs


def maximum_weight_assignment(
    weight_matrix: Sequence[Sequence[float]],
    initial_assignment: Optional[AssignmentState] = None,
    return_state: bool = False,
):
    """Maximum-weight assignment (the device mapper's objective).

    Every row (GPU) is matched to at most one column (topology position) and
    vice versa, maximising the total weight (reusable context bytes).  The
    warm-start parameters mirror :func:`minimum_cost_assignment`.
    """
    weights = np.asarray(weight_matrix, dtype=float)
    if weights.size == 0:
        return ([], None) if return_state else []
    if weights.ndim != 2:
        raise ValueError("weight_matrix must be two-dimensional")
    if not np.isfinite(weights).all():
        raise ValueError("weight_matrix entries must be finite")
    # Maximising weight == minimising (max_weight - weight).
    return minimum_cost_assignment(
        weights.max() - weights,
        initial_assignment=initial_assignment,
        return_state=return_state,
    )


def assignment_weight(
    weight_matrix: Sequence[Sequence[float]], assignment: Sequence[Tuple[int, int]]
) -> float:
    """Total weight of *assignment* under *weight_matrix*."""
    weights = np.asarray(weight_matrix, dtype=float)
    return float(sum(weights[row, col] for row, col in assignment))


def greedy_assignment(weight_matrix: Sequence[Sequence[float]]) -> List[Tuple[int, int]]:
    """Greedy maximum-weight matching baseline (used in mapper ablations).

    Repeatedly picks the globally heaviest remaining edge.  Cheaper than KM
    but not optimal; SpotServe's ablation motivates the optimal matcher.

    Zero-weight edges are skipped outright: they cannot change the matched
    weight, and materialising every cell of the matrix allocated O(n*m)
    tuples on heavy-traffic fleets just to "match" pairs with no reuse.
    Devices the greedy pass leaves unmatched flow through the mapper's
    zone-aware fill instead of receiving an arbitrary zero-reuse position.
    """
    weights = np.asarray(weight_matrix, dtype=float)
    if weights.ndim != 2:
        raise ValueError("weight_matrix must be two-dimensional")
    if weights.size == 0:
        return []
    # np.nonzero walks the matrix in row-major order, so the edge list is
    # deterministic before the sort and the (row, col) tie-break matches the
    # dense enumeration the scalar loop used to produce.
    pos_rows, pos_cols = np.nonzero(weights > 0)
    edges = [
        (weights[row, col], row, col)
        for row, col in zip(pos_rows.tolist(), pos_cols.tolist())
    ]
    edges.sort(key=lambda item: (-item[0], item[1], item[2]))
    used_rows: set = set()
    used_cols: set = set()
    result: List[Tuple[int, int]] = []
    for _, row, col in edges:
        if row in used_rows or col in used_cols:
            continue
        used_rows.add(row)
        used_cols.add(col)
        result.append((row, col))
    return result
