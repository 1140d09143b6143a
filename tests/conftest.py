"""Shared fixtures and samplers for the test suite.

The samplers encode the geometry facts the tests rely on:

* a vertex of the region of allocation r lies on the distortion boundary
  (and therefore round-trips through the inverse map) exactly when its
  decode order lists the water-filling constants K_i = sigma_n2[i] *
  exp(2 r_i) in decreasing order (first decoded = largest K);
* growing only the last-decoded encoder's allocation, with every other
  coordinate frozen, produces a feasible refinement chain whose stages are
  the compatible vertices of the growing allocations.

It also holds the exhaustive oracles, exact at desk scale: the region
slack over every subset; the inverse map over every ordered decode-block
partition (largest precision wins) and by a block-by-block decomposition
that tries every subset as the next block; and the inverse map's convex
program with one row per subset, whose all-rows KKT residual is the
reference certificate.  None calls the code it checks beyond the block
equation (``oracles.solve_blocks`` over ``inversion._block_constant``).
Finally it holds the per-node formulation of the reachability grid map,
and registers a derandomized hypothesis profile so property tests draw
the same examples on every run.
"""

import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import settings
from scipy.optimize import nnls

from gceo.model import CeoInstance, R_MAX, precision_weight
from gceo import inversion
from gceo import polymatroid as pm
from gceo.refinement import GridNode, check_refinement
from oracles import solve_blocks

settings.register_profile("gceo", derandomize=True, deadline=None, database=None)
settings.load_profile("gceo")


@pytest.fixture
def sym2():
    return CeoInstance(1.0, (1.0, 1.0))


SYM2 = CeoInstance(1.0, (1.0, 1.0))

ASYM_INSTANCES = (
    CeoInstance(1.0, (0.6, 1.7)),
    CeoInstance(2.0, (0.5, 2.0)),
    CeoInstance(0.8, (1.3, 0.9)),
)


def random_instance(rng, L):
    return CeoInstance(
        float(rng.uniform(0.5, 2.0)),
        tuple(float(v) for v in rng.uniform(0.3, 3.0, L)),
    )


def random_alloc(rng, L, lo=0.05, hi=3.0):
    return tuple(float(v) for v in rng.uniform(lo, hi, L))


def waterfill_constants(instance, r):
    return [instance.sigma_n2[i] * math.exp(2.0 * r[i]) for i in range(instance.L)]


def compatible_decode_order(instance, r):
    """Decode order whose vertex lies on the distortion boundary.

    vertex(pi) decodes pi[-1] first and pi[0] last; boundary contact needs
    the water-filling constants increasing along pi.
    """
    K = waterfill_constants(instance, r)
    return tuple(sorted(range(instance.L), key=lambda i: K[i]))


def boundary_vertex(instance, r):
    return pm.vertex(instance, r, compatible_decode_order(instance, r))


def dominant_face_point(instance, r, rng):
    """Random convex combination of all vertices (interior generically)."""
    vs = [pm.vertex(instance, r, pi) for pi in permutations(range(instance.L))]
    wts = rng.dirichlet(np.ones(len(vs)))
    return tuple(float(sum(w * v[k] for w, v in zip(wts, vs))) for k in range(instance.L))


def last_decoded_chain(instance, rng, M, lo=0.2, hi=1.2):
    """Feasible refinement chain: only the last-decoded encoder refines.

    Returns (stage rate tuples, allocation chain).  Increments are capped
    so that the decode order stays compatible at every stage.
    """
    L = instance.L
    for _ in range(500):
        r0 = list(random_alloc(rng, L, lo, hi))
        order = compatible_decode_order(instance, r0)
        last = order[0]
        K = waterfill_constants(instance, r0)
        second = min(K[i] for i in range(L) if i != last) if L > 1 else math.inf
        # Max total growth of r_last keeping its constant strictly smallest.
        room = 0.5 * math.log(second / K[last])
        if room > 0.15 * (M - 1) + 0.05:
            break
    else:
        raise RuntimeError(f"no refinable allocation found for {instance}")
    allocs = [tuple(r0)]
    stages = [pm.vertex(instance, r0, order)]
    r = list(r0)
    for _ in range(M - 1):
        r[last] += float(rng.uniform(0.05, min(0.15, room / M)))
        allocs.append(tuple(r))
        stages.append(pm.vertex(instance, r, order))
    return stages, allocs


def sample_omega_point(instance, rng, want, margin=1e-3, lo=0.02, hi=3.0, tries=4000):
    """Rate pair strictly inside a branch region (margin away from thresholds)."""
    from gceo.inversion import omega_margins

    for _ in range(tries):
        R = (float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))
        t1, t2 = omega_margins(instance, R)
        if want == "OMEGA1" and t1 > margin and t2 < -margin:
            return R
        if want == "OMEGA2" and t2 > margin and t1 < -margin:
            return R
        if want == "OMEGA3" and t1 < -margin and t2 < -margin:
            return R
    raise RuntimeError(f"could not sample a point in {want} for {instance}")


def exhaustive_slack(sn, R, r, p0):
    """min over nonempty A of R(A) - r(A) - (1/2) ln(p_all / p_comp(A)) in a
    region with base precision p0, by explicit numpy enumeration of all
    2^n - 1 subsets (p_comp(A) = p0 plus the weights outside A)."""
    n = len(sn)
    inside = (np.arange(1, 1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    r = np.asarray(r, dtype=float)
    e = np.where(r >= R_MAX, 0.0, np.exp(-2.0 * np.minimum(r, R_MAX)))
    w = (1.0 - e) / np.asarray(sn, dtype=float)
    p_comp = p0 + np.where(inside, 0.0, w).sum(axis=1)
    gap = np.where(inside, np.asarray(R, dtype=float) - r, 0.0).sum(axis=1)
    return float(np.min(gap - 0.5 * np.log((p0 + w.sum()) / p_comp)))


def instance_slack(instance, r, R):
    """Exhaustive min_slack oracle for an instance (base precision 1/sigma_x2)."""
    return exhaustive_slack(instance.sigma_n2, R, r, 1.0 / instance.sigma_x2)


def ordered_partitions(items):
    """Every ordered partition of ``items`` into nonempty blocks."""
    if not items:
        yield ()
        return
    for size in range(1, len(items) + 1):
        for first in combinations(items, size):
            remaining = tuple(i for i in items if i not in first)
            for tail in ordered_partitions(remaining):
                yield (first,) + tail


def valid_block_allocations(sn, R, p0):
    """(blocks, r, precision) for every decode-block structure whose exact
    block solution lies in the region of a reduced problem."""
    for blocks in ordered_partitions(tuple(range(len(sn)))):
        r = solve_blocks(sn, R, blocks, p0)
        if r is None or exhaustive_slack(sn, R, r, p0) < -1e-9:
            continue
        yield blocks, r, p0 + sum(precision_weight(s, v) for s, v in zip(sn, r))


def enumerate_r_star(sn, R, p0):
    """Exhaustive oracle for a reduced problem: the optimal allocation is the
    valid decode-block candidate of maximal precision (L <= 5)."""
    assert len(sn) <= 5, "ordered-partition enumeration is a desk-scale oracle"
    return max(valid_block_allocations(sn, R, p0), key=lambda c: c[2])[1]


def greedy_r_star(sn, R, p0):
    """Subset-enumeration oracle for a reduced problem: Fujishige's
    decomposition with every candidate block tried.  Each round solves every
    nonempty subset A of the remaining encoders as one block through
    ``solve_blocks`` and decodes the one with the largest water-filling
    constant K_A (ties within 1e-12 relative go to the larger set), then
    conditions on it.  Exact where the max-precision pick of
    ``enumerate_r_star`` cannot resolve saturated coordinates (L <= 8)."""
    assert len(sn) <= 8, "subset enumeration is a desk-scale oracle"
    r = [0.0] * len(sn)
    remaining = tuple(range(len(sn)))
    p = p0
    while remaining:
        best_K, best = 0.0, None
        for size in range(1, len(remaining) + 1):
            for A in combinations(remaining, size):
                sol = solve_blocks(sn, R, [A], p)
                if sol is None:
                    continue
                K = sn[A[0]] * math.exp(2.0 * sol[A[0]])
                if K >= best_K * (1.0 - 1e-12):
                    best_K, best = max(K, best_K), (A, sol)
        A, sol = best
        for i in A:
            r[i] = sol[i]
        p += sum(precision_weight(sn[i], sol[i]) for i in A)
        remaining = tuple(i for i in remaining if i not in A)
    return r


class RegionProgram:
    """The inverse map as one convex program with a row per subset, kept as
    the all-rows reference certificate: max u over x = (q, u),
    q_i = exp(-r_i), subject to c_A(x) >= 0 for every subset A, with

        c_A(q, u) = R(A) - u/2 + (1/2) ln(p0 + w(A^c)) + sum_{i in A} ln q_i

    and w_i = (1 - q_i^2) / sigma_n2[i]; the empty set's row is the
    distortion constraint.  Every c_A is concave, so a feasible point that
    admits KKT multipliers on its active rows is the global optimum.
    """

    def __init__(self, sn, R, p0):
        n = len(sn)
        self.p0 = p0
        self.member = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(float)
        self.outside = 1.0 - self.member
        self.inv_sn = 1.0 / np.asarray(sn, dtype=float)
        self.rate = self.member @ np.asarray(R, dtype=float)

    def _p_outside(self, q):
        return self.p0 + self.outside @ ((1.0 - q * q) * self.inv_sn)

    def slacks(self, x):
        q, u = x[:-1], x[-1]
        return self.rate - 0.5 * u + 0.5 * np.log(self._p_outside(q)) + self.member @ np.log(q)

    def jacobian(self, x):
        q = x[:-1]
        jac = np.empty((len(self.rate), len(q) + 1))
        jac[:, :-1] = self.member / q - self.outside * (q * self.inv_sn) / self._p_outside(q)[:, None]
        jac[:, -1] = -0.5
        return jac

    def kkt_residual(self, r):
        """Stationarity residual of the best multipliers at (r, ln precision):
        NNLS for  sum_A lambda_A (-grad c_A) = grad u  over every active row
        (slack <= 1e-9), gradients in (r, u)."""
        q = np.exp(-np.asarray(r, dtype=float))
        p = self.p0 + float(((1.0 - q * q) * self.inv_sn).sum())
        x = np.append(q, math.log(p))
        active = self.slacks(x) <= 1e-9
        jac = self.jacobian(x)[active]
        jac[:, :-1] *= -q  # dq_i/dr_i
        target = np.zeros(len(q) + 1)
        target[-1] = 1.0
        _, residual = nnls(-jac.T, target)
        return float(residual)


def roadmap_repro(seed, L):
    """Random instance and boundary vertex of the ROADMAP inverse-map repros
    (L=7 with seed 3, L=8 with seed 1): (instance, R, allocation)."""
    rng = np.random.default_rng(seed)
    sigma_x2 = float(rng.uniform(0.5, 2.0))
    sigma_n2 = tuple(float(v) for v in rng.uniform(0.3, 3.0, L))
    r = tuple(float(v) for v in rng.uniform(0.1, 2.0, L))
    instance = CeoInstance(sigma_x2, sigma_n2)
    return instance, boundary_vertex(instance, r), r


def grid_map_oracle(instance, R_from, grid, tol=1e-6):
    """Reachability grid map node by node: classify, invert, and run the full
    two-stage chain test ``check_refinement([R_from, target])`` at every node
    that dominates the start (within 1e-12), target being the coordinatewise
    maximum of node and start."""
    lo, hi, step = grid
    n = int(round((hi - lo) / step)) + 1
    nodes = []
    for a in range(n):
        for b in range(n):
            R = (lo + a * step, lo + b * step)
            inv = inversion.r_star(instance, R)
            reach = False
            if R[0] >= R_from[0] - 1e-12 and R[1] >= R_from[1] - 1e-12:
                target = (max(R[0], R_from[0]), max(R[1], R_from[1]))
                reach = check_refinement(instance, [R_from, target], tol).feasible
            nodes.append(GridNode(R, inversion.classify_omega(instance, R), inv.d_star, inv.r_star, reach))
    return nodes
