"""Shared fixtures and samplers for the test suite.

The samplers encode the geometry facts the tests rely on:

* a vertex of the region of allocation r lies on the distortion boundary
  (and therefore round-trips through the inverse map) exactly when its
  decode order lists the water-filling constants K_i = sigma_n2[i] *
  exp(2 r_i) in decreasing order (first decoded = largest K);
* growing only the last-decoded encoder's allocation, with every other
  coordinate frozen, produces a feasible refinement chain whose stages are
  the compatible vertices of the growing allocations.

The exhaustive oracles live in ``oracles.py``.  This module also
registers a derandomized hypothesis profile, so property tests draw the
same examples on every run while no numeric literal in the source
changes: hypothesis 6.155 adds the numeric literals of local
modules to its draws, so adding or deleting one anywhere in ``src`` or
``tests`` changes what every property draws.  It also empties the kept
reachability-grid tables before every test, so call counts do not
depend on test order.
"""

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import settings

from gceo.model import CeoInstance
from gceo import polymatroid as pm
from gceo import refinement

settings.register_profile("gceo", derandomize=True, deadline=None, database=None)
settings.load_profile("gceo")


@pytest.fixture(autouse=True)
def no_kept_grid_tables():
    refinement._grid_tables.clear()


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


class CountingMath:
    """Stand-in for ``math`` in a module under test (patch it in as the
    module's ``math``): every call to one of ``names`` appends its argument
    to ``calls``, and every other attribute is the real one."""

    def __init__(self, *names):
        self.calls = []
        self.names = names

    def __getattr__(self, name):
        real = getattr(math, name)
        if name not in self.names:
            return real

        def counted(x):
            self.calls.append(x)
            return real(x)

        return counted


def roadmap_repro(seed, L):
    """Random instance and boundary vertex of the ROADMAP inverse-map repros
    (L=7 with seed 3, L=8 with seed 1): (instance, R, allocation)."""
    rng = np.random.default_rng(seed)
    sigma_x2 = float(rng.uniform(0.5, 2.0))
    sigma_n2 = tuple(float(v) for v in rng.uniform(0.3, 3.0, L))
    r = tuple(float(v) for v in rng.uniform(0.1, 2.0, L))
    instance = CeoInstance(sigma_x2, sigma_n2)
    return instance, boundary_vertex(instance, r), r
