"""Statistical confirmation of the distortion algebra by simulation.

X ~ N(0, sigma_x2) is observed as Y_i = X + N_i, and encoder i's stage-j
description is W_ji = Y_i + T_ji with the test-channel variance
sigma_t2[j][i] implied by the allocation (infinite, so absent, at rate 0).
Everything is jointly Gaussian, so the per-stage MMSE estimate is linear:

    xhat_j = D_j * sum_i W_ji / (sigma_n2[i] + sigma_t2[j][i]),    D_j = 1/precision.

Draw plan.  A stage's error depends only on the joint law of (X, W_j.):
W_ji = X + U_ji with U_ji ~ N(0, sigma_n2[i] + sigma_t2[j][i]) independent
across encoders and of X.  So the plan never splits N_i and T_i
(Y_i enters no estimate), and it has one independent standard normal row
per source of noise:

* row 0 is X / sqrt(sigma_x2);
* each encoder heard at some stage gets one row, its finest noise
  N_i + T_i with variance sigma_n2[i] + sigma_t2 at its finest heard stage;
* each coarser stage whose test-channel variance grows by delta > 0 adds
  one row, the refinement noise of variance delta that degrades the next
  finer description.  A stage with no growth shares that description
  (a drop within the chain tolerance counts as no growth);
* an encoder silent at every stage draws nothing.

Stage j's error X - xhat_j is then linear in the draws: it is G[j] @ z
for the (stages x rows) error map G built once per call by ``_error_map``.
With unscaled coefficients the squares of G's row j sum to D_j, which the
tests check exactly.  The plan defines G; it is not what is drawn.

Draws.  The stage errors G z are jointly Gaussian, N(0, G G^T), so any
map with the same Gram matrix draws them with the same law.  Equal stages
give equal rows, and ``_draw_map`` keeps each distinct row once, then
factors G^T = Q T (reduced QR, T upper triangular with min(columns,
distinct rows) rows) and draws through T^T: G z = T^T (Q^T z), and Q^T z
is standard normal because Q has orthonormal columns.  So a sample draws
min(rows of the plan, distinct stages) normals -- one for a single stage
where the plan has one per heard encoder plus X.  QR, unlike a Cholesky
factor of G G^T, also holds for a rank-deficient map.

Sampling.  Each call draws from one stream, SFC64 seeded by ``seed``, in
chunks of ``SHARD_SIZE`` = 16384 samples (the last one shorter).  Each
chunk makes one ``standard_normal`` block, one matrix product gives every
distinct stage's errors, and the sums of e^2 and e^4 are two reductions,
added in chunk order.  A single-stage draw map is 1x1, and there the
block is scaled in place by its one entry instead, which gives the
product's values without its call; the squares are taken in place.  So a report depends only on (instance, chain, n,
seed), the chunks bound the memory a call holds, and equal stages get
bit-identical reports.  Everything runs in the calling thread, and the
module keeps no state between calls.

Scale.  Each row of the draw map is taken in units of 2^b, b the binary
exponent of its largest entry, so the sums of e^2 and e^4 stay in float
range at any variance scale.  The scaling is exact and is undone on the
results: scaling every variance by 4^k scales the MSEs, standard errors
and predicted distortions by exactly 4^k and leaves the z-scores
bit-identical, and where the unscaled sums neither overflow nor
underflow the reports are those of unscaled sums.

numpy is imported by the functions that use it, not with the module, so
that the command-line front end loads this module at start-up without
loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArgumentError
from .model import CeoInstance, _check_allocation, _check_chain, channel_noise_from_r, distortion

SHARD_SIZE = 1 << 14


@dataclass(frozen=True)
class SimConfig:
    n_samples: int
    seed: int

    def __post_init__(self):
        # One sample has no standard error, so a report needs two.
        if not 2 <= self.n_samples < 2**64:
            raise ArgumentError(f"n_samples must be at least 2 and fit in 64 bits, got {self.n_samples}")
        if not 0 <= self.seed < 2**64:
            raise ArgumentError("seed must fit in 64 bits")


@dataclass(frozen=True)
class SimReport:
    empirical_mse: tuple[float, ...]
    analytic_d: tuple[float, ...]
    stderr: tuple[float, ...]
    z_scores: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "empirical_mse": list(self.empirical_mse),
            "analytic_d": list(self.analytic_d),
            "stderr": list(self.stderr),
            "z_scores": list(self.z_scores),
        }


def _shard_sums(G, rng, m: int):
    """Per row of G, the sums of e^2 and e^4 over the next m draws of rng.

    A 1x1 map scales the normals in place, which is the product G @ z
    without its call; both squares are taken in place.
    """
    se = rng.standard_normal((G.shape[1], m))
    if G.shape == (1, 1):
        se *= G[0, 0]
    else:
        se = G @ se
    se *= se
    sums = se.sum(axis=1)
    se *= se
    return sums, se.sum(axis=1)


def _error_map(instance: CeoInstance, chain):
    """Error map G and the predicted distortions of an allocation chain.

    Stage j's estimation error is ``G[j] @ z`` for a vector z of independent
    standard normals, one entry per row of the draw plan (see the module
    docstring); ``_draw_map`` reduces G to what is drawn.  The squares of
    row j sum to stage j's predicted distortion.
    """
    import numpy as np

    M = len(chain)
    analytic = [distortion(instance, r) for r in chain]
    sx = math.sqrt(instance.sigma_x2)
    x_weight = [1.0] * M
    columns = []
    for i in range(instance.L):
        sn = instance.sigma_n2[i]
        own = []  # (column, std) of every draw in encoder i's description
        held = None  # test-channel variance of that description
        for j in range(M - 1, -1, -1):
            v = channel_noise_from_r(instance, i, chain[j][i])
            if v == math.inf:
                continue
            if held is None:
                own.append(([0.0] * M, math.sqrt(sn + v)))
                held = v
            elif v > held:
                own.append(([0.0] * M, math.sqrt(v - held)))
                held = v
            # A variance below the held one (a rate drop within the chain
            # tolerance) reuses the held description: its increment is 0.
            c = analytic[j] / (sn + v)
            x_weight[j] -= c
            for column, std in own:
                column[j] = -c * std
        columns.extend(column for column, _ in own)
    return np.array([[sx * w for w in x_weight], *columns]).T, analytic


def _draw_map(G):
    """Draw map of the error map G and the stage-to-row index.

    Equal stages keep one row, so their errors are bit-identical.  The
    distinct rows are replaced by T^T from the reduced QR factorization
    G^T = Q T: G z = T^T (Q^T z) and Q^T z is standard normal, so the
    reduced map's errors have the law of G z with at most one draw per
    distinct stage.
    """
    import numpy as np

    G, stage_row = np.unique(G, axis=0, return_inverse=True)
    return np.linalg.qr(G.T, mode="r").T, stage_row.reshape(-1)  # stage_row is 2-D in numpy 2.0.0


def _simulate(instance: CeoInstance, chain, config: SimConfig) -> SimReport:
    import numpy as np

    G, analytic = _error_map(instance, chain)
    G, stage_row = _draw_map(G)
    # Each row in units of 2^b (see "Scale" in the module docstring).
    b = np.frexp(np.abs(G).max(axis=1))[1]
    G = np.ldexp(G, -b[:, None])
    n = config.n_samples
    rng = np.random.Generator(np.random.SFC64(config.seed))
    sums = np.zeros((2, len(G)))
    for start in range(0, n, SHARD_SIZE):
        sums += _shard_sums(G, rng, min(SHARD_SIZE, n - start))
    sum_se, sum_se2 = sums[:, stage_row].tolist()
    mse, stderr, z = [], [], []
    for j, k in enumerate((2 * b[stage_row]).tolist()):
        m = sum_se[j] / n
        var = (sum_se2[j] - n * m ** 2) / (n - 1)
        s = math.sqrt(max(var, 0.0) / n)
        mse.append(math.ldexp(m, k))
        stderr.append(math.ldexp(s, k))
        z.append((m - math.ldexp(analytic[j], -k)) / s if s > 0.0 else math.inf)
    return SimReport(
        empirical_mse=tuple(mse),
        analytic_d=tuple(analytic),
        stderr=tuple(stderr),
        z_scores=tuple(z),
    )


def simulate_distortion(instance: CeoInstance, r, config: SimConfig) -> SimReport:
    """Single-stage simulation of the allocation r against its predicted MMSE."""
    r = _check_allocation(instance, r)
    return _simulate(instance, [r], config)


def simulate_refinement(instance: CeoInstance, r_chain, config: SimConfig) -> SimReport:
    """Multistage simulation of a nondecreasing allocation chain.

    Stage j's estimate uses only stage j's (degraded) descriptions; each
    stage is scored against its own predicted distortion.
    """
    return _simulate(instance, _check_chain(instance, r_chain, "allocation"), config)
