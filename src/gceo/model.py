"""Problem instances and the basic distortion algebra.

A remote Gaussian source X with variance ``sigma_x2`` is observed by L
encoders through independent additive Gaussian noises N_i with variances
``sigma_n2[i]`` (Y_i = X + N_i).  Each encoder describes its observation
through a Gaussian test channel W_i = Y_i + T_i, and the whole geometry of
the problem is parametrised by the per-encoder conditional mutual
informations

    r_i = I(Y_i; W_i | X) = (1/2) ln((sigma_n2[i] + sigma_t2) / sigma_t2)

measured in nats.  The map r_i <-> sigma_t2 is a bijection between
[0, +inf] and [+inf, 0]; infinite rate is represented by the finite cap
``R_MAX`` with exp(-2*R_MAX) treated as exactly zero.

Joint MMSE decoding of all descriptions gives the precision

    1/sigma_x2 + sum_i (1 - exp(-2 r_i)) / sigma_n2[i]

whose reciprocal is the achievable distortion for the allocation r.  The
feasible set of a distortion target D is F(D) = {r >= 0 : precision(r) >= 1/D}.

Three rules that the other modules share have their one definition here:

* ``joint_rate``, the joint rate (1/2) log1p(w / p0) + sum r of a set of
  descriptions decoded together over a base precision p0, w their total
  weight: the rank f(A, r) of the rate region, the dominant face's sum
  rate and the inverse map's sum-rate identity;
* ``capped_precision``, the precision of the prior and of encoders
  described at infinite rate (the inverse map's base, the hyperplane's
  zero-direction encoders, ``d_min``);
* ``_check_allocation`` and ``_check_chain``, the checks of a rate or
  allocation vector and of a nondecreasing chain of them (refinement
  stages, Monte Carlo allocation chains).

Tolerances.  The region's subset inequalities, its vertices and faces,
and the stage inequalities of a refinement chain hold with equality at
points that matter (the full set, a vertex's decode chain, the one-stage
chain [R]), so a computed slack there is zero only up to rounding.  Every
comparison of such a slack therefore allows a rounding floor,
``rate_floor(R)`` = RATE_FLOOR nats per nat of the magnitude of the rates
R involved, max(1, sum_i min(|R_i|, R_MAX)), and the caller's ``tol``
adds on top of it: a check passes when slack >= -(tol + floor), and a
set is tight, or a rate pair on an omega boundary, when |slack| <= tol +
floor.  So ``tol = 0`` means exact up to the floor.  Rates are clipped at
R_MAX first, so an infinite or capped rate never makes the floor
infinite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ArgumentError

# Stand-in for an infinite rate, in nats.  exp(-2*R_MAX) < 1e-43 which is
# far below every tolerance used here, and all formulas treat it as exact 0.
R_MAX = 50.0

# Equality tolerance for closed-form algebra and the default ``tol`` of
# region membership, faces and schedules, in nats.
TOL_EQ = 1e-9

# Default ``tol`` of the two-encoder region tags (``inversion.omega_tag``)
# and of the refinement stage test (``refinement.check_refinement`` and its
# grid map), in nats.
OMEGA_TOL = 1e-7
FEASIBILITY_TOL = 1e-6

# Rounding floor of a rate comparison, per nat of the rates involved
# (``rate_floor``): ~450 ulps of their sum.
RATE_FLOOR = 1e-13

# Most a rate or allocation chain may drop from one stage to the next, in
# nats; such a stage counts as equal to the one before it.
CHAIN_DROP = 1e-12

# Region membership and the refinement stage test (an O(L log L)
# threshold scan each: one sweep plus the singletons), the inverse map
# (each block search starts at its best singleton; a singleton block takes
# one scan and no Newton step), the scheduler
# (one pass over the threshold prefixes per face step, one grow per
# split, no backtracking) and its validator (O(L) in closed form)
# enumerate no subsets; a schedule takes ~0.1 s at L = 256.  What still
# grows fast with L is face identification (O(L^2) candidate sets), the
# inverse map (~L^2 log L: one threshold scan per singleton block, ~50 ms
# at L = 256) and the ``dominant_face_form`` cross-check (2^L conditional
# ranks, run by no command), so L stays at desk scale until a benchmark
# sweep over L shows what a larger cap costs.
MAX_ENCODERS = 16


def exp_neg2r(r: float) -> float:
    """exp(-2r) with the cap convention: exactly 0 at or beyond R_MAX."""
    if r >= R_MAX:
        return 0.0
    return math.exp(-2.0 * r)


def is_cap(r: float) -> bool:
    return r >= R_MAX


def rate_floor(R) -> float:
    """Rounding floor of a comparison among the rates R, in nats:
    RATE_FLOOR * max(1, sum_i min(|R_i|, R_MAX))."""
    return RATE_FLOOR * max(1.0, sum([min(abs(v), R_MAX) for v in R]))


@dataclass(frozen=True)
class CeoInstance:
    """Source variance and per-encoder observation-noise variances."""

    sigma_x2: float
    sigma_n2: tuple[float, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "sigma_n2", tuple(float(v) for v in self.sigma_n2))
            object.__setattr__(self, "sigma_x2", float(self.sigma_x2))
        except (TypeError, ValueError) as exc:
            raise ArgumentError(f"variances must be numbers: {exc}") from exc
        # A subnormal variance below ~5.6e-309 has an infinite precision.
        if not (0.0 < self.sigma_x2 < math.inf and 1.0 / self.sigma_x2 < math.inf):
            raise ArgumentError(f"sigma_x2 must be finite and positive with a finite reciprocal, got {self.sigma_x2}")
        if len(self.sigma_n2) == 0:
            raise ArgumentError("need at least one encoder")
        if len(self.sigma_n2) > MAX_ENCODERS:
            raise ArgumentError(
                f"at most {MAX_ENCODERS} encoders supported (a desk-scale cap: face "
                f"identification and the inverse map grow as L^2), got {len(self.sigma_n2)}"
            )
        for v in self.sigma_n2:
            if not (0.0 < v < math.inf and 1.0 / v < math.inf):
                raise ArgumentError(f"every sigma_n2 entry must be finite and positive with a finite reciprocal, got {v}")

    @property
    def L(self) -> int:
        return len(self.sigma_n2)

    @classmethod
    def from_dict(cls, data: dict) -> "CeoInstance":
        try:
            return cls(sigma_x2=data["sigma_x2"], sigma_n2=tuple(data["sigma_n2"]))
        except KeyError as exc:
            raise ArgumentError(f"instance JSON is missing field {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "CeoInstance":
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        return {"sigma_x2": self.sigma_x2, "sigma_n2": list(self.sigma_n2)}


def _check_allocation(instance: CeoInstance, r, what: str = "allocation") -> tuple[float, ...]:
    """r as a tuple of floats, one entry >= 0 per encoder (infinity allowed,
    NaN not); ``what`` names the vector in the error text."""
    r = tuple(float(v) for v in r)
    if len(r) != instance.L:
        raise ArgumentError(f"{what} has length {len(r)}, instance has {instance.L} encoders")
    for v in r:
        if v < 0.0 or math.isnan(v):
            raise ArgumentError(f"{what} entries must be >= 0, got {v}")
    return r


def _check_chain(instance: CeoInstance, chain, what: str) -> list[tuple[float, ...]]:
    """The vectors of a nonempty chain, each checked by ``_check_allocation``
    (the j-th named "``what`` j"), where no entry drops by more than
    CHAIN_DROP from one vector to the next."""
    out = [_check_allocation(instance, v, f"{what} {j + 1}") for j, v in enumerate(chain)]
    if not out:
        raise ArgumentError(f"need at least one {what}")
    for j in range(1, len(out)):
        if any(a > b + CHAIN_DROP for a, b in zip(out[j - 1], out[j])):
            raise ArgumentError(f"{what} {j + 1} decreases some entry relative to {what} {j}")
    return out


def r_from_channel_noise(instance: CeoInstance, i: int, sigma_t2: float) -> float:
    """Description rate r_i of a test channel with noise variance sigma_t2.

    Returns 0 for infinite noise and R_MAX (the cap) for zero noise.
    """
    if sigma_t2 < 0.0:
        raise ArgumentError(f"sigma_t2 must be >= 0, got {sigma_t2}")
    if sigma_t2 == 0.0:
        return R_MAX
    if math.isinf(sigma_t2):
        return 0.0
    return 0.5 * math.log1p(instance.sigma_n2[i] / sigma_t2)


def channel_noise_from_r(instance: CeoInstance, i: int, r_i: float) -> float:
    """Test-channel noise variance realizing rate r_i; inverse of r_from_channel_noise."""
    if r_i < 0.0:
        raise ArgumentError(f"r_i must be >= 0, got {r_i}")
    if r_i == 0.0:
        return math.inf
    if is_cap(r_i):
        return 0.0
    # sigma_n2 e / (1 - e) with e = exp(-2 r_i), written so that tiny rates
    # neither cancel nor divide by zero.
    return instance.sigma_n2[i] / math.expm1(2.0 * r_i)


def precision_weight(sn: float, r: float) -> float:
    """Contribution (1 - exp(-2 r)) / sn to the precision of a description
    at rate r of an observation with noise variance sn: 1/(sn + sigma_t2)
    for the test-channel noise sigma_t2 that ``channel_noise_from_r`` gives.

    Written with expm1 so that small rates do not cancel; at the cap,
    -expm1(-2 R_MAX) rounds to exactly 1.
    """
    return -math.expm1(-2.0 * r) / sn


def joint_rate(sn, r, p0: float) -> float:
    """(1/2) log1p(w / p0) + sum r: the joint rate of descriptions at rates r
    of observations with noise variances sn, decoded together once the
    decoder holds the precision p0, with w their total precision weight.

    This is the rank f(A, r) of a set A (p0 the prior plus the weights of
    A's complement) and, at p0 = 1/sigma_x2, the sum rate of the dominant
    face.  log1p keeps it accurate when w is small next to p0.
    """
    return 0.5 * math.log1p(sum(map(precision_weight, sn, r)) / p0) + sum(r)


def capped_precision(instance: CeoInstance, capped) -> float:
    """1/sigma_x2 plus 1/sigma_n2[i] for each encoder i in ``capped``: the
    precision of those encoders described at infinite rate
    (``precision_weight(sn, R_MAX)`` is exactly 1/sn)."""
    return 1.0 / instance.sigma_x2 + sum(1.0 / instance.sigma_n2[i] for i in capped)


def precision(instance: CeoInstance, r) -> float:
    """1/sigma_x2 + sum_i (1 - exp(-2 r_i)) / sigma_n2[i]; increasing in each r_i."""
    r = _check_allocation(instance, r)
    return 1.0 / instance.sigma_x2 + sum(
        precision_weight(sn, v) for sn, v in zip(instance.sigma_n2, r)
    )


def distortion(instance: CeoInstance, r) -> float:
    """MMSE of X given all descriptions of the allocation r (reciprocal precision)."""
    return 1.0 / precision(instance, r)


def d_min(instance: CeoInstance, k: int) -> float:
    """Distortion floor using the k least-noisy encoders at infinite rate."""
    if not 1 <= k <= instance.L:
        raise ArgumentError(f"k must be in [1, {instance.L}], got {k}")
    return 1.0 / capped_precision(instance, sorted(range(instance.L), key=instance.sigma_n2.__getitem__)[:k])
