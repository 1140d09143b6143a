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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ArgumentError

# Stand-in for an infinite rate, in nats.  exp(-2*R_MAX) < 1e-43 which is
# far below every tolerance used here, and all formulas treat it as exact 0.
R_MAX = 50.0

# Equality tolerance for closed-form algebra; looser one for iterated solves.
TOL_EQ = 1e-9
TOL_ITER = 1e-6

# Region membership and face identification (O(L^2) each) and the inverse
# map (a few threshold scans per decode block) enumerate no subsets.  The
# refinement report still lists every subset's slack (``stage_slacks``,
# 2^L rows per stage), whose full-set row callers read, so L stays at desk
# scale until a benchmark sweep over L shows what a larger cap costs.
MAX_ENCODERS = 16


def exp_neg2r(r: float) -> float:
    """exp(-2r) with the cap convention: exactly 0 at or beyond R_MAX."""
    if r >= R_MAX:
        return 0.0
    return math.exp(-2.0 * r)


def is_cap(r: float) -> bool:
    return r >= R_MAX


@dataclass(frozen=True)
class CeoInstance:
    """Source variance and per-encoder observation-noise variances."""

    sigma_x2: float
    sigma_n2: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma_n2", tuple(float(v) for v in self.sigma_n2))
        object.__setattr__(self, "sigma_x2", float(self.sigma_x2))
        if not (self.sigma_x2 > 0.0) or not math.isfinite(self.sigma_x2):
            raise ArgumentError(f"sigma_x2 must be finite and positive, got {self.sigma_x2}")
        if len(self.sigma_n2) == 0:
            raise ArgumentError("need at least one encoder")
        if len(self.sigma_n2) > MAX_ENCODERS:
            raise ArgumentError(
                f"at most {MAX_ENCODERS} encoders supported (refinement reports "
                f"list all 2^L subsets per stage), got {len(self.sigma_n2)}"
            )
        for v in self.sigma_n2:
            if not (v > 0.0) or not math.isfinite(v):
                raise ArgumentError(f"every sigma_n2 entry must be finite and positive, got {v}")

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


def _check_allocation(instance: CeoInstance, r) -> tuple[float, ...]:
    r = tuple(float(v) for v in r)
    if len(r) != instance.L:
        raise ArgumentError(f"allocation has length {len(r)}, instance has {instance.L} encoders")
    for v in r:
        if v < 0.0 or math.isnan(v):
            raise ArgumentError(f"allocation entries must be >= 0, got {v}")
    return r


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


def precision_weight(instance: CeoInstance, i: int, r_i: float) -> float:
    """Contribution (1 - exp(-2 r_i)) / sigma_n2[i] of one encoder to the precision."""
    return (1.0 - exp_neg2r(r_i)) / instance.sigma_n2[i]


def precision(instance: CeoInstance, r) -> float:
    """1/sigma_x2 + sum_i (1 - exp(-2 r_i)) / sigma_n2[i]; increasing in each r_i."""
    r = _check_allocation(instance, r)
    return 1.0 / instance.sigma_x2 + sum(
        precision_weight(instance, i, r[i]) for i in range(instance.L)
    )


def distortion(instance: CeoInstance, r) -> float:
    """MMSE of X given all descriptions of the allocation r (reciprocal precision)."""
    return 1.0 / precision(instance, r)


def d_min(instance: CeoInstance, k: int) -> float:
    """Distortion floor using the k least-noisy encoders at infinite rate."""
    if not 1 <= k <= instance.L:
        raise ArgumentError(f"k must be in [1, {instance.L}], got {k}")
    noise = sorted(instance.sigma_n2)
    return 1.0 / (1.0 / instance.sigma_x2 + sum(1.0 / v for v in noise[:k]))
