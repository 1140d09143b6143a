"""Successive Wyner-Ziv schedules and the Gaussian conditional-MI engine.

A schedule realizes a dominant-face rate tuple as an ordered pipeline of
single-description Wyner-Ziv steps: each step conveys one description of
one encoder, the decoder uses everything decoded so far as side
information, and a step's rate is the conditional mutual information
I(Y_i; W | decoded so far).  Splitting one encoder's description into a
coarse stage (its test channel plus extra independent noise, so
coarse -> fine -> Y_i is Markov) and a fine stage is enough to reach any
point of the dominant face with at most 2L - 1 steps, and at most
L + d steps when the point lies on a d-dimensional face.

The construction (``build_schedule``) is recursive peeling over the
active encoder set A with accumulated side information Z, in two cases:

  face step: given Z, the rates of A form a dominant-face point of a
      region with the polymatroid form of ``polymatroid``, with base
      precision p(Z), c_i = r_i - R_i and the fine weights w_i (no active
      encoder has a description in Z).  When its tight chain is
      nontrivial, decode the chain's blocks in order, each block peeled
      with every earlier description added to Z — exact, since a tight
      set's group rate is its rank with nothing else of A decoded.  A lone
      encoder at its unconditioned rate, or one at its fully conditioned
      rate, is the one-encoder or all-but-one tight set.  Tightness is
      tested to the builder's tol plus a rounding floor; where near-ties
      make tight sets cross, the chain keeps the largest ones;
  split: otherwise choose the coarse noise of a candidate j so that
      rate(coarse | Z) + rate(fine | coarse, fines of A-j, Z) = R_j,
      decode the coarse description first, the fine one last, and recurse
      on A-j (A without j) with the coarse description added to Z.

Each encoder takes one step, plus one for a split.  A face step cuts a
d-face into blocks whose face dimensions sum to d, and a split of a block
of b encoders (a (b-1)-face) leaves b - 1 encoders on a face of dimension
at most b - 2, so a point on a d-dimensional face takes at most L + d
steps.  Split candidates are tried in ascending encoder index, and a
candidate whose remainder turns out infeasible deeper in the recursion
hands over to the next one.

Every step rate is scalar precision algebra: descriptions are independent
given X and same-encoder descriptions are nested, so
I(Y_j; W | Z) = (1/2) ln(p(Z + W) / p(Z)) + rho(W) - rho(Z_j), with p the
source precision given a set of descriptions and rho the rate given X.
The coarse noise of a split then has a closed form.  The covariance engine
(``gaussian_mi``, Schur-complement conditioning of the joint Gaussian) is
the independent oracle: every produced schedule is re-validated with it
from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegeneracyError, InternalInconsistencyError
from .model import (
    CeoInstance,
    _check_allocation,
    channel_noise_from_r,
    distortion,
    r_from_channel_noise,
)
from . import polymatroid

RATE_TOL = 1e-9
# Same-encoder descriptions whose noises agree to this relative tolerance
# are one variable (last-ulp differences between solvers).
_DUP_REL = 1e-10
# Rounding floor of the builder's rate comparisons: a rate tuple computed
# elsewhere (a vertex, say) matches the builder's own rate formula only to
# a few ulps, so even tol = 0 must accept that much.
_RATE_FLOOR = 1e-12


@dataclass(frozen=True)
class Description:
    """One description of one encoder's observation.

    ``sigma_t2_total`` is the total test-channel noise added to Y_encoder;
    a coarse stage (1) has strictly more noise than the fine stage (2) of
    the same encoder, and the two are nested (coarse = fine + extra noise).
    """

    encoder: int
    sigma_t2_total: float
    stage: int = 2

    def to_dict(self) -> dict:
        return {
            "encoder": self.encoder + 1,
            "stage": self.stage,
            "sigma_t2": self.sigma_t2_total,
        }


@dataclass(frozen=True)
class WzStep:
    description: Description
    rate: float
    side_info: tuple[Description, ...] = ()

    def to_dict(self) -> dict:
        d = self.description.to_dict()
        d["rate"] = self.rate
        d["side_info"] = [[s.encoder + 1, s.stage] for s in self.side_info]
        return d


@dataclass(frozen=True)
class Schedule:
    """Wyner-Ziv steps in decode order."""

    steps: tuple[WzStep, ...]

    @property
    def total_steps(self) -> int:
        return len(self.steps)

    def per_encoder_rate(self, L: int) -> tuple[float, ...]:
        sums = [0.0] * L
        for step in self.steps:
            sums[step.description.encoder] += step.rate
        return tuple(sums)

    def to_list(self) -> list[dict]:
        return [s.to_dict() for s in self.steps]


def _covariance(instance: CeoInstance, variables) -> np.ndarray:
    """Joint covariance of a list of variables.

    A variable is either ("Y", encoder) for a raw observation or a
    Description.  Same-encoder descriptions are nested, so their noise
    covariance is the smaller total noise.
    """
    n = len(variables)
    cov = np.empty((n, n))
    sx2 = instance.sigma_x2
    for a in range(n):
        for b in range(a, n):
            va, vb = variables[a], variables[b]
            value = sx2
            ea = va[1] if isinstance(va, tuple) else va.encoder
            eb = vb[1] if isinstance(vb, tuple) else vb.encoder
            if ea == eb:
                value += instance.sigma_n2[ea]
                ta = 0.0 if isinstance(va, tuple) else va.sigma_t2_total
                tb = 0.0 if isinstance(vb, tuple) else vb.sigma_t2_total
                value += min(ta, tb)
            cov[a, b] = cov[b, a] = value
    return cov


def gaussian_mi(
    instance: CeoInstance,
    target: Description,
    decoded=(),
    given_source: bool = False,
) -> float:
    """I(Y_target.encoder ; target | decoded descriptions [, X]).

    Vacuous side information (infinite noise) is dropped.  With
    ``given_source`` the conditioning additionally includes the source X,
    which reduces the answer to the description-rate map of the target's
    encoder (useful as a consistency hook).
    """
    if target.sigma_t2_total == math.inf:
        return 0.0
    # Same-encoder descriptions are nested, so (numerically) equal total
    # noise means the same random variable: drop duplicates, and a side
    # description at least as fine as the target pins it completely.  The
    # relative tolerance absorbs last-ulp differences between allocations
    # recovered through different solvers.
    rel = _DUP_REL
    cond: list = []
    kept: dict[int, list[float]] = {}
    for d in decoded:
        if d.sigma_t2_total == math.inf:
            continue
        vs = kept.setdefault(d.encoder, [])
        if any(abs(d.sigma_t2_total - v) <= rel * max(v, d.sigma_t2_total) for v in vs):
            continue
        vs.append(d.sigma_t2_total)
        cond.append(d)
    for d in cond:
        if d.encoder == target.encoder and (
            d.sigma_t2_total <= target.sigma_t2_total * (1.0 + rel)
        ):
            return 0.0
    variables = [("Y", target.encoder), target] + cond
    cov = _covariance(instance, variables)
    if given_source:
        # Condition on X first: subtract the rank-one source component.
        cov = cov - instance.sigma_x2
    if cond:
        k = 2
        s_ab = cov[:k, :k]
        s_ac = cov[:k, k:]
        s_cc = cov[k:, k:]
        try:
            solved = np.linalg.solve(s_cc, s_ac.T)
        except np.linalg.LinAlgError as exc:
            raise DegeneracyError(f"singular side-information covariance: {exc}") from exc
        cond_cov = s_ab - s_ac @ solved
    else:
        cond_cov = cov[:2, :2]
    v_y = cond_cov[0, 0]
    v_w = cond_cov[1, 1]
    det = v_y * v_w - cond_cov[0, 1] * cond_cov[1, 0]
    if det <= 0.0 or v_y <= 0.0 or v_w <= 0.0:
        raise DegeneracyError("conditional covariance is not positive definite")
    return 0.5 * math.log(v_y * v_w / det)


def fine_description(instance: CeoInstance, r, i: int) -> Description:
    return Description(encoder=i, sigma_t2_total=channel_noise_from_r(instance, i, r[i]), stage=2)


def _finest(descriptions) -> dict[int, float]:
    """Finest test-channel noise per encoder among the given descriptions.

    Infinite noise is vacuous and dropped.  Same-encoder descriptions within
    ``_DUP_REL`` of each other are one variable, as in ``gaussian_mi``: a
    finer one replaces the current only when it is finer by more than that.
    """
    finest: dict[int, float] = {}
    for d in descriptions:
        if d.sigma_t2_total < finest.get(d.encoder, math.inf) * (1.0 - _DUP_REL):
            finest[d.encoder] = d.sigma_t2_total
    return finest


def _precision(instance: CeoInstance, finest: dict[int, float]) -> float:
    """1/Var(X | descriptions): 1/sigma_x2 plus 1/(sigma_n2 + sigma_t2) per encoder."""
    return 1.0 / instance.sigma_x2 + sum(
        1.0 / (instance.sigma_n2[e] + t) for e, t in finest.items()
    )


def _rate(instance: CeoInstance, target: Description, decoded) -> float:
    """I(Y_j; target | decoded) by precision algebra, j the target's encoder.

    Descriptions are independent given X and same-encoder ones are nested,
    so the rate is (1/2) ln(p(Z + W) / p(Z)) + rho(W) - rho(Z_j): p the
    source precision given a set, rho the rate given X, Z_j the finest
    decoded description of j (rho = 0 without one).  It is 0 when Z_j is
    at least as fine as the target, within the relative rule of
    ``gaussian_mi``, which is the covariance oracle for this function.
    """
    j, t = target.encoder, target.sigma_t2_total
    side = _finest(decoded)
    t_side = side.get(j, math.inf)
    if t == math.inf or t_side <= t * (1.0 + _DUP_REL):
        return 0.0
    p_side = _precision(instance, side)
    side[j] = t
    return (
        0.5 * math.log(_precision(instance, side) / p_side)
        + r_from_channel_noise(instance, j, t)
        - r_from_channel_noise(instance, j, t_side)
    )


@dataclass
class _Builder:
    instance: CeoInstance
    tol: float
    fines: dict[int, Description]

    def peel(self, active: list[int], z: list[Description], rates: dict[int, float]) -> list[WzStep]:
        """Schedule the active encoders given already-decoded side info z."""
        inst, fines = self.instance, self.fines
        if len(active) < 2:  # a lone encoder takes its rate given z
            return [WzStep(fines[j], _rate(inst, fines[j], z), tuple(z)) for j in active]
        # Face step: given z the active encoders' region has the polymatroid
        # form with base precision p(z), since no active encoder has a
        # description in z.  Decode the blocks of its tight chain in order.
        t = {j: fines[j].sigma_t2_total for j in active}
        c = {j: r_from_channel_noise(inst, j, t[j]) - rates[j] for j in active}
        w = {j: 1.0 / (inst.sigma_n2[j] + t[j]) for j in active}
        p_z = _precision(inst, _finest(z))
        blocks, _ = polymatroid._tight_chain(active, c, w, p_z, self.tol + _RATE_FLOOR)
        if len(blocks) > 1:
            steps = []
            for block in blocks:
                steps += self.peel(list(block), z + [s.description for s in steps], rates)
            return steps

        # Split a candidate whose rate is strictly inside its range; a
        # failing candidate (a coarse weight out of range or an infeasible
        # remainder) just hands over to the next one.
        failures = []
        for j in active:
            others = [fines[k] for k in active if k != j]
            low, top = _rate(inst, fines[j], others + z), _rate(inst, fines[j], z)
            if not low + self.tol < rates[j] < top - self.tol:
                continue
            try:
                coarse, coarse_rate = self._split(j, others, z, rates[j])
                rest = self.peel([k for k in active if k != j], z + [coarse], rates)
            except InternalInconsistencyError as exc:
                failures.append(f"encoder {j}: {exc}")
                continue
            decoded = tuple(z) + (coarse,) + tuple(s.description for s in rest)
            fine_rate = _rate(inst, fines[j], decoded)
            steps = (
                [WzStep(coarse, coarse_rate, tuple(z))]
                + rest
                + [WzStep(fines[j], fine_rate, decoded)]
            )
            if abs(fine_rate + coarse_rate - rates[j]) <= 10 * self.tol + _RATE_FLOOR:
                return steps
            failures.append(f"encoder {j}: split rates drifted")
        raise InternalInconsistencyError(
            "no split candidate produced a valid schedule: " + "; ".join(failures or ["none eligible"])
        )

    def _split(self, j: int, other_fines, z, target_rate: float):
        """Coarse stage for encoder j so that coarse-then-fine meets target_rate.

        A coarse weight w = 1/(sigma_n2_j + s) (s its noise) makes the two
        stages sum to I_c + (1/2) ln((p_z + w) p_zo / (p_z (p_zo + w))),
        with p_z = p(z), p_zo = p(z + other fines) and I_c the fine rate
        given both.  The sum rises from I_c at w = 0 to the unconditioned
        rate at the fine weight, and setting it to target_rate gives
        w = p_z p_zo g / (p_zo - p_z - p_z g), g = exp(2 (target_rate - I_c)) - 1.
        A w outside (0, w_fine) aborts the candidate.
        """
        fine = self.fines[j]
        p_z = _precision(self.instance, _finest(z))
        p_zo = _precision(self.instance, _finest(other_fines + z))
        gap = math.expm1(2.0 * (target_rate - _rate(self.instance, fine, other_fines + z)))
        w = p_z * p_zo * gap / (p_zo - p_z - p_z * gap)
        sigma_n2 = self.instance.sigma_n2[j]
        w_fine = 1.0 / (sigma_n2 + fine.sigma_t2_total)
        if not 0.0 < w < w_fine:
            raise InternalInconsistencyError(f"coarse weight {w:.3e} outside (0, {w_fine:.3e})")
        coarse = Description(j, 1.0 / w - sigma_n2, stage=1)
        return coarse, _rate(self.instance, coarse, z)


def build_schedule(instance: CeoInstance, r, R, tol: float = RATE_TOL) -> Schedule:
    """Successive Wyner-Ziv schedule realizing a dominant-face rate tuple.

    Zero-allocation encoders carry no rate on the dominant face and are
    skipped.  The result is validated before being returned.
    """
    r = _check_allocation(instance, r)
    if not polymatroid.on_dominant_face(instance, r, R, max(tol, 1e-9) * 10):
        raise ArgumentError("rate tuple is not on the dominant face of the allocation")
    active = [i for i in range(instance.L) if r[i] > 0.0]
    builder = _Builder(instance, tol, {i: fine_description(instance, r, i) for i in active})
    steps = builder.peel(active, [], {i: R[i] for i in active})
    return _validated(instance, steps, R, tol, "constructed schedule")


def _validated(instance: CeoInstance, steps, R, tol: float, what: str) -> Schedule:
    schedule = Schedule(tuple(steps))
    report = validate_schedule(instance, schedule, R, max(tol * 100, 1e-7))
    if not report.ok:
        raise InternalInconsistencyError(f"{what} failed validation: " + "; ".join(report.diagnostics))
    return schedule


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    diagnostics: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_schedule(instance: CeoInstance, schedule: Schedule, R, tol: float = 1e-7) -> ValidationReport:
    """Re-derive every claim a schedule makes and compare against R.

    Checks, in order: stored step rates against rates recomputed from the
    exact decoded set at each point, per-encoder rate sums, well-ordering of
    coarse before fine, the 2L - 1 step bound, and the final MMSE against
    the allocation's distortion.
    """
    L = instance.L
    diags = []
    decoded: list[Description] = []
    seen_stages: dict[int, list[int]] = {}
    for idx, step in enumerate(schedule.steps):
        recomputed = gaussian_mi(instance, step.description, decoded)
        if abs(recomputed - step.rate) > tol:
            diags.append(
                f"step {idx} (encoder {step.description.encoder}, stage {step.description.stage}): "
                f"stored rate {step.rate:.12f} != recomputed {recomputed:.12f}"
            )
        enc = step.description.encoder
        stages = seen_stages.setdefault(enc, [])
        if step.description.stage == 2 and 1 in stages:
            coarse_noise = next(
                s.description.sigma_t2_total
                for s in schedule.steps
                if s.description.encoder == enc and s.description.stage == 1
            )
            if not step.description.sigma_t2_total < coarse_noise:
                diags.append(f"encoder {enc}: fine stage is not strictly finer than coarse stage")
        if step.description.stage == 1 and 2 in stages:
            diags.append(f"encoder {enc}: coarse stage decoded after fine stage")
        if step.description.stage in stages:
            diags.append(f"encoder {enc}: stage {step.description.stage} scheduled twice")
        stages.append(step.description.stage)
        decoded.append(step.description)

    sums = schedule.per_encoder_rate(L)
    for i in range(L):
        if abs(sums[i] - R[i]) > tol:
            diags.append(f"encoder {i}: rate sum {sums[i]:.12f} != target {R[i]:.12f}")
    if schedule.total_steps > 2 * L - 1:
        diags.append(f"{schedule.total_steps} steps exceeds bound {2 * L - 1}")

    finest: dict[int, Description] = {}
    for step in schedule.steps:
        d = step.description
        if d.encoder not in finest or d.sigma_t2_total < finest[d.encoder].sigma_t2_total:
            finest[d.encoder] = d
    r_recovered = [0.0] * L
    for enc, d in finest.items():
        r_recovered[enc] = r_from_channel_noise(instance, enc, d.sigma_t2_total)
    mmse_cov = source_mmse(instance, list(finest.values()))
    mmse_formula = distortion(instance, r_recovered)
    if abs(mmse_cov - mmse_formula) > tol:
        diags.append(
            f"final MMSE {mmse_cov:.12f} != allocation distortion {mmse_formula:.12f}"
        )
    return ValidationReport(ok=not diags, diagnostics=tuple(diags))


def source_mmse(instance: CeoInstance, descriptions) -> float:
    """Var(X | descriptions) by direct covariance conditioning."""
    descs = [d for d in descriptions if d.sigma_t2_total != math.inf]
    if not descs:
        return instance.sigma_x2
    cov = _covariance(instance, descs)
    cross = np.full(len(descs), instance.sigma_x2)
    try:
        solved = np.linalg.solve(cov, cross)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(f"singular description covariance: {exc}") from exc
    return instance.sigma_x2 - float(cross @ solved)
