"""Successive Wyner-Ziv schedules and the closed-form conditional-MI engine.

A schedule realizes a dominant-face rate tuple as an ordered pipeline of
single-description Wyner-Ziv steps: each step conveys one description of
one encoder, the decoder uses everything decoded so far as side
information, and a step's rate is the conditional mutual information
I(Y_i; W | decoded so far).  Descriptions are independent given X and one
encoder's descriptions are nested (a coarse one is a finer one plus extra
independent noise), so every step rate is scalar precision algebra.

The precision axis.  Decoding raises the source precision from
p0 = 1/sigma_x2 to P = p0 + W, with W the sum of the fine weights
w_i = 1/(sigma_n2[i] + sigma_t2[i]), and each step adds one piece
[p_before, p_after] of the axis [p0, P].  A description of encoder j with
weight c (noise 1/c - sigma_n2[j]) has rate rho(c) = -(1/2) log1p(-sigma_n2[j] c)
given X, and the step that decodes it has rate

    (1/2) log1p(x / p_before) + rho(new) - rho(old),

x the piece's length and old the previous description of j (rho = 0
without one).  An encoder's pieces add up to its weight, and its step
rates telescope to r_j plus half the total log-length of its pieces.  So a
schedule for R is a tiling of [p0, P] in which encoder j's pieces have
total length w_j and total half-log-length e_j = R_j - r_j, its excess:
the Gaussian MAC rate-splitting picture of Rimoldi and Urbanke (IEEE
Trans. IT 42(2), 1996) with precision in the place of received power.
The region's constraints say that a set A at the bottom of an interval
[lo, hi] never holds more excess than its log-length there,
e(A) <= (1/2) ln((lo + w(A)) / lo), or, equally, that A at the top needs
at least its log-length there, e(A) >= (1/2) ln(hi / (hi - w(A))).

``build_schedule`` tiles the axis recursively.  Each member of an
interval carries its remaining weight and excess, which fill the interval
exactly:

  one member: it takes the whole interval, as its fine description;
  face step: when a proper set is tight at the bottom, the tight chain
      (``polymatroid._tight_chain`` with c = -e and base precision lo)
      cuts the interval into consecutive blocks, each tiled on its own;
  grow: otherwise a member k with no piece yet grows a piece from the top
      or the bottom of the interval.  Sets holding k keep their slack and
      every other set loses slack, until a set A of the others is tight
      next to the piece.  From the top the piece is [y*, hi] with
      y* = max_A w(A) / -expm1(-2 e(A)); from the bottom it is [lo, y*]
      with y* = min_A w(A) / expm1(2 e(A)).  Dinkelbach's iteration over
      the threshold scan ``polymatroid._scan_min_slack`` finds y*.  The
      face step then splits the rest into A and the remainder, which
      keeps k.

Choice rule: members are tried in ascending index, top before bottom, and
the first (k, side) whose growth leaves k in a block with no other member
that already has a piece is taken.  There is no proof that such a choice
always exists; one did at every point tested, so a miss raises
``InternalInconsistencyError`` as a bug, not as a search miss.

Bounds.  Each grow or face step splits its members into at least two
groups, so a block of b members takes at most b - 1 grows, and each grow
gives one member a second piece.  Hence at most two descriptions per
encoder, at most 2L - 1 steps, and at most L + d steps on a d-dimensional
face, whose tight chain has L - d blocks.  An encoder's last piece on the
axis is its fine description and an earlier one is coarse, with weight
that piece's length.  Tightness is tested to the rounding floor of the
rates (``model.rate_floor``), not to the caller's tolerance: a rate tuple
computed elsewhere (a vertex, say) puts its tight sets only a few ulps of
its rates from tight, and a point near a face gets an exact schedule with
a short piece instead of one snapped onto the face.

The validator.  Every produced schedule is re-validated by
``validate_schedule``, which reads only the instance and the stated
descriptions (none of the builder's pieces, weights or excesses).  Its
rates are exact by the matrix determinant lemma.  Every decoded variable
is X plus noise; the noises are independent across encoders and nested
within one, with covariance min(a, a') of the totals a = sigma_n2[e] +
sigma_t2 (the covariance of Brownian motion).  So the joint covariance of
a set S of descriptions is sigma_x2 11' plus one such block per encoder,
and

    ln det C(S) = sum_e [ln a_min(e) + sum of ln gaps between e's sorted a]
                  + ln(sigma_x2 p(S)),   p(S) = 1/sigma_x2 + sum_e 1/a_min(e),

p(S) being the source precision given S.  A step that decodes W (noise t)
of encoder j after the set Z has rate I(Y_j; W | Z) = (1/2)[ld(Z + W) -
ld(Z) - ld(Z + Y_j + W) + ld(Z + Y_j)], ld = ln det, and every gap term
cancels in it.  With t_side the noise of the finest description of j in
Z (inf without one), the rate is 0 when t_side <= t (W adds nothing to a
description at least as fine: a repeat, or vacuous with t = inf), and
otherwise

    (1/2) ln(p(Z + W) / p(Z)) + rho(t) - rho(t_side),

rho = ``model.r_from_channel_noise`` (0 at inf).  The final MMSE is 1/p of
everything decoded.  No covariance is formed, so sigma_x2 never swamps a
small test-channel noise and the check holds at every rate; a schedule of
n steps is checked in O(n + L) from one running precision and each
encoder's finest noise.  ``gaussian_mi`` is the same formula
over a given decoded list.  Only ``simulate`` loads numpy: cold starts on
a 2-vCPU VM (min of 7 spawns) were ~100 ms for ``schedule``, ~125 ms for
``refine`` and ~160 ms for a 31 x 31 ``omega-map``, against ~275, ~305
and ~310 ms while the validator loaded numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArgumentError, InternalInconsistencyError
from .model import (
    TOL_EQ,
    CeoInstance,
    _check_allocation,
    channel_noise_from_r,
    distortion,
    precision_weight,
    r_from_channel_noise,
    rate_floor,
)
from . import polymatroid


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


def _rate(instance: CeoInstance, j: int, t: float, t_side: float, p: float) -> tuple[float, float]:
    """I(Y_j; W | Z) for a description W of encoder j with noise t, and the
    source precision after W, given the decoded set Z: its source precision
    p and the noise t_side of its finest description of j (inf without
    one).  A description no finer than t_side carries rate 0."""
    if not t < t_side:
        return 0.0, p
    sn = instance.sigma_n2[j]
    gain = 1.0 / (sn + t) - 1.0 / (sn + t_side)
    rate = 0.5 * math.log1p(gain / p) + r_from_channel_noise(instance, j, t) - r_from_channel_noise(instance, j, t_side)
    return rate, p + gain


def gaussian_mi(instance: CeoInstance, target: Description, decoded=()) -> float:
    """I(Y_target.encoder ; target | decoded descriptions), in closed form."""
    finest: dict[int, float] = {}
    for d in decoded:
        finest[d.encoder] = min(d.sigma_t2_total, finest.get(d.encoder, math.inf))
    p = 1.0 / instance.sigma_x2 + sum(1.0 / (instance.sigma_n2[e] + t) for e, t in finest.items())
    j = target.encoder
    return _rate(instance, j, target.sigma_t2_total, finest.get(j, math.inf), p)[0]


def fine_description(instance: CeoInstance, r, i: int) -> Description:
    return Description(encoder=i, sigma_t2_total=channel_noise_from_r(instance, i, r[i]), stage=2)


def _tight_blocks(members, lo, e, w, tie):
    """Blocks of the members' tight chain on an interval with bottom lo (the face step)."""
    return polymatroid._tight_chain(members, {j: -e[j] for j in members}, w, lo, tie)[0]


def _stop(e, w, top: bool) -> float:
    """Where a growing piece stops: y* = max (top) or min (bottom) over
    nonempty sets A of y_A = w(A) / -expm1(-2 e(A)) (top) or
    w(A) / expm1(2 e(A)) (bottom), for lists e and w.

    Dinkelbach's iteration from A = every member: at the current y some set
    beats y exactly when the threshold scan's slack of y is negative there,
    so y moves to that set's y_A until no set improves on it.  The top scan
    has base precision y - w(all), positive because y only grows from
    y_all > w(all).
    """
    zero, neg = [0.0] * len(e), [-v for v in e]
    y, A = None, range(len(e))
    while True:
        e_A, w_A = sum(e[i] for i in A), sum(w[i] for i in A)
        y_A = w_A / -math.expm1(-2.0 * e_A) if top else w_A / math.expm1(2.0 * e_A)
        if y is not None and (y_A <= y if top else y_A >= y):
            return y
        y = y_A
        if top:
            _, A = polymatroid._scan_min_slack(e, zero, w, y - sum(w))
        else:
            _, A = polymatroid._scan_min_slack(neg, w, zero, y)


def _grow(members, lo, hi, e, w, grown, tie):
    """Cut one piece for the first member k (ascending index, top before
    bottom) that has none yet and whose growth leaves k in a block with no
    other member of ``grown``.  Updates e, w and grown; returns the piece
    (k, start, end), whether it sits on top, and the blocks of the rest."""
    for k in members:
        if k in grown:
            continue
        others = [j for j in members if j != k]
        for top in (True, False):
            y = _stop([e[j] for j in others], [w[j] for j in others], top)
            if not lo < y < hi:  # no room for a piece: never cut one of zero length
                continue
            length = 0.5 * math.log(hi / y) if top else 0.5 * math.log(y / lo)
            rest, cut = {**e, k: e[k] - length}, {**w, k: w[k] - (hi - y if top else y - lo)}
            blocks = _tight_blocks(members, lo if top else y, rest, cut, tie)
            if len(blocks) > 1 and grown.isdisjoint(next(b for b in blocks if k in b)):
                e[k], w[k] = rest[k], cut[k]
                grown.add(k)
                return ((k, y, hi) if top else (k, lo, y)), top, blocks
    raise InternalInconsistencyError(f"no member of {members} can grow a piece")


def _tile(members, lo, hi, e, w, grown, tie):
    """Pieces (encoder, start, end) tiling [lo, hi] of the precision axis, in
    axis order.  ``e`` and ``w`` map each member to its remaining excess and
    weight; ``grown`` holds the encoders that already have a piece."""
    if len(members) < 2:
        return [(j, lo, hi) for j in members]
    head, tail = [], []
    blocks = _tight_blocks(members, lo, e, w, tie)
    if len(blocks) == 1:
        piece, top, blocks = _grow(members, lo, hi, e, w, grown, tie)
        if top:
            tail, hi = [piece], piece[1]
        else:
            head, lo = [piece], piece[2]
    for n, block in enumerate(blocks):
        end = hi if n == len(blocks) - 1 else lo + sum(w[j] for j in block)
        head += _tile(list(block), lo, end, e, w, grown, tie)
        lo = end
    return head + tail


def build_schedule(instance: CeoInstance, r, R) -> Schedule:
    """Successive Wyner-Ziv schedule realizing a dominant-face rate tuple.

    Zero-allocation encoders carry no rate on the dominant face and are
    skipped.  The pieces of the precision axis become steps in axis order,
    and the result is validated before being returned.  The tolerances of
    the dominant-face check and of that validation are fixed: 10 and 100
    ``model.TOL_EQ`` (the latter ``validate_schedule``'s default).
    """
    r = _check_allocation(instance, r)
    if not polymatroid.on_dominant_face(instance, r, R, 10 * TOL_EQ):
        raise ArgumentError("rate tuple is not on the dominant face of the allocation")
    active = [i for i in range(instance.L) if r[i] > 0.0]
    w = {i: precision_weight(instance.sigma_n2[i], r[i]) for i in active}
    e = {i: R[i] - r[i] for i in active}
    tie = rate_floor([R[i] for i in active])
    p0 = 1.0 / instance.sigma_x2
    pieces = _tile(active, p0, p0 + sum(w.values()), e, w, set(), tie)
    last = {j: n for n, (j, _, _) in enumerate(pieces)}
    steps, decoded = [], []
    weight, rho = dict.fromkeys(active, 0.0), dict.fromkeys(active, 0.0)
    for n, (j, start, end) in enumerate(pieces):
        weight[j] += end - start
        if n == last[j]:
            d, rho_d = fine_description(instance, r, j), r[j]
        else:
            d = Description(j, 1.0 / weight[j] - instance.sigma_n2[j], stage=1)
            rho_d = r_from_channel_noise(instance, j, d.sigma_t2_total)
        steps.append(WzStep(d, 0.5 * math.log1p((end - start) / start) + rho_d - rho[j], tuple(decoded)))
        decoded.append(d)
        rho[j] = rho_d
    schedule = Schedule(tuple(steps))
    report = validate_schedule(instance, schedule, R)
    if not report.ok:
        raise InternalInconsistencyError(
            "constructed schedule failed validation: " + "; ".join(report.diagnostics)
        )
    return schedule


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    diagnostics: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_schedule(instance: CeoInstance, schedule: Schedule, R, tol: float = 100 * TOL_EQ) -> ValidationReport:
    """Re-derive every claim a schedule makes and compare against R.

    Checks, in order: stored step rates against rates recomputed from the
    exact decoded set at each point, per-encoder rate sums, well-ordering of
    coarse before fine, the 2L - 1 step bound, and the final MMSE against
    the allocation's distortion.  One pass over the decode order keeps the
    source precision p of the decoded set and each encoder's finest noise,
    which is all the closed-form rate reads.
    """
    L = instance.L
    diags = []
    seen_stages: dict[int, list[int]] = {}
    finest = [math.inf] * L
    p = 1.0 / instance.sigma_x2
    for idx, step in enumerate(schedule.steps):
        enc, t = step.description.encoder, step.description.sigma_t2_total
        recomputed, p_next = _rate(instance, enc, t, finest[enc], p)
        if abs(recomputed - step.rate) > tol:
            diags.append(
                f"step {idx} (encoder {enc}, stage {step.description.stage}): "
                f"stored rate {step.rate:.12f} != recomputed {recomputed:.12f}"
            )
        stages = seen_stages.setdefault(enc, [])
        if step.description.stage == 2 and 1 in stages and not t < finest[enc]:
            diags.append(f"encoder {enc}: fine stage is not strictly finer than coarse stage")
        if step.description.stage == 1 and 2 in stages:
            diags.append(f"encoder {enc}: coarse stage decoded after fine stage")
        if step.description.stage in stages:
            diags.append(f"encoder {enc}: stage {step.description.stage} scheduled twice")
        stages.append(step.description.stage)
        p, finest[enc] = p_next, min(t, finest[enc])

    sums = schedule.per_encoder_rate(L)
    for i in range(L):
        if abs(sums[i] - R[i]) > tol:
            diags.append(f"encoder {i}: rate sum {sums[i]:.12f} != target {R[i]:.12f}")
    if schedule.total_steps > 2 * L - 1:
        diags.append(f"{schedule.total_steps} steps exceeds bound {2 * L - 1}")

    mmse = 1.0 / p
    mmse_formula = distortion(instance, [r_from_channel_noise(instance, j, t) for j, t in enumerate(finest)])
    if abs(mmse - mmse_formula) > tol:
        diags.append(
            f"final MMSE {mmse:.12f} != allocation distortion {mmse_formula:.12f}"
        )
    return ValidationReport(ok=not diags, diagnostics=tuple(diags))
