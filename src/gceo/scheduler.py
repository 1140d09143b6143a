"""Successive Wyner-Ziv schedules and the Gaussian conditional-MI engine.

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

The covariance engine is the independent oracle: every produced schedule
is re-validated from scratch by one pure-Python Gaussian elimination
(``_sweep``) of the joint covariance of the decoded descriptions, the
observations and the source.  One sweep over the decode order holds, at
each pivot, the covariance of every later variable given the earlier ones,
so a step's rate is read off its (observation, description) 2 x 2 block and
the final MMSE off the source's entry.  ``gaussian_mi`` and ``source_mmse``
are the same sweep over a short variable list.  One relative pivot rule
stands for the special cases: a variable whose conditional variance is at
most ``_PIVOT_REL`` times its variance given X is determined by the earlier
ones, so it is skipped as a pivot and carries rate 0 as a target (a
repeated description, one within last-ulp noise of an earlier one, and
vacuous side information with infinite noise).  The sweep needs no numpy,
so only ``simulate`` loads it: cold starts on a 2-vCPU VM (min of 7
spawns) are ~100 ms for ``schedule``, ~125 ms for ``refine`` and ~160 ms
for a 31 x 31 ``omega-map``, against ~275, ~305 and ~310 ms with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArgumentError, DegeneracyError, InternalInconsistencyError
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

# A conditional variance at most this share of the variable's variance
# given X (sigma_n2 + sigma_t2) means the earlier variables determine it:
# it absorbs last-ulp differences between allocations recovered through
# different solvers.
_PIVOT_REL = 1e-10
# The source X as a variable; ("Y", j) is encoder j's observation.
_SOURCE = ("X", None)


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


def _key(variable) -> tuple:
    """(encoder, test-channel noise) of a variable; the source has no encoder."""
    if isinstance(variable, Description):
        return variable.encoder, variable.sigma_t2_total
    return variable[1], 0.0


def _covariance(instance: CeoInstance, variables) -> list[list[float]]:
    """Joint covariance of a list of variables, as the nested lists of its
    upper triangle: row a holds the covariances of variable a with
    variables a, a + 1, ...

    A variable is a Description, ("Y", encoder) for a raw observation or
    ``_SOURCE``.  Same-encoder descriptions are nested, so their noise
    covariance is the smaller total noise.
    """
    sx2, sn = instance.sigma_x2, instance.sigma_n2
    keys = [_key(v) for v in variables]
    return [
        [sx2 + sn[ea] + min(ta, tb) if ea == eb and ea is not None else sx2 for eb, tb in keys[a:]]
        for a, (ea, ta) in enumerate(keys)
    ]


def _determined(instance: CeoInstance, variable, variance: float) -> bool:
    """Whether a conditional variance leaves the variable determined by what
    it is conditioned on.  A vacuous description (infinite noise) always
    is: its variance and the bound are both infinite."""
    encoder, noise = _key(variable)
    return variance <= _PIVOT_REL * (instance.sigma_n2[encoder] + noise)


def _sweep(instance: CeoInstance, variables, given: int):
    """Condition on the first ``given`` variables in order.

    Yields, before each of their pivots, the covariance (``_covariance``'s
    upper triangle) of that variable and every later one given the earlier
    ones, the pivot first, and at the end the covariance of the rest given
    all of them.  A pivot that ``_determined`` calls determined is skipped.
    """
    cov = _covariance(instance, variables)
    for variable in variables[:given]:
        yield cov
        head, rows = cov[0], cov[1:]
        if _determined(instance, variable, head[0]):
            cov = rows
            continue
        pivot, cov = head[0], []
        for a, row in enumerate(rows, 1):
            f = head[a] / pivot
            cov.append([x - f * y for x, y in zip(row, head[a:])])
    yield cov


def _rate(instance: CeoInstance, target: Description, v_y: float, c: float, v_w: float) -> float:
    """I(Y; W | conditioning) from the conditional covariance of (Y, W):
    variances v_y and v_w, covariance c.  A determined W carries rate 0."""
    if _determined(instance, target, v_w):
        return 0.0
    det = v_y * v_w - c * c
    if not det > 0.0:  # with v_w > 0, also v_y > 0; NaN fails too
        raise DegeneracyError("conditional covariance is not positive definite")
    return 0.5 * math.log(v_y * v_w / det)


def gaussian_mi(instance: CeoInstance, target: Description, decoded=()) -> float:
    """I(Y_target.encoder ; target | decoded descriptions), by ``_sweep``."""
    decoded = list(decoded)
    *_, cov = _sweep(instance, decoded + [("Y", target.encoder), target], len(decoded))
    return _rate(instance, target, cov[0][0], cov[0][1], cov[1][0])


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
    ``model.TOL_EQ``.
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
    report = validate_schedule(instance, schedule, R, 100 * TOL_EQ)
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


def validate_schedule(instance: CeoInstance, schedule: Schedule, R, tol: float = 1e-7) -> ValidationReport:
    """Re-derive every claim a schedule makes and compare against R.

    Checks, in order: stored step rates against rates recomputed from the
    exact decoded set at each point, per-encoder rate sums, well-ordering of
    coarse before fine, the 2L - 1 step bound, and the final MMSE against
    the allocation's distortion.
    """
    L = instance.L
    diags = []
    seen_stages: dict[int, list[int]] = {}
    descriptions = [step.description for step in schedule.steps]
    n = len(descriptions)
    # One sweep over the decode order; the observations and the source ride
    # along, so before step idx's pivot its (Y, W) block is the conditional
    # covariance given every earlier step.
    sweep = _sweep(instance, descriptions + [("Y", j) for j in range(L)] + [_SOURCE], n)
    for idx, step in enumerate(schedule.steps):
        cov, y = next(sweep), n - idx + step.description.encoder
        recomputed = _rate(instance, step.description, cov[y][0], cov[0][y], cov[0][0])
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
    mmse_cov = next(sweep)[-1][0]
    mmse_formula = distortion(instance, r_recovered)
    if abs(mmse_cov - mmse_formula) > tol:
        diags.append(
            f"final MMSE {mmse_cov:.12f} != allocation distortion {mmse_formula:.12f}"
        )
    return ValidationReport(ok=not diags, diagnostics=tuple(diags))


def source_mmse(instance: CeoInstance, descriptions) -> float:
    """Var(X | descriptions), by ``_sweep``."""
    descriptions = list(descriptions)
    *_, cov = _sweep(instance, descriptions + [_SOURCE], len(descriptions))
    return cov[0][0]
