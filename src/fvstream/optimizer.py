"""Per-block reference selection under a Lagrangian rate-distortion objective.

Three selection modes share one machinery:

  reactive      source distortion + lambda * bits, restricted to references
                untouched by known or inherited loss taint (ReactiveTaint,
                the support of the expected-error tracker's recursion);
  independent   adds the expected channel distortion of each view on its own
                (texture: tracked error; depth: quadratic disparity penalty);
  cross         for blocks visible in the opposing view, caps the expected
                distortion by what the other view can deliver, optimized in
                two steps (texture against the depth error-minimizer, then
                depth against the chosen texture).

Nothing here branches on the mode: pipeline.EncoderState.plan is the one
place that decides it, and builds each plane's channel columns from the
parts below (the candidates' expected errors, the opposing cap and
cross_cap, the taint's valid mask).

Candidate costs are assembled as (source distortion + channel term)
+ lambda * bits and minimized per block over all candidates at once; the
INTRA predictor is context free, so no block depends on another's choice.
All reductions keep a fixed operand order so results are reproducible bit
for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .codec import CandidateSet, EncodedPlane, assemble_plane
from .errortrack import ExpectedErrorTracker
from .frames import MB_SIZE
from .synthesis import CorrespondenceSets

OPTIMIZER_MODES = ("reactive", "independent", "cross")

#: factor lambda moves by while the band is not yet bracketed
LAMBDA_STEP = 1.25


# ---------------------------------------------------------------------------
# candidate preparation
# ---------------------------------------------------------------------------

@dataclass
class PlaneCandidates:
    """Per-candidate atoms of one plane: coding options plus channel terms."""

    cset: CandidateSet
    chan: np.ndarray        # (n_mb, n_cand) expected error per candidate

    @property
    def n_mb(self) -> int:
        return self.chan.shape[0]


def build_plane_candidates(cset: CandidateSet, tracker: ExpectedErrorTracker,
                           t: int, delta: np.ndarray) -> PlaneCandidates:
    """Coding options of one plane (from codec.build_inter_candidates) with
    their expected errors under the tracker's planned delivery probability."""
    return PlaneCandidates(cset=cset,
                           chan=tracker.candidate_errors(t, cset, delta))


def step1_minimum(pc: PlaneCandidates) -> np.ndarray:
    """Per-MB smallest expected error over the motion candidates (INTRA
    excluded: the step picks a reference)."""
    return pc.chan[:, :-1].min(axis=1)


def opposing_cap(corr: CorrespondenceSets, opp_error_prev: np.ndarray,
                 opp_penalty_prev: np.ndarray, delta_tex: np.ndarray
                 ) -> np.ndarray:
    """Distortion the opposing view guarantees for each visible block.

    Worst covered opposing block (previous-frame error plus disparity
    penalty) plus this block's own innovation; +inf for blocks without a
    correspondence so a min() against it is a no-op.
    """
    worst = np.full(opp_error_prev.shape[0], -np.inf)
    np.maximum.at(worst, corr.src, (opp_error_prev + opp_penalty_prev)[corr.tgt])
    return np.where(corr.member, worst + delta_tex, np.inf)


def cross_cap(cols: np.ndarray, fixed: np.ndarray, cap: np.ndarray,
              member: np.ndarray) -> np.ndarray:
    """Channel columns of one plane in the cross mode.

    A block the opposing view also samples (member) pays its own column
    plus the fixed term of the other component, capped by what the
    opposing view guarantees; every other block keeps its column.
    """
    return np.where(member[:, None],
                    np.minimum(cols + fixed[:, None], cap[:, None]), cols)


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

@dataclass
class PlaneSelection:
    """Outcome of one plane's per-block minimization."""

    enc: EncodedPlane
    recon: np.ndarray
    total_bits: int
    cost: np.ndarray          # per-MB chosen Lagrangian cost
    bits: np.ndarray          # per-MB rate
    dsrc: np.ndarray          # per-MB source distortion of the chosen option
    channel: np.ndarray       # per-MB channel term entering the cost
    chan_error: np.ndarray    # per-MB expected error of the chosen option
    chosen_col: np.ndarray    # candidate column; the last one is INTRA


def select_plane(orig: np.ndarray, pc: PlaneCandidates, channel_cols: np.ndarray,
                 lam: float, valid: np.ndarray | None = None) -> PlaneSelection:
    """Pick the cheapest candidate per block and reconstruct the plane.

    channel_cols has one column per candidate of pc.cset; valid (same
    layout, optional) disables candidates.  Cost is (source distortion +
    channel term) + lambda * bits; ties keep the first column, INTRA last.
    The plane is labelled with the step its candidates were coded at.
    """
    cset = pc.cset
    h, w = orig.shape
    grid = (h // MB_SIZE, w // MB_SIZE)

    cost_cols = (cset.distortion + channel_cols) + lam * cset.bits
    if valid is not None:
        cost_cols = np.where(valid, cost_cols, np.inf)

    # first minimum wins ties
    chosen = np.argmin(cost_cols, axis=1).astype(np.int32)
    rows = np.arange(pc.n_mb)
    bits = cset.bits[rows, chosen]
    enc = EncodedPlane(modes=cset.mode_col[chosen],
                       ref_dist=cset.ref_col[chosen].astype(np.uint8),
                       mv=cset.mv[rows, chosen], coeffs=cset.coeffs[rows, chosen],
                       quant_step=cset.quant_step, grid=grid)
    return PlaneSelection(enc=enc,
                          recon=assemble_plane(cset.recon[rows, chosen], grid),
                          total_bits=int(bits.sum()),
                          cost=cost_cols[rows, chosen], bits=bits,
                          dsrc=cset.distortion[rows, chosen],
                          channel=channel_cols[rows, chosen],
                          chan_error=pc.chan[rows, chosen], chosen_col=chosen)


# ---------------------------------------------------------------------------
# reactive taint
# ---------------------------------------------------------------------------

class ReactiveTaint(ExpectedErrorTracker):
    """Loss-affected region bookkeeping for the feedback-only baseline.

    A block is tainted when its packet is known lost, or when it predicted
    (at any remove) from a tainted region; INTRA coding clears inherited
    taint.  Frames with unknown outcomes propagate taint but contribute no
    losses of their own yet.  That is the support of the expected-error
    recursion with certain delivery planned, no attenuation and a unit
    innovation.  States are clamped to {0, 1}: each fractional-overlap hop
    can scale a state by as little as 1/256, so a long chain would otherwise
    underflow to zero.
    """

    def __init__(self, grid: tuple[int, int]):
        super().__init__(grid, planned_receive_prob=1.0, gamma=1.0)

    def push_frame(self, modes: np.ndarray, ref_dist: np.ndarray,
                   mv: np.ndarray, delta: np.ndarray | None) -> None:
        # the support needs only some positive innovation, not delta itself
        super().push_frame(modes, ref_dist, mv, np.ones(self.n_mb))

    def _compute_state(self, t: int) -> np.ndarray:
        return (super()._compute_state(t) > 0.0).astype(np.float64)

    def lattice(self) -> list[np.ndarray]:
        """Taint mask per pushed frame."""
        return [s > 0.0 for s in self._states]

    def valid_candidates(self, pc: PlaneCandidates) -> np.ndarray:
        """(n_mb, n_cand) mask of candidates with untainted references.

        pc must be built against this taint: with certain delivery and no
        attenuation, a candidate's expected error is exactly its
        predictor's overlap with the reference taint, and INTRA's is zero.
        """
        return pc.chan == 0.0


# ---------------------------------------------------------------------------
# lambda control
# ---------------------------------------------------------------------------

@dataclass
class TuneResult:
    lam: float
    bits: int
    payload: object
    in_band: bool
    infeasible: bool
    trials: int


def tune_to_band(run: Callable[[float], tuple[int, object]], lam0: float,
                 target: float, band: float, max_trials: int) -> TuneResult:
    """Drive the produced bits into target*(1 +/- band) by adjusting lambda.

    Bits are nonincreasing in lambda, so one-sided misses scale lambda
    geometrically until the band brackets, then bisect in log space.  The
    best trial (in band, else closest in log ratio) is kept.  If even a
    near-infinite lambda overshoots the band the budget is infeasible and
    that maximum-compression result is returned.
    """
    lo = target * (1.0 - band)
    hi = target * (1.0 + band)
    lam_low = lam_high = None   # bracket: bits(lam_low) > hi, bits(lam_high) < lo
    best: TuneResult | None = None
    lam = lam0
    trials = 0
    for _ in range(max_trials):
        bits, payload = run(lam)
        trials += 1
        in_band = lo <= bits <= hi
        score = abs(np.log(max(bits, 1) / target))
        if best is None or (in_band and not best.in_band) or (
                in_band == best.in_band
                and score < abs(np.log(max(best.bits, 1) / target))):
            best = TuneResult(lam=lam, bits=bits, payload=payload,
                              in_band=in_band, infeasible=False, trials=trials)
        if in_band:
            break
        if bits > hi:
            lam_low = lam
        else:
            lam_high = lam
        if lam_low is not None and lam_high is not None:
            lam = float(np.sqrt(lam_low * lam_high))
        elif lam_low is not None:
            lam = lam * LAMBDA_STEP
        else:
            lam = lam / LAMBDA_STEP
    if not best.in_band and best.bits > hi:
        bits, payload = run(1.0e12)
        trials += 1
        if bits > hi:
            return TuneResult(lam=1.0e12, bits=bits, payload=payload,
                              in_band=False, infeasible=True, trials=trials)
        score = abs(np.log(max(bits, 1) / target))
        if score < abs(np.log(max(best.bits, 1) / target)):
            best = TuneResult(lam=1.0e12, bits=bits, payload=payload,
                              in_band=False, infeasible=False, trials=trials)
    best.trials = trials
    return best
