"""End-to-end acceptance gate.

One test per numbered criterion; each records a PASS/FAIL line for the
terminal summary before asserting, so a red run still prints the full
scoreboard.
"""
import filecmp
import time

import numpy as np
import pytest

from conftest import (_EXAMPLE_NODES, micro_scene_spec, record_criterion,
                      scene64_spec)
from fvstream.channel import Component, build_schedule, make_iid_trace
from fvstream.codec import CodecConfig, build_inter_candidates
from fvstream.errortrack import ExpectedErrorTracker, innovation_term
from fvstream.frames import MB_SIZE, mse
from fvstream.optimizer import PlaneCandidates, cross_cap, select_plane
from fvstream.pipeline import (SETUP_MODES, ExperimentConfig, decode_stream,
                               encode_stream, run_experiment,
                               synthesize_sequence)
from fvstream.scenegen import generate_synthetic_stereo
from fvstream.sensitivity import SensitivityParams, curvature_map, g_eval
from fvstream.synthesis import SynthesisParams, synthesize_view

import oracles

pytestmark = pytest.mark.acceptance

RATES = (0.02, 0.05, 0.08)
SEEDS = (101, 202, 303, 404, 505)


def plane_dict(left, right):
    out = {}
    for view, frames in ((0, left), (1, right)):
        out[(view, Component.TEXTURE)] = [f.texture.samples for f in frames]
        out[(view, Component.DEPTH)] = [f.disparity.samples for f in frames]
    return out


@pytest.fixture(scope="module")
def headline_run(tmp_path_factory):
    cfg = ExperimentConfig(setups=("rfc", "arps"), loss_rates=RATES,
                           seeds=SEEDS,
                           output_root=str(tmp_path_factory.mktemp("headline")))
    start = time.perf_counter()
    report = run_experiment(cfg)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def ladder_run(tmp_path_factory):
    cfg = ExperimentConfig(setups=("rfc", "rps1", "rps2", "arps"),
                           loss_rates=(0.08,), seeds=SEEDS,
                           output_root=str(tmp_path_factory.mktemp("ladder")))
    return run_experiment(cfg)


def test_criterion_1_absolute_numbers_out_of_reach():
    """The published tables came from a full standard-codec toolchain on
    camera-captured multiview footage; none of that exists here.  What this
    suite checks instead is every structural property the desk-scale rebuild
    can decide: directional end-to-end gains, setup ordering, tracker and
    optimizer oracles, blending invariants, fixed points and determinism."""
    record_criterion(1, "absolute numbers out of scope", True,
                     "replaced by the property suite")


def test_criterion_2_headline_gain(headline_run):
    report, elapsed = headline_run
    wins = {}
    gains = {}
    rate_ok = {}
    for rate in RATES:
        diffs = []
        for seed in SEEDS:
            arps = report.cell("arps", rate, seed)
            rfc = report.cell("rfc", rate, seed)
            diffs.append(arps.mean_psnr - rfc.mean_psnr)
            lo = 0.95 * rfc.total_bits
            hi = 1.05 * rfc.total_bits
            rate_ok[(rate, seed)] = lo <= arps.total_bits <= hi
        wins[rate] = sum(d >= 0.0 for d in diffs)
        gains[rate] = float(np.mean(diffs))
    passed = (elapsed < 300.0
              and all(wins[r] >= 4 for r in RATES)
              and gains[0.08] > 0.0
              and all(rate_ok.values()))
    detail = (f"{elapsed:.0f}s; wins " +
              " ".join(f"{r:g}:{wins[r]}/5" for r in RATES) +
              f"; mean gain at 8% {gains[0.08]:+.2f} dB")
    record_criterion(2, "ARPS beats the baseline", passed, detail)
    assert elapsed < 300.0
    for rate in RATES:
        assert wins[rate] >= 4, f"rate {rate}: {wins[rate]}/5 seeds"
    assert gains[0.08] > 0.0
    assert all(rate_ok.values()), "matched-rate band violated"


def test_criterion_3_setup_ordering(ladder_run):
    report = ladder_run
    means = {}
    for setup in ("rfc", "rps1", "rps2", "arps"):
        means[setup] = float(np.mean(
            [report.cell(setup, 0.08, s).mean_psnr for s in SEEDS]))
    chain = ("rfc", "rps1", "rps2", "arps")
    ok = all(means[a] <= means[b] + 0.05 for a, b in zip(chain, chain[1:]))
    detail = " <= ".join(f"{s}:{means[s]:.3f}" for s in chain)
    record_criterion(3, "setup ladder ordered", ok, detail)
    assert ok, detail


def test_criterion_4_tracker_matches_monte_carlo(tmp_path):
    start = time.perf_counter()
    spec = scene64_spec(10)
    left, right, _ = generate_synthetic_stereo(spec)
    orig = plane_dict(left, right)
    grid = (4, 4)
    n_mb = 16
    worst = 0.0
    ok = True
    for rate in (0.05, 0.1):
        # rtt past the horizon: the planned probabilities never collapse to
        # outcomes, matching the oracle's iid reception (first frame delivery
        # is protected on both sides, as the encoder assumes)
        cfg = ExperimentConfig(scene=spec, setups=("rps1",),
                               loss_rates=(rate,), seeds=(1,), rtt=99,
                               output_root=str(tmp_path / f"r{rate}"))
        schedule = build_schedule(10,
                                  cfg.packets_for(Component.TEXTURE, n_mb),
                                  cfg.packets_for(Component.DEPTH, n_mb))
        trace = make_iid_trace(1, rate, schedule, frozenset({0}))
        stream = encode_stream(cfg, orig, "independent", trace)
        key = (0, Component.TEXTURE)
        decisions = []
        for t in range(10):
            enc = stream.frames[t][key]
            prev = stream.recon[key][t - 1] if t >= 1 else None
            delta = innovation_term(orig[key][t], prev)
            decisions.append((enc.modes, enc.ref_dist, enc.mv, delta))
        tracker = ExpectedErrorTracker(grid, 1.0 - rate, cfg.gamma)
        for j, (modes, ref_dist, mv, delta) in enumerate(decisions):
            tracker.push_frame(modes, ref_dist, mv, delta)
            if j == 0:
                tracker.set_frame_outcome(0, np.ones(n_mb, dtype=bool))
        mc = oracles.mc_decoder_mean(decisions, 1.0 - rate, cfg.gamma, grid,
                                     trials=10000, seed=4242 + int(rate * 100),
                                     protected_frames=frozenset({0}))
        for t in range(10):
            want = tracker.state(t)
            diff = np.abs(want - mc[t])
            tol = np.maximum(0.05 * np.abs(want), 0.1)
            worst = max(worst, float((diff - tol).max()))
            if (diff > tol).any():
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    record_criterion(4, "planned errors match Monte-Carlo", ok,
                     f"{elapsed:.1f}s, worst slack {worst:+.3f}")
    assert elapsed < 60.0
    assert ok


def test_criterion_5_selection_matches_enumeration():
    rng = np.random.default_rng(515151)
    instances = 0
    for _ in range(110):
        hb, wb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        W = int(rng.integers(1, 4))
        h, w = hb * MB_SIZE, wb * MB_SIZE
        base = rng.integers(20, 230, (h // 4, w // 4)).astype(np.float64)
        smooth = np.kron(base, np.ones((4, 4)))
        planes = []
        for t in range(W + 1):
            jitter = rng.integers(-4, 5, (h, w))
            planes.append(np.clip(np.roll(smooth, t, axis=1) + jitter,
                                  0, 255).astype(np.uint8))
        cfg = CodecConfig(quant_step=int(rng.choice([6, 10, 14])),
                          search_range=4, ref_window=W)
        cset = build_inter_candidates(planes[-1], planes[:-1][::-1], cfg)
        n_mb, n_cand = cset.mv.shape[:2]
        chan = np.empty((n_mb, n_cand))
        chan[:, :-1] = rng.uniform(0, 25, (n_mb, n_cand - 1))
        chan[:, -1] = rng.uniform(0, 25, n_mb)      # INTRA, drawn last
        pc = PlaneCandidates(cset=cset, chan=chan)
        mode = str(rng.choice(["reactive", "independent", "cross"]))
        member = rng.random(n_mb) < 0.6
        pen = rng.uniform(0, 6, n_mb)
        cap = np.where(member, rng.uniform(0, 30, n_mb), np.inf)
        curv = rng.uniform(0, 4, n_mb)
        efix = rng.uniform(0, 15, n_mb)
        texture = rng.random() < 0.5
        if mode == "reactive":      # the baseline charges no channel term
            cols = np.zeros((n_mb, n_cand))
        else:                       # the columns EncoderState.plan builds
            cols = chan if texture else g_eval(curv[:, None], chan)
            if mode == "cross":
                cols = cross_cap(cols, pen if texture else efix, cap, member)
        valid = rng.random((n_mb, n_cand)) < 0.85
        valid[:, -1] = True
        lam = float(10.0 ** rng.uniform(-4, 1))
        sel = select_plane(planes[-1], pc, cols, lam, valid=valid)
        chosen, costs = oracles.oracle_select(cset.distortion, cols, cset.bits,
                                              lam, valid)
        assert sel.chosen_col.tolist() == chosen
        assert sel.cost.tolist() == costs
        instances += 1
    passed = instances >= 100
    record_criterion(5, "selection equals enumeration", passed,
                     f"{instances} randomized instances, exact")
    assert passed


def test_criterion_6_blending_invariants(scene64, side_scene):
    # zero tracked errors: the adaptive path must not perturb a single bit
    n_mb = (64 // MB_SIZE) * (64 // MB_SIZE)
    zeros = np.zeros(n_mb)
    identical = True
    for t in range(len(scene64.truth)):
        lt, rt = scene64.left[t], scene64.right[t]
        std = synthesize_view(lt.texture.samples, lt.disparity.samples,
                              rt.texture.samples, rt.disparity.samples,
                              SynthesisParams())
        ada = synthesize_view(lt.texture.samples, lt.disparity.samples,
                              rt.texture.samples, rt.disparity.samples,
                              SynthesisParams(),
                              left_errors=(zeros, zeros),
                              right_errors=(zeros, zeros))
        if not np.array_equal(std, ada):
            identical = False

    # one corrupted view with honest tracking: adaptive can only help
    grid_w = 64 // MB_SIZE
    tex_err = np.zeros(n_mb)
    tex_err[3::grid_w] = 12.0
    le_err = (np.zeros(n_mb), np.zeros(n_mb))
    diffs = []
    for t in range(len(side_scene.truth)):
        lt, rt = side_scene.left[t], side_scene.right[t]
        truth = side_scene.truth[t].samples
        bad = rt.texture.samples.astype(np.int64)
        bad[:, 48:] = np.clip(bad[:, 48:] + 12, 0, 255)
        bad = bad.astype(np.uint8)
        std = synthesize_view(lt.texture.samples, lt.disparity.samples,
                              bad, rt.disparity.samples,
                              SynthesisParams())
        ada = synthesize_view(lt.texture.samples, lt.disparity.samples,
                              bad, rt.disparity.samples,
                              SynthesisParams(),
                              left_errors=le_err,
                              right_errors=(tex_err, np.zeros(n_mb)))
        diffs.append(mse(std, truth) - mse(ada, truth))
    never_worse = all(d >= 0.0 for d in diffs)
    strict = sum(d > 0.0 for d in diffs)
    passed = identical and never_worse and strict >= 1
    record_criterion(6, "blending invariants", passed,
                     f"bit-identical clean; {strict}/{len(diffs)} frames "
                     "strictly improved")
    assert identical
    assert never_worse
    assert strict >= 1


def test_criterion_7_clean_channel_fixed_point(scene64, tmp_path):
    spec = scene64.spec
    orig = plane_dict(scene64.left, scene64.right)
    n_mb = (spec.height // MB_SIZE) * (spec.width // MB_SIZE)
    cfg = ExperimentConfig(scene=spec, setups=("rfc",), loss_rates=(0.0,),
                           seeds=(1,), output_root=str(tmp_path / "c7"))
    schedule = build_schedule(spec.frame_count,
                              cfg.packets_for(Component.TEXTURE, n_mb),
                              cfg.packets_for(Component.DEPTH, n_mb))
    trace = make_iid_trace(1, 0.0, schedule, frozenset({0}))
    decoded = {}
    for mode in ("reactive", "independent", "cross"):
        stream = encode_stream(cfg, orig, mode, trace)
        decoded[mode] = decode_stream(cfg, stream, trace)
    scores = {}
    zero_states = True
    for setup, (mode, blend) in SETUP_MODES.items():
        dec = decoded[mode]
        _, scores[setup] = synthesize_sequence(cfg, dec, blend, scene64.truth)
        for view in (0, 1):
            for comp in (0, 1):
                for t in range(spec.frame_count):
                    if not (dec.tracker.state(view, comp, t) == 0.0).all():
                        zero_states = False
    spread = 0.0
    setups = list(SETUP_MODES)
    for t in range(spec.frame_count):
        vals = [scores[s][t] for s in setups]
        spread = max(spread, max(vals) - min(vals))
    passed = spread <= 0.2 and zero_states
    record_criterion(7, "clean channel fixed point", passed,
                     f"max per-frame spread {spread:.6f} dB, states all zero")
    assert spread <= 0.2
    assert zero_states


def test_criterion_8_curvature_concentrates_at_boundaries(default_scene):
    t = 4
    lt, rt = default_scene.left[t], default_scene.right[t]
    params = SensitivityParams()
    a = curvature_map(lt.texture.samples, lt.disparity.samples,
                      rt.texture.samples, 0, 1.0, params)
    disp = lt.disparity.samples
    tex = lt.texture.samples
    hb, wb = disp.shape[0] // MB_SIZE, disp.shape[1] // MB_SIZE
    dt = disp.reshape(hb, MB_SIZE, wb, MB_SIZE).swapaxes(1, 2)
    edge = (dt.max(axis=(2, 3)) != dt.min(axis=(2, 3))).reshape(-1)
    # A block is flat when the texture is constant over every column its
    # +-max_deviation disparity scan reaches: the block widened by that many
    # columns on each side, clamped to the frame as pixel_profiles clamps.
    n = params.max_deviation
    flat = np.zeros(hb * wb, dtype=bool)
    for br in range(hb):
        rows = tex[br * MB_SIZE:(br + 1) * MB_SIZE]
        for bc in range(wb):
            win = rows[:, max(0, bc * MB_SIZE - n):(bc + 1) * MB_SIZE + n]
            flat[br * wb + bc] = win.max() == win.min()
    flat_idx = sorted(np.flatnonzero(flat).tolist())
    ratio = a[edge].mean() / a[~edge].mean()
    flat_zero = (a[flat] == 0.0).all()
    passed = ratio > 2.0 and flat_zero and flat.any()
    record_criterion(8, "curvature peaks at object boundaries", passed,
                     f"edge/interior ratio {ratio:.2f}, "
                     f"flat blocks {flat_idx} exactly zero")
    assert flat_idx == [37, 45, 53]
    assert flat_zero
    assert ratio > 2.0


def test_criterion_9_worked_examples_are_pinned():
    count = len(_EXAMPLE_NODES)
    record_criterion(9, "worked examples pinned", count >= 15,
                     "verdict folds in their outcomes")
    assert count >= 15, "expected the example suite to be collected"


def test_criterion_10_artifacts_are_deterministic(tmp_path):
    spec = micro_scene_spec()
    roots = []
    for run in ("a", "b"):
        cfg = ExperimentConfig(scene=spec, setups=("rfc", "arps"),
                               loss_rates=(0.05,), seeds=(7,), rtt=2,
                               output_root=str(tmp_path / run))
        run_experiment(cfg)
        roots.append(tmp_path / run)

    def tree_files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*")
                      if p.is_file())

    files_a, files_b = tree_files(roots[0]), tree_files(roots[1])
    same_layout = files_a == files_b
    mismatched = []
    for rel in files_a:
        if not filecmp.cmp(roots[0] / rel, roots[1] / rel, shallow=False):
            mismatched.append(str(rel))
    passed = same_layout and not mismatched
    record_criterion(10, "byte-identical reruns", passed,
                     f"{len(files_a)} files compared")
    assert same_layout
    assert mismatched == []
