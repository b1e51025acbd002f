"""End-to-end harness behavior: config, artifact tree, reports and the CLI."""
import dataclasses
import json
import multiprocessing
import os
import shutil
import time
from contextlib import nullcontext
from multiprocessing.connection import Connection
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvstream.channel import Component, build_schedule, make_iid_trace
from fvstream.cli import main
from fvstream import pipeline
from fvstream.codec import PLANE_ORDER, CodecConfig, CodecError
from fvstream.errortrack import (DecoderTracker, ExpectedErrorTracker,
                                 TrackingError)
from fvstream.sensitivity import SensitivityParams
from fvstream.frames import psnr
from fvstream.synthesis import SynthesisParams, synthesize_view
from fvstream.scenegen import (SceneSpecError, _paint_view,
                               generate_synthetic_stereo)
from fvstream.pipeline import (OUTPUT_ROOT_ENV, CellResult, ExperimentConfig,
                               ExperimentReport, HarnessError, compare_setups,
                               config_from_dict, decode_stream, emit_plot_data,
                               encode_stream, load_report, resolve_output_root,
                               run_experiment, synthesize_sequence)

from conftest import encoder_state

#: top-level config keys, one unknown, and a JSON value drawn for each
CONFIG_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig)] + ["bogus"]
_SCALARS = st.one_of(st.integers(-64, 64), st.floats(-300, 300),
                    st.booleans(), st.text(max_size=3), st.none(),
                    st.lists(st.integers(), max_size=2))


def _mostly(good):
    """A field value: good three times in four, any JSON scalar otherwise."""
    return st.sampled_from([good, good, good, _SCALARS]).flatmap(lambda s: s)


_PAIR = _mostly(st.lists(_mostly(st.integers(-2, 2)), min_size=2, max_size=2))
_TEXTURES = _mostly(st.fixed_dictionaries({}, optional={
    "kind": _mostly(st.sampled_from(["flat", "gradient", "checker", "noise",
                                     "plaid"])),
    "value": _mostly(st.integers(0, 300)), "base": _mostly(st.floats(0, 255)),
    "row_slope": _mostly(st.floats(-4, 4)),
    "col_slope": _mostly(st.floats(-4, 4)), "cell": _mostly(st.integers(0, 8)),
    "low": _mostly(st.integers(-5, 255)), "high": _mostly(st.integers(0, 255)),
    "seed": _mostly(st.integers(0, 99)), "shade": _SCALARS}))
_TRAJECTORIES = _mostly(st.fixed_dictionaries({}, optional={
    "kind": _mostly(st.sampled_from(["static", "linear", "offsets", "orbit"])),
    "velocity": _PAIR, "offsets": _mostly(st.lists(_PAIR, max_size=3))}))
_OBJECTS = _mostly(st.fixed_dictionaries(
    {"height": _mostly(st.integers(1, 16)), "width": _mostly(st.integers(1, 16)),
     "row": _mostly(st.integers(0, 8)), "col": _mostly(st.integers(0, 8)),
     "disparity": _mostly(st.integers(1, 24))},
    optional={"texture": _TEXTURES, "trajectory": _TRAJECTORIES,
              "depth": _SCALARS}))
#: scene documents, nested down to textures and trajectories
_SCENE_DICTS = st.fixed_dictionaries(
    {"width": _mostly(st.sampled_from([16, 32])),
     "height": _mostly(st.sampled_from([16, 32])),
     "frame_count": _mostly(st.integers(1, 3))},
    optional={"background": _mostly(st.fixed_dictionaries({}, optional={
                  "disparity": _mostly(st.integers(0, 2)),
                  "texture": _TEXTURES})),
              "objects": _mostly(st.lists(_OBJECTS, max_size=2))})
JSON_VALUES = st.one_of(
    st.recursive(st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6)
                 | st.floats(allow_nan=False) | st.text(max_size=5),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                 max_leaves=6),
    st.lists(st.sampled_from(["rfc", "rps1", "rps2", "arps"]), max_size=4),
    st.lists(st.floats(0, 1), max_size=3), _SCENE_DICTS)

MICRO_SCENE_DICT = {
    "width": 32, "height": 32, "frame_count": 8,
    "background": {"disparity": 2,
                   "texture": {"kind": "gradient", "base": 80.0,
                               "row_slope": 0.0, "col_slope": 1.0}},
    "objects": [{"height": 12, "width": 12, "row": 4, "col": 4,
                 "disparity": 6, "texture": {"kind": "flat", "value": 200},
                 "trajectory": {"kind": "offsets",
                                "offsets": [[0, 0], [0, 1], [0, 2], [0, 3],
                                            [0, 4], [0, 3], [0, 2], [0, 1]]}}],
}


def micro_config(tmp_path, **overrides):
    kw = dict(scene=config_from_dict({"scene": MICRO_SCENE_DICT}).scene,
              setups=("rfc", "arps"), loss_rates=(0.05,), seeds=(7,),
              rtt=2, output_root=str(tmp_path / "out"))
    kw.update(overrides)
    return ExperimentConfig(**kw)


def handmade_report(psnr_by_setup, frame_count=4):
    cells = []
    for setup, base in psnr_by_setup.items():
        psnrs = [base + 0.1 * t for t in range(frame_count)]
        cells.append(CellResult(setup=setup, loss_rate=0.05, seed=1,
                                frame_psnr=psnrs,
                                frame_bits=[1000] * frame_count,
                                frame_lost_packets=[0] * frame_count,
                                in_band=[True] * frame_count,
                                infeasible=[False] * frame_count))
    return ExperimentReport(setups=tuple(psnr_by_setup), loss_rates=(0.05,),
                            seeds=(1,), cells=cells)


class TestConfig:
    def test_defaults_cover_the_full_grid(self):
        cfg = ExperimentConfig()
        assert cfg.setups == ("rfc", "rps1", "rps2", "arps")
        assert cfg.loss_rates == (0.02, 0.05, 0.08)
        assert len(cfg.seeds) == 5
        assert cfg.rtt == 4

    def test_validation(self):
        with pytest.raises(HarnessError):
            ExperimentConfig(setups=("rfc", "bogus"))
        with pytest.raises(HarnessError):
            ExperimentConfig(setups=("rfc", "rfc"))
        with pytest.raises(HarnessError):
            ExperimentConfig(loss_rates=(1.5,))
        with pytest.raises(HarnessError):
            ExperimentConfig(rtt=-1)
        with pytest.raises(HarnessError):
            ExperimentConfig(seeds=())
        with pytest.raises(HarnessError, match="nonnegative"):
            ExperimentConfig(seeds=(3, -1))

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(HarnessError):
            ExperimentConfig(seeds=(1, 2, 1))

    def test_rejects_rates_that_share_a_directory(self):
        # each rate names a rate_<6 decimals> directory of the tree
        with pytest.raises(HarnessError):
            ExperimentConfig(loss_rates=(0.1, 0.1))
        with pytest.raises(HarnessError):
            ExperimentConfig(loss_rates=(0.1, 0.1000000001))
        assert ExperimentConfig(loss_rates=(0.1, 0.100001)).loss_rates == \
            (0.1, 0.100001)

    @pytest.mark.parametrize("field", ["base_lambda", "rate_band"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_rejects_a_lambda_or_band_not_finite_and_positive(self, field,
                                                              value):
        # NaN passed the old `<= 0` check and coded with NaN costs
        with pytest.raises(HarnessError, match="positive and finite"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field", ["eta", "reliability_c", "threshold",
                                       "position"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_model_parameters(self, field, value):
        with pytest.raises(HarnessError,
                           match=f"^config: {field} must"):
            ExperimentConfig(**{field: value})

    def test_parameter_objects_keep_the_module_defaults(self):
        # the defaults the parameter classes keep cannot drift from the config
        cfg = ExperimentConfig()
        assert cfg.sensitivity == SensitivityParams()
        assert cfg.synthesis == SynthesisParams()
        assert cfg.codecs == {
            Component.TEXTURE: CodecConfig(cfg.quant_step, cfg.search_range,
                                           cfg.ref_window),
            Component.DEPTH: CodecConfig(cfg.depth_quant_step,
                                         cfg.depth_search_range,
                                         cfg.ref_window)}

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(HarnessError):
            config_from_dict({"rtt": 2, "bogus_knob": 1})
        with pytest.raises(HarnessError):
            config_from_dict(["not", "a", "dict"])

    def test_from_dict_builds_the_scene(self):
        cfg = config_from_dict({"scene": MICRO_SCENE_DICT, "rtt": 3,
                                "loss_rates": [0.1], "seeds": [42]})
        assert cfg.scene.width == 32
        assert cfg.scene.frame_count == 8
        assert cfg.rtt == 3
        assert cfg.loss_rates == (0.1,)
        assert cfg.seeds == (42,)

    @pytest.mark.parametrize("doc", [
        {"rtt": "x"}, {"rtt": 2.5}, {"rtt": True}, {"seeds": 3},
        {"seeds": [1.5]}, {"loss_rates": ["a"]}, {"setups": "rfc"},
        {"protect_first_frame": 1}, {"output_root": 3},
        {"eta": float("nan")}, {"base_lambda": float("inf")},
        {"loss_rates": [float("nan")]}])
    def test_from_dict_rejects_wrong_types(self, doc):
        with pytest.raises(HarnessError):
            config_from_dict(doc)

    def test_from_dict_rejects_a_scene_that_is_no_object(self):
        with pytest.raises(SceneSpecError):
            config_from_dict({"scene": 5})
        with pytest.raises(SceneSpecError):
            config_from_dict({"scene": dict(MICRO_SCENE_DICT, objects=5)})

    @given(st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES,
                           max_size=4)
           | st.fixed_dictionaries({"scene": _SCENE_DICTS}))
    @example({"scene": {"width": 32, "height": 32, "frame_count": True}})
    @example({"scene": {"width": 32, "height": 32, "frame_count": 1,
                        "background": {"texture": {"kind": "gradient",
                                                   "base": "x"}}}})
    @settings(max_examples=200)
    def test_from_dict_loads_or_raises_its_own_error(self, doc):
        try:
            cfg = config_from_dict(doc)
        except (HarnessError, SceneSpecError):
            return
        for name, value in doc.items():
            if name != "scene":
                got = getattr(cfg, name)
                assert (list(got) if isinstance(got, tuple) else got) == value
        if "scene" in doc:          # a scene loads uncoerced, and renders
            scene = doc["scene"]
            assert all(type(scene[k]) is int
                       for k in ("width", "height", "frame_count"))
            generate_synthetic_stereo(cfg.scene)

    def test_packet_counts_clamp_to_the_block_count(self):
        cfg = ExperimentConfig()
        assert cfg.packets_for(Component.TEXTURE, 4) == 4
        assert cfg.packets_for(Component.TEXTURE, 64) == 12
        assert cfg.packets_for(Component.DEPTH, 64) == 4

    def test_output_root_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
        assert resolve_output_root(ExperimentConfig()) == \
            __import__("pathlib").Path("fvstream-out")
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "env"))
        assert resolve_output_root(ExperimentConfig()) == tmp_path / "env"
        cfg = ExperimentConfig(output_root=str(tmp_path / "explicit"))
        assert resolve_output_root(cfg) == tmp_path / "explicit"


class TestLosslessLoop:
    def test_clean_channel_decodes_to_the_encoder_reconstruction(self,
                                                                 micro_scene,
                                                                 tmp_path):
        cfg = micro_config(tmp_path, loss_rates=(0.0,))
        orig = {}
        for view, frames in ((0, micro_scene.left), (1, micro_scene.right)):
            orig[(view, Component.TEXTURE)] = [f.texture.samples for f in frames]
            orig[(view, Component.DEPTH)] = [f.disparity.samples for f in frames]
        schedule = build_schedule(8, 4, 4)
        trace = make_iid_trace(7, 0.0, schedule, frozenset({0}))
        stream = encode_stream(cfg, orig, "cross", trace)
        dec = decode_stream(cfg, stream, trace)
        for key in PLANE_ORDER:
            for t in range(8):
                assert np.array_equal(dec.planes[key][t], stream.recon[key][t])
        for view in (0, 1):
            for comp in (0, 1):
                for t in range(8):
                    assert (dec.tracker.state(view, comp, t) == 0.0).all()
        assert dec.lost_packets == [0] * 8

    def test_only_tracking_modes_compute_the_innovation(self, micro_scene,
                                                        tmp_path, monkeypatch):
        # the reactive taint ignores the innovation, so it must not pay for it
        cfg = micro_config(tmp_path)
        orig = {}
        for view, frames in ((0, micro_scene.left), (1, micro_scene.right)):
            orig[(view, Component.TEXTURE)] = [f.texture.samples for f in frames]
            orig[(view, Component.DEPTH)] = [f.disparity.samples for f in frames]
        trace = make_iid_trace(7, 0.05, build_schedule(8, 4, 4), frozenset({0}))
        calls = []
        innovation = pipeline.innovation_term
        monkeypatch.setattr(pipeline, "innovation_term",
                            lambda *a: calls.append(a) or innovation(*a))
        counts = {}
        for mode in ("reactive", "independent"):
            calls.clear()
            encode_stream(cfg, orig, mode, trace)
            counts[mode] = len(calls)
        assert counts == {"reactive": 0, "independent": 4 * 8}

    def test_only_the_adaptive_blend_pays_for_receiver_tracking(
            self, micro_scene, tmp_path, monkeypatch):
        # the standard blend reads no tracked error; decode_stream hands
        # its tracker to the caller
        _cpus(monkeypatch, 1)
        cfg = micro_config(tmp_path)
        orig = pipeline._plane_lists(micro_scene.left, micro_scene.right)
        trace = cfg.loss_trace(7, 0.05)
        calls = []
        update = DecoderTracker.update_frame
        monkeypatch.setattr(DecoderTracker, "update_frame",
                            lambda *a: calls.append(a) or update(*a))
        counts = []
        for blends in (["standard"], ["standard", "adaptive"]):
            calls.clear()
            stream = encode_stream(cfg, orig, "cross", trace, receiver=partial(
                pipeline.Receiver, cfg, trace, blends, micro_scene.truth))
            counts.append(len(calls))
        calls.clear()
        decode_stream(cfg, stream, trace)
        assert counts + [len(calls)] == [0, 8, 8]

    def test_synthesis_scores_one_value_per_frame(self, micro_scene, tmp_path):
        cfg = micro_config(tmp_path, loss_rates=(0.0,))
        orig = {}
        for view, frames in ((0, micro_scene.left), (1, micro_scene.right)):
            orig[(view, Component.TEXTURE)] = [f.texture.samples for f in frames]
            orig[(view, Component.DEPTH)] = [f.disparity.samples for f in frames]
        trace = make_iid_trace(7, 0.0, build_schedule(8, 4, 4), frozenset({0}))
        stream = encode_stream(cfg, orig, "cross", trace)
        dec = decode_stream(cfg, stream, trace)
        planes, scores = synthesize_sequence(cfg, dec, "adaptive",
                                             micro_scene.truth)
        assert len(planes) == len(scores) == 8
        assert all(s > 20.0 for s in scores)
        for blend in ("Adaptive", "both", ""):
            with pytest.raises(HarnessError):
                synthesize_sequence(cfg, dec, blend, micro_scene.truth)

    def test_synthesis_is_scored_against_the_truth_at_its_position(
            self, micro_scene, tmp_path):
        cfg = micro_config(tmp_path, scene=micro_scene.spec, setups=("rfc",),
                           loss_rates=(0.0,), position=0.25)
        report = run_experiment(cfg)
        orig = pipeline._plane_lists(micro_scene.left, micro_scene.right)
        stream = encode_stream(cfg, orig, "reactive", cfg.loss_trace(7, 0.0))
        for t, score in enumerate(report.cells[0].frame_psnr):
            plane = synthesize_view(*(stream.recon[key][t]
                                      for key in PLANE_ORDER), cfg.synthesis)
            truth, _ = _paint_view(cfg.scene, t, 0.25)
            assert score == float(pipeline._fmt(psnr(truth, plane)))


class TestReports:
    def test_comparison_requires_the_baseline(self):
        rep = handmade_report({"rps1": 30.0, "arps": 31.0})
        with pytest.raises(HarnessError):
            compare_setups(rep)
        with pytest.raises(HarnessError):
            compare_setups(handmade_report({"rfc": 30.0}))

    def test_identical_setups_show_zero_gain(self):
        rep = handmade_report({"rfc": 33.0, "arps": 33.0})
        csv_text, aligned = compare_setups(rep)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "loss_rate,setup,avg_psnr,max_gain_vs_rfc,avg_bits"
        rows = {ln.split(",")[1]: ln.split(",") for ln in lines[1:]}
        assert float(rows["arps"][3]) == 0.0
        assert float(rows["rfc"][3]) == 0.0
        assert rows["arps"][2] == rows["rfc"][2]
        assert "arps" in aligned and "rfc" in aligned

    def test_gain_is_the_best_single_frame_advantage(self):
        rep = handmade_report({"rfc": 30.0, "arps": 31.5})
        csv_text, _ = compare_setups(rep)
        row = [ln for ln in csv_text.splitlines() if ",arps," in ln][0]
        assert float(row.split(",")[3]) == pytest.approx(1.5, abs=1e-9)

    def test_plot_series_one_row_per_frame(self, tmp_path):
        rep = handmade_report({"rfc": 30.0, "arps": 31.0}, frame_count=150)
        written = emit_plot_data(rep, tmp_path / "plot")
        assert len(written) == 2
        for path in written:
            rows = path.read_text().strip().splitlines()
            assert len(rows) == 150
            idx = [int(r.split()[0]) for r in rows]
            assert idx == list(range(150))
            vals = [float(r.split()[1]) for r in rows]
            assert vals[0] < vals[-1]


@pytest.fixture(scope="module")
def experiment_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("exp")
    cfg = micro_config(root)
    report = run_experiment(cfg)
    return cfg, report, resolve_output_root(cfg)


class TestExperimentTree:
    def test_report_covers_the_grid(self, experiment_tree):
        cfg, report, _ = experiment_tree
        assert report.setups == ("rfc", "arps")
        assert len(report.cells) == 2
        for cell in report.cells:
            assert len(cell.frame_psnr) == 8
            assert all(np.isfinite(p) for p in cell.frame_psnr)
            assert cell.total_bits > 0

    def test_artifact_files_exist(self, experiment_tree):
        _, _, root = experiment_tree
        assert (root / "report.csv").is_file()
        assert (root / "summary.csv").is_file()
        assert (root / "summary.txt").is_file()
        cell_dir = root / "rate_0.050000" / "seed_7"
        assert (cell_dir / "trace.txt").is_file()
        for setup in ("rfc", "arps"):
            assert (cell_dir / setup / "decisions.csv").is_file()
            assert (cell_dir / setup / "perframe.csv").is_file()
            for t in range(8):
                assert (cell_dir / setup / "frames" /
                        f"synth_{t:04d}.pgm").is_file()
        dats = sorted((root / "plot").glob("*.dat"))
        assert len(dats) == 2

    def test_decisions_csv_shape(self, experiment_tree):
        _, _, root = experiment_tree
        lines = (root / "rate_0.050000" / "seed_7" / "rfc" /
                 "decisions.csv").read_text().strip().splitlines()
        # header + frames * planes * blocks
        assert len(lines) == 1 + 8 * 4 * 4
        assert lines[0] == "frame,view,component,mb,mode,ref,mvx,mvy,bits,dbar,d"
        assert all(len(ln.split(",")) == 11 for ln in lines[1:])

    def test_summary_recomputes_from_the_tree(self, experiment_tree):
        _, _, root = experiment_tree
        rebuilt = load_report(root)
        csv_text, _ = compare_setups(rebuilt)
        assert csv_text == (root / "summary.csv").read_text()

    def test_loaded_cells_carry_no_per_frame_flags(self, experiment_tree):
        # the tree keeps in-band and infeasible counts, not per-frame flags
        _, report, root = experiment_tree
        assert all(c.in_band is not None for c in report.cells)
        for cell in load_report(root).cells:
            assert cell.in_band is None and cell.infeasible is None

    def test_report_rows_must_agree_with_their_cells(self, experiment_tree,
                                                     tmp_path):
        _, _, root = experiment_tree
        lines = (root / "report.csv").read_text().splitlines()
        row = lines[1].split(",")
        for field, value in (("frame_count", "9"), ("total_bits", "1")):
            bad = list(row)
            bad[pipeline.REPORT_FIELDS.index(field)] = value
            copy = tmp_path / field
            shutil.copytree(root, copy)
            (copy / "report.csv").write_text(
                "\n".join([lines[0], ",".join(bad)] + lines[2:]) + "\n")
            with pytest.raises(HarnessError, match="report.csv line 2"):
                load_report(copy)

    def test_loaded_report_matches_the_live_one(self, experiment_tree):
        _, report, root = experiment_tree
        rebuilt = load_report(root)
        for cell in report.cells:
            twin = rebuilt.cell(cell.setup, cell.loss_rate, cell.seed)
            assert twin.frame_psnr == pytest.approx(cell.frame_psnr)
            assert twin.frame_bits == cell.frame_bits
            assert twin.frame_lost_packets == cell.frame_lost_packets


def _break_plan(monkeypatch, mode, frame, action):
    """Make EncoderState.plan run action() instead at mode's frame; forked
    workers inherit the patch."""
    plan = pipeline.EncoderState.plan

    def broken(self, t, sets):
        if self.mode == mode and t == frame:
            action()
        return plan(self, t, sets)
    monkeypatch.setattr(pipeline.EncoderState, "plan", broken)


def _raise(message):
    def action():
        raise CodecError(message)
    return action


class TestPairWorker:
    """rfc codes in a forked worker when its pair also holds a tuned setup."""

    def test_worker_error_is_raised_here_and_the_worker_reaped(
            self, tmp_path, monkeypatch, capsys):
        _break_plan(monkeypatch, "reactive", 3, _raise("rfc broke at 3"))
        with pytest.raises(CodecError, match="rfc broke at 3"):
            run_experiment(micro_config(tmp_path))
        assert multiprocessing.active_children() == []
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scene": MICRO_SCENE_DICT, "setups": ["rfc", "arps"],
            "loss_rates": [0.05], "seeds": [7], "rtt": 2,
            "output_root": str(tmp_path / "cli")}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "error: rfc broke at 3\n"
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_reported_with_its_exit_code(
            self, tmp_path, monkeypatch):
        parent = os.getpid()

        def die():
            if os.getpid() != parent:
                os._exit(3)
        _break_plan(monkeypatch, "reactive", 3, die)
        with pytest.raises(HarnessError, match="exited with code 3"):
            run_experiment(micro_config(tmp_path))
        assert multiprocessing.active_children() == []

    def test_error_here_terminates_the_running_worker(self, tmp_path,
                                                      monkeypatch):
        # the worker stalls at frame 5, after it has sent frame 3's target
        # that the failing cross encode reads first
        _break_plan(monkeypatch, "reactive", 5, lambda: time.sleep(60))
        _break_plan(monkeypatch, "cross", 3, _raise("cross broke at 3"))
        start = time.monotonic()
        with pytest.raises(CodecError, match="cross broke at 3"):
            run_experiment(micro_config(tmp_path))
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    def test_worker_counts_as_running_until_its_cells_arrive(self):
        # running() reads only what has arrived: the worker's bits, then its
        # cells, after which one encode runs
        def worker(conn):
            for bits in (5, 6, 7):
                conn.send(bits)
            conn.recv()
            conn.send(["cells"])
        with pipeline._forked("probe", worker) as (send, receive, poll):
            targets = pipeline._StreamedTargets(receive, poll)
            assert targets[1] == 6 and targets.running() == 2
            send("go")
            deadline = time.monotonic() + 30
            while targets.running() == 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert targets.running() == 1
            assert targets.bits == [5, 6, 7] and targets[2] == 7
            assert targets.result() == ["cells"]

    def test_rfc_cell_is_the_same_from_the_worker_and_in_process(
            self, tmp_path, monkeypatch):
        log = tmp_path / "writers.txt"
        write_cell = pipeline._write_cell

        def logged(cell_dir, *args):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{cell_dir.relative_to(tmp_path)} {os.getpid()}\n")
            return write_cell(cell_dir, *args)
        monkeypatch.setattr(pipeline, "_write_cell", logged)
        run_experiment(micro_config(tmp_path, output_root=str(tmp_path / "pair")))
        run_experiment(micro_config(tmp_path, setups=("rfc",),
                                    output_root=str(tmp_path / "solo")))
        cell = os.path.join("rate_0.050000", "seed_7", "rfc")
        writers = dict(line.split() for line in log.read_text().splitlines())
        here = str(os.getpid())
        assert writers.pop(os.path.join("pair", cell)) != here
        assert writers == {os.path.join("pair", "rate_0.050000", "seed_7",
                                        "arps"): here,
                           os.path.join("solo", cell): here}
        trees = []
        for run in ("pair", "solo"):
            root = tmp_path / run / cell
            trees.append({p.relative_to(root): p.read_bytes()
                          for p in sorted(root.rglob("*")) if p.is_file()})
        assert len(trees[0]) == 2 + 8 and trees[0] == trees[1]

    @pytest.mark.parametrize("broken", [
        None, "worker raises", "worker dies", "error here"])
    def test_no_process_outlives_the_run(self, tmp_path, monkeypatch, capfd,
                                         broken):
        # at 3 CPUs every encode forks its helper at frame 0: this process
        # forks the rfc worker and the arps encode's helper, and the worker
        # forks a helper of its own; a failing run terminates or loses a
        # worker that has one, and no process reports it on stderr
        ledger, here = tmp_path / "forks.txt", os.getpid()
        _fork_ledger(monkeypatch, ledger)
        _cpus(monkeypatch, 3)

        def die():
            if os.getpid() != here:
                os._exit(3)
        error = {None: None, "worker raises": CodecError,
                 "worker dies": HarnessError, "error here": CodecError}[broken]
        if broken == "worker raises":
            _break_plan(monkeypatch, "reactive", 3, _raise("rfc broke at 3"))
        elif broken == "worker dies":
            _break_plan(monkeypatch, "reactive", 3, die)
        elif broken == "error here":
            _break_plan(monkeypatch, "reactive", 5, lambda: time.sleep(60))
            _break_plan(monkeypatch, "cross", 3, _raise("cross broke at 3"))
        with pytest.raises(error) if error else nullcontext():
            run_experiment(micro_config(tmp_path))
        forks: dict[int, list[int]] = {}
        for line in ledger.read_text(encoding="ascii").splitlines():
            parent, child = map(int, line.split())
            forks.setdefault(parent, []).append(child)
        worker, _ = forks[here]
        assert forks.keys() == {here, worker} and len(forks[worker]) == 1
        children = forks[here] + forks[worker]
        # a helper that loses its worker ends once it reads the closed pipe
        deadline = time.monotonic() + (0 if error is None else 30)
        while (any(map(_running, children))
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not any(map(_running, children))
        assert capfd.readouterr().err == ""


def _fork_ledger(monkeypatch, path):
    """Make every fork, made here or in a forked process, append the pid
    that forks and the child's pid to path."""
    fork = os.fork

    def logged():
        pid = fork()
        if pid:
            with open(path, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()} {pid}\n")
        return pid
    monkeypatch.setattr(os, "fork", logged)


def _running(pid) -> bool:
    """Whether process pid exists and has not ended (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _cpus(monkeypatch, n):
    """Make this process see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _count_forks(monkeypatch):
    """A list that grows by one for every fork made in this process."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return forks


def _ends_at(frame):
    """An encodes() signal that reads 2 for frame frames and 1 from then
    on (never, for None); calls counts how often it was read."""
    def encodes():
        encodes.calls += 1
        return 2 if frame is None or encodes.calls <= frame else 1
    encodes.calls = 0
    return encodes


def _worker_ends_at(monkeypatch, frame):
    """Make a tuned encode beside the rfc worker see the worker running for
    its first frame frames (always, for None) and, once the worker's cells
    have arrived, ended from then on, whatever the timing."""
    def running(targets):
        targets.reads = getattr(targets, "reads", 0) + 1
        if frame is None or targets.reads <= frame:
            return 2
        targets.result()
        return 1
    monkeypatch.setattr(pipeline._StreamedTargets, "running", running)


def _same(a, b) -> bool:
    """Deep equality of streams: arrays by dtype and value."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and np.array_equal(a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


def _arrays(obj):
    """Every array inside a message: through tuples, lists, dicts and
    dataclasses."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from _arrays(item)


def _tree(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestPlaneHelper:
    """An encode forks a helper for view 1's candidate sets when more CPUs
    are usable than encodes run at once."""

    @staticmethod
    def _inputs(scene, rtt=2):
        cfg = ExperimentConfig(scene=scene.spec, setups=("arps",),
                               loss_rates=(0.2,), seeds=(5,), rtt=rtt)
        orig = pipeline._plane_lists(scene.left, scene.right)
        return cfg, orig, cfg.loss_trace(5, 0.2)

    # at rtt 0 and 1, learn applies an outcome on every frame while the
    # next frame's request is out
    @pytest.mark.parametrize("rtt", [0, 1, 2])
    @pytest.mark.parametrize("scene", ["micro_scene", "scene64"])
    @pytest.mark.parametrize("mode", ["reactive", "independent", "cross"])
    def test_stream_is_the_same_with_and_without_the_helper(
            self, request, monkeypatch, scene, mode, rtt):
        cfg, orig, trace = self._inputs(request.getfixturevalue(scene), rtt)
        forks = _count_forks(monkeypatch)
        streams = []
        for cpus in (1, 2, 4):
            _cpus(monkeypatch, cpus)
            streams.append(encode_stream(cfg, orig, mode, trace))
            assert len(forks) == min(cpus, 2) - 1
            forks.clear()
        assert all(_same(getattr(streams[0], f.name), getattr(stream, f.name))
                   for stream in streams[1:]
                   for f in dataclasses.fields(pipeline.EncodedStream))

    def test_encoders_stepped_alternately_keep_their_own_records(
            self, scene64, monkeypatch):
        # each EncoderState holds the trial records of its own planes, so
        # two encodes interleaved frame by frame in one process code what
        # each codes alone
        _cpus(monkeypatch, 1)
        cfg, orig, trace = self._inputs(scene64)
        modes = ("cross", "independent")
        alone = [encode_stream(cfg, orig, mode, trace).frames for mode in modes]
        states = [encoder_state(cfg, orig, mode, trace) for mode in modes]
        together = [[], []]
        for t in range(len(orig[(0, Component.TEXTURE)])):
            for state, frames in zip(states, together):
                state.learn(t)
                sels = pipeline._select_frame(state.plan(t), cfg.base_lambda,
                                              None, cfg)[0]
                frames.append({key: sel.enc for key, sel in sels.items()})
                state.commit(t, frames[-1],
                             {key: sel.recon for key, sel in sels.items()})
        assert _same(together, alone)

    @pytest.mark.parametrize("setups, forks_by_cpus", [
        (("rfc",), {1: 0, 2: 1, 4: 1}),
        # the helper's receiver blends one cross-mode decode both ways
        (("rps2", "arps"), {1: 0, 2: 1, 4: 1}),
        # the rfc worker, then a helper per tuned mode: beside the live
        # worker from 4 CPUs, after its cells at 2 (pinned to frame 0)
        (("rfc", "rps1", "rps2", "arps"), {1: 1, 2: 3, 4: 3})])
    def test_tree_is_the_same_at_any_cpu_count(self, tmp_path, monkeypatch,
                                               setups, forks_by_cpus):
        forks = _count_forks(monkeypatch)
        trees = []
        for cpus, want in forks_by_cpus.items():
            _cpus(monkeypatch, cpus)
            root = tmp_path / f"cpus{cpus}"
            with pytest.MonkeyPatch.context() as pinned:
                if cpus == 2:
                    _worker_ends_at(pinned, 0)
                run_experiment(micro_config(tmp_path, setups=setups,
                                            output_root=str(root)))
            assert len(forks) == want
            forks.clear()
            trees.append(_tree(root))
        assert trees[0] and all(tree == trees[0] for tree in trees)

    def test_one_cpu_forks_nothing(self, micro_scene, tmp_path, monkeypatch):
        _cpus(monkeypatch, 1)

        def no_fork():
            raise AssertionError("forked at 1 CPU")
        monkeypatch.setattr(os, "fork", no_fork)
        cfg, orig, trace = self._inputs(micro_scene)
        encode_stream(cfg, orig, "cross", trace)
        run_experiment(micro_config(tmp_path, setups=("rfc",)))

    @pytest.mark.parametrize("t", [0, 1, 5, 8])
    def test_a_build_reads_the_newest_references_newest_first(
            self, monkeypatch, t):
        # ref_window is 5, and recon holds more planes than frame t may read:
        # [t - 1::-1] would hand over the whole history at t = 0
        cfg, key = ExperimentConfig(ref_window=5), (1, Component.DEPTH)
        recon = {key: [np.full((16, 16), k, np.uint8) for k in range(12)]}
        seen = []
        monkeypatch.setattr(pipeline, "build_inter_candidates",
                            lambda cur, refs, codec, record: seen.append(refs))
        pipeline._builds_here(cfg, {key: [None] * 12}, recon)(t, [key])
        want = [recon[key][t - d] for d in range(1, min(5, t) + 1)]
        assert len(seen) == 1 and len(seen[0]) == len(want)
        assert all(got is plane for got, plane in zip(seen[0], want))

    def _break_build(self, monkeypatch, in_helper, in_encoder=None):
        """Run in_helper() (in_encoder()) before building a frame-2 candidate
        set in the helper (in this process)."""
        parent, build = os.getpid(), pipeline.build_inter_candidates

        def broken(cur, refs, codec, record):
            action = in_encoder if os.getpid() == parent else in_helper
            if len(refs) == 2 and action is not None:
                action()
            return build(cur, refs, codec, record)
        monkeypatch.setattr(pipeline, "build_inter_candidates", broken)
        _cpus(monkeypatch, 2)

    def test_helper_error_is_raised_here_with_its_type_and_message(
            self, micro_scene, tmp_path, monkeypatch, capsys):
        self._break_build(monkeypatch, _raise("helper broke at 2"))
        cfg, orig, trace = self._inputs(micro_scene)
        with pytest.raises(CodecError) as caught:
            encode_stream(cfg, orig, "cross", trace)
        assert type(caught.value) is CodecError
        assert str(caught.value) == "helper broke at 2"
        assert multiprocessing.active_children() == []
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scene": MICRO_SCENE_DICT, "setups": ["rfc"], "loss_rates": [0.05],
            "seeds": [7], "rtt": 2, "output_root": str(tmp_path / "cli")}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "error: helper broke at 2\n"
        assert multiprocessing.active_children() == []

    def test_receiver_error_in_the_helper_is_raised_here(
            self, micro_scene, tmp_path, monkeypatch, capsys):
        # the helper's receiver fails on frame 2 between two builds, or
        # after the last one
        parent, decode = os.getpid(), pipeline.decode_plane

        def broken(enc, refs, conceal_source, received):
            if os.getpid() != parent and len(refs) == 2:
                raise CodecError("receiver broke at 2")
            return decode(enc, refs, conceal_source, received)
        monkeypatch.setattr(pipeline, "decode_plane", broken)
        _cpus(monkeypatch, 2)
        cfg, orig, trace = self._inputs(micro_scene)
        receiver = partial(pipeline.Receiver, cfg, trace, ["standard"],
                           micro_scene.truth)
        with pytest.raises(CodecError) as caught:
            encode_stream(cfg, orig, "reactive", trace, receiver=receiver)
        assert type(caught.value) is CodecError
        assert str(caught.value) == "receiver broke at 2"
        assert multiprocessing.active_children() == []
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scene": MICRO_SCENE_DICT, "setups": ["rfc"], "loss_rates": [0.05],
            "seeds": [7], "rtt": 2, "output_root": str(tmp_path / "cli")}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "error: receiver broke at 2\n"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("end, error, message", [
        (_raise("ended"), CodecError, "ended"),
        (lambda: os._exit(3), HarnessError, "probe exited with code 3")])
    def test_send_to_an_ended_process_raises_why_it_ended(self, end, error,
                                                          message):
        with pytest.raises(error, match=message) as caught:
            with pipeline._forked("probe", lambda conn: end()) as (send, _, _):
                while multiprocessing.active_children():
                    time.sleep(0.01)
                send("after the end")
        # no context: the failed send's would hold its pickle buffer
        assert caught.value.__context__ is None
        assert multiprocessing.active_children() == []

    def test_helper_that_dies_is_reported_with_its_exit_code(
            self, micro_scene, monkeypatch):
        self._break_build(monkeypatch, lambda: os._exit(3))
        cfg, orig, trace = self._inputs(micro_scene)
        with pytest.raises(HarnessError,
                           match="candidate helper exited with code 3"):
            encode_stream(cfg, orig, "reactive", trace)
        assert multiprocessing.active_children() == []

    def test_error_here_terminates_the_running_helper(self, micro_scene,
                                                      monkeypatch):
        self._break_build(monkeypatch, lambda: time.sleep(60),
                          _raise("encoder broke at 2"))
        cfg, orig, trace = self._inputs(micro_scene)
        start = time.monotonic()
        with pytest.raises(CodecError, match="encoder broke at 2"):
            encode_stream(cfg, orig, "independent", trace)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("method", ["push_frame", "set_frame_outcome"])
    def test_error_with_a_request_out_terminates_the_helper(
            self, scene64, monkeypatch, method):
        # commit(2) sends frame 3's requests before it pushes frame 2, and
        # learn(4) applies frame 2's outcome after commit(3) sent frame 4's
        original = getattr(ExpectedErrorTracker, method)

        def broken(self, *args):
            frame = self.frame_count if method == "push_frame" else args[0]
            if frame == 2:
                # time for the helper to build: a 64x64 answer outgrows the
                # pipe, so the helper blocks in send
                time.sleep(0.5)
                raise TrackingError(f"{method} broke at 2")
            return original(self, *args)
        monkeypatch.setattr(ExpectedErrorTracker, method, broken)
        _cpus(monkeypatch, 2)
        cfg, orig, trace = self._inputs(scene64)
        start = time.monotonic()
        with pytest.raises(TrackingError) as caught:
            encode_stream(cfg, orig, "cross", trace)
        assert type(caught.value) is TrackingError
        assert str(caught.value) == f"{method} broke at 2"
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []


class TestLateHelper:
    """A helper that starts after frame 0, once a CPU frees up, takes over
    the encode's view-1 trial records and receives the frames committed
    before it started."""

    @pytest.mark.parametrize("mode", ["independent", "cross"])
    def test_stream_is_the_same_whenever_the_helper_starts(
            self, scene64, monkeypatch, mode):
        _cpus(monkeypatch, 2)
        cfg, orig, trace = TestPlaneHelper._inputs(scene64)
        frames = len(orig[(0, Component.TEXTURE)])
        targets = encode_stream(cfg, orig, "reactive", trace).bits_per_frame
        receiver = partial(pipeline.Receiver, cfg, trace,
                           ["standard", "adaptive"], scene64.truth)
        forks = _count_forks(monkeypatch)
        streams = []
        for start in (1, frames // 2, frames - 1, None):
            encodes = _ends_at(start)
            streams.append(encode_stream(cfg, orig, mode, trace, targets,
                                         encodes=encodes, receiver=receiver))
            # read once per frame until the helper starts
            assert encodes.calls == (frames if start is None else start + 1)
            assert len(forks) == (start is not None)
            forks.clear()
        assert streams[0].reception is not None
        assert all(_same(streams[0], stream) for stream in streams[1:])

    @pytest.mark.parametrize("setups", [("rfc", "rps1"), ("rfc", "arps")])
    def test_tree_is_the_same_whenever_the_helper_starts(
            self, tmp_path, monkeypatch, setups):
        _cpus(monkeypatch, 2)
        frames = micro_config(tmp_path).scene.frame_count
        forks = _count_forks(monkeypatch)
        trees = []
        for start in (1, frames // 2, frames - 1, None):
            _worker_ends_at(monkeypatch, start)
            root = tmp_path / f"start{start}"
            run_experiment(micro_config(tmp_path, setups=setups,
                                        output_root=str(root)))
            # the rfc worker, then the tuned encode's helper
            assert len(forks) == 1 + (start is not None)
            forks.clear()
            trees.append(_tree(root))
        assert trees[0] and all(tree == trees[0] for tree in trees)

    @pytest.mark.parametrize("start", [0, 4])
    def test_each_reconstruction_crosses_to_the_helper_once(
            self, scene64, monkeypatch, start):
        # the fork hands the helper the reconstructions committed before it,
        # and each commit after it sends view 1's two new ones, and no other
        # plane: what this process sends holds each of those planes once
        _cpus(monkeypatch, 2)
        cfg, orig, trace = TestPlaneHelper._inputs(scene64)
        parent, sent, send = os.getpid(), [], Connection.send

        def recorded(conn, obj):
            if os.getpid() == parent:
                sent.extend(a for a in _arrays(obj)
                            if a.ndim == 2 and a.dtype == np.uint8)
            return send(conn, obj)
        monkeypatch.setattr(Connection, "send", recorded)
        receiver = partial(pipeline.Receiver, cfg, trace, ["adaptive"],
                           scene64.truth)
        stream = encode_stream(cfg, orig, "cross", trace,
                               encodes=_ends_at(start), receiver=receiver)
        view1 = [(1, Component.TEXTURE), (1, Component.DEPTH)]
        want = [stream.recon[key][t] for t in range(start, len(stream.frames))
                for key in view1]
        assert len({id(plane) for plane in sent}) == len(sent) == len(want)
        assert all(got is plane for got, plane in zip(sent, want))

    @pytest.mark.parametrize("where", ["build", "receiver"])
    def test_late_helper_error_is_raised_here(self, micro_scene, monkeypatch,
                                              where):
        # the helper starts at frame 4: its first build fails, or its
        # receiver fails on frame 2 while it catches up
        parent = os.getpid()
        name = ("build_inter_candidates" if where == "build"
                else "decode_plane")
        original = getattr(pipeline, name)

        def broken(*args):
            if os.getpid() != parent and (where == "build"
                                          or len(args[1]) == 2):
                raise CodecError(f"{where} broke in the helper")
            return original(*args)
        monkeypatch.setattr(pipeline, name, broken)
        _cpus(monkeypatch, 2)
        cfg, orig, trace = TestPlaneHelper._inputs(micro_scene)
        receiver = partial(pipeline.Receiver, cfg, trace, ["adaptive"],
                           micro_scene.truth)
        with pytest.raises(CodecError) as caught:
            encode_stream(cfg, orig, "cross", trace, encodes=_ends_at(4),
                          receiver=receiver)
        assert type(caught.value) is CodecError
        assert str(caught.value) == f"{where} broke in the helper"
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("setups", [("rfc",), ("rps2", "arps"),
                                    ("rfc", "arps")])
@pytest.mark.parametrize("scene", ["micro_scene", "scene64"])
def test_public_receiver_gives_the_cells_run_experiment_wrote(
        request, tmp_path, monkeypatch, scene, setups):
    # run_experiment receives in the encode's helper (2 CPUs, one mode, or
    # once the rfc worker has ended) or after the encode (1 CPU, or no
    # helper started); decode_stream and synthesize_sequence are the
    # public route to the same planes and PSNRs
    scene = request.getfixturevalue(scene)
    cfg = micro_config(tmp_path, scene=scene.spec, setups=setups)
    orig = pipeline._plane_lists(scene.left, scene.right)
    trace = cfg.loss_trace(7, 0.05)
    streams = {}
    for setup in setups:
        mode, blend = pipeline.SETUP_MODES[setup]
        if mode not in streams:
            targets = (streams["reactive"].bits_per_frame
                       if "reactive" in streams else None)
            streams[mode] = encode_stream(cfg, orig, mode, trace, targets)
    want = {}
    for setup in setups:
        mode, blend = pipeline.SETUP_MODES[setup]
        dec = decode_stream(cfg, streams[mode], trace)
        planes, scores = synthesize_sequence(cfg, dec, blend, scene.truth)
        cell_dir = tmp_path / "want" / setup
        pipeline._write_cell(cell_dir, streams[mode], CellResult(
            setup=setup, loss_rate=0.05, seed=7,
            frame_psnr=[float(pipeline._fmt(s)) for s in scores],
            frame_bits=streams[mode].bits_per_frame,
            frame_lost_packets=dec.lost_packets,
            in_band=None, infeasible=None), planes)
        want[setup] = _tree(cell_dir)
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        root = tmp_path / f"cpus{cpus}"
        run_experiment(dataclasses.replace(cfg, output_root=str(root)))
        for setup in setups:
            got = _tree(root / "rate_0.050000" / "seed_7" / setup)
            assert len(got) == 2 + len(planes) and got == want[setup]


def test_one_frame_pair_is_the_same_at_any_cpu_count(tmp_path, monkeypatch):
    # no tuned encode reads frame 0's target, so rfc's frame-0 bits are still
    # in the pipe, ahead of its cells, when the pair asks the worker for them
    doc = dict(MICRO_SCENE_DICT, frame_count=1, objects=[dict(
        MICRO_SCENE_DICT["objects"][0],
        trajectory={"kind": "offsets", "offsets": [[0, 0]]})])
    scene = config_from_dict({"scene": doc}).scene
    forks = _count_forks(monkeypatch)
    trees = []
    # the rfc worker, then the arps encode's helper: beside the live worker
    # from 4 CPUs, after its cells at 2 (pinned to frame 0)
    for cpus, want in {1: 1, 2: 2, 4: 2}.items():
        _cpus(monkeypatch, cpus)
        root = tmp_path / f"cpus{cpus}"
        with pytest.MonkeyPatch.context() as pinned:
            if cpus == 2:
                _worker_ends_at(pinned, 0)
            report = run_experiment(micro_config(tmp_path, scene=scene,
                                                 output_root=str(root)))
        assert len(forks) == want
        assert multiprocessing.active_children() == []
        forks.clear()
        assert [(c.setup, len(c.frame_bits)) for c in report.cells] == [
            ("rfc", 1), ("arps", 1)]
        trees.append(_tree(root))
    assert trees[0] and all(tree == trees[0] for tree in trees)


class TestCli:
    def test_generate_writes_all_planes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scene": MICRO_SCENE_DICT}))
        rc = main(["generate", "--config", str(cfg_path),
                   "--out", str(tmp_path / "planes")])
        assert rc == 0
        assert len(list((tmp_path / "planes").glob("*.pgm"))) == 5 * 8
        assert "40 planes" in capsys.readouterr().out

    def test_trace_command_round_trips(self, tmp_path, capsys):
        # `trace` draws the very trace `run` draws for the same seed and rate
        for protect in (True, False):
            tree = tmp_path / f"tree_{protect}"
            cfg_path = tmp_path / f"cfg_{protect}.json"
            cfg_path.write_text(json.dumps({
                "scene": MICRO_SCENE_DICT, "setups": ["rfc"],
                "protect_first_frame": protect, "output_root": str(tree)}))
            out = tmp_path / f"trace_{protect}.txt"
            rc = main(["trace", "--config", str(cfg_path), "--seed", "3",
                       "--rate", "0.5", "--out", str(out)])
            assert rc == 0
            assert "packet outcomes" in capsys.readouterr().out
            assert main(["run", "--config", str(cfg_path), "--rates", "0.5",
                         "--seeds", "3"]) == 0
            ran = tree / "rate_0.500000" / "seed_3" / "trace.txt"
            assert out.read_bytes() == ran.read_bytes()
            assert ("protected=0" in out.read_text()) == protect

    def test_run_compare_plotdata_chain(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scene": MICRO_SCENE_DICT, "rtt": 2,
            "output_root": str(tmp_path / "tree")}))
        rc = main(["run", "--config", str(cfg_path), "--setups", "rfc,arps",
                   "--rates", "0.05", "--seeds", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 cells" in out
        root = tmp_path / "tree"
        rc = main(["compare", "--root", str(root)])
        assert rc == 0
        assert "arps" in capsys.readouterr().out
        rc = main(["plotdata", "--root", str(root),
                   "--out", str(tmp_path / "series")])
        assert rc == 0
        assert len(list((tmp_path / "series").glob("*.dat"))) == 2

    def test_errors_exit_nonzero_with_a_message(self, tmp_path, capsys):
        rc = main(["compare", "--root", str(tmp_path / "missing")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps({"bogus_knob": 1}))
        rc = main(["run", "--config", str(bad_cfg)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"rtt": "x"}, {"scene": 5}, {"seeds": 3}, {"loss_rates": ["a"]},
        {"rtt": 2.5}, {"rtt": True, "seeds": [1.5]}])
    def test_mistyped_config_exits_1_with_one_line(self, tmp_path, capsys,
                                                   doc):
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(doc))
        rc = main(["trace", "--config", str(bad), "--seed", "1",
                   "--rate", "0.1", "--out", str(tmp_path / "t.txt")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "t.txt").exists()

    @pytest.mark.parametrize("command", [
        ["run"], ["trace", "--seed", "1", "--rate", "0.1"], ["generate"]])
    def test_deeply_nested_config_exits_1_with_one_line(self, tmp_path,
                                                        capsys, command):
        # the JSON decoder gives up on deep nesting with RecursionError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        out = tmp_path / "out"
        rc = main(command + ["--config", str(deep)]
                  + (["--out", str(out)] if command[0] != "run" else []))
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: config {deep}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"max_lambda_trials": 0}, {"gamma": 5.0, "setups": ["rfc"]},
        {"position": 2.0}, {"eta": 0.0}, {"threshold": 0.0},
        {"search_range": 100}, {"ref_window": 17}, {"seeds": [-1]},
        {"packets_texture": 0}, {"packets_depth": 0}, {"output_root": ""},
        pytest.param(({}, ("run", "--seeds=-1")), id="run-seeds=-1"),
        pytest.param(({}, ("trace", "--seed", "-1", "--rate", "0.05",
                           "--out", "trace.txt")), id="trace-seed=-1"),
        pytest.param(({}, ("run", "--rates=abc"),
                      "error: --rates: cannot read 'abc' as float\n"),
                     id="run-rates=abc"),
        pytest.param(({}, ("run", "--seeds=7,1.5"),
                      "error: --seeds: cannot read '1.5' as int\n"),
                     id="run-seeds=1.5"),
        pytest.param(({}, ("run", "--base-lambda", "nan"),
                      "error: rate_band and base_lambda must be positive "
                      "and finite\n"), id="run-base-lambda=nan"),
        pytest.param(({}, ("run", "--base-lambda=inf")),
                     id="run-base-lambda=inf"),
        pytest.param(({}, ("run", "--rates="), "error: --rates: empty list\n"),
                     id="run-rates=empty"),
        pytest.param(({}, ("run", "--seeds="), "error: --seeds: empty list\n"),
                     id="run-seeds=empty"),
        pytest.param(({}, ("run", "--setups="),
                      "error: --setups: empty list\n"), id="run-setups=empty"),
        pytest.param(({}, ("run", "--output-root="),
                      "error: output_root must not be empty\n"),
                     id="run-output-root=empty"),
        pytest.param(({"base_lambda": float("nan")}, ("run",),
                      "error: config field 'base_lambda' must be float, "
                      "got NaN\n"), id="base_lambda=NaN"),
        pytest.param(({"scene": dict(MICRO_SCENE_DICT, background={
                          "texture": {"kind": "gradient",
                                      "base": float("-inf")}})}, ("run",),
                      "error: texture field 'base' must be float, "
                      "got -Infinity\n"), id="texture-base=-Infinity")])
    def test_bad_parameter_exits_1_before_any_work(self, tmp_path, capsys,
                                                   monkeypatch, doc):
        # a case is a config document for `run`, or (document, command line)
        # or (document, command line, the exact error output)
        doc, command, *message = (doc if isinstance(doc, tuple)
                                  else (doc, ("run",)))
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "tree"
        cfg_path.write_text(json.dumps(dict(
            {"scene": MICRO_SCENE_DICT, "loss_rates": [0.05], "seeds": [7],
             "output_root": str(out)}, **doc)))
        rc = main([command[0], "--config", str(cfg_path), *command[1:]])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        if message:
            assert err == message[0]
        assert not out.exists() and not (tmp_path / "trace.txt").exists()

    def test_short_report_row_exits_1_naming_the_file(self, tmp_path,
                                                        capsys):
        (tmp_path / "report.csv").write_text(
            ",".join(pipeline.REPORT_FIELDS) + "\nrfc\n")
        rc = main(["compare", "--root", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "report.csv" in err

    def test_mistyped_scene_exits_1_with_one_line(self, tmp_path, capsys):
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps({"scene": dict(
            MICRO_SCENE_DICT,
            background={"texture": {"kind": "gradient", "base": "x"}})}))
        rc = main(["generate", "--config", str(bad),
                   "--out", str(tmp_path / "planes")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "planes").exists()

    def test_rejects_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        rc = main(["generate", "--config", str(bad),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [b"\xff\xfe{", b'{"rtt": ' + b"1" * 5000 + b"}"],
                             ids=["not-utf8", "oversized-int"])
    def test_unreadable_config_exits_1_with_one_line(self, tmp_path, capsys,
                                                     raw):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        rc = main(["generate", "--config", str(bad),
                   "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: config {bad}: ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @staticmethod
    def _tree(root, frames):
        """A report tree of one (rate, seed) pair whose cells hold the given
        frame counts."""
        rows = [",".join(pipeline.REPORT_FIELDS)]
        for setup, n in frames.items():
            cell = root / "rate_0.050000" / "seed_7" / setup
            cell.mkdir(parents=True)
            (cell / "perframe.csv").write_text(
                "frame,psnr,bits,packets_lost\n"
                + "".join(f"{t},30.0,100,0\n" for t in range(n)))
            rows.append(f"{setup},0.050000,7,30.0,{100 * n},{n},{n},0")
        (root / "report.csv").write_text("\n".join(rows) + "\n")

    @pytest.mark.parametrize("frames, message", [
        ({"rfc": 8, "arps": 7}, "error: cell (arps, 0.05, 7) holds 7 frames, "
                                "rfc 8\n"),
        ({"rfc": 0, "arps": 0}, "error: cell (rfc, 0.05, 7) holds 0 frames, "
                                "rfc 0\n")])
    def test_compare_rejects_cells_of_unequal_length(self, tmp_path, capsys,
                                                     frames, message):
        self._tree(tmp_path, frames)
        assert main(["compare", "--root", str(tmp_path)]) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "summary.csv").exists()

    def test_non_ascii_report_exits_1(self, tmp_path, capsys):
        self._tree(tmp_path, {"rfc": 2, "arps": 2})
        with open(tmp_path / "report.csv", "ab") as fh:
            fh.write(b"\xff\n")
        for command in ("compare", "plotdata"):
            assert main([command, "--root", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: cannot read report.csv under ")
            assert err.count("\n") == 1
