"""Packetization, the lossy channel and delayed feedback."""
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvstream import (ChannelError, Component, LossTrace, PacketId,
                      build_schedule, generate_synthetic_stereo, load_trace,
                      lost_mb_mask, make_iid_trace, packetize, save_trace)
from fvstream.codec import PLANE_ORDER
from fvstream.errortrack import ExpectedErrorTracker
from fvstream.pipeline import ExperimentConfig, HarnessError, encode_stream

from conftest import micro_scene_spec


class TestPacketize:
    @pytest.mark.example
    def test_even_split_16_into_4(self):
        assert packetize(16, 4) == [range(0, 4), range(4, 8),
                                    range(8, 12), range(12, 16)]

    @pytest.mark.example
    def test_uneven_split_puts_larger_packets_first(self):
        assert [len(r) for r in packetize(10, 4)] == [3, 3, 2, 2]

    def test_rejects_more_packets_than_blocks(self):
        with pytest.raises(ChannelError):
            packetize(16, 20)
        with pytest.raises(ChannelError):
            packetize(4, 12)

    def test_rejects_nonpositive_packet_count(self):
        with pytest.raises(ChannelError):
            packetize(16, 0)

    @given(st.integers(1, 400), st.integers(1, 60))
    def test_partition_covers_every_block_once(self, mb_count, packets):
        if packets > mb_count:
            with pytest.raises(ChannelError):
                packetize(mb_count, packets)
            return
        ranges = packetize(mb_count, packets)
        seen = [i for r in ranges for i in r]
        assert seen == list(range(mb_count))
        sizes = [len(r) for r in ranges]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)


class TestSchedule:
    def test_raster_order_and_counts(self):
        sched = build_schedule(2, 3, 1)
        assert len(sched) == 2 * 2 * (3 + 1)
        assert sched[0] == PacketId(0, 0, Component.TEXTURE, 0)
        assert sched[3] == PacketId(0, 0, Component.DEPTH, 0)
        assert sched[4] == PacketId(0, 1, Component.TEXTURE, 0)
        assert sched[8] == PacketId(1, 0, Component.TEXTURE, 0)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ChannelError):
            build_schedule(0, 1, 1)
        with pytest.raises(ChannelError):
            build_schedule(1, 0, 1)

    def test_component_labels(self):
        assert Component.TEXTURE.label == "texture"
        assert Component.from_label("depth") is Component.DEPTH
        with pytest.raises(ChannelError):
            Component.from_label("audio")


class TestTrace:
    def test_rate_zero_loses_nothing(self):
        sched = build_schedule(4, 4, 2)
        trace = make_iid_trace(1, 0.0, sched)
        assert not any(lost for _, lost in trace.entries)

    def test_rate_one_loses_everything_unprotected(self):
        sched = build_schedule(4, 4, 2)
        trace = make_iid_trace(1, 1.0, sched, protected_frames=(0,))
        for pid, lost in trace.entries:
            assert lost == (pid.frame_index != 0)

    def test_seed_determinism(self):
        sched = build_schedule(6, 4, 2)
        a = make_iid_trace(42, 0.3, sched)
        b = make_iid_trace(42, 0.3, sched)
        c = make_iid_trace(43, 0.3, sched)
        assert a.entries == b.entries
        assert a.entries != c.entries

    def test_empirical_rate_close_to_nominal(self):
        # 10000 packets at 10 percent: the seeded stream should land near it
        sched = build_schedule(250, 16, 4)
        assert len(sched) == 10000
        trace = make_iid_trace(7, 0.1, sched)
        rate = sum(lost for _, lost in trace.entries) / len(sched)
        assert abs(rate - 0.1) < 0.01

    def test_rejects_rate_outside_unit_interval(self):
        sched = build_schedule(1, 1, 1)
        with pytest.raises(ChannelError):
            make_iid_trace(1, 1.5, sched)

    def test_rejects_a_negative_seed(self):
        # numpy's own message for it was the CLI's only diagnosis
        with pytest.raises(ChannelError, match="seed -1"):
            make_iid_trace(-1, 0.1, build_schedule(1, 1, 1))

    def test_unknown_packet_raises(self):
        trace = make_iid_trace(1, 0.5, build_schedule(2, 2, 1))
        with pytest.raises(ChannelError):
            trace.lost(PacketId(9, 0, Component.TEXTURE, 0))


@functools.lru_cache(maxsize=None)
def feedback_log(rtt: int, frame_count: int = 8):
    """Every outcome the encoder learns while coding the micro scene, in
    order: (coding frame, revealed frame, received mask).  The first frame
    is left unprotected, so each outcome arrives through feedback.  Returns
    (log, trace)."""
    spec = micro_scene_spec(frame_count)
    cfg = ExperimentConfig(scene=spec, setups=("rfc",), rtt=rtt,
                           protect_first_frame=False)
    left, right, _ = generate_synthetic_stereo(spec)
    orig = {}
    for view, frames in ((0, left), (1, right)):
        orig[(view, Component.TEXTURE)] = [f.texture.samples for f in frames]
        orig[(view, Component.DEPTH)] = [f.disparity.samples for f in frames]
    trace = make_iid_trace(3, 0.2, build_schedule(frame_count, 4, 4))
    log = []
    learn = ExpectedErrorTracker.set_frame_outcome

    def spy(tracker, t, received):
        # a tracker holds one pushed frame per frame already coded
        log.append((tracker.frame_count, t, np.array(received)))
        return learn(tracker, t, received)

    with mock.patch.object(ExpectedErrorTracker, "set_frame_outcome", spy):
        encode_stream(cfg, orig, "reactive", trace)
    return log, trace


def known_by(rtt: int, t: int, frame_count: int = 8) -> set:
    """Frames whose outcome the encoder knows when it codes frame t."""
    log, _ = feedback_log(rtt, frame_count)
    return {f for coding, f, _ in log if coding <= t}


class TestFeedback:
    @pytest.mark.example
    def test_nothing_known_before_one_round_trip(self):
        assert known_by(4, 3) == set()
        assert known_by(4, 4) == {0}

    @pytest.mark.example
    def test_zero_rtt_knows_everything_sent(self):
        # at rtt 0 every earlier frame is known, the one being coded is not
        for t in range(8):
            assert known_by(0, t) == set(range(t))

    @pytest.mark.example
    def test_rtt_4_at_frame_10_covers_frames_0_to_6(self):
        assert known_by(4, 10, frame_count=12) == set(range(7))

    def test_knowledge_grows_monotonically(self):
        # one outcome per frame, in order, each exactly one horizon late
        for rtt in (0, 1, 3):
            log, _ = feedback_log(rtt)
            learned = [(coding, f) for coding, f, _ in log[::4]]
            assert learned == [(f + max(rtt, 1), f)
                               for f in range(8 - max(rtt, 1))]

    def test_negative_rtt_rejected(self):
        with pytest.raises(HarnessError):
            ExperimentConfig(rtt=-1)

    def test_feedback_matches_trace_outcomes(self):
        log, trace = feedback_log(2)
        assert len(log) == 4 * 6
        for i, (_, f, received) in enumerate(log):
            view, comp = PLANE_ORDER[i % 4]
            assert np.array_equal(
                received, ~lost_mb_mask(trace, f, view, comp, 4, 4))


class TestLostBlockMask:
    def test_mask_covers_exactly_the_lost_packets(self):
        sched = build_schedule(3, 4, 2)
        trace = make_iid_trace(21, 0.5, sched)
        mb_count = 10
        for t in range(3):
            for view in (0, 1):
                mask = lost_mb_mask(trace, t, view, Component.TEXTURE,
                                    mb_count, 4)
                want = np.zeros(mb_count, dtype=bool)
                for p, rng in enumerate(packetize(mb_count, 4)):
                    if trace.lost(PacketId(t, view, Component.TEXTURE, p)):
                        want[list(rng)] = True
                assert np.array_equal(mask, want)

    def test_clean_frame_has_empty_mask(self):
        trace = make_iid_trace(2, 0.0, build_schedule(2, 4, 2))
        assert not lost_mb_mask(trace, 1, 0, Component.DEPTH, 16, 2).any()

    @pytest.mark.parametrize("packets", [1, 3])
    def test_packet_count_must_match_trace(self, packets):
        trace = make_iid_trace(2, 0.0, build_schedule(2, 4, 2))
        with pytest.raises(ChannelError):
            lost_mb_mask(trace, 1, 0, Component.DEPTH, 16, packets)

    def test_one_extra_packet_in_the_trace_raises(self):
        sched = build_schedule(2, 4, 2)
        extra = PacketId(1, 0, Component.DEPTH, 2)
        trace = LossTrace(seed=2, loss_rate=0.0,
                          entries=[(pid, False) for pid in sched]
                          + [(extra, False)])
        assert extra in trace and PacketId(1, 1, Component.DEPTH, 2) not in trace
        with pytest.raises(ChannelError, match="more than 2 packets"):
            lost_mb_mask(trace, 1, 0, Component.DEPTH, 16, 2)
        # the other planes of the frame hold their packets exactly
        assert not lost_mb_mask(trace, 1, 1, Component.DEPTH, 16, 2).any()
        assert not lost_mb_mask(trace, 1, 0, Component.TEXTURE, 16, 4).any()


class TestTraceFiles:
    def test_round_trip_preserves_everything(self, tmp_path):
        sched = build_schedule(7, 5, 2)
        trace = make_iid_trace(99, 0.25, sched, protected_frames=(0,))
        path = tmp_path / "trace.txt"
        save_trace(path, trace)
        back = load_trace(path)
        assert back.seed == trace.seed
        assert back.loss_rate == trace.loss_rate
        assert back.generator == trace.generator
        assert back.protected_frames == trace.protected_frames
        assert back.entries == trace.entries

    def test_save_is_deterministic(self, tmp_path):
        trace = make_iid_trace(5, 0.1, build_schedule(3, 2, 1))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_trace(a, trace)
        save_trace(b, trace)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("text", [
        "0 0 texture x 0\n",                        # non-integer field
        "0 0 texture 0 0\n0 0 texture 0 1\n",     # duplicate packet
        "0 0 texture 0 7\n",                        # lost flag not 0/1
        "0 0 texture 0 0\n0 0 texture 2 0\n",     # gap in packet indices
        "-1 0 texture 0 0\n", "0 +1 texture 0 0\n", "0 0 texture 1_0 0\n",
        "0 0 colour 0 0\n", "0 0 texture 0\n", "",
        "# seed=x\n0 0 texture 0 0\n",
        "# loss_rate=abc\n0 0 texture 0 0\n",
        "# loss_rate=1.5\n0 0 texture 0 0\n",
        "# loss_rate=nan\n0 0 texture 0 0\n",
        "# protected=0,a\n0 0 texture 0 0\n",
        "0 0 texture \u0661 0\n",                 # not ASCII
    ])
    def test_malformed_trace_raises_channel_error(self, tmp_path, text):
        path = tmp_path / "trace.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ChannelError):
            load_trace(path)

    @given(st.lists(st.one_of(
        # one plane's packets 0..n-1, each line lost or not
        st.tuples(st.integers(0, 2), st.integers(0, 1),
                  st.sampled_from(["texture", "depth"]),
                  st.lists(st.integers(0, 1), min_size=1, max_size=3)).map(
            lambda f: "\n".join(f"{f[0]} {f[1]} {f[2]} {p} {lost}"
                                for p, lost in enumerate(f[3]))),
        st.tuples(st.integers(0, 2), st.integers(0, 1),
                  st.sampled_from(["texture", "depth"]), st.integers(0, 3),
                  st.integers(0, 1)).map(
            lambda f: " ".join(str(x) for x in f)),
        st.lists(st.sampled_from(["0", "1", "7", "-1", "x", "texture",
                                  "depth", "#", "seed=3", "loss_rate=0.5",
                                  "protected=0", "protected=,", "1.5"]),
                 max_size=6).map(" ".join),
        st.text(st.characters(max_codepoint=127), max_size=12)),
        max_size=8))
    @settings(max_examples=200)
    def test_any_trace_file_loads_or_raises_channel_error(self,
                                                          tmp_path_factory,
                                                          lines):
        path = tmp_path_factory.getbasetemp() / "fuzz_trace.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            trace = load_trace(path)
        except ChannelError:
            return
        planes = {}
        for pid, _ in trace.entries:
            key = (pid.frame_index, pid.view_id, pid.component)
            planes[key] = planes.get(key, 0) + 1
        for (frame, view, comp), n in planes.items():
            lost = lost_mb_mask(trace, frame, view, comp, n, n)
            assert lost.tolist() == [trace.lost(PacketId(frame, view, comp, p))
                                     for p in range(n)]
