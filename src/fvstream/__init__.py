"""Desk-scale simulator for loss-resilient streaming of stereo texture+depth
video with free-viewpoint synthesis at the receiver.

The encoder picks a reference picture per macroblock against the expected
synthesized-view distortion, the channel drops packets with delayed
feedback, the decoder conceals and tracks errors, and the renderer blends
the two decoded views into a virtual middle view, optionally weighting by
tracked reliability.
"""

from .frames import (PlaneError, FramePlane, ViewFrame, mse, psnr, load_pgm,
                     save_pgm)
from .scenegen import (SceneSpecError, SyntheticSceneSpec, TextureSpec,
                       ObjectSpec, default_scene_spec, generate_synthetic_stereo,
                       scene_from_dict)
from .channel import (ChannelError, Component, PacketId, LossTrace,
                      build_schedule, packetize, make_iid_trace, lost_mb_mask,
                      save_trace, load_trace)
from .codec import (CodecError, CodecConfig, EncodedPlane,
                    CandidateSet, TrialRecord, build_inter_candidates,
                    decode_plane, serialize_stream, parse_stream)
from .errortrack import (TrackingError, ExpectedErrorTracker, DecoderTracker,
                         innovation_term)
from .synthesis import (SynthesisError, SynthesisParams, WarpedView,
                        warp_view, blend, reliability_weights,
                        synthesize_view, correspondence_sets)
from .sensitivity import (SensitivityError, SensitivityParams, curvature_map,
                          g_eval)
from .optimizer import (OPTIMIZER_MODES, PlaneCandidates, PlaneSelection,
                        ReactiveTaint, build_plane_candidates, select_plane,
                        tune_to_band)
from .pipeline import (HarnessError, ExperimentConfig, ExperimentReport,
                       CellResult, config_from_dict, run_experiment,
                       compare_setups, emit_plot_data, encode_stream,
                       decode_stream, synthesize_sequence, SETUPS)

__version__ = "0.1.0"

__all__ = [
    "PlaneError", "FramePlane", "ViewFrame", "mse", "psnr", "load_pgm",
    "save_pgm",
    "SceneSpecError", "SyntheticSceneSpec", "TextureSpec", "ObjectSpec",
    "default_scene_spec", "generate_synthetic_stereo", "scene_from_dict",
    "ChannelError", "Component", "PacketId", "LossTrace",
    "build_schedule", "packetize", "make_iid_trace",
    "lost_mb_mask", "save_trace", "load_trace",
    "CodecError", "CodecConfig", "EncodedPlane",
    "CandidateSet", "TrialRecord", "build_inter_candidates", "decode_plane",
    "serialize_stream", "parse_stream",
    "TrackingError", "ExpectedErrorTracker", "DecoderTracker",
    "innovation_term",
    "SynthesisError", "SynthesisParams", "WarpedView",
    "warp_view", "blend", "reliability_weights",
    "synthesize_view", "correspondence_sets",
    "SensitivityError", "SensitivityParams", "curvature_map", "g_eval",
    "OPTIMIZER_MODES", "PlaneCandidates", "PlaneSelection",
    "ReactiveTaint", "build_plane_candidates", "select_plane", "tune_to_band",
    "HarnessError", "ExperimentConfig", "ExperimentReport", "CellResult",
    "config_from_dict", "run_experiment", "compare_setups", "emit_plot_data",
    "encode_stream", "decode_stream", "synthesize_sequence", "SETUPS",
]
