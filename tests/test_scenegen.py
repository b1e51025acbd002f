"""Synthetic scene construction and the Lambertian geometry it guarantees."""
import numpy as np
import pytest

from fvstream import (ObjectSpec, SceneSpecError, SyntheticSceneSpec,
                      TextureSpec, default_scene_spec, generate_synthetic_stereo,
                      scene_from_dict, warp_view)

from conftest import bounce


def flat_spec(frames=3, bg=50, obj=None, bg_disp=1):
    objects = (obj,) if obj is not None else ()
    return SyntheticSceneSpec(
        width=64, height=64, frame_count=frames,
        background_disparity=bg_disp,
        background_texture=TextureSpec(kind="flat", value=bg),
        objects=objects)


class TestValidation:
    def test_dimensions_must_align_to_macroblocks(self):
        with pytest.raises(SceneSpecError):
            SyntheticSceneSpec(width=60, height=64, frame_count=1,
                               background_disparity=0,
                               background_texture=TextureSpec())

    def test_object_disparity_must_exceed_background(self):
        obj = ObjectSpec(height=16, width=16, row=0, col=0, disparity=1,
                         texture=TextureSpec(), offsets=((0, 0),) * 3)
        with pytest.raises(SceneSpecError):
            flat_spec(obj=obj, bg_disp=1)

    def test_object_may_not_leave_the_frame(self):
        obj = ObjectSpec(height=16, width=16, row=0, col=56, disparity=4,
                         texture=TextureSpec(),
                         offsets=((0, 0), (0, 4), (0, 8)))
        with pytest.raises(SceneSpecError):
            flat_spec(obj=obj)

    def test_offsets_length_must_match_frame_count(self):
        obj = ObjectSpec(height=16, width=16, row=0, col=0, disparity=4,
                         texture=TextureSpec(), offsets=((0, 0),))
        with pytest.raises(SceneSpecError):
            flat_spec(frames=3, obj=obj)

    def test_unknown_texture_kind_rejected(self):
        with pytest.raises(SceneSpecError):
            TextureSpec(kind="plaid")
        with pytest.raises(SceneSpecError):
            TextureSpec(kind="checker", cell=0)


class TestTextures:
    def test_gradient_formula(self):
        t = TextureSpec(kind="gradient", base=10.0, row_slope=2.0, col_slope=0.5)
        rows = np.arange(4)[:, None]
        cols = np.arange(4)[None, :]
        got = t.sample(rows, cols)
        want = np.clip(np.rint(10.0 + 2.0 * rows + 0.5 * cols), 0, 255)
        assert np.array_equal(got, want.astype(np.uint8))

    def test_checker_alternates(self):
        t = TextureSpec(kind="checker", cell=2, low=10, high=240)
        got = t.sample(np.arange(4)[:, None], np.arange(4)[None, :])
        assert got[0, 0] == 10 and got[0, 2] == 240
        assert got[2, 0] == 240 and got[2, 2] == 10

    def test_noise_is_deterministic_and_seeded(self):
        t = TextureSpec(kind="noise", seed=3)
        rows = np.arange(8)[:, None]
        cols = np.arange(8)[None, :]
        assert np.array_equal(t.sample(rows, cols), t.sample(rows, cols))
        other = TextureSpec(kind="noise", seed=4)
        assert not np.array_equal(t.sample(rows, cols), other.sample(rows, cols))


class TestGeometry:
    @pytest.mark.example
    def test_constant_scene_is_constant_everywhere(self):
        left, right, truth = generate_synthetic_stereo(flat_spec(bg=77))
        for t in range(3):
            assert (left[t].texture.samples == 77).all()
            assert (right[t].texture.samples == 77).all()
            assert (truth[t].samples == 77).all()
            assert (left[t].disparity.samples == 1).all()

    @pytest.mark.example
    def test_disparity_8_object_shifts_4_columns_at_midpoint(self):
        obj = ObjectSpec(height=32, width=32, row=16, col=24, disparity=8,
                         texture=TextureSpec(kind="flat", value=200),
                         offsets=((0, 0),))
        left, right, truth = generate_synthetic_stereo(flat_spec(frames=1, obj=obj))
        row = 20
        assert set(np.flatnonzero(left[0].texture.samples[row] == 200)) \
            == set(range(24, 56))
        assert set(np.flatnonzero(truth[0].samples[row] == 200)) \
            == set(range(20, 52))
        assert set(np.flatnonzero(right[0].texture.samples[row] == 200)) \
            == set(range(16, 48))

    def test_nearer_object_occludes_farther_one(self):
        near = ObjectSpec(height=16, width=16, row=16, col=24, disparity=8,
                          texture=TextureSpec(kind="flat", value=240),
                          offsets=((0, 0),))
        far = ObjectSpec(height=32, width=32, row=8, col=16, disparity=4,
                         texture=TextureSpec(kind="flat", value=30),
                         offsets=((0, 0),))
        spec = SyntheticSceneSpec(
            width=64, height=64, frame_count=1, background_disparity=1,
            background_texture=TextureSpec(kind="flat", value=100),
            objects=(near, far))
        left, _, _ = generate_synthetic_stereo(spec)
        assert left[0].texture.samples[20, 30] == 240
        assert left[0].texture.samples[10, 20] == 30

    def test_warped_left_view_matches_middle_truth(self, scene64):
        """Lambertian check: every covered warp target equals the withheld
        middle view exactly."""
        for t in (0, 7, 19):
            lf = scene64.left[t]
            w = warp_view(lf.texture.samples, lf.disparity.samples, 0, 0.5)
            tr = scene64.truth[t].samples
            assert w.covered.any()
            assert np.array_equal(w.value[w.covered], tr[w.covered])

    def test_generation_is_deterministic(self):
        spec = default_scene_spec()
        a = generate_synthetic_stereo(spec)
        b = generate_synthetic_stereo(spec)
        for t in range(spec.frame_count):
            assert np.array_equal(a[0][t].texture.samples,
                                  b[0][t].texture.samples)
            assert np.array_equal(a[1][t].disparity.samples,
                                  b[1][t].disparity.samples)
            assert np.array_equal(a[2][t].samples, b[2][t].samples)

    def test_default_scene_shape(self):
        spec = default_scene_spec()
        assert (spec.width, spec.height, spec.frame_count) == (128, 128, 60)
        left, right, truth = generate_synthetic_stereo(spec)
        assert len(left) == len(right) == len(truth) == 60
        assert left[0].texture.samples.shape == (128, 128)


class TestSceneFromDict:
    def test_round_trip_matches_manual_spec(self):
        d = {
            "width": 64, "height": 64, "frame_count": 4,
            "background": {"disparity": 2,
                           "texture": {"kind": "gradient", "base": 90.0,
                                       "col_slope": 0.5}},
            "objects": [
                {"height": 16, "width": 16, "row": 8, "col": 8, "disparity": 6,
                 "texture": {"kind": "flat", "value": 210},
                 "trajectory": {"kind": "linear", "velocity": [0, 1]}},
                {"height": 16, "width": 16, "row": 40, "col": 40, "disparity": 9,
                 "texture": {"kind": "checker", "cell": 4},
                 "trajectory": {"kind": "offsets",
                                "offsets": [[0, 0], [1, 0], [0, 1], [1, 1]]}},
            ],
        }
        spec = scene_from_dict(d)
        assert spec.background_disparity == 2
        assert spec.objects[0].offsets == ((0, 0), (0, 1), (0, 2), (0, 3))
        assert spec.objects[1].offsets == ((0, 0), (1, 0), (0, 1), (1, 1))
        assert spec.objects[1].texture.cell == 4

    def test_static_trajectory_is_the_default(self):
        d = {"width": 32, "height": 32, "frame_count": 2,
             "background": {"disparity": 1},
             "objects": [{"height": 16, "width": 16, "row": 0, "col": 0,
                          "disparity": 5}]}
        spec = scene_from_dict(d)
        assert spec.objects[0].offsets == ((0, 0), (0, 0))
        assert spec.objects[0].texture.kind == "flat"

    def test_missing_and_unknown_fields_rejected(self):
        with pytest.raises(SceneSpecError):
            scene_from_dict({"width": 32, "height": 32})
        bad = {"width": 32, "height": 32, "frame_count": 1,
               "background": {"texture": {"kind": "flat", "shade": 1}}}
        with pytest.raises(SceneSpecError):
            scene_from_dict(bad)
        with pytest.raises(SceneSpecError):
            scene_from_dict({"width": 32, "height": 32, "frame_count": 1,
                             "objects": [{"height": 16, "width": 16, "row": 0,
                                          "col": 0, "disparity": 5,
                                          "trajectory": {"kind": "orbit"}}]})
        with pytest.raises(SceneSpecError):
            scene_from_dict({"width": 32, "height": 32, "frame_count": 1,
                             "objects": [{"height": 16, "width": 16, "row": 0,
                                          "col": 0, "disparity": 5,
                                          "trajectory": {"kind": "offsets"}}]})

    @pytest.mark.parametrize("patch", [
        {"width": 32.5}, {"frame_count": True}, {"height": "32"},
        {"background": {"disparity": 1.7}},
        {"background": {"texture": {"kind": "gradient", "base": "x"}}},
        {"background": {"texture": {"kind": "gradient",
                                    "base": float("nan")}}},
        {"background": {"texture": {"kind": "flat", "value": 300}}},
        {"background": {"texture": {"kind": "checker", "low": -5}}},
        {"background": {"shade": 1}}, {"background": []},
        {"objects": {"height": 16}}, {"objects": [5]},
        {"objects": [{"height": 16.0, "width": 16, "row": 0, "col": 0,
                      "disparity": 5}]},
        {"objects": [{"height": 16, "width": 16, "row": 0, "col": 0,
                      "disparity": 5, "depth": 1}]},
        {"objects": [{"height": 16, "width": 16, "row": 0, "col": 0,
                      "disparity": 5, "trajectory": []}]},
        {"objects": [{"height": 16, "width": 16, "row": 0, "col": 0,
                      "disparity": 5,
                      "trajectory": {"kind": "linear", "velocity": [0.5, 0]}}]},
        {"objects": [{"height": 16, "width": 16, "row": 0, "col": 0,
                      "disparity": 5,
                      "trajectory": {"kind": "offsets",
                                     "offsets": [[0, 0], [0, True]]}}]},
        {"objects": [{"height": 16, "width": 16, "row": 0, "col": 0,
                      "disparity": 5,
                      "trajectory": {"kind": 1}}]},
    ])
    def test_mistyped_fields_rejected(self, patch):
        d = {"width": 32, "height": 32, "frame_count": 2}
        d.update(patch)
        with pytest.raises(SceneSpecError):
            scene_from_dict(d)

    def test_bounce_helper_respects_swing(self):
        offs = bounce(12, 2, 5, axis=1)
        cols = [c for _, c in offs]
        assert max(map(abs, cols)) <= 5
        assert all(r == 0 for r, _ in offs)
