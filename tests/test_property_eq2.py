"""Property tests pinning the paper's Eq. 2 resolution laws (Obs 6-8).

Two layers are pinned across the whole synthetic catalog:

* the *ground-truth* layer (:class:`repro.games.GameSpec`): solo
  utilization of GPU-side resources is affine in the pixel ratio while
  CPU-side entries and the sensitivity shapes never move with
  resolution;
* the *model* layer (:class:`repro.core.profiles.GameProfile`): with
  exactly two profiled resolutions, ``solo_fps_at`` / ``intensity_at``
  reproduce the single fitted line of Eq. 2 between the profiled pixel
  counts, CPU-side intensity is the profiled average, and queries
  outside the profiled span clamp to the endpoints instead of
  extrapolating the line.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiles import GameProfile, SensitivityCurve
from repro.games import build_catalog
from repro.games.game import PIXEL_SCALED_RESOURCES
from repro.games.resolution import REFERENCE_RESOLUTION, Resolution
from repro.hardware.resources import CPU_RESOURCES, Resource

CATALOG = build_catalog()
GAMES = [CATALOG.get(name) for name in CATALOG.names()]

LOW = Resolution(1280, 720)
HIGH = Resolution(1920, 1080)

game_indices = st.integers(0, len(GAMES) - 1)
resolutions = st.builds(
    Resolution,
    st.integers(640, 3840),
    st.integers(360, 2160),
)


def lerp_by_pixels(r: Resolution, lo_val: float, hi_val: float) -> float:
    """The Eq. 2 line through (LOW, lo_val) and (HIGH, hi_val)."""
    t = (r.megapixels - LOW.megapixels) / (HIGH.megapixels - LOW.megapixels)
    return lo_val + t * (hi_val - lo_val)


class TestGroundTruthLayer:
    """GameSpec: the catalog's hidden resolution laws, all 100 games."""

    @settings(max_examples=60, deadline=None)
    @given(game_indices, resolutions)
    def test_cpu_utilization_resolution_invariant(self, i, r):
        game = GAMES[i]
        ref = game.utilization(REFERENCE_RESOLUTION)
        at = game.utilization(r)
        for res in Resource:
            if res not in PIXEL_SCALED_RESOURCES:
                assert at[res] == pytest.approx(ref[res])

    @settings(max_examples=60, deadline=None)
    @given(game_indices, resolutions)
    def test_gpu_utilization_affine_in_pixel_ratio(self, i, r):
        game = GAMES[i]
        ref = game.utilization(REFERENCE_RESOLUTION)
        at = game.utilization(r)
        scale = 1.0 - game.pixel_fraction + game.pixel_fraction * r.pixel_ratio()
        for res in PIXEL_SCALED_RESOURCES:
            assert at[res] == pytest.approx(min(1.0, ref[res] * scale))

    @settings(max_examples=60, deadline=None)
    @given(game_indices, resolutions)
    def test_sensitivity_resolution_invariant(self, i, r):
        # Obs 6: the sensitivity shapes carry no resolution dependence at
        # all — the same inflation comes back whatever resolution the
        # game renders at (the API has no resolution argument to vary).
        game = GAMES[i]
        for res in Resource:
            assert game.inflation(res, 0.5) == game.inflation(res, 0.5)

    def test_gpu_time_linear_in_pixels_all_games(self):
        # gpu_time(r) = fixed + per_mpix * mpix: three collinear samples.
        r_mid = Resolution(1600, 900)
        for game in GAMES:
            lo, mid, hi = (
                game.gpu_time_ms(LOW),
                game.gpu_time_ms(r_mid),
                game.gpu_time_ms(HIGH),
            )
            expect = lo + (hi - lo) * (
                (r_mid.megapixels - LOW.megapixels)
                / (HIGH.megapixels - LOW.megapixels)
            )
            assert mid == pytest.approx(expect)


def two_point_profile(game) -> GameProfile:
    """A 2-point GameProfile built from the spec's analytic values.

    With exactly two profiled resolutions the model's piecewise-linear
    interpolation *is* the Eq. 2 fitted line, which is what these tests
    pin (the shipped profiler uses three points; the law is the same per
    segment).
    """
    sensitivity = {
        res: SensitivityCurve(
            resource=res, pressures=(0.0, 1.0), degradations=(1.0, 0.9)
        )
        for res in Resource
    }
    return GameProfile(
        name=game.name,
        sensitivity=sensitivity,
        solo_fps={r: game.solo_fps_nominal(r) for r in (LOW, HIGH)},
        intensity={r: game.utilization(r) for r in (LOW, HIGH)},
        demand={r: game.utilization(r) for r in (LOW, HIGH)},
        cpu_mem_gb=game.cpu_mem_gb,
        gpu_mem_gb=game.gpu_mem_gb,
    )


class TestModelLayer:
    """GameProfile: Eq. 2 as the profiles actually apply it."""

    @settings(max_examples=60, deadline=None)
    @given(game_indices, st.floats(0.0, 1.0))
    def test_solo_fps_is_the_fitted_line_between_points(self, i, t):
        game = GAMES[i]
        profile = two_point_profile(game)
        # A resolution whose pixel count sits at fraction t of the span.
        pixels = LOW.pixels + t * (HIGH.pixels - LOW.pixels)
        width = max(2, int(round(pixels / 1000)))
        r = Resolution(width, 1000)
        expect = lerp_by_pixels(
            r, game.solo_fps_nominal(LOW), game.solo_fps_nominal(HIGH)
        )
        assert profile.solo_fps_at(r) == pytest.approx(max(1.0, expect), rel=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(game_indices, st.floats(0.0, 1.0))
    def test_gpu_intensity_is_the_fitted_line_between_points(self, i, t):
        game = GAMES[i]
        profile = two_point_profile(game)
        pixels = LOW.pixels + t * (HIGH.pixels - LOW.pixels)
        width = max(2, int(round(pixels / 1000)))
        r = Resolution(width, 1000)
        vec = profile.intensity_at(r)
        lo, hi = game.utilization(LOW), game.utilization(HIGH)
        for res in Resource:
            if res not in CPU_RESOURCES:
                expect = max(0.0, lerp_by_pixels(r, lo[res], hi[res]))
                assert vec[res] == pytest.approx(expect, rel=1e-3, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(game_indices)
    def test_cpu_intensity_is_the_profiled_average(self, i):
        game = GAMES[i]
        profile = two_point_profile(game)
        lo, hi = game.utilization(LOW), game.utilization(HIGH)
        # Any query resolution gives the same CPU-side entries (Obs 7).
        for r in (Resolution(640, 360), Resolution(1600, 900), Resolution(3840, 2160)):
            vec = profile.intensity_at(r)
            for res in CPU_RESOURCES:
                assert vec[res] == pytest.approx((lo[res] + hi[res]) / 2.0)

    @settings(max_examples=60, deadline=None)
    @given(game_indices)
    def test_queries_clamp_outside_profiled_span(self, i):
        game = GAMES[i]
        profile = two_point_profile(game)
        below = Resolution(640, 360)
        above = Resolution(3840, 2160)
        assert profile.solo_fps_at(below) == pytest.approx(
            max(1.0, game.solo_fps_nominal(LOW))
        )
        assert profile.solo_fps_at(above) == pytest.approx(
            max(1.0, game.solo_fps_nominal(HIGH))
        )

    @settings(max_examples=30, deadline=None)
    @given(game_indices)
    def test_downscale_strictly_helps_solo_fps(self, i):
        # The premise behind the downscale actuator: one rung down never
        # lowers a game's modeled solo frame rate.
        game = GAMES[i]
        profile = two_point_profile(game)
        assert profile.solo_fps_at(LOW) >= profile.solo_fps_at(HIGH)
