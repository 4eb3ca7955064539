"""Tests for resolutions."""

import json
import pickle

import pytest

from repro.games.resolution import (
    PRESET_RESOLUTIONS,
    REFERENCE_RESOLUTION,
    Resolution,
)
from repro.utils.serialization import to_jsonable


class TestResolution:
    def test_pixels(self):
        assert Resolution(1920, 1080).pixels == 2073600

    def test_megapixels(self):
        assert Resolution(1000, 1000).megapixels == pytest.approx(1.0)

    def test_pixel_ratio_default_reference(self):
        assert REFERENCE_RESOLUTION.pixel_ratio() == pytest.approx(1.0)
        assert Resolution(1280, 720).pixel_ratio() == pytest.approx(
            (1280 * 720) / (1920 * 1080)
        )

    def test_pixel_ratio_custom_reference(self):
        assert Resolution(200, 100).pixel_ratio(Resolution(100, 100)) == 2.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Resolution(0, 1080)

    def test_ordering(self):
        assert Resolution(1280, 720) < Resolution(1920, 1080)

    def test_str(self):
        assert str(Resolution(1280, 720)) == "1280x720"

    def test_dict_round_trip(self):
        r = Resolution(1600, 900)
        assert Resolution.from_dict(r.to_dict()) == r

    def test_hashable(self):
        assert len({Resolution(1, 1), Resolution(1, 1)}) == 1


class TestTupleContract:
    """``Resolution`` is a ``(width, height)`` named tuple.

    Hash and order are those of the plain pair — the values the frozen
    dataclass it replaced produced — so every set and dict order in a
    report is unchanged.
    """

    SIZES = [(1920, 1080), (1280, 720), (1600, 900), (1280, 1024), (640, 480)]

    def test_hash_is_the_pair_hash(self):
        for width, height in self.SIZES:
            assert hash(Resolution(width, height)) == hash((width, height))

    def test_sorted_by_width_then_height(self):
        resolutions = [Resolution(w, h) for w, h in self.SIZES]
        expected = sorted(resolutions, key=lambda r: (r.width, r.height))
        assert sorted(resolutions) == expected
        assert [tuple(r) for r in sorted(resolutions)] == sorted(self.SIZES)

    @pytest.mark.parametrize("width, height", [(0, 1), (1, 0), (-1920, 1080), (1920, -1)])
    def test_rejects_non_positive_sides(self, width, height):
        with pytest.raises(ValueError, match="must be positive"):
            Resolution(width, height)
        with pytest.raises(ValueError):
            Resolution(width=width, height=height)
        # The inherited named-tuple constructors go through the same check.
        with pytest.raises(ValueError, match="must be positive"):
            Resolution._make((width, height))
        with pytest.raises(ValueError, match="must be positive"):
            Resolution(1920, 1080)._replace(width=width, height=height)

    def test_str_and_repr(self):
        r = Resolution(1600, 900)
        assert str(r) == "1600x900"
        assert repr(r) == "Resolution(width=1600, height=900)"
        assert r == Resolution(width=1600, height=900) == (1600, 900)

    def test_attributes_are_read_only(self):
        r = Resolution(1280, 720)
        with pytest.raises(AttributeError):
            r.width = 1920
        with pytest.raises(AttributeError):
            r.note = "ad hoc"
        assert r == (1280, 720)

    def test_pickle_and_dict_round_trips(self):
        r = Resolution(2560, 1440)
        back = pickle.loads(pickle.dumps(r))
        assert back == r and type(back) is Resolution
        assert hash(back) == hash(r)
        assert Resolution.from_dict(r.to_dict()) == r
        assert r.to_dict() == {"width": 2560, "height": 1440}
        assert Resolution.from_str(str(r)) == r

    def test_json_form_is_the_dict(self):
        # A tuple to json, but serialized through to_dict, never as [w, h].
        r = Resolution(1280, 720)
        assert to_jsonable(r) == {"width": 1280, "height": 720}
        assert to_jsonable({"r": [r, (1, 2)]}) == {
            "r": [{"width": 1280, "height": 720}, [1, 2]]
        }
        assert Resolution.from_dict(json.loads(json.dumps(to_jsonable(r)))) == r
        assert r._replace(height=1024) == Resolution(1280, 1024)


class TestPresets:
    def test_reference_in_presets(self):
        assert REFERENCE_RESOLUTION in PRESET_RESOLUTIONS

    def test_presets_sorted_distinct(self):
        pixels = [r.pixels for r in PRESET_RESOLUTIONS]
        assert pixels == sorted(pixels)
        assert len(set(pixels)) == len(pixels)
