"""Tests for JSON serialization helpers."""

import json

import numpy as np
import pytest

from repro.utils.serialization import (
    SerializationError,
    dump_json,
    load_json,
    to_jsonable,
)


class TestToJsonable:
    def test_numpy_array(self):
        assert to_jsonable(np.array([1.5, 2.5])) == [1.5, 2.5]

    def test_numpy_scalars(self):
        assert to_jsonable(np.float64(1.5)) == 1.5
        assert to_jsonable(np.int32(3)) == 3
        assert to_jsonable(np.bool_(True)) is True

    def test_nested_structures(self):
        data = {"a": [np.int64(1), (2.0, np.array([3]))], "b": None}
        assert to_jsonable(data) == {"a": [1, [2.0, [3]]], "b": None}

    def test_object_with_to_dict(self):
        class Thing:
            def to_dict(self):
                return {"x": np.float32(1.0)}

        assert to_jsonable(Thing()) == {"x": 1.0}

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError, match="object"):
            to_jsonable(object())


class TestDumpLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "data.json"
        dump_json({"values": np.arange(3)}, path)
        assert load_json(path) == {"values": [0, 1, 2]}

    def test_writes_canonical_compact_form(self, tmp_path):
        # No indentation, no spaces after separators, keys sorted.
        path = tmp_path / "data.json"
        dump_json({"b": [1.5, {"d": None, "c": "x y"}], "a": np.arange(2)}, path)
        text = path.read_text()
        canonical = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert text == canonical
        assert text == '{"a":[0,1],"b":[1.5,{"c":"x y","d":null}]}'

    def test_indented_file_still_loads(self, tmp_path):
        path = tmp_path / "indented.json"
        path.write_text(json.dumps({"a": [1, 2], "b": {"c": 0.5}}, indent=2))
        assert load_json(path) == {"a": [1, 2], "b": {"c": 0.5}}

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "a" / "b" / "c.json"
        dump_json([1], path)
        assert path.exists()

    def test_truncated_file_names_path(self, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text('{"profiles": [1, 2')  # cut mid-stream
        with pytest.raises(SerializationError, match="truncated.json"):
            load_json(path)

    def test_corrupt_file_is_a_value_error(self, tmp_path):
        # Callers with existing `except ValueError` handling keep working.
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        with pytest.raises(ValueError, match="garbage.json"):
            load_json(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_json(tmp_path / "absent.json")
