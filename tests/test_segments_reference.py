"""``dataio.load_segments`` against a frozen copy of the per-entry loader it replaced.

The loader shares one ``NoiseSigmas`` record between entries whose
``sigmas`` are alike; every file must still load to equal records, or
fail with the same ``SegmentError`` text, as when each entry built its own.
"""

import json
import operator
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uavtrack.dataio import Segment, SegmentError, load_segments
from uavtrack.motionmodels import ModelKind, NoiseSigmas

# --- frozen reference: one NoiseSigmas per entry, kept as it was


def _ref_load_segments(path, K: int) -> list[Segment]:
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, list):
        raise SegmentError(f"{path}: expected a JSON array of segments")

    segments, ids = [], set()
    for entry in raw:
        try:
            sid = str(entry["id"])
            start, end = entry["start_idx"], entry["end_idx"]
            if isinstance(start, bool) or isinstance(end, bool):  # operator.index takes them as 0 and 1
                raise TypeError("'bool' object cannot be interpreted as an integer")
            start, end = operator.index(start), operator.index(end)
            mm_label = entry["mm"]
            sigmas = NoiseSigmas.from_dict(entry.get("sigmas", {}))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SegmentError(f"{path}: malformed segment entry {entry!r}: {exc}") from exc
        try:
            mm = ModelKind(mm_label)
        except ValueError:
            raise SegmentError(f"segment {sid}: unknown motion model {mm_label!r}") from None
        if sid in ids:
            raise SegmentError(f"{path}: duplicate segment id {sid!r}")
        ids.add(sid)
        if not (0 <= start <= end < K):
            raise SegmentError(
                f"segment {sid}: indices [{start}, {end}] out of range for K={K}"
            )
        segments.append(Segment(sid, start, end, mm, sigmas))

    segments.sort(key=lambda s: s.start_idx)
    for a, b in zip(segments, segments[1:]):
        if b.start_idx <= a.end_idx:
            raise SegmentError(f"segments {a.id} and {b.id} overlap")
    return segments


# ---

_NO_SIGMAS = object()  # the entry has no "sigmas" key


def _outcome(load, path, K):
    try:
        return load(path, K)
    except SegmentError as exc:
        return f"SegmentError: {exc}"


def _check_file(sigmas_per_entry, K=100):
    entries = []
    for i, sig in enumerate(sigmas_per_entry):
        entry = {"id": f"S{i + 1}", "start_idx": 3 * i, "end_idx": 3 * i + 2, "mm": ("CV", "CA", "CT")[i % 3]}
        if sig is not _NO_SIGMAS:
            entry["sigmas"] = sig
        entries.append(entry)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "segments.json"
        path.write_text(json.dumps(entries), encoding="utf-8")  # NaN and Infinity as json writes them
        got, want = _outcome(load_segments, path, K), _outcome(_ref_load_segments, path, K)
    assert got == want
    return got


_values = st.sampled_from(
    [0.5, 1, 1.0, True, False, 0, 0.0, -0.0, 2.5, -1.0, -1, float("nan"), float("inf"), 10**400, "1", None, [1.0]]
)
_sigmas = st.one_of(
    st.dictionaries(st.sampled_from(["accel", "jerk", "omega", "acel"]), _values, max_size=3),
    st.sampled_from([_NO_SIGMAS, 5, [0.5], None, "accel"]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), K=st.integers(1, 40))
def test_generated_files_load_as_the_frozen_loader(data, n, K):
    # a small pool of sigmas objects, so that alike and look-alike entries meet
    pool = data.draw(st.lists(_sigmas, min_size=1, max_size=4))
    _check_file([data.draw(st.sampled_from(pool)) for _ in range(n)], K)


@pytest.mark.parametrize("valid, bad", [
    ({"accel": 1}, {"accel": True}),
    ({"accel": 1.0}, {"accel": True}),
    ({"accel": 0}, {"accel": False}),
    ({"accel": 0.5}, {"accel": float("nan")}),
    ({"accel": 0.5}, {"accel": -0.5}),
    ({"accel": 1}, {"accel": -1}),
    ({"accel": 0.5}, {"accel": 0.5, "acel": 0.5}),
    ({"accel": 0.5}, {"acel": 0.5}),
    ({}, 5),
], ids=["1_true", "1.0_true", "0_false", "nan", "negative", "negative_int", "extra_unknown_key", "unknown_key", "not_object"])
def test_bad_entry_after_a_valid_look_alike(valid, bad):
    got = _check_file([valid, valid, bad])
    assert got.startswith("SegmentError: ") and "malformed segment entry {'id': 'S3'" in got


def test_alike_entries_share_one_record():
    segments = _check_file([{"accel": 1}, {"accel": 1.0}, {"accel": 1}, _NO_SIGMAS, {}, {"jerk": 2, "accel": 1}])
    assert segments[0].sigmas is segments[2].sigmas and segments[3].sigmas is segments[4].sigmas
    assert segments[0].sigmas == segments[1].sigmas == NoiseSigmas(accel=1.0)
    assert segments[1].sigmas is not segments[0].sigmas  # 1 and 1.0 are distinct keys
