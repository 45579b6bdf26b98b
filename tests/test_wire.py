"""Frame encoding tests: exact sizes, lossless round trips, and strict
rejection of anything that is not a byte-exact encoding."""

import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evabs import wire
from evabs.errors import FrameError

block = st.binary(min_size=16, max_size=16)
tag32 = st.binary(min_size=32, max_size=32)
nonce = st.binary(min_size=16, max_size=16)
millis = st.integers(min_value=0, max_value=2**64 - 1)

reasons = st.sampled_from(list(wire.Reason))

messages = st.one_of(
    st.builds(wire.AuthRequest, m3=block, mac=tag32, n_a=nonce),
    st.builds(wire.LookupRequest, m5=block, n_a=nonce),
    st.builds(wire.LookupReply, accepted=st.just(True), id_a=block, k_a=tag32),
    st.builds(wire.LookupReply, accepted=st.just(False), reason=reasons),
    st.builds(wire.StartCharge, m8=block, mac=tag32, n_t=nonce),
    st.builds(wire.ChargeReport, id_a=block, t1=millis, t5=millis),
    st.builds(wire.FailureNotice, reason=reasons),
)

# one message of each shape, and its frame length
SHAPES = [
    (wire.AuthRequest(m3=bytes(16), mac=bytes(32), n_a=bytes(16)), 65),
    (wire.LookupRequest(m5=bytes(16), n_a=bytes(16)), 33),
    (wire.LookupReply(accepted=True, id_a=bytes(16), k_a=bytes(32)), 50),
    (wire.LookupReply(accepted=False, reason=wire.Reason.ABORTED), 3),
    (wire.StartCharge(m8=bytes(16), mac=bytes(32), n_t=bytes(16)), 65),
    (wire.ChargeReport(id_a=bytes(16), t1=0, t5=1), 33),
    (wire.FailureNotice(reason=wire.Reason.ABORTED), 2),
]


class TestRoundTrip:
    @settings(max_examples=200)
    @given(msg=messages)
    def test_decode_inverts_encode(self, msg):
        assert wire.decode_frame(msg.encode()) == msg

    @given(msg=messages)
    def test_variant_matches_tag(self, msg):
        frame = msg.encode()
        assert wire.frame_variant(frame) == wire.VARIANTS[frame[0]]

    @given(msg=messages)
    def test_message_names_its_variant_and_length(self, msg):
        # the transcript describes protected-line messages from these alone
        frame = msg.encode()
        assert msg.variant == wire.frame_variant(frame)
        assert msg.frame_len == len(frame) <= wire.FRAME_LENGTHS[msg.variant]

    def test_frame_lengths_cover_every_variant(self):
        assert set(wire.FRAME_LENGTHS) == set(wire.VARIANTS.values())

    def test_fixed_sizes(self):
        auth = wire.AuthRequest(m3=b"\x01" * 16, mac=b"\x02" * 32, n_a=b"\x03" * 16)
        assert len(auth.encode()) == 65
        lookup = wire.LookupRequest(m5=b"\x01" * 16, n_a=b"\x02" * 16)
        assert len(lookup.encode()) == 33
        ok = wire.LookupReply(accepted=True, id_a=b"\x01" * 16, k_a=b"\x02" * 32)
        assert len(ok.encode()) == 50
        no = wire.LookupReply(accepted=False, reason=wire.Reason.UNKNOWN_VEHICLE)
        assert len(no.encode()) == 3
        start = wire.StartCharge(m8=b"\x01" * 16, mac=b"\x02" * 32, n_t=b"\x03" * 16)
        assert len(start.encode()) == 65
        report = wire.ChargeReport(id_a=b"\x01" * 16, t1=0, t5=90_000)
        assert len(report.encode()) == 33
        assert len(wire.FailureNotice(reason=wire.Reason.ABORTED).encode()) == 2

    def test_timestamps_big_endian(self):
        report = wire.ChargeReport(id_a=bytes(16), t1=0x0102030405060708, t5=1)
        frame = report.encode()
        assert frame[17:25] == bytes.fromhex("0102030405060708")
        assert frame[25:33] == bytes.fromhex("0000000000000001")


class TestStrictDecode:
    @given(msg=messages, cut=st.integers(min_value=0))
    def test_rejects_truncation(self, msg, cut):
        frame = msg.encode()
        with pytest.raises(FrameError):
            wire.decode_frame(frame[: cut % len(frame)])

    @given(msg=messages, extra=st.binary(min_size=1, max_size=8))
    def test_rejects_trailing_bytes(self, msg, extra):
        with pytest.raises(FrameError):
            wire.decode_frame(msg.encode() + extra)

    @pytest.mark.parametrize("msg,size", SHAPES, ids=[f"{m.variant}-{n}" for m, n in SHAPES])
    def test_one_byte_short_or_long_names_the_variant_and_its_length(self, msg, size):
        frame = msg.encode()
        for bad in (frame[:-1], frame + b"\x00"):
            message = rf"^{msg.variant}\b.* must be {size} bytes, got {len(bad)}$"
            with pytest.raises(FrameError, match=message):
                wire.decode_frame(bad)

    @pytest.mark.parametrize("tag", [0x00, 0x07, 0x7F, 0xFF])
    def test_rejects_unknown_tag(self, tag):
        with pytest.raises(FrameError):
            wire.decode_frame(bytes([tag]) + bytes(64))

    def test_rejects_non_bytes_and_empty(self):
        with pytest.raises(FrameError):
            wire.decode_frame("not bytes")
        with pytest.raises(FrameError):
            wire.decode_frame(b"")

    def test_rejects_unknown_reason_code(self):
        with pytest.raises(FrameError):
            wire.decode_frame(bytes([0x06, 0x00]))
        with pytest.raises(FrameError):
            wire.decode_frame(bytes([0x06, 0x07]))
        with pytest.raises(FrameError):
            wire.decode_frame(bytes([0x03, 0x00, 0xEE]))

    def test_a_lone_reply_tag_is_truncated(self):
        # a reply's second byte picks its layout; with no second byte none does
        with pytest.raises(FrameError, match="^truncated lookup_reply$"):
            wire.decode_frame(b"\x03")

    def test_rejects_unknown_reply_status(self):
        with pytest.raises(FrameError):
            wire.decode_frame(bytes([0x03, 0x02]) + bytes(48))


class TestFieldValidation:
    def test_auth_request_field_sizes(self):
        with pytest.raises(FrameError):
            wire.AuthRequest(m3=b"\x01" * 15, mac=b"\x02" * 32, n_a=b"\x03" * 16)
        with pytest.raises(FrameError):
            wire.AuthRequest(m3=b"\x01" * 16, mac=b"\x02" * 31, n_a=b"\x03" * 16)
        with pytest.raises(FrameError):
            wire.AuthRequest(m3=b"\x01" * 16, mac=b"\x02" * 32, n_a=b"\x03" * 17)

    def test_reply_shape_is_exclusive(self):
        with pytest.raises(FrameError):
            wire.LookupReply(accepted=True, id_a=b"\x01" * 16)
        with pytest.raises(FrameError):
            wire.LookupReply(
                accepted=True,
                id_a=b"\x01" * 16,
                k_a=b"\x02" * 32,
                reason=wire.Reason.ABORTED,
            )
        with pytest.raises(FrameError):
            wire.LookupReply(accepted=False)
        with pytest.raises(FrameError):
            wire.LookupReply(
                accepted=False, reason=wire.Reason.ABORTED, k_a=b"\x02" * 32
            )

    @pytest.mark.parametrize("reason", [300, "x", 99, 3, 3.0], ids=repr)
    def test_rejected_reply_needs_reason_enum(self, reason):
        with pytest.raises(FrameError, match="^reason must be a Reason, got "):
            wire.LookupReply(accepted=False, reason=reason)

    @pytest.mark.parametrize("accepted", [2, None, 1, 0, "yes"], ids=repr)
    def test_reply_status_must_be_a_bool(self, accepted):
        with pytest.raises(FrameError, match="^accepted must be a bool, got "):
            wire.LookupReply(accepted=accepted, id_a=bytes(16), k_a=bytes(32))
        with pytest.raises(FrameError, match="^accepted must be a bool, got "):
            wire.LookupReply(accepted=accepted, reason=wire.Reason.ABORTED)

    def test_report_rejects_bad_timestamps(self):
        with pytest.raises(FrameError):
            wire.ChargeReport(id_a=bytes(16), t1=-1, t5=0)
        with pytest.raises(FrameError):
            wire.ChargeReport(id_a=bytes(16), t1=0, t5=2**64)
        with pytest.raises(FrameError):
            wire.ChargeReport(id_a=bytes(16), t1=0.5, t5=0)

    def test_failure_notice_needs_reason_enum(self):
        with pytest.raises(FrameError):
            wire.FailureNotice(reason=3)

    def test_reason_labels_round_trip(self):
        for reason in wire.Reason:
            assert wire.Reason.from_label(reason.label) is reason
        with pytest.raises(FrameError):
            wire.Reason.from_label("no_such_reason")

    def test_variant_of_unknown_or_empty(self):
        assert wire.frame_variant(b"") is None
        assert wire.frame_variant(bytes([0x7F])) is None


# every message type with byte fields: (class, fixed keyword arguments,
# {byte field: size})
BYTE_FIELDS = [
    (wire.AuthRequest, {}, {"m3": 16, "mac": 32, "n_a": 16}),
    (wire.LookupRequest, {}, {"m5": 16, "n_a": 16}),
    (wire.LookupReply, {"accepted": True}, {"id_a": 16, "k_a": 32}),
    (wire.StartCharge, {}, {"m8": 16, "mac": 32, "n_t": 16}),
    (wire.ChargeReport, {"t1": 0, "t5": 1}, {"id_a": 16}),
]


class TestBytesLikeFields:
    @settings(max_examples=100)
    @given(data=st.data())
    def test_bytes_like_fields_are_held_as_bytes(self, data):
        cls, fixed, sizes = data.draw(st.sampled_from(BYTE_FIELDS))
        raw = {name: data.draw(st.binary(min_size=n, max_size=n)) for name, n in sizes.items()}
        given_as = {
            name: data.draw(st.sampled_from([bytes, bytearray, memoryview]))(value)
            for name, value in raw.items()
        }
        msg = cls(**fixed, **given_as)
        want = cls(**fixed, **raw)
        assert msg == want
        assert hash(msg) == hash(want)
        assert all(type(getattr(msg, name)) is bytes for name in sizes)

    @pytest.mark.parametrize("bad", [16, "x" * 16, None], ids=["int", "str", "none"])
    @pytest.mark.parametrize(
        "cls,fixed,sizes", BYTE_FIELDS, ids=[cls.variant for cls, _, _ in BYTE_FIELDS]
    )
    def test_non_bytes_field_is_a_frame_error(self, cls, fixed, sizes, bad):
        fields = {name: bytes(n) for name, n in sizes.items()}
        for name in sizes:
            with pytest.raises(FrameError):
                cls(**fixed, **{**fields, name: bad})

    @given(msg=messages)
    def test_decode_accepts_a_memoryview(self, msg):
        frame = msg.encode()
        assert wire.decode_frame(memoryview(frame)) == wire.decode_frame(frame)

    def test_report_times_must_be_ints_not_bools(self):
        with pytest.raises(FrameError):
            wire.ChargeReport(id_a=bytes(16), t1=True, t5=5)
        with pytest.raises(FrameError):
            wire.ChargeReport(id_a=bytes(16), t1=0, t5=False)


def _readme_frames():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("\n## Frames\n")
    return readme[start:readme.index("\n## ", start + 1)]


LAYOUTS = [layout for cls in wire._MESSAGES for layout in cls.layouts]


class TestFramesTable:
    """README's "Frames" section has one row per frame shape, each built
    here from its message class, so the docs follow the layouts."""

    @pytest.mark.parametrize("layout", LAYOUTS, ids=[layout.label for layout in LAYOUTS])
    def test_row_is_in_the_readme(self, layout):
        fields = ", ".join(f"`{name}` {hi - lo}" for name, lo, hi in layout.spans)
        row = f"| `{layout.label}` | `{layout.cls.tag:#04x}` | {fields} | {layout.size} |"
        assert f"\n{row}\n" in _readme_frames()

    def test_one_row_per_shape(self):
        rows = re.findall(r"^\| `", _readme_frames(), re.M)
        assert len(rows) == len(LAYOUTS) == len(SHAPES)

    def test_reason_codes(self):
        text = " ".join(_readme_frames().split())
        for reason in wire.Reason:
            assert f"{reason.value} `{reason.label}`" in text
