import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orepa.okt import MAGIC, FormatError, read_okt, write_okt
from orepa.tensor import KernelTensor, Tensor


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_kernel_round_trip_bit_exact(tmp_path, dtype):
    rng = np.random.default_rng(2)
    w = KernelTensor(rng.standard_normal((6, 2, 3, 3)), groups=2, dtype=dtype)
    path = tmp_path / "k.okt"
    write_okt(path, w)
    back = read_okt(path)
    assert isinstance(back, KernelTensor)
    assert back.groups == 2
    assert back.dtype == dtype
    assert back.data.tobytes() == w.data.tobytes()


@pytest.mark.parametrize("shape", [(3, 5, 4), (2, 3, 5, 4)])
def test_tensor_round_trip_bit_exact(tmp_path, shape):
    rng = np.random.default_rng(3)
    t = Tensor(rng.standard_normal(shape), dtype="f32")
    path = tmp_path / "t.okt"
    write_okt(path, t)
    back = read_okt(path)
    assert isinstance(back, Tensor)
    assert back.shape == shape
    assert back.data.tobytes() == t.data.tobytes()


def test_file_layout(tmp_path):
    w = KernelTensor(np.arange(4.0).reshape(1, 1, 2, 2))
    path = tmp_path / "k.okt"
    write_okt(path, w)
    raw = path.read_bytes()
    assert raw[:8] == MAGIC == b"OREPAKT1"
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    assert header == {"dtype": "f64", "groups": 1, "layout": "OIHW", "shape": [1, 1, 2, 2]}
    assert raw[12 + hlen:] == w.data.astype("<f8").tobytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.okt"
    path.write_bytes(b"NOTOKT10" + b"\x00" * 16)
    with pytest.raises(FormatError):
        read_okt(path)


def test_truncated_payload_rejected(tmp_path):
    w = KernelTensor(np.ones((1, 1, 2, 2)))
    path = tmp_path / "k.okt"
    write_okt(path, w)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_okt(path)


def _okt_bytes(header, payload, **dumps):
    blob = json.dumps(header, **dumps).encode()
    return MAGIC + struct.pack("<I", len(blob)) + blob + payload


# the header and payload write_okt writes for a (6, 1, 2, 1) kernel of 3 groups
HEADER = {"dtype": "f64", "groups": 3, "layout": "OIHW", "shape": [6, 1, 2, 1]}
PAYLOAD = np.arange(12.0).astype("<f8").tobytes()
DROP = object()
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-2, 13),
    st.sampled_from([2 ** 64, 10 ** 400, "f32", "f64", "OIHW", "CHW", "BCHW"]), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-1, 12), st.booleans(), st.floats(1, 6)), max_size=5),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))


@settings(max_examples=200, deadline=None)
@given(header_edit=st.one_of(st.none(), st.tuples(st.sampled_from([*HEADER, "extra"]),
                                                  st.one_of(st.just(DROP), JSON_VALUES))),
       edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=4),
       cut=st.one_of(st.none(), st.integers(0, 200)))
def test_fuzzed_okt_reads_or_raises_format_error(tmp_path_factory, header_edit, edits, cut):
    header = dict(HEADER)
    if header_edit is not None:
        key, value = header_edit
        if value is DROP:
            header.pop(key, None)
        else:
            header[key] = value
    raw = bytearray(_okt_bytes(header, PAYLOAD, sort_keys=True, separators=(",", ":")))
    for pos, byte in edits:
        raw[pos % len(raw)] = byte
    path = tmp_path_factory.mktemp("fuzz") / "k.okt"
    path.write_bytes(bytes(raw[:cut]))
    try:
        back = read_okt(path)
    except FormatError:
        return
    # a file the reader accepts is exactly what the writer writes for what it read
    write_okt(path, back)
    assert path.read_bytes() == bytes(raw[:cut])


def test_header_in_any_key_order_or_spacing_reads(tmp_path):
    path = tmp_path / "k.okt"
    path.write_bytes(_okt_bytes(dict(reversed(HEADER.items())), PAYLOAD, indent=2))
    back = read_okt(path)
    assert (back.shape, back.groups) == ((6, 1, 2, 1), 3)
    assert back.data.tobytes() == PAYLOAD


# headers that decode a payload but that write_okt never writes
UNWRITTEN_HEADERS = {
    "extra_key": {**HEADER, "note": "x"},
    "chw_groups_2": {**HEADER, "layout": "CHW", "groups": 2, "shape": [6, 2, 1]},
    "bchw_groups_3": {**HEADER, "layout": "BCHW"},
    "groups_true": {**HEADER, "groups": True, "shape": [12, 1, 1, 1]},
    "groups_float": {**HEADER, "groups": 3.0},
    "dtype_list": {**HEADER, "dtype": ["f64"]},
    "layout_list": {**HEADER, "layout": ["OIHW"]},
}


@pytest.mark.parametrize("case", UNWRITTEN_HEADERS)
def test_header_the_writer_never_writes_is_refused(tmp_path, case):
    path = tmp_path / "k.okt"
    path.write_bytes(_okt_bytes(UNWRITTEN_HEADERS[case], PAYLOAD))
    with pytest.raises(FormatError):
        read_okt(path)
