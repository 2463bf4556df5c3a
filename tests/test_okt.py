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



@settings(max_examples=80, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=4),
       cut=st.one_of(st.none(), st.integers(0, 200)))
def test_fuzzed_okt_reads_or_raises_format_error(tmp_path_factory, edits, cut):
    path = tmp_path_factory.mktemp("fuzz") / "k.okt"
    write_okt(path, KernelTensor(np.arange(12.0).reshape(6, 1, 2, 1), groups=3))
    raw = bytearray(path.read_bytes())
    for pos, byte in edits:
        raw[pos % len(raw)] = byte
    path.write_bytes(bytes(raw[:cut]))
    try:
        read_okt(path)
    except FormatError:
        pass
