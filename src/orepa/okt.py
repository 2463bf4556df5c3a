"""OKT1 kernel/tensor container.

Layout on disk: 8 magic bytes "OREPAKT1", a little-endian u32 header
length L, L bytes of UTF-8 JSON
{"dtype": "f32"|"f64", "shape": [...], "layout": "OIHW"|"CHW"|"BCHW", "groups": G},
then the raw little-endian scalars in row-major order. Round-trips are
bit-exact.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .tensor import KernelTensor, Tensor, np_dtype

MAGIC = b"OREPAKT1"

_LE = {"f32": "<f4", "f64": "<f8"}


class FormatError(ValueError):
    pass


def _layout_of(obj):
    if isinstance(obj, KernelTensor):
        return "OIHW"
    if isinstance(obj, Tensor):
        return "CHW" if obj.rank == 3 else "BCHW"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_okt(path, obj):
    """Write a Tensor or KernelTensor to path in OKT1 form."""
    layout = _layout_of(obj)
    groups = obj.groups if isinstance(obj, KernelTensor) else 1
    header = {
        "dtype": obj.dtype,
        "groups": groups,
        "layout": layout,
        "shape": list(obj.shape),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = np.ascontiguousarray(obj.data).astype(_LE[obj.dtype], copy=False)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload.tobytes())


_RANK = {"OIHW": 4, "CHW": 3, "BCHW": 4}


def read_okt(path):
    """Read an OKT1 file back into a Tensor or KernelTensor.

    Any file that is not a well-formed OKT1 tensor raises FormatError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != MAGIC:
        raise FormatError(f"bad magic {raw[:8]!r}")
    if len(raw) < 12:
        raise FormatError("truncated header length")
    (hlen,) = struct.unpack("<I", raw[8:12])
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("header is not a JSON object")
    for key in ("dtype", "shape", "layout", "groups"):
        if key not in header:
            raise FormatError(f"header missing {key!r}")
    dtype, shape, layout, groups = (header[k] for k in ("dtype", "shape", "layout", "groups"))
    if dtype not in _LE:
        raise FormatError(f"unknown dtype {dtype!r}, expected one of {sorted(_LE)}")
    if layout not in _RANK:
        raise FormatError(f"unknown layout {layout!r}")
    if not (isinstance(shape, list) and len(shape) == _RANK[layout]
            and all(type(e) is int and e >= 1 for e in shape)):
        raise FormatError(f"shape {shape!r} is not {_RANK[layout]} positive extents "
                          f"for layout {layout}")
    if layout == "OIHW" and not (type(groups) is int and groups >= 1 and shape[0] % groups == 0):
        raise FormatError(f"groups {groups!r} do not divide out_channels {shape[0]}")
    n = math.prod(shape)
    body = raw[12 + hlen:]
    dt = np.dtype(_LE[dtype])
    if len(body) != n * dt.itemsize:
        raise FormatError(f"payload length {len(body)} != {n * dt.itemsize}")
    arr = np.frombuffer(body, dtype=dt).reshape(shape).astype(np_dtype(dtype), copy=False)
    if layout == "OIHW":
        return KernelTensor(arr, groups=groups)
    return Tensor(arr)
