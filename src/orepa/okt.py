"""OKT1 kernel/tensor container.

Layout on disk: 8 magic bytes "OREPAKT1", a little-endian u32 header
length L, L bytes of UTF-8 JSON
{"dtype": "f32"|"f64", "groups": G, "layout": "OIHW"|"CHW"|"BCHW", "shape": [...]},
then the raw little-endian scalars in row-major order. Round-trips are
bit-exact.

write_okt defines the format: read_okt decodes a file as its header says,
then accepts it only if write_okt would write that header, in any key order
or spacing, for what it decoded.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .tensor import KernelTensor, Tensor, np_dtype

MAGIC = b"OREPAKT1"

_LE = {"f32": "<f4", "f64": "<f8"}


class FormatError(ValueError):
    pass


def _header(obj):
    """The header write_okt writes for a Tensor or KernelTensor."""
    if isinstance(obj, KernelTensor):
        layout, groups = "OIHW", obj.groups
    elif isinstance(obj, Tensor):
        layout, groups = ("CHW" if obj.rank == 3 else "BCHW"), 1
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return {"dtype": obj.dtype, "groups": groups, "layout": layout, "shape": list(obj.shape)}


def write_okt(path, obj):
    """Write a Tensor or KernelTensor to path in OKT1 form."""
    blob = json.dumps(_header(obj), sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = np.ascontiguousarray(obj.data).astype(_LE[obj.dtype], copy=False)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload.tobytes())


def read_okt(path):
    """Read an OKT1 file back into a Tensor or KernelTensor.

    Any file that write_okt would not write raises FormatError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != MAGIC:
        raise FormatError(f"bad magic {raw[:8]!r}")
    # a header value of the wrong JSON type fails as a KeyError or TypeError
    try:
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
        dtype = header["dtype"]
        arr = np.frombuffer(raw[12 + hlen:], dtype=_LE[dtype]).reshape(header["shape"])
        arr = arr.astype(np_dtype(dtype), copy=False)
        obj = (KernelTensor(arr, groups=header["groups"]) if header["layout"] == "OIHW"
               else Tensor(arr))
    except (struct.error, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise FormatError(f"bad header or payload: {exc!r}") from exc
    # compared as text, so that true or 2.0 never passes for an integer
    if json.dumps(header, sort_keys=True) != json.dumps(_header(obj), sort_keys=True):
        raise FormatError(f"header {json.dumps(header)} is not what write_okt writes")
    return obj
