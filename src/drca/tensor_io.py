"""Flat binary tensor files and named-tensor directories.

File layout (all little-endian): magic ``TNSR``, uint32 rank, one uint32
extent per axis, then float32 values in row-major order.  A directory of
tensors carries a ``manifest.tsv`` with one ``name<TAB>dim0xdim1x...``
line per tensor, in write order.  Only finite values are written or
read.  A name must stay inside its directory: empty, absolute, ``..``
and path-separator names are refused on write and on read.  Every
tensor file is written atomically: a temporary file beside the target
is renamed into place.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .numerics import F32

MAGIC = b"TNSR"
MANIFEST = "manifest.tsv"


class TensorFileError(ValueError):
    """A tensor file or manifest is malformed."""


def write_tnsr(path: str | os.PathLike, tensor: np.ndarray) -> None:
    """Write ``tensor`` atomically: the bytes go to a fresh temporary file
    beside ``path``, which then replaces ``path`` in one rename, so a
    failed write leaves any old file untouched and no stray file behind."""
    tensor = np.ascontiguousarray(tensor, dtype=F32)
    if not np.all(np.isfinite(tensor)):
        raise TensorFileError(f"refusing to write non-finite values to {path}")
    directory, base = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{base}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        # O_EXCL never reuses a file; 0o666 lets the umask set the mode as open() would
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", tensor.ndim))
            f.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            f.write(tensor.astype("<f4", copy=False).tobytes())
        os.replace(tmp, path)
    except BaseException as err:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(err, OSError) and err.filename == tmp:
            # name the file the caller asked for, not the temporary one
            raise OSError(err.errno, err.strerror, os.fspath(path)) from None
        raise


def read_tnsr(path: str | os.PathLike) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise TensorFileError(f"{path}: bad magic bytes {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < 8:
        raise TensorFileError(f"{path}: truncated header")
    (rank,) = struct.unpack_from("<I", raw, 4)
    header_end = 8 + 4 * rank
    if len(raw) < header_end:
        raise TensorFileError(f"{path}: truncated extent list (rank {rank})")
    extents = struct.unpack_from(f"<{rank}I", raw, 8)
    count = 1
    for e in extents:
        count *= e
    if len(raw) != header_end + 4 * count:
        raise TensorFileError(
            f"{path}: payload is {len(raw) - header_end} bytes, "
            f"expected {4 * count} for extents {extents}"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=header_end, count=count)
    if not np.all(np.isfinite(values)):
        raise TensorFileError(f"{path}: payload holds non-finite values")
    return np.ascontiguousarray(values.astype(F32).reshape(extents))


def _shape_token(shape: tuple[int, ...]) -> str:
    return "x".join(str(e) for e in shape) if shape else "scalar"


def _check_name(name: str, where: str) -> None:
    # a name is one file inside the directory: no separators, no parent
    # steps, nothing that would break a manifest line
    if (not name or os.path.isabs(name) or ".." in name
            or any(c in name for c in ("/", "\\", "\t", "\n"))):
        raise TensorFileError(f"{where}: bad tensor name {name!r}")


def save_tensor_dir(directory: str | os.PathLike, tensors: dict[str, np.ndarray]) -> None:
    """Write every named tensor as ``<name>.tnsr`` plus a manifest."""
    for name in tensors:
        _check_name(name, str(directory))
    os.makedirs(directory, exist_ok=True)
    lines = []
    for name, tensor in tensors.items():
        tensor = np.asarray(tensor, dtype=F32)
        write_tnsr(os.path.join(directory, name + ".tnsr"), tensor)
        lines.append(f"{name}\t{_shape_token(tensor.shape)}\n")
    with open(os.path.join(directory, MANIFEST), "w") as f:
        f.writelines(lines)


def load_tensor_dir(directory: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a manifest-described tensor directory, verifying every extent."""
    manifest = os.path.join(directory, MANIFEST)
    if not os.path.exists(manifest):
        raise TensorFileError(f"{directory}: missing {MANIFEST}")
    out: dict[str, np.ndarray] = {}
    with open(manifest) as f:
        for line_no, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise TensorFileError(f"{manifest}:{line_no}: expected name<TAB>shape")
            name, shape_token = parts
            _check_name(name, f"{manifest}:{line_no}")
            tensor = read_tnsr(os.path.join(directory, name + ".tnsr"))
            if _shape_token(tensor.shape) != shape_token:
                raise TensorFileError(
                    f"{manifest}:{line_no}: {name} has extents {_shape_token(tensor.shape)}, "
                    f"manifest says {shape_token}"
                )
            out[name] = tensor
    return out
