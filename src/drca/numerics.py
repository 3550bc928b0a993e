"""Dense float32 numeric kernels shared by every other module.

All public operations take and return float32 arrays and are pure
functions of their inputs, save for the ``out=`` array that ``gelu``
and ``softmax_lastdim`` may be given; the only stateful object is
RandomStream, which advances explicitly.  Video tokens follow the layout convention
[..., M, N, C] with the channel axis last.

Every kernel that performs arithmetic reports its cost to any active
FlopCounter using one fixed convention (a matmul of shape m x k x n
costs 2*m*k*n flops, softmax 5 per element, normalisation 4 per
element, pooling 1 per input element, elementwise nonlinearities 1 per
element).  Residual additions, scalar scalings, position-embedding adds
and data movement are never counted, on either the instrumented or the
analytic side.

Kernel arithmetic is float32: reductions are numpy's float32 sums and
matmul accumulates in 32 bits.  A kernel's result for one token depends
only on that token's row, so slices of two or more rows match the full
batch bitwise (the transformer layers rely on this to run in blocks)
wherever both products take the same BLAS kernel.  A single row, or a
weight with a single column, takes numpy's matrix-vector path, where a
row's last bits depend on its place in the call; ``_product``, behind
``linear`` and each ``conv3d`` tap, gives each matrix of such a stack
its own call's bits there with one stacked product.  A smaller product
can also take another BLAS kernel (OpenBLAS has a small-matrix path)
that sums a long inner axis in another order: 16-row slices of a
[128, 768] @ [768, 16] product differ from it in the last bits, so the
patch projection runs over blocks of up to 512 rows, not frame by frame.

``gelu`` and ``softmax_lastdim`` write into ``out`` if one is given
(C-contiguous float32 of the input's shape), which may be the input
itself: the layers hand them their own fresh linear output and attention
scores, so neither allocates a second array of that size.  GELU keeps
four ``_CHUNK``-sized scratch vectors and reads each input chunk only
before writing the output chunk, so in place is bitwise out of place.
``layer_norm`` squares its centred rows a ``_CHUNK`` at a time into one
reused scratch buffer, so it holds no full-size square beside its
output; each row's variance is that row's own float32 mean, so this is
bitwise the full square's.

``RandomStream.gaussian`` draws its float64 stream in chunks of
``_CHUNK`` values and casts each into the float32 output, and scales in
place, so a weight draw holds no float64 copy of the weight;
consecutive draws from one stream continue it, so the result is bitwise
the one-shot ``standard_normal(shape).astype(F32)``.

``attention`` is the one scaled dot-product attention, softmax(q k^T /
sqrt(d)) v per head: the transformer layers call it with their head
count, the compressor with one head and 2-D keys and values that
broadcast against its queries.  Its cost is that of its two matmuls and
its softmax.  It drops q and k once the scores are made, and the scores
and v once they are applied, so a caller that hands over its only
references has them freed there.

GELU is the exact erf form, evaluated as relu(x) - |x| Phi(-|x|) with
Phi(-a) = erfc(a / sqrt 2) / 2 and erfc from the Numerical Recipes
``erfcc`` fit (relative error below 1.2e-7 in exact arithmetic).  In
float32 its tested error is at most 3e-7 absolute over [-40, 40] and
within (1e-7 + 1e-6 |gelu(x)|) / 2 at every point; |x| is clamped so
that neither the output nor any intermediate is subnormal.

``conv3d`` and its kernel gradient ``conv3d_kernel_grad`` share one
window walk.  Both take a [T, M, N, C] video or a stack [B, T, M, N, C]
of videos; the walk zero-pads only the last four axes, so each video of
a stack gets bitwise the result of its own call, and the kernel gradient
of a stack is the per-video gradients, not their sum.  Each kernel tap
is one product over the tap's window, built straight from the unpadded
input into one contiguous input-sized buffer that every tap reuses: the
shifted input, and zeros in the border strips that the shift uncovers.
No padded copy and no im2col of all taps is made, and each window holds
the bytes of the padded copy's window.  ``conv3d`` makes each tap's
product with ``_product`` over the stack of videos' rows, the gradient
one window^T @ d_out per video.
``tree_map`` is the single walk over the parameter dataclass trees: it
names, rebuilds and updates them field by field.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

import numpy as np

F32 = np.float32

MACS_TO_FLOPS = 2
SOFTMAX_FLOPS_PER_ELEMENT = 5
NORM_FLOPS_PER_ELEMENT = 4
POOL_FLOPS_PER_ELEMENT = 1
NONLINEARITY_FLOPS_PER_ELEMENT = 1


class ShapeError(ValueError):
    """Operand extents violate an operation's contract."""


_ACTIVE_COUNTERS: list["FlopCounter"] = []


class FlopCounter:
    """Accumulates the flop cost of every kernel executed inside its
    ``with`` block.

    >>> with FlopCounter() as fc:
    ...     matmul(a, b)
    >>> fc.total
    """

    def __init__(self) -> None:
        self.total = 0

    def __enter__(self) -> "FlopCounter":
        _ACTIVE_COUNTERS.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _ACTIVE_COUNTERS.remove(self)
        return False


def _count(flops: int) -> None:
    if _ACTIVE_COUNTERS:
        for counter in _ACTIVE_COUNTERS:
            counter.total += int(flops)


@functools.lru_cache(maxsize=None)
def _field_hints(kind: type) -> tuple[tuple[str, object], ...]:
    hints = typing.get_type_hints(kind)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(kind))


def tree_map(fn, kind: type, *trees, aliases: dict[str, str] | None = None,
             given: dict[str, int] | None = None):
    """Build a ``kind`` parameter tree (a dataclass whose fields are
    arrays, dataclasses or tuples of dataclasses) with
    ``fn(name, *leaves)`` at every array field, in declaration order.

    ``leaves`` are the same field of each of ``trees``.  ``name`` joins
    the field names with dots and tuple items by index; ``aliases``
    renames a field, and a field renamed to "" adds no level.  Tuple
    lengths come from ``given`` by field name, else from the first tree.
    This one walk flattens, rebuilds and updates every parameter tree of
    the package.
    """
    aliases, given = aliases or {}, given or {}

    def build(kind: type, trees, prefix: str):
        out = {}
        for field, hint in _field_hints(kind):
            name = ".".join(filter(None, (prefix, aliases.get(field, field))))
            subs = [getattr(t, field) for t in trees]
            if hint is np.ndarray:
                out[field] = fn(name, *subs)
            elif typing.get_origin(hint) is tuple:
                item = typing.get_args(hint)[0]
                count = given[field] if field in given else len(subs[0])
                out[field] = tuple(build(item, [s[i] for s in subs], f"{name}.{i}")
                                   for i in range(count))
            else:
                out[field] = build(hint, subs, name)
        return kind(**out)

    return build(kind, trees, "")


# values per piece of every chunked loop (RandomStream.gaussian, gelu,
# layer_norm's squares, the ranking sampler's T-wide rows): 256 KiB of
# float64 at most, so a loop's few working arrays stay in a core's 2 MiB
# L2 cache
_CHUNK = 1 << 15


class RandomStream:
    """Deterministic Gaussian source (PCG64); identical seeds give
    identical draws on every platform for a fixed numpy version."""

    algorithm = "pcg64"

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def gaussian(self, shape, scale: float | None = None) -> np.ndarray:
        """Standard-normal float32 samples, scaled in place by float32
        ``scale`` if one is given, drawn through float64 chunks (see the
        module docstring); draws are not flop-counted."""
        out = np.empty(shape, F32)
        flat = out.reshape(-1)
        chunk = np.empty(min(_CHUNK, flat.size))
        for lo in range(0, flat.size, _CHUNK):
            part = chunk[:flat.size - lo]
            self._gen.standard_normal(out=part)
            flat[lo:lo + part.size] = part
        if scale is not None:
            out *= F32(scale)
        return out

    def gaussian64(self, shape=None, out: np.ndarray | None = None) -> np.ndarray:
        """Same stream at float64, for the ranking path (see ranking
        module), drawn into ``out`` (C-contiguous float64) if one is given."""
        return self._gen.standard_normal(size=shape, out=out)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with 32-bit accumulation.

    2-D operands give the ordinary m x k @ k x n product; additional
    leading axes broadcast as a stack of matrices.
    """
    a = np.asarray(a, dtype=F32)
    b = np.asarray(b, dtype=F32)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    out = np.matmul(a, b)
    batch = 1
    if out.ndim > 2:
        batch = int(np.prod(out.shape[:-2], dtype=np.int64))
    _count(MACS_TO_FLOPS * batch * out.shape[-2] * a.shape[-1] * out.shape[-1])
    return out


def _product(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Uncounted x @ weight over x's last axis: one product over every
    row, or one stacked product where a stack's matrices would take
    numpy's matrix-vector path (see the module docstring)."""
    if x.ndim > 2 and (x.shape[-2] == 1 or weight.shape[1] == 1):
        return np.matmul(x, weight)
    return np.matmul(x.reshape(-1, weight.shape[0]), weight).reshape(
        x.shape[:-1] + weight.shape[1:])


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map along the channel (last) axis: x @ weight + bias, made
    by ``_product``."""
    x = np.asarray(x, dtype=F32)
    weight = np.asarray(weight, dtype=F32)
    if weight.ndim != 2:
        raise ShapeError(f"linear weight must be 2-D, got {weight.shape}")
    if x.ndim < 1 or x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear input channels {x.shape} do not match weight {weight.shape}")
    c_in, c_out = weight.shape
    tokens = x.size // c_in if c_in else 0
    out = _product(x, weight)
    flops = MACS_TO_FLOPS * tokens * c_in * c_out
    if bias is not None:
        bias = np.asarray(bias, dtype=F32)
        if bias.shape != (c_out,):
            raise ShapeError(f"linear bias shape {bias.shape} does not match out width {c_out}")
        out += bias
        flops += tokens * c_out
    _count(flops)
    return out


def _out_like(x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``out``, checked to be a C-contiguous float32 array of x's shape,
    or a fresh one."""
    if out is None:
        return np.empty_like(x)
    if out.shape != x.shape or out.dtype != F32 or not out.flags.c_contiguous:
        raise ShapeError(
            f"out must be a C-contiguous float32 array of shape {x.shape}, got "
            f"{out.dtype} {out.shape}")
    return out


def softmax_lastdim(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, stabilised by max subtraction, into
    ``out`` if one is given (it may be ``x`` itself)."""
    x = np.asarray(x, dtype=F32)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"softmax needs a non-empty last axis, got {x.shape}")
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=_out_like(x, out))
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True, dtype=F32)
    _count(SOFTMAX_FLOPS_PER_ELEMENT * x.size)
    return out


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int) -> np.ndarray:
    """Scaled dot-product attention, softmax(q k^T / sqrt(d)) v per head.

    q: [..., L_q, C], k and v: [..., L_k, C], whose leading axes
    broadcast.  Head j reads channels j*d .. (j+1)*d - 1, d = C / heads,
    and the heads' outputs are concatenated back to [..., L_q, C].
    Counted as its two matmuls and its softmax.
    """
    q, k, v = (np.asarray(a, dtype=F32) for a in (q, k, v))
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeError(
            f"attention needs [..., L, C] operands, got {q.shape}, {k.shape}, {v.shape}")
    c = q.shape[-1]
    if k.shape[-1] != c or v.shape[-1] != c or k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention operands disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    if heads < 1 or c % heads:
        raise ShapeError(f"head count {heads} must divide width {c}")
    d, l_q = c // heads, q.shape[-2]

    def split(x):  # [..., L, C] -> [..., heads, L, d]
        return np.swapaxes(x.reshape(*x.shape[:-1], heads, d), -3, -2)

    # each operand is dropped after its last reader, which frees it where
    # this call holds the only reference
    scores = matmul(split(q), np.swapaxes(split(k), -1, -2))  # [..., heads, L_q, L_k]
    del q, k
    scores /= F32(np.sqrt(d))
    softmax_lastdim(scores, out=scores)
    out = matmul(scores, split(v))                             # [..., heads, L_q, d]
    del scores, v
    return np.swapaxes(out, -3, -2).reshape(*out.shape[:-3], l_q, c)


def layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Per-token normalisation over the channel axis (population variance),
    holding one ``_CHUNK``-sized buffer of squares (at least one row)
    beside its output."""
    x = np.asarray(x, dtype=F32)
    gain = np.asarray(gain, dtype=F32)
    shift = np.asarray(shift, dtype=F32)
    if x.ndim < 1:
        raise ShapeError("layer_norm needs at least one axis")
    c = x.shape[-1]
    if gain.shape != (c,) or shift.shape != (c,):
        raise ShapeError(f"layer_norm gain/shift must have shape ({c},)")
    mu = x.mean(axis=-1, keepdims=True, dtype=F32)
    out = np.subtract(x, mu)
    # the variance of a chunk of rows at a time (see the module docstring)
    rows = out.reshape(math.prod(x.shape[:-1]), c)
    var = np.empty((len(rows), 1), F32)
    step = max(_CHUNK // max(c, 1), 1)
    square = np.empty((min(step, len(rows)), c), F32)
    for lo in range(0, len(rows), step):
        part = rows[lo:lo + step]
        np.mean(np.multiply(part, part, out=square[:len(part)]), axis=-1, keepdims=True,
                dtype=F32, out=var[lo:lo + step])
    out /= np.sqrt(var.reshape(mu.shape) + F32(1e-6))
    out *= gain
    out += shift
    _count(NORM_FLOPS_PER_ELEMENT * x.size)
    return out


def pooled_grid(shape: tuple[int, ...], h: int) -> tuple[int, int]:
    """The (M/h, N/h) grid that h x h pooling makes of [..., M, N, C]."""
    if len(shape) < 3:
        raise ShapeError(f"avgpool needs [..., M, N, C], got {shape}")
    if h < 1:
        raise ShapeError(f"pool factor must be >= 1, got {h}")
    m, n = shape[-3:-1]
    if m % h or n % h:
        raise ShapeError(f"pool factor {h} does not divide grid {m}x{n}")
    return m // h, n // h


def avgpool_downsample(t: np.ndarray, h: int) -> np.ndarray:
    """Mean over non-overlapping h x h spatial blocks (axes -3, -2)."""
    t = np.asarray(t, dtype=F32)
    h = int(h)
    ml, nl = pooled_grid(t.shape, h)
    return mean_pool(t.reshape(*t.shape[:-3], ml, h, nl, h, t.shape[-1]), axes=(-4, -2))


def mean_pool(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Mean over the given axes, counted as pooling (1 flop per input element)."""
    x = np.asarray(x, dtype=F32)
    if not axes:
        raise ShapeError("mean_pool needs at least one axis")
    out = x.mean(axis=tuple(axes), dtype=F32)
    _count(POOL_FLOPS_PER_ELEMENT * x.size)
    return out


def _check_conv(x: np.ndarray, kernel_shape: tuple[int, ...]) -> None:
    """Validate a [T, M, N, C_in] or [B, T, M, N, C_in] input against a
    [kt, kh, kw, C_in, C_out] kernel shape."""
    if x.ndim not in (4, 5):
        raise ShapeError(f"conv3d input must be [T, M, N, C] or [B, T, M, N, C], got {x.shape}")
    if len(kernel_shape) != 5:
        raise ShapeError(f"conv3d kernel must be [kt, kh, kw, Cin, Cout], got {kernel_shape}")
    if any(e % 2 == 0 for e in kernel_shape[:3]):
        raise ShapeError(f"conv3d kernel extents must be odd, got {kernel_shape[:3]}")
    if x.shape[-1] != kernel_shape[3]:
        raise ShapeError(f"conv3d channels {x.shape[-1]} do not match kernel {kernel_shape[3]}")


@functools.lru_cache(maxsize=64)
def _tap_plan(extents: tuple[int, ...], lengths: tuple[int, ...]) -> tuple:
    """For each tap of a kernel of the given (time, height, width)
    extents over a video of the given lengths, in tap order: the tap, the
    window's index that the input fills, the input's index that fills
    it, and the window's border strips, which are zero."""
    axes = []  # per axis and tap offset: (destination, source, border strips)
    for axis, (extent, length) in enumerate(zip(extents, lengths)):
        shifts = []
        for d in range(extent):
            shift = d - extent // 2
            lo = min(max(-shift, 0), length)
            hi = max(min(length - shift, length), lo)
            strips = tuple((...,) + (slice(None),) * axis + (s,) + (slice(None),) * (3 - axis)
                           for s in (slice(0, lo), slice(hi, length)) if s.stop > s.start)
            shifts.append((slice(lo, hi), slice(lo + shift, hi + shift), strips))
        axes.append(shifts)
    return tuple(
        ((dt, dh, dw), (..., t[0], m[0], n[0], slice(None)),
         (..., t[1], m[1], n[1], slice(None)), t[2] + m[2] + n[2])
        for dt, t in enumerate(axes[0]) for dh, m in enumerate(axes[1])
        for dw, n in enumerate(axes[2]))


def _tap_windows(x: np.ndarray, extents: tuple[int, ...]):
    """The one window walk behind ``conv3d`` and its kernel gradient:
    yield ``(tap, window)`` for every tap of a kernel of the given
    (time, height, width) extents, in tap order.  ``window`` is one
    C-contiguous input-shaped buffer, refilled for each tap with what the
    tap reads of the input zero-padded by half the extents on its last
    four axes: the shifted input, and zeros in the border strips that the
    shift leaves uncovered.  No padded copy of the input is made."""
    window = np.empty(x.shape, F32)
    for tap, dst, src, strips in _tap_plan(tuple(extents), x.shape[-4:-1]):
        window[dst] = x[src]
        for strip in strips:
            window[strip] = 0
        yield tap, window


def conv3d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-padded cross-correlation over (time, height, width).

    x: [T, M, N, C_in] or a stack [B, T, M, N, C_in] of videos, kernel:
    [kt, kh, kw, C_in, C_out] with odd spatial/temporal extents.  Returns
    [(B,) T, M, N, C_out]; each video of a stack is bitwise its own call.
    Each tap is one ``_product`` of its window (see ``_tap_windows``) with
    the tap's [C_in, C_out] matrix, added into the output in tap order.
    """
    x = np.asarray(x, dtype=F32)
    kernel = np.asarray(kernel, dtype=F32)
    _check_conv(x, kernel.shape)
    c_in, c_out = kernel.shape[-2:]
    lead, rows = x.shape[:-4], math.prod(x.shape[-4:-1])
    out = np.zeros(lead + (rows, c_out), dtype=F32)
    for tap, window in _tap_windows(x, kernel.shape[:3]):
        out += _product(window.reshape(lead + (rows, c_in)), kernel[tap])
    _count(MACS_TO_FLOPS * out.size * math.prod(kernel.shape[:3]) * c_in)
    return out.reshape(x.shape[:-1] + (c_out,))


def conv3d_kernel_grad(x: np.ndarray, d_out: np.ndarray,
                       kernel_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of sum(d_out * conv3d(x, K)) with respect to K.

    x: [T, M, N, C_in], d_out: [T, M, N, C_out]; returns a kernel-shaped
    [kt, kh, kw, C_in, C_out] array, each tap the product
    window^T @ d_out of the tap's [T*M*N, C_in] window and the
    [T*M*N, C_out] output gradient.  Given a stack [B, T, M, N, C_in]
    and [B, T, M, N, C_out], returns the per-video gradients
    [B, kt, kh, kw, C_in, C_out], each bitwise its own call.  Counted
    like the forward conv.
    """
    x = np.asarray(x, dtype=F32)
    d_out = np.asarray(d_out, dtype=F32)
    kernel_shape = tuple(int(e) for e in kernel_shape)
    _check_conv(x, kernel_shape)
    if d_out.shape != x.shape[:-1] + kernel_shape[-1:]:
        raise ShapeError(
            f"conv3d output gradient must be {x.shape[:-1] + kernel_shape[-1:]}, "
            f"got {d_out.shape}"
        )
    c_in, c_out = kernel_shape[-2:]
    lead = x.shape[:-4]
    rows = math.prod(x.shape[-4:-1])
    grad = np.zeros(lead + kernel_shape, dtype=F32)
    videos = (slice(None),) * len(lead)
    # a stack makes one product per video, each the one its own call makes
    d_rows = d_out.reshape(lead + (rows, c_out))
    for tap, window in _tap_windows(x, kernel_shape[:3]):
        grad[videos + tap] = np.swapaxes(window.reshape(lead + (rows, c_in)), -1, -2) @ d_rows
    _count(MACS_TO_FLOPS * d_out.size * math.prod(kernel_shape[:3]) * c_in)
    return grad


def relu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=F32)
    out = np.maximum(x, F32(0))
    _count(NONLINEARITY_FLOPS_PER_ELEMENT * x.size)
    return out


# Numerical Recipes erfcc: erfc(z) = t exp(-z^2 + P(t)), t = 1 / (1 + z/2).
# With z = a / sqrt 2 this gives Phi(-a) = t exp(P(t) - ln 2 - a^2 / 2),
# t = 2 sqrt 2 / (2 sqrt 2 + a); the ln 2 is folded into the constant term.
_ERFCC = (-1.26551223, 1.00002368, 0.37409196, 0.09678418, -0.18628806,
          0.27886807, -1.13520398, 1.48851587, -0.82215223, 0.17087277)
_PHI_C0 = F32(_ERFCC[0] - math.log(2.0))
_PHI_HORNER = tuple(F32(c) for c in _ERFCC[:0:-1])  # highest degree first
_PHI_T_SCALE = F32(2.0 * math.sqrt(2.0))
# |x| is clamped so that no intermediate is subnormal (subnormal float32
# ufuncs run ~4x slower).  The smallest intermediate is t exp(...) =
# Phi(-a), and Phi(-a) = finfo(F32).tiny = 1.1755e-38 at a = 12.9500;
# evaluated in float32, t exp(...) first drops below tiny at a = 12.949953.
# At 12.94 it is 1.34e-38, 14% above tiny, so a last-ulp difference in
# exp cannot cross it.  Above the clamp gelu(x) = x to float32 precision;
# below -clamp it returns -12.94 Phi(-12.94) = -1.7e-37, where the exact
# value is smaller still.
_GELU_CLAMP = F32(12.94)


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact (erf-based) GELU, x Phi(x), as relu(x) - |x| Phi(-|x|), into
    ``out`` if one is given (it may be ``x`` itself).

    Runs over contiguous blocks of ``_CHUNK`` elements with out= ufuncs
    only; see the module docstring for the erfc fit and its tested error.
    """
    x = np.asarray(x, dtype=F32, order="C")
    out = _out_like(x, out)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    width = min(_CHUNK, flat_x.size)
    a_buf, t_buf, p_buf, q_buf = (np.empty(width, F32) for _ in range(4))
    for lo in range(0, flat_x.size, _CHUNK):
        xb = flat_x[lo:lo + _CHUNK]
        ob = flat_out[lo:lo + _CHUNK]
        a, t, p, q = a_buf[:xb.size], t_buf[:xb.size], p_buf[:xb.size], q_buf[:xb.size]
        np.abs(xb, out=a)
        np.minimum(a, _GELU_CLAMP, out=a)
        np.add(a, _PHI_T_SCALE, out=t)
        np.divide(_PHI_T_SCALE, t, out=t)
        np.multiply(t, _PHI_HORNER[0], out=p)
        for c in _PHI_HORNER[1:]:
            p += c
            p *= t
        p += _PHI_C0
        np.multiply(a, a, out=q)
        q *= F32(0.5)
        p -= q
        np.exp(p, out=p)
        p *= t
        p *= a                     # p = |x| Phi(-|x|)
        # ob may be xb: x is read here for the last time
        np.maximum(xb, F32(0), out=ob)
        ob -= p
    _count(NONLINEARITY_FLOPS_PER_ELEMENT * x.size)
    return out


def l2_normalize(x: np.ndarray) -> np.ndarray:
    """Scale the last axis to unit Euclidean norm."""
    x = np.asarray(x, dtype=F32)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"l2_normalize needs a non-empty last axis, got {x.shape}")
    norm = np.sqrt(np.sum(x * x, axis=-1, keepdims=True, dtype=F32))
    out = x / np.maximum(norm, F32(1e-12))
    _count(NORM_FLOPS_PER_ELEMENT * x.size)
    return out
