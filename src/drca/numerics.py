"""Dense float32 numeric kernels shared by every other module.

All public operations take and return float32 arrays and are pure
functions of their inputs; the only stateful object is RandomStream,
which advances explicitly.  Video tokens follow the layout convention
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
batch bitwise.  A single row, or a weight with a single column, takes
numpy's matrix-vector path, where a row's last bits depend on its place
in the call.

``attention`` is the one scaled dot-product attention, softmax(q k^T /
sqrt(d)) v per head: the transformer layers call it with their head
count, the compressor with one head and 2-D keys and values that
broadcast against its queries.  Its cost is that of its two matmuls and
its softmax.

GELU is the exact erf form, evaluated as relu(x) - |x| Phi(-|x|) with
Phi(-a) = erfc(a / sqrt 2) / 2 and erfc from the Numerical Recipes
``erfcc`` fit (relative error below 1.2e-7 in exact arithmetic).  In
float32 its tested error is at most 3e-7 absolute over [-40, 40] and
within (1e-7 + 1e-6 |gelu(x)|) / 2 at every point; |x| is clamped so
that neither the output nor any intermediate is subnormal.

``conv3d`` and its kernel gradient ``conv3d_kernel_grad`` share one
padded-window walk.  Both take a [T, M, N, C] video or a stack
[B, T, M, N, C] of videos; the walk pads only the last four axes, so
each video of a stack gets bitwise the result of its own call, and the
kernel gradient of a stack is the per-video gradients, not their sum.
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


class RandomStream:
    """Deterministic Gaussian source (PCG64); identical seeds give
    identical draws on every platform for a fixed numpy version."""

    algorithm = "pcg64"

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def gaussian(self, shape) -> np.ndarray:
        """Standard-normal float32 samples; draws are not flop-counted."""
        return self._gen.standard_normal(size=shape).astype(F32)

    def gaussian64(self, shape) -> np.ndarray:
        """Same stream at float64, for the ranking path (see ranking module)."""
        return self._gen.standard_normal(size=shape)

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


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map along the channel (last) axis: x @ weight + bias."""
    x = np.asarray(x, dtype=F32)
    weight = np.asarray(weight, dtype=F32)
    if weight.ndim != 2:
        raise ShapeError(f"linear weight must be 2-D, got {weight.shape}")
    if x.ndim < 1 or x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear input channels {x.shape} do not match weight {weight.shape}")
    c_in, c_out = weight.shape
    tokens = x.size // c_in if c_in else 0
    out = np.matmul(x.reshape(-1, c_in), weight)
    flops = MACS_TO_FLOPS * tokens * c_in * c_out
    if bias is not None:
        bias = np.asarray(bias, dtype=F32)
        if bias.shape != (c_out,):
            raise ShapeError(f"linear bias shape {bias.shape} does not match out width {c_out}")
        out += bias
        flops += tokens * c_out
    _count(flops)
    return out.reshape(x.shape[:-1] + (c_out,))


def softmax_lastdim(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, stabilised by max subtraction."""
    x = np.asarray(x, dtype=F32)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"softmax needs a non-empty last axis, got {x.shape}")
    out = np.subtract(x, x.max(axis=-1, keepdims=True))
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
    d = c // heads

    def split(x):  # [..., L, C] -> [..., heads, L, d]
        return np.swapaxes(x.reshape(*x.shape[:-1], heads, d), -3, -2)

    scores = matmul(split(q), np.swapaxes(split(k), -1, -2))  # [..., heads, L_q, L_k]
    scores /= F32(np.sqrt(d))
    scores = softmax_lastdim(scores)  # rebound, so the raw scores are freed before v
    out = matmul(scores, split(v))                             # [..., heads, L_q, d]
    return np.swapaxes(out, -3, -2).reshape(*out.shape[:-3], q.shape[-2], c)


def layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Per-token normalisation over the channel axis (population variance)."""
    x = np.asarray(x, dtype=F32)
    gain = np.asarray(gain, dtype=F32)
    shift = np.asarray(shift, dtype=F32)
    if x.ndim < 1:
        raise ShapeError("layer_norm needs at least one axis")
    c = x.shape[-1]
    if gain.shape != (c,) or shift.shape != (c,):
        raise ShapeError(f"layer_norm gain/shift must have shape ({c},)")
    if eps <= 0:
        raise ShapeError("layer_norm eps must be positive")
    mu = x.mean(axis=-1, keepdims=True, dtype=F32)
    out = np.subtract(x, mu)
    var = np.mean(np.multiply(out, out), axis=-1, keepdims=True, dtype=F32)
    out /= np.sqrt(var + F32(eps))
    out *= gain
    out += shift
    _count(NORM_FLOPS_PER_ELEMENT * x.size)
    return out


def avgpool_downsample(t: np.ndarray, h: int) -> np.ndarray:
    """Mean over non-overlapping h x h spatial blocks (axes -3, -2)."""
    t = np.asarray(t, dtype=F32)
    if t.ndim < 3:
        raise ShapeError(f"avgpool needs [..., M, N, C], got {t.shape}")
    h = int(h)
    if h < 1:
        raise ShapeError(f"pool factor must be >= 1, got {h}")
    m, n, c = t.shape[-3:]
    if m % h or n % h:
        raise ShapeError(f"pool factor {h} does not divide grid {m}x{n}")
    return mean_pool(t.reshape(*t.shape[:-3], m // h, h, n // h, h, c), axes=(-4, -2))


def nearest_upsample(t: np.ndarray, h: int) -> np.ndarray:
    """Replicate each grid cell into an h x h block; pure copy, zero flops."""
    t = np.asarray(t, dtype=F32)
    if t.ndim < 3:
        raise ShapeError(f"upsample needs [..., M, N, C], got {t.shape}")
    h = int(h)
    if h < 1:
        raise ShapeError(f"upsample factor must be >= 1, got {h}")
    return t.repeat(h, axis=-3).repeat(h, axis=-2)


def mean_pool(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Mean over the given axes, counted as pooling (1 flop per input element)."""
    x = np.asarray(x, dtype=F32)
    if not axes:
        raise ShapeError("mean_pool needs at least one axis")
    out = x.mean(axis=tuple(axes), dtype=F32)
    _count(POOL_FLOPS_PER_ELEMENT * x.size)
    return out


def _padded_windows(x: np.ndarray, kernel_shape: tuple[int, ...]):
    """The one window walk behind ``conv3d`` and its kernel gradient:
    validate a [T, M, N, C_in] or [B, T, M, N, C_in] input against a
    [kt, kh, kw, C_in, C_out] kernel shape, zero-pad its last four axes
    by half the kernel extents, and return ``(tap, window)`` for every
    kernel tap, ``window`` being the input-shaped view that tap reads."""
    if x.ndim not in (4, 5):
        raise ShapeError(f"conv3d input must be [T, M, N, C] or [B, T, M, N, C], got {x.shape}")
    if len(kernel_shape) != 5:
        raise ShapeError(f"conv3d kernel must be [kt, kh, kw, Cin, Cout], got {kernel_shape}")
    kt, kh, kw, c_in, _ = kernel_shape
    if kt % 2 == 0 or kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv3d kernel extents must be odd, got {(kt, kh, kw)}")
    if x.shape[-1] != c_in:
        raise ShapeError(f"conv3d channels {x.shape[-1]} do not match kernel {c_in}")
    t, m, n, _ = x.shape[-4:]
    pad = ((0, 0),) * (x.ndim - 4) + ((kt // 2,) * 2, (kh // 2,) * 2, (kw // 2,) * 2, (0, 0))
    xp = np.pad(x, pad)
    return [((dt, dh, dw), xp[..., dt:dt + t, dh:dh + m, dw:dw + n, :])
            for dt in range(kt) for dh in range(kh) for dw in range(kw)]


def conv3d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-padded cross-correlation over (time, height, width).

    x: [T, M, N, C_in] or a stack [B, T, M, N, C_in] of videos, kernel:
    [kt, kh, kw, C_in, C_out] with odd spatial/temporal extents.  Returns
    [(B,) T, M, N, C_out]; each video of a stack is bitwise its own call.
    """
    x = np.asarray(x, dtype=F32)
    kernel = np.asarray(kernel, dtype=F32)
    windows = _padded_windows(x, kernel.shape)
    out = np.zeros(x.shape[:-1] + kernel.shape[-1:], dtype=F32)
    for tap, window in windows:
        out += np.matmul(window, kernel[tap])
    _count(MACS_TO_FLOPS * out.size * len(windows) * kernel.shape[3])
    return out


def conv3d_kernel_grad(x: np.ndarray, d_out: np.ndarray,
                       kernel_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of sum(d_out * conv3d(x, K)) with respect to K.

    x: [T, M, N, C_in], d_out: [T, M, N, C_out]; returns a kernel-shaped
    [kt, kh, kw, C_in, C_out] array, each tap the window-by-gradient
    contraction over time and space.  Given a stack [B, T, M, N, C_in]
    and [B, T, M, N, C_out], returns the per-video gradients
    [B, kt, kh, kw, C_in, C_out], each bitwise its own call.  Counted
    like the forward conv.
    """
    x = np.asarray(x, dtype=F32)
    d_out = np.asarray(d_out, dtype=F32)
    kernel_shape = tuple(int(e) for e in kernel_shape)
    windows = _padded_windows(x, kernel_shape)
    if d_out.shape != x.shape[:-1] + kernel_shape[-1:]:
        raise ShapeError(
            f"conv3d output gradient must be {x.shape[:-1] + kernel_shape[-1:]}, "
            f"got {d_out.shape}"
        )
    grad = np.zeros(x.shape[:-4] + kernel_shape, dtype=F32)
    videos = (slice(None),) * (x.ndim - 4)
    for tap, window in windows:
        # einsum runs ~3x faster on a contiguous copy of the window than on
        # the strided view, and takes the same loops for a stack as for
        # each of its videos
        grad[videos + tap] = np.einsum("...tmnc,...tmno->...co", np.ascontiguousarray(window),
                                       d_out, dtype=F32, casting="same_kind")
    _count(MACS_TO_FLOPS * d_out.size * len(windows) * kernel_shape[3])
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
# elements per pass: the ~30 ufunc passes over a block stay in cache
_GELU_BLOCK = 1 << 15


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) GELU, x Phi(x), as relu(x) - |x| Phi(-|x|).

    Runs over contiguous blocks with out= ufuncs only; see the module
    docstring for the erfc fit and its tested error.
    """
    x = np.asarray(x, dtype=F32, order="C")
    out = np.empty_like(x)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    width = min(_GELU_BLOCK, flat_x.size)
    a_buf, t_buf, p_buf = (np.empty(width, F32) for _ in range(3))
    for lo in range(0, flat_x.size, _GELU_BLOCK):
        xb = flat_x[lo:lo + _GELU_BLOCK]
        ob = flat_out[lo:lo + _GELU_BLOCK]
        a, t, p = a_buf[:xb.size], t_buf[:xb.size], p_buf[:xb.size]
        np.abs(xb, out=a)
        np.minimum(a, _GELU_CLAMP, out=a)
        np.add(a, _PHI_T_SCALE, out=t)
        np.divide(_PHI_T_SCALE, t, out=t)
        np.multiply(t, _PHI_HORNER[0], out=p)
        for c in _PHI_HORNER[1:]:
            p += c
            p *= t
        p += _PHI_C0
        np.multiply(a, a, out=ob)  # ob is scratch until the last two lines
        ob *= F32(0.5)
        p -= ob
        np.exp(p, out=p)
        p *= t
        p *= a                     # p = |x| Phi(-|x|)
        np.maximum(xb, F32(0), out=ob)
        ob -= p
    _count(NONLINEARITY_FLOPS_PER_ELEMENT * x.size)
    return out


def l2_normalize(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Scale the last axis to unit Euclidean norm."""
    x = np.asarray(x, dtype=F32)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError(f"l2_normalize needs a non-empty last axis, got {x.shape}")
    norm = np.sqrt(np.sum(x * x, axis=-1, keepdims=True, dtype=F32))
    out = x / np.maximum(norm, F32(eps))
    _count(NORM_FLOPS_PER_ELEMENT * x.size)
    return out
