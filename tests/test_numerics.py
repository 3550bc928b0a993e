"""Kernel correctness against slow independent oracles (explicit loops,
float64 twins) plus the flop-counting contract."""

import ast
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erfc

import drca

from drca import dccm, numerics, rat
from drca.numerics import (
    F32,
    FlopCounter,
    RandomStream,
    ShapeError,
    attention,
    avgpool_downsample,
    conv3d,
    conv3d_kernel_grad,
    gelu,
    l2_normalize,
    layer_norm,
    linear,
    matmul,
    mean_pool,
    relu,
    softmax_lastdim,
)


def _stream(seed=0):
    return RandomStream(seed)


# --- matmul / linear ---------------------------------------------------

def _matmul_oracle(a, b):
    # explicit triple loop in float64
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def test_matmul_against_triple_loop():
    s = _stream(1)
    a = s.gaussian((5, 7))
    b = s.gaussian((7, 3))
    np.testing.assert_allclose(matmul(a, b), _matmul_oracle(a, b),
                               rtol=1e-5, atol=1e-6)


def test_matmul_batched_matches_per_slice():
    s = _stream(2)
    a = s.gaussian((4, 2, 3, 5))
    b = s.gaussian((4, 2, 5, 6))
    out = matmul(a, b)
    assert out.shape == (4, 2, 3, 6)
    for i in range(4):
        for j in range(2):
            np.testing.assert_allclose(
                out[i, j], _matmul_oracle(a[i, j], b[i, j]), rtol=1e-5, atol=1e-6
            )


def test_matmul_rejects_mismatched_inner():
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3), F32), np.zeros((4, 2), F32))
    with pytest.raises(ShapeError):
        matmul(np.zeros(3, F32), np.zeros((3, 2), F32))


def test_linear_matches_affine_oracle():
    s = _stream(3)
    x = s.gaussian((2, 3, 5))
    w = s.gaussian((5, 4))
    b = s.gaussian(4)
    want = np.einsum("tmc,co->tmo", x.astype(np.float64), w.astype(np.float64))
    want = want + b.astype(np.float64)
    np.testing.assert_allclose(linear(x, w, b), want, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(linear(x, w), want - b, rtol=1e-5, atol=1e-6)


def test_linear_row_slice_is_bitwise_the_full_rows():
    # slice independence holds for slices of two or more rows; a single
    # row goes through numpy's matrix-vector path and may differ in the
    # last bits
    s = _stream(18)
    x = s.gaussian((1568, 384))
    w = s.gaussian((384, 96))
    b = s.gaussian(96)
    full = linear(x, w, b)
    for lo, hi in [(0, 2), (5, 37), (100, 900), (1566, 1568), (0, 1568)]:
        assert np.array_equal(linear(x[lo:hi], w, b), full[lo:hi]), (lo, hi)
    frames = x.reshape(8, 196, 384)
    assert np.array_equal(linear(frames[3:5], w, b), full[3 * 196:5 * 196].reshape(2, 196, 96))


def test_linear_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        linear(np.zeros((2, 5), F32), np.zeros((4, 3), F32))
    with pytest.raises(ShapeError):
        linear(np.zeros((2, 5), F32), np.zeros((5, 3), F32), np.zeros(4, F32))


# --- softmax -----------------------------------------------------------

def _softmax_oracle(x):
    x = np.asarray(x, np.float64)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_softmax_against_float64_oracle():
    x = _stream(4).gaussian((3, 4, 9)) * F32(3)
    np.testing.assert_allclose(softmax_lastdim(x), _softmax_oracle(x),
                               rtol=1e-5, atol=1e-7)


def test_softmax_extreme_logits_stay_finite():
    x = np.array([[1000.0, 0.0, -1000.0], [-2000.0, -2000.0, -2000.0]], F32)
    out = softmax_lastdim(x)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
    np.testing.assert_allclose(out[0], [1.0, 0.0, 0.0], atol=1e-7)


@settings(max_examples=60, deadline=None)
@given(arrays(F32, (4, 7), elements=st.floats(-50, 50, width=32)))
def test_softmax_rows_always_normalised(x):
    out = softmax_lastdim(x)
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-5)


# --- attention ---------------------------------------------------------

def _attention_oracle(q, k, v, heads):
    # float64 loops over the broadcast leading index, the head and the query
    q, k, v = (np.asarray(a, np.float64) for a in (q, k, v))
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    q, k, v = (np.broadcast_to(a, lead + a.shape[-2:]) for a in (q, k, v))
    d = q.shape[-1] // heads
    out = np.zeros(lead + q.shape[-2:])
    for idx in np.ndindex(*lead):
        for head in range(heads):
            cols = slice(head * d, (head + 1) * d)
            for i in range(q.shape[-2]):
                logits = [float(q[idx][i, cols] @ k[idx][j, cols]) / math.sqrt(d)
                          for j in range(k.shape[-2])]
                weights = _softmax_oracle(np.array(logits))
                out[idx][i, cols] = sum(w * v[idx][j, cols] for j, w in enumerate(weights))
    return out


@pytest.mark.parametrize("heads", [1, 2, 3])
@pytest.mark.parametrize("q_shape,kv_shape", [
    ((2, 3, 5, 6), (2, 3, 4, 6)),  # self-attention shapes, stacked
    ((3, 5, 6), (7, 6)),           # 2-D keys and values, as the compressor passes
    ((0, 5, 6), (4, 6)),           # empty leading axis
])
def test_attention_against_float64_loop_oracle(heads, q_shape, kv_shape):
    s = _stream(30 + heads)
    q, k, v = (s.gaussian(shape) * F32(2) for shape in (q_shape, kv_shape, kv_shape))
    with FlopCounter() as fc:
        out = attention(q, k, v, heads)
    assert out.dtype == F32 and out.shape == q_shape
    np.testing.assert_allclose(out, _attention_oracle(q, k, v, heads), rtol=1e-5, atol=1e-6)
    # counted as q k^T, its softmax and the product with v, nothing more
    groups, (lq, c), lk = math.prod(q_shape[:-2]), q_shape[-2:], kv_shape[-2]
    assert fc.total == groups * (2 * lq * lk * c + 5 * heads * lq * lk + 2 * lq * lk * c)


@pytest.mark.parametrize("q_shape,k_shape,v_shape,heads,match", [
    ((3, 6), (4, 6), (4, 6), 0, "head count"),
    ((3, 6), (4, 6), (4, 6), 4, "head count"),
    ((3, 6), (4, 5), (4, 6), 1, "disagree"),
    ((3, 6), (4, 6), (4, 3), 3, "disagree"),
    ((3, 6), (4, 6), (5, 6), 2, "disagree"),
    ((6,), (4, 6), (4, 6), 1, "needs"),
])
def test_attention_rejects_bad_operands(q_shape, k_shape, v_shape, heads, match):
    s = _stream(35)
    with pytest.raises(ShapeError, match=match):
        attention(s.gaussian(q_shape), s.gaussian(k_shape), s.gaussian(v_shape), heads)


def test_layers_call_no_matmul_or_softmax_of_their_own():
    # one kernel per op: the attention sites reach matmul and softmax only
    # through numerics.attention
    banned = {"matmul", "softmax_lastdim"}
    for module in (rat, dccm):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name) and func.value.id == "numerics"
                    else getattr(func, "id", None))
            assert name not in banned, f"{module.__name__} line {node.lineno} calls {name}"


# --- layer norm --------------------------------------------------------

def test_layer_norm_against_float64_oracle():
    s = _stream(5)
    x = s.gaussian((3, 4, 8)) * F32(2) + F32(0.7)
    gain = s.gaussian(8)
    shift = s.gaussian(8)
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    var = ((x64 - mu) ** 2).mean(axis=-1, keepdims=True)  # population variance
    want = (x64 - mu) / np.sqrt(var + 1e-6) * gain + shift
    np.testing.assert_allclose(layer_norm(x, gain, shift), want,
                               rtol=1e-4, atol=1e-5)


def test_layer_norm_output_moments():
    x = _stream(6).gaussian((50, 32)) * F32(4) - F32(1)
    out = layer_norm(x, np.ones(32, F32), np.zeros(32, F32))
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose((out * out).mean(axis=-1), 1.0, atol=1e-3)


def _layer_norm_full_square(x, gain, shift):
    # the kernel's former variance: one full-size square of the centred input
    mu = x.mean(axis=-1, keepdims=True, dtype=F32)
    out = np.subtract(x, mu)
    var = np.mean(np.multiply(out, out), axis=-1, keepdims=True, dtype=F32)
    out /= np.sqrt(var + F32(1e-6))
    out *= gain
    out += shift
    return out


# rows per chunk of squares: 85 at C = 384, 10922 at C = 3, 32768 at C = 1,
# one row at C > _CHUNK
@pytest.mark.parametrize("shape", [
    (384,), (84, 384), (85, 384), (86, 384), (2, 85, 384), (3, 57, 384),
    (10922, 3), (10923, 3), (32769, 1), (3, numerics._CHUNK + 5), (0, 8), (4, 0, 8),
])
def test_layer_norm_in_chunks_is_bitwise_the_full_square(shape):
    s = _stream(9)
    x = s.gaussian(shape) * F32(3) + F32(0.5)
    gain, shift = s.gaussian(shape[-1]), s.gaussian(shape[-1])
    got = layer_norm(x, gain, shift)
    assert got.shape == x.shape
    assert got.tobytes() == _layer_norm_full_square(x, gain, shift).tobytes()


@pytest.mark.parametrize("shape", [(1568, 384), (784, 1536), (9, numerics._CHUNK + 5)])
def test_layer_norm_holds_its_output_and_one_chunk(shape):
    # beside its output: one chunk of squares (one row where a row is
    # longer), four [rows, 1] columns (the mean, the variance and the two
    # steps of its root) and numpy's reduction buffer.  A full-size
    # square would not fit
    x = _stream(10).gaussian(shape)
    gain, shift = np.ones(shape[-1], F32), np.zeros(shape[-1], F32)
    rows = shape[0]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = layer_norm(x, gain, shift)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    budget = (out.nbytes + 4 * max(numerics._CHUNK, shape[-1]) + 4 * 4 * rows
              + 4 * np.getbufsize())
    assert peak <= budget, (peak, budget)


def test_layer_norm_rejects_bad_shape():
    x = np.zeros((2, 4), F32)
    with pytest.raises(ShapeError):
        layer_norm(x, np.ones(3, F32), np.zeros(4, F32))
    with pytest.raises(ShapeError):
        layer_norm(x, np.ones(4, F32), np.zeros(3, F32))
    with pytest.raises(ShapeError):
        layer_norm(np.float32(1.0), np.ones(1, F32), np.zeros(1, F32))


# --- pooling / upsampling ---------------------------------------------

def test_avgpool_against_block_mean_oracle():
    x = _stream(7).gaussian((3, 6, 4, 5))
    out = avgpool_downsample(x, 2)
    assert out.shape == (3, 3, 2, 5)
    x64 = x.astype(np.float64)
    for f in range(3):
        for i in range(3):
            for j in range(2):
                block = x64[f, 2 * i:2 * i + 2, 2 * j:2 * j + 2, :]
                np.testing.assert_allclose(out[f, i, j], block.mean(axis=(0, 1)),
                                           rtol=1e-6, atol=1e-7)


def test_avgpool_rejects_non_dividing_factor():
    with pytest.raises(ShapeError):
        avgpool_downsample(np.zeros((2, 5, 4, 3), F32), 2)


def _upsampled(x, h):
    # nearest upsampling: each grid cell repeated into an h x h block
    return np.repeat(np.repeat(x, h, axis=-3), h, axis=-2)


def test_pool_of_upsample_is_identity_h2():
    # mean of four identical values is exact arithmetic at h=2
    x = _stream(9).gaussian((2, 3, 3, 4))
    assert np.array_equal(avgpool_downsample(_upsampled(x, 2), 2), x)


@settings(max_examples=40, deadline=None)
@given(arrays(F32, (1, 2, 2, 3), elements=st.floats(-8, 8, width=32)))
def test_pool_upsample_identity_property(x):
    assert np.array_equal(avgpool_downsample(_upsampled(x, 2), 2), x)


def test_mean_pool_matches_numpy_mean():
    x = _stream(10).gaussian((4, 3, 5, 6))
    np.testing.assert_allclose(mean_pool(x, (1, 2)),
                               x.astype(np.float64).mean(axis=(1, 2)),
                               rtol=1e-6, atol=1e-7)


# --- conv3d ------------------------------------------------------------

def _conv3d_oracle(x, kernel):
    # six explicit loops over output position and kernel offset, float64
    x = np.asarray(x, np.float64)
    kernel = np.asarray(kernel, np.float64)
    t, m, n, c_in = x.shape
    kt, kh, kw, _, c_out = kernel.shape
    xp = np.pad(x, ((kt // 2,) * 2, (kh // 2,) * 2, (kw // 2,) * 2, (0, 0)))
    out = np.zeros((t, m, n, c_out))
    for ot in range(t):
        for om in range(m):
            for on in range(n):
                for dt in range(kt):
                    for dh in range(kh):
                        for dw in range(kw):
                            patch = xp[ot + dt, om + dh, on + dw]
                            out[ot, om, on] += patch @ kernel[dt, dh, dw]
    return out


def test_conv3d_against_six_loop_oracle():
    s = _stream(11)
    x = s.gaussian((3, 4, 4, 2))
    kernel = s.gaussian((3, 3, 3, 2, 5))
    np.testing.assert_allclose(conv3d(x, kernel), _conv3d_oracle(x, kernel),
                               rtol=1e-4, atol=1e-5)


def test_conv3d_1x1x1_is_a_linear_map():
    s = _stream(12)
    x = s.gaussian((2, 3, 3, 4))
    kernel = s.gaussian((1, 1, 1, 4, 6))
    np.testing.assert_allclose(conv3d(x, kernel), linear(x, kernel[0, 0, 0]),
                               rtol=1e-6, atol=1e-7)


def test_conv3d_rejects_even_kernel_and_channel_mismatch():
    x = np.zeros((2, 4, 4, 3), F32)
    with pytest.raises(ShapeError):
        conv3d(x, np.zeros((2, 3, 3, 3, 1), F32))
    with pytest.raises(ShapeError):
        conv3d(x, np.zeros((3, 3, 3, 5, 1), F32))


def _conv3d_tap_loop(x, kernel):
    # the stacked per-tap loop conv3d replaced: one matmul of each tap's
    # strided window view with the tap's matrix, added in tap order
    kt, kh, kw = kernel.shape[:3]
    t, m, n = x.shape[-4:-1]
    xp = np.pad(x, ((0, 0),) * (x.ndim - 4)
                + ((kt // 2,) * 2, (kh // 2,) * 2, (kw // 2,) * 2, (0, 0)))
    out = np.zeros(x.shape[:-1] + kernel.shape[-1:], F32)
    for dt in range(kt):
        for dh in range(kh):
            for dw in range(kw):
                out += np.matmul(xp[..., dt:dt + t, dh:dh + m, dw:dw + n, :], kernel[dt, dh, dw])
    return out


@pytest.mark.parametrize("x_shape, kernel_shape", [
    ((32, 8, 2, 2, 8), (3, 3, 3, 8, 4)),     # a toy-train block of planted videos
    ((8, 2, 2, 8), (3, 3, 3, 8, 4)),         # one planted video
    ((8, 4, 4, 16), (3, 3, 3, 16, 4)),       # the toy model's score-net
    ((8, 14, 14, 384), (3, 3, 3, 384, 16)),  # the DRCA-S score-net
])
def test_conv3d_is_bitwise_the_tap_ordered_loop(x_shape, kernel_shape):
    s = _stream(16)
    x, kernel = s.gaussian(x_shape), s.gaussian(kernel_shape)
    assert conv3d(x, kernel).tobytes() == _conv3d_tap_loop(x, kernel).tobytes()


# the loop's matmuls were [N, C_in] @ [C_in, C_out] per (video, frame,
# row): at N = 1 or C_out = 1 numpy took its matrix-vector path there,
# whose last bits conv3d does not reproduce, so those extents start at 2
@settings(max_examples=60, deadline=None)
@given(b=st.integers(0, 4), t=st.integers(1, 4), m=st.integers(1, 4), n=st.integers(2, 4),
       c_in=st.integers(1, 8), c_out=st.integers(2, 8),
       extents=st.tuples(*[st.sampled_from([1, 3, 5])] * 3), seed=st.integers(0, 2**16))
def test_conv3d_is_bitwise_the_tap_ordered_loop_property(b, t, m, n, c_in, c_out, extents,
                                                          seed):
    s = _stream(seed)
    x = s.gaussian(((b,) if b else ()) + (t, m, n, c_in))
    kernel = s.gaussian((*extents, c_in, c_out))
    assert conv3d(x, kernel).tobytes() == _conv3d_tap_loop(x, kernel).tobytes()


def test_conv3d_and_its_kernel_grad_hold_one_window_copy_at_a_time():
    # above its inputs, each kernel holds one input-sized window, one
    # tap's product (no larger than a window here) and its output; a
    # zero-padded copy of the input (5x its size here), an im2col of the
    # 27 windows, or a second window, would not fit
    s = _stream(17)
    x = s.gaussian((32, 8, 2, 2, 8))
    kernel = s.gaussian((3, 3, 3, 8, 4))
    d_out = s.gaussian((32, 8, 2, 2, 4))
    for run in (lambda: conv3d(x, kernel), lambda: conv3d_kernel_grad(x, d_out, kernel.shape)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = run()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        budget = 2 * x.nbytes + out.nbytes
        assert peak <= budget, (peak, budget)


def _padded_windows(x, extents):
    # the window walk conv3d and its kernel gradient replaced: zero-pad
    # the input, then copy each tap's window out of the padded copy
    kt, kh, kw = extents
    t, m, n = x.shape[-4:-1]
    xp = np.pad(x, ((0, 0),) * (x.ndim - 4)
                + ((kt // 2,) * 2, (kh // 2,) * 2, (kw // 2,) * 2, (0, 0)))
    for dt in range(kt):
        for dh in range(kh):
            for dw in range(kw):
                yield (dt, dh, dw), np.ascontiguousarray(
                    xp[..., dt:dt + t, dh:dh + m, dw:dw + n, :])


@settings(max_examples=80, deadline=None)
@given(b=st.integers(0, 3), t=st.integers(1, 4), m=st.integers(1, 4), n=st.integers(1, 4),
       c_in=st.integers(1, 3), c_out=st.integers(1, 3),
       extents=st.tuples(*[st.sampled_from([1, 3, 5])] * 3), seed=st.integers(0, 2**16))
def test_conv3d_windows_are_bitwise_the_padded_copy_reference(b, t, m, n, c_in, c_out,
                                                               extents, seed):
    # the padless windows hold the padded copy's bytes, so both kernels'
    # products see the same operands: 4-D inputs and stacks (b = 0 is
    # 4-D), extents past the input, one-frame, one-row and one-column
    # videos, one input channel, and one output channel, where a stack
    # takes the stacked matrix-vector product
    s = _stream(seed)
    x = s.gaussian(((b,) if b else ()) + (t, m, n, c_in))
    kernel = s.gaussian((*extents, c_in, c_out))
    d_out = s.gaussian(x.shape[:-1] + (c_out,))
    for (tap, window), (ref_tap, ref) in zip(numerics._tap_windows(x, extents),
                                             _padded_windows(x, extents), strict=True):
        assert tap == ref_tap and window.tobytes() == ref.tobytes()
    got = conv3d(x, kernel), conv3d_kernel_grad(x, d_out, kernel.shape)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "_tap_windows", _padded_windows)
        want = conv3d(x, kernel), conv3d_kernel_grad(x, d_out, kernel.shape)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@settings(max_examples=40, deadline=None)
@given(t=st.integers(1, 4), m=st.integers(1, 4), n=st.integers(1, 4),
       c_in=st.integers(1, 3), c_out=st.integers(1, 3),
       extents=st.tuples(*[st.sampled_from([1, 3, 5])] * 3), seed=st.integers(0, 2**16))
def test_conv3d_kernel_grad_is_the_adjoint_of_conv3d(t, m, n, c_in, c_out, extents, seed):
    # <conv3d(x, K), D> = <K, conv3d_kernel_grad(x, D, K.shape)>, both
    # inner products taken in float64 over the float32 kernel outputs
    s = _stream(seed)
    x = s.gaussian((t, m, n, c_in))
    kernel = s.gaussian((*extents, c_in, c_out))
    d_out = s.gaussian((t, m, n, c_out))
    grad = conv3d_kernel_grad(x, d_out, kernel.shape)
    assert grad.shape == kernel.shape and grad.dtype == F32
    lhs = np.sum(np.float64(conv3d(x, kernel)) * np.float64(d_out))
    rhs = np.sum(np.float64(kernel) * np.float64(grad))
    scale = np.sum(np.abs(np.float64(kernel))) * np.max(np.abs(np.float64(grad)))
    assert abs(lhs - rhs) <= 1e-5 * (scale + 1.0)


def test_conv3d_kernel_grad_counts_like_the_conv_and_validates_shapes():
    s = _stream(13)
    x = s.gaussian((3, 4, 5, 2))
    d_out = s.gaussian((3, 4, 5, 6))
    with FlopCounter() as fc:
        conv3d_kernel_grad(x, d_out, (3, 3, 3, 2, 6))
    assert fc.total == 2 * 3 * 4 * 5 * 2 * 6 * 27
    for kernel_shape in [(2, 3, 3, 2, 6), (3, 3, 3, 5, 6), (3, 3, 2, 6)]:
        with pytest.raises(ShapeError):
            conv3d_kernel_grad(x, d_out, kernel_shape)
    with pytest.raises(ShapeError, match="output gradient"):
        conv3d_kernel_grad(x, d_out, (3, 3, 3, 2, 4))
    with pytest.raises(ShapeError, match="output gradient"):
        conv3d_kernel_grad(x, d_out[:2], (3, 3, 3, 2, 6))
    with pytest.raises(ShapeError):
        conv3d_kernel_grad(x[0], d_out[0], (3, 3, 3, 2, 6))


# --- elementwise -------------------------------------------------------

def test_relu_and_gelu_pointwise():
    x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0], F32)
    assert np.array_equal(relu(x), np.maximum(x, 0))
    want = [0.5 * v * (1 + math.erf(v / math.sqrt(2))) for v in x.astype(np.float64)]
    np.testing.assert_allclose(gelu(x), want, rtol=1e-6, atol=1e-7)
    assert gelu(x).dtype == F32


def _gelu_oracle(x):
    x = np.asarray(x, np.float64)
    return x * 0.5 * erfc(-x / math.sqrt(2.0))


def test_gelu_error_bound_on_dense_grid():
    x = np.linspace(-12, 12, 1_200_001).astype(F32)
    want = _gelu_oracle(x)
    err = np.abs(gelu(x) - want)
    assert err.max() <= 3e-7
    assert np.all(err <= 0.5 * (1e-7 + 1e-6 * np.abs(want)))


def test_gelu_error_bound_and_no_subnormal_output_over_wide_range():
    # past the clamp the kernel must not fall into float32 subnormals
    x = np.linspace(-40, 40, 1_600_001).astype(F32)
    want = _gelu_oracle(x)
    out = gelu(x)
    err = np.abs(out - want)
    assert err.max() <= 3e-7
    assert np.all(err <= 0.5 * (1e-7 + 1e-6 * np.abs(want)))
    subnormal = (out != 0) & (np.abs(out) < np.finfo(F32).tiny)
    assert not subnormal.any(), x[subnormal][:5]


def test_gelu_extremes_nan_and_empty():
    x = np.array([3.4e38, -3.4e38, np.inf, -np.inf, np.nan, 1.0], F32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = gelu(x)
    assert out[0] == x[0] and out[2] == np.inf
    assert np.all(np.isfinite(out[[1, 3]])) and np.abs(out[[1, 3]]).max() < 1e-30
    assert np.isnan(out[4])
    assert out[5] == pytest.approx(_gelu_oracle(1.0), abs=1e-7)
    empty = gelu(np.zeros((0, 4), F32))
    assert empty.shape == (0, 4) and empty.dtype == F32


def test_gelu_independent_of_strides_and_blocks():
    base = _stream(16).gaussian((300, 400)) * F32(4)
    strided = base[:, ::2]
    assert not strided.flags.c_contiguous
    assert strided.size > numerics._CHUNK
    assert np.array_equal(gelu(strided), gelu(np.ascontiguousarray(strided)))
    flat = base.reshape(-1)
    lo, hi = 1001, 1001 + 2 * numerics._CHUNK + 7
    assert np.array_equal(gelu(flat[lo:hi]), gelu(flat)[lo:hi])


@pytest.mark.parametrize("size", [1, numerics._CHUNK - 1, numerics._CHUNK,
                                  numerics._CHUNK + 1, 2 * numerics._CHUNK + 7])
def test_gelu_and_softmax_in_place_are_bitwise_fresh_calls(size):
    x = (_stream(size).gaussian(size) * F32(6)).reshape(-1, 1 if size % 7 else 7)
    for kernel in (gelu, softmax_lastdim):
        fresh = kernel(x)
        y = x.copy()
        assert kernel(y, out=y) is y
        assert y.tobytes() == fresh.tobytes()
        other = np.full_like(x, np.nan)
        assert kernel(x, out=other) is other and other.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("out", [np.zeros((3, 5), F32), np.zeros((4, 5)),
                                 np.zeros((4, 10), F32)[:, ::2]])
def test_gelu_and_softmax_refuse_an_out_they_cannot_fill(out):
    x = _stream(3).gaussian((4, 5))
    for kernel in (gelu, softmax_lastdim):
        with pytest.raises(ShapeError, match="out must be"):
            kernel(x, out=out)


def test_stacked_linear_is_bitwise_each_matrix_alone_and_counts_the_same():
    # stacks whose matrices take numpy's matrix-vector path (one row, or a
    # one-column weight) give each matrix its own call's bits
    s = _stream(19)
    for shape, width in (((5, 3, 8), 1), ((5, 1, 8), 4), ((2, 4, 1, 8), 1)):
        x, w, b = s.gaussian(shape), s.gaussian((8, width)), s.gaussian(width)
        with FlopCounter() as fc:
            got = linear(x, w, b)
        tokens = math.prod(shape[:-1])
        assert fc.total == 2 * tokens * 8 * width + tokens * width
        alone = np.stack([linear(m, w, b) for m in x.reshape(-1, *shape[-2:])])
        assert got.shape == shape[:-1] + (width,)
        assert got.tobytes() == alone.tobytes()


# The expression forms the in-place kernels replaced; the kernels must
# stay bitwise equal to them.

def _softmax_expr(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True, dtype=F32)


def _layer_norm_expr(x, gain, shift, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True, dtype=F32)
    centred = x - mu
    var = np.mean(centred * centred, axis=-1, keepdims=True, dtype=F32)
    return centred / np.sqrt(var + F32(eps)) * gain + shift


def _linear_expr(x, weight, bias):
    out = np.matmul(x.reshape(-1, weight.shape[0]), weight)
    out = out + bias
    return out.reshape(x.shape[:-1] + (weight.shape[1],))


@pytest.mark.parametrize("shape", [(4, 6, 196, 196), (1568, 384), (3, 5, 7)])
def test_in_place_kernels_bitwise_match_expression_forms(shape):
    s = _stream(17)
    x = s.gaussian(shape) * F32(3) + F32(0.5)
    c = shape[-1]
    gain, shift = s.gaussian(c), s.gaussian(c)
    weight, bias = s.gaussian((c, 96)), s.gaussian(96)
    before = [v.copy() for v in (x, gain, shift, weight, bias)]
    assert np.array_equal(softmax_lastdim(x), _softmax_expr(x))
    assert np.array_equal(layer_norm(x, gain, shift), _layer_norm_expr(x, gain, shift))
    assert np.array_equal(linear(x, weight, bias), _linear_expr(x, weight, bias))
    for old, now in zip(before, (x, gain, shift, weight, bias)):
        assert np.array_equal(old, now)


def test_import_drca_does_not_load_scipy():
    code = "import sys, drca; assert 'scipy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(drca.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_l2_normalize_unit_norms():
    x = _stream(13).gaussian((5, 9)) * F32(7)
    out = l2_normalize(x)
    np.testing.assert_allclose(np.sqrt((out.astype(np.float64) ** 2).sum(-1)),
                               1.0, atol=1e-6)


# --- random stream -----------------------------------------------------

def test_random_stream_deterministic_and_typed():
    a = RandomStream(99).gaussian((3, 4))
    b = RandomStream(99).gaussian((3, 4))
    assert np.array_equal(a, b)
    assert a.dtype == F32
    assert RandomStream(99).gaussian64((3, 4)).dtype == np.float64
    assert not np.array_equal(a, RandomStream(100).gaussian((3, 4)))
    assert RandomStream.algorithm == "pcg64"


@pytest.mark.parametrize("shape", [0, 7, 8, 9, (3, 5), (2, 2, 6)])
def test_chunked_gaussian_is_the_one_shot_draw(monkeypatch, shape):
    # below, at and across a chunk of 8 draws; the stream continues where
    # the one-shot draw leaves it
    monkeypatch.setattr(numerics, "_CHUNK", 8)
    stream, gen = RandomStream(21), np.random.Generator(np.random.PCG64(21))
    for _ in range(2):
        got, want = stream.gaussian(shape), gen.standard_normal(shape).astype(F32)
        assert got.dtype == F32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    scaled = stream.gaussian(shape, 0.02)
    assert scaled.tobytes() == (gen.standard_normal(shape).astype(F32) * F32(0.02)).tobytes()


def test_gaussian_at_the_default_chunk_is_the_one_shot_draw():
    shape = (2, numerics._CHUNK + 3)
    want = np.random.Generator(np.random.PCG64(22)).standard_normal(shape).astype(F32)
    assert RandomStream(22).gaussian(shape).tobytes() == want.tobytes()


def test_gaussian64_into_a_buffer_continues_the_one_shot_draw():
    # rows of one C-contiguous buffer, drawn in turn, are the one-shot draw
    want = RandomStream(23).gaussian64((7, 3))
    stream, out = RandomStream(23), np.full((7, 3), np.nan)
    for rows in (slice(0, 2), slice(2, 3), slice(3, 7)):
        stream.gaussian64(out=out[rows])
    assert out.tobytes() == want.tobytes()
    buf = np.empty((2, 3))
    assert RandomStream(23).gaussian64(out=buf) is buf


def test_random_stream_permutation_covers_range():
    p = RandomStream(5).permutation(10)
    assert np.array_equal(np.sort(p), np.arange(10))


# --- flop counting -----------------------------------------------------

def test_flop_counts_per_kernel():
    s = _stream(14)
    with FlopCounter() as fc:
        matmul(s.gaussian((3, 4)), s.gaussian((4, 5)))
    assert fc.total == 2 * 3 * 4 * 5

    with FlopCounter() as fc:
        matmul(s.gaussian((6, 3, 4)), s.gaussian((6, 4, 5)))
    assert fc.total == 2 * 6 * 3 * 4 * 5

    with FlopCounter() as fc:
        linear(s.gaussian((7, 5)), s.gaussian((5, 2)), s.gaussian(2))
    assert fc.total == 2 * 7 * 5 * 2 + 7 * 2

    with FlopCounter() as fc:
        softmax_lastdim(s.gaussian((3, 8)))
    assert fc.total == 5 * 24

    with FlopCounter() as fc:
        layer_norm(s.gaussian((3, 8)), np.ones(8, F32), np.zeros(8, F32))
    assert fc.total == 4 * 24

    with FlopCounter() as fc:
        avgpool_downsample(s.gaussian((2, 4, 4, 3)), 2)
    assert fc.total == 2 * 4 * 4 * 3  # one flop per input element

    with FlopCounter() as fc:
        conv3d(s.gaussian((2, 4, 4, 3)), s.gaussian((3, 3, 3, 3, 5)))
    assert fc.total == 2 * (2 * 4 * 4 * 5) * 27 * 3

    with FlopCounter() as fc:
        relu(s.gaussian((3, 8)))
        gelu(s.gaussian((3, 8)))
    assert fc.total == 48


def test_flop_counters_nest_and_detach():
    s = _stream(15)
    with FlopCounter() as outer:
        matmul(s.gaussian((2, 2)), s.gaussian((2, 2)))
        with FlopCounter() as inner:
            matmul(s.gaussian((2, 2)), s.gaussian((2, 2)))
    assert inner.total == 2 * 8
    assert outer.total == 2 * 2 * 8
    before = outer.total
    matmul(s.gaussian((2, 2)), s.gaussian((2, 2)))  # outside the block
    assert outer.total == before


# --- parameter-tree walk --------------------------------------------------

@dataclass(frozen=True)
class _Leafy:
    a: np.ndarray


@dataclass(frozen=True)
class _Tree:
    w: np.ndarray
    inner: _Leafy
    items: tuple[_Leafy, ...]


def test_tree_map_names_rebuilds_and_combines():
    leaf = _Leafy(np.full(1, 2, F32))
    t = _Tree(w=np.ones(2, F32), inner=_Leafy(np.zeros(1, F32)), items=(leaf, leaf))

    seen = []
    same = numerics.tree_map(lambda name, x: seen.append(name) or x, _Tree, t,
                             aliases={"w": "weight", "inner": ""})
    assert seen == ["weight", "a", "items.0.a", "items.1.a"]
    assert same.w is t.w and same.items[1].a is leaf.a

    built = numerics.tree_map(lambda name: np.array([len(name)], F32), _Tree,
                              given={"items": 3})
    assert len(built.items) == 3
    assert built.items[2].a[0] == len("items.2.a")

    summed = numerics.tree_map(lambda _, x, y: x + y, _Tree, t, t)
    assert summed.items[1].a[0] == 4 and summed.w.tolist() == [2, 2]
