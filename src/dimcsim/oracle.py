"""Reference integer convolution used to check simulated layer outputs.

Deliberately structured unlike the mapper's im2col path: it walks kernel
offsets with shifted tensor slices, so a bookkeeping bug on one side
cannot cancel out on the other.
"""

from __future__ import annotations

import numpy as np

from .geometry import PARTIAL_BITS, QuantConfig

# output channels whose weights conv_partials casts in one piece
_CAST_BLOCK = 128


def wrap_partials(values: np.ndarray) -> np.ndarray:
    """Elementwise reduction into the signed 24-bit accumulator range."""
    half = 1 << (PARTIAL_BITS - 1)
    return ((values.astype(np.int64) + half) & ((1 << PARTIAL_BITS) - 1)) - half


def conv_partials(inputs, weights, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Exact integer convolution partial sums, wrapped to 24 bits.

    inputs: (h, w, ich); weights: (och, kh, kw, ich). Returns (oh, ow, och).

    Every sum is bounded by ``kh * kw * ich * max|x| * max|w|``. Below 2**24
    float32 adds these integers exactly in any order, so the products run
    in float32 through BLAS; otherwise they run in int64.
    """
    inputs = np.asarray(inputs, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    h, w, ich = inputs.shape
    och, kh, kw, wich = weights.shape
    if wich != ich:
        raise ValueError(f"channel mismatch: inputs {ich}, weights {wich}")
    bound = kh * kw * ich * _peak(inputs) * _peak(weights)
    dtype = np.float32 if bound < 1 << 24 else np.int64
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    padded = np.zeros((h + 2 * padding, w + 2 * padding, ich), dtype=dtype)
    padded[padding:padding + h, padding:padding + w] = inputs
    acc = np.zeros((oh, ow, och), dtype=dtype)
    for ky in range(kh):
        for kx in range(kw):
            window = padded[ky:ky + oh * stride:stride, kx:kx + ow * stride:stride]
            # cast the weights a block of output channels at a time, so no
            # whole-tensor copy is made
            for lo in range(0, och, _CAST_BLOCK):
                block = weights[lo:lo + _CAST_BLOCK, ky, kx, :].astype(dtype, copy=False)
                acc[..., lo:lo + _CAST_BLOCK] += np.tensordot(window, block, axes=([2], [1]))
    return wrap_partials(acc)


def _peak(values: np.ndarray) -> int:
    """Largest magnitude in ``values`` (0 when empty), without the
    temporary ``np.abs`` would allocate."""
    return max(-int(values.min(initial=0)), int(values.max(initial=0)))


def quantize_partials(partials: np.ndarray, quant: QuantConfig) -> np.ndarray:
    """ReLU, arithmetic right shift and saturation, matching dc.f."""
    relu = np.maximum(np.asarray(partials, dtype=np.int64), 0)
    return np.minimum(relu >> quant.right_shift, quant.max_value)
