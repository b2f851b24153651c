import numpy as np
import pytest

from dimcsim import oracle
from dimcsim.geometry import wrap_partial


def _reference(inputs, weights, stride, padding):
    """Unwrapped convolution sums, one output at a time in Python ints."""
    h, w, ich = inputs.shape
    och, kh, kw, _ = weights.shape
    x, k = inputs.tolist(), weights.tolist()
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((oh, ow, och), dtype=np.int64)
    for oy in range(oh):
        for ox in range(ow):
            for o in range(och):
                total = 0
                for ky in range(kh):
                    for kx in range(kw):
                        y, xx = oy * stride + ky - padding, ox * stride + kx - padding
                        if 0 <= y < h and 0 <= xx < w:
                            total += sum(a * b for a, b in zip(x[y][xx], k[o][ky][kx]))
                out[oy, ox, o] = total
    return out


CASES = {
    # 4-bit tile-range tensors, strided and padded
    "tile-range": ((7, 7, 16), (8, 3, 3, 16), ((0, 16), (-8, 8)), 2, 1),
    # more output channels than one weight cast block, so a ragged block runs
    "ragged-block": ((3, 3, 4), (300, 3, 3, 4), ((-8, 8), (0, 16)), 1, 1),
    # sums beyond 2**24: only exact in int64, and the 24-bit wrap shows
    "wide": ((4, 4, 64), (8, 3, 3, 64), ((-4095, 4096), (-4095, 4096)), 1, 1),
}


@pytest.mark.parametrize("case", CASES)
def test_conv_partials_matches_per_output_loop(case):
    shape_in, shape_w, ranges, stride, padding = CASES[case]
    rng = np.random.default_rng(sum(map(ord, case)))
    inputs = rng.integers(*ranges[0], shape_in)
    weights = rng.integers(*ranges[1], shape_w)
    sums = _reference(inputs, weights, stride, padding)
    got = oracle.conv_partials(inputs, weights, stride, padding)
    assert np.array_equal(got, wrap_partial(sums))
    if case == "wide":
        assert np.abs(sums).max() >= 1 << 24


@pytest.mark.parametrize("ich", [74_565, 74_567])
def test_conv_partials_is_exact_at_the_float32_bound(ich):
    # 74,565 * 15 * 15 is the largest such sum below 2**24. The sum of
    # 74,567 channels is odd and above 2**24, where float32 holds only even
    # integers, so the bound must select int64; the result wraps
    inputs = np.full((1, 1, ich), 15)
    weights = np.full((1, 1, 1, ich), 15)
    assert oracle.conv_partials(inputs, weights)[0, 0, 0] == wrap_partial(ich * 225)
