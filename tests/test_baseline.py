from dimcsim.baseline import baseline_cycles
from dimcsim.mapper import LayerDescriptor


def conv(ich, och=1, hw=1, k=1):
    return LayerDescriptor(kind="conv", ich=ich, och=och, h=hw, w=hw, kh=k, kw=k)


def test_unit_layer_default_constants():
    # ceil(1/8) * (8+1) + 4 + 8 = 21
    assert baseline_cycles(conv(1)) == 21


def test_doubling_spatial_doubles_cycles():
    a = LayerDescriptor(kind="conv", ich=4, och=4, h=4, w=8, kh=1, kw=1)
    b = LayerDescriptor(kind="conv", ich=4, och=4, h=8, w=8, kh=1, kw=1)
    assert baseline_cycles(b) == 2 * baseline_cycles(a)


def test_ceiling_step_at_lane_boundary():
    # 8 elements fit one INT8 vector op; 9 need a second chunk
    assert baseline_cycles(conv(8)) == 1 * 9 + 12
    assert baseline_cycles(conv(9)) == 2 * 9 + 12


def test_strictly_increasing_in_each_factor():
    base = baseline_cycles(conv(16, och=4, hw=4))
    assert baseline_cycles(conv(24, och=4, hw=4)) > base
    assert baseline_cycles(conv(16, och=5, hw=4)) > base
    assert baseline_cycles(conv(16, och=4, hw=5)) > base
