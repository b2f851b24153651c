import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimcsim import oracle
from dimcsim.cli import load_workload
from dimcsim.geometry import PrecisionMode, QuantConfig
from dimcsim.isa import DcF, DcP, DlI, DlM
from dimcsim.machine import _Machine
from dimcsim.mapper import (LayerDescriptor, MappingError,
                            NotDimcEligibleError, lower, ops_count, plan_mapping)
from dimcsim.sim import (INSTRUCTION_KINDS, Program, Repeat, TimingModel, VLoad, VStore,
                         execute, run_layer)


def conv(ich, och, hw=4, k=1, stride=1, pad=0, mode=PrecisionMode(4)):
    return LayerDescriptor(kind="conv", ich=ich, och=och, h=hw, w=hw,
                           kh=k, kw=k, stride=stride, padding=pad, precision=mode)


def tensors(layer, seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = layer.precision.input_range()
    x = rng.integers(lo, hi + 1, (layer.h, layer.w, layer.ich))
    lo, hi = layer.precision.weight_range()
    w = rng.integers(lo, hi + 1, (layer.och, layer.kh, layer.kw, layer.ich))
    return x, w


def instructions(nodes, offsets=(0, 0, 0), row=0):
    """The instruction stream with every Repeat unrolled, every vload and
    vstore address rebased onto its iteration and every weight row advanced
    by its enclosing loops."""
    for node in nodes:
        if isinstance(node, Repeat):
            for n in range(node.count):
                inner = [off + n * stride for off, stride in
                         zip(offsets, node.strides + (0,) * (3 - len(node.strides)))]
                yield from instructions(node.body, inner, row + n * node.rows)
        elif isinstance(node, (VLoad, VStore)):
            yield dataclasses.replace(node, addr=node.addr + offsets[node.region])
        elif isinstance(node, (DlM, DcP, DcF)):
            yield dataclasses.replace(node, m_row=node.m_row + row)
        else:
            yield node


def custom_counts(program):
    counts = {DlI: 0, DlM: 0, DcP: 0, DcF: 0}
    for ins in instructions(program.body):
        if type(ins) in counts:
            counts[type(ins)] += 1
    return counts


# -- planning ---------------------------------------------------------------

def test_plan_single_row_full_memory():
    plan = plan_mapping(conv(64, 32, k=2))
    assert (plan.kernel_bits, plan.tiling_factor, plan.kernels_per_group,
            plan.group_count) == (1024, 1, 32, 1)


def test_plan_two_groups():
    plan = plan_mapping(conv(32, 64, k=2))
    assert (plan.kernel_bits, plan.tiling_factor, plan.kernels_per_group,
            plan.group_count) == (512, 1, 32, 2)


def test_plan_fc_tiled_and_grouped():
    fc = LayerDescriptor(kind="fc", ich=1024, och=16)
    plan = plan_mapping(fc)
    assert (plan.kernel_bits, plan.tiling_factor, plan.kernels_per_group,
            plan.group_count) == (4096, 4, 8, 2)


def test_plan_monotone_in_ich_and_och():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ich = int(rng.integers(1, 600))
        och = int(rng.integers(1, 600))
        k = int(rng.integers(1, 4))
        a = plan_mapping(conv(ich, och, hw=8, k=k))
        b = plan_mapping(conv(ich + int(rng.integers(1, 64)), och, hw=8, k=k))
        c = plan_mapping(conv(ich, och + int(rng.integers(1, 64)), hw=8, k=k))
        assert b.tiling_factor >= a.tiling_factor
        assert c.group_count >= a.group_count
        assert 1 <= a.kernels_per_group <= 32
        assert a.kernels_per_group * a.tiling_factor <= 32
        assert a.group_count * a.kernels_per_group >= och


def test_plan_rejects_wide_precision():
    with pytest.raises(NotDimcEligibleError, match="4-bit"):
        plan_mapping(conv(8, 8, mode=PrecisionMode(8)))


def test_plan_rejects_oversized_kernel():
    # 8193 channels at 4 bits is 32772 bits, needing 33 rows
    with pytest.raises(NotDimcEligibleError, match="rows"):
        plan_mapping(conv(8193, 1))


def test_layer_validation():
    with pytest.raises(MappingError):
        LayerDescriptor(kind="conv", ich=0, och=1)
    with pytest.raises(MappingError):
        LayerDescriptor(kind="conv", ich=1, och=1, h=2, w=2, kh=3, kw=3)
    with pytest.raises(MappingError):
        LayerDescriptor(kind="fc", ich=4, och=4, kh=2)
    with pytest.raises(MappingError):
        LayerDescriptor(kind="pool", ich=4, och=4)


# -- operation counts ---------------------------------------------------------

def test_ops_count_unit_layer():
    assert ops_count(LayerDescriptor(kind="conv", ich=1, och=1)) == 2


def test_ops_count_resnet_stem():
    stem = LayerDescriptor(kind="conv", ich=3, och=64, h=224, w=224,
                           kh=7, kw=7, stride=2, padding=3)
    assert (stem.oh, stem.ow) == (112, 112)
    assert ops_count(stem) == 236_027_904


def test_ops_count_linear_in_och():
    a, b = conv(5, 4, hw=6, k=3), conv(5, 8, hw=6, k=3)
    assert ops_count(b) == 2 * ops_count(a)


# -- lowering: stream shape ---------------------------------------------------

def test_minimal_stream_custom_skeleton():
    low = lower(LayerDescriptor(kind="conv", ich=1, och=1))
    counts = custom_counts(low.program)
    assert counts == {DlI: 1, DlM: 1, DcP: 0, DcF: 1}


def test_compute_count_identity():
    for layer in (conv(5, 3, hw=5, k=3, pad=1), conv(70, 6, hw=3, k=2),
                  conv(300, 40, hw=3), LayerDescriptor(kind="fc", ich=500, och=9)):
        plan = plan_mapping(layer)
        counts = custom_counts(lower(layer, plan).program)
        assert counts[DcP] + counts[DcF] == layer.och * layer.oh * layer.ow * plan.tiling_factor


def test_tiled_layer_chains_two_computes_per_output():
    layer = conv(80, 2, hw=3, k=2)  # 80*4*4 = 1280 bits -> T = 2
    plan = plan_mapping(layer)
    assert plan.tiling_factor == 2
    counts = custom_counts(lower(layer, plan).program)
    outputs = layer.och * layer.oh * layer.ow
    assert counts[DcP] == outputs and counts[DcF] == outputs
    # per position the computes come chunk-major: G partial computes for
    # chunk 0, then G terminal computes for chunk 1, each consuming the
    # partial its chunk-0 mate wrote
    body = [i for i in instructions(lower(layer, plan).program.body)
            if isinstance(i, (DcP, DcF))]
    g = layer.och
    for pos in range(0, len(body), 2 * g):
        block = body[pos:pos + 2 * g]
        for first, second in zip(block[:g], block[g:]):
            assert isinstance(first, DcP) and isinstance(second, DcF)
            assert (second.vs1, second.sh) == (first.vd, first.dh)


def test_dlm_count_doubles_with_group_count():
    one = custom_counts(lower(conv(32, 32, k=2)).program)[DlM]
    two = custom_counts(lower(conv(32, 64, k=2)).program)[DlM]
    assert two == 2 * one


def test_dlm_count_identity_full_rows():
    # full 1024-bit rows: 4 sector loads per row, whole groups
    layer = conv(64, 64, k=2)
    plan = plan_mapping(layer)
    counts = custom_counts(lower(layer, plan).program)
    assert counts[DlM] == plan.group_count * plan.kernels_per_group * plan.tiling_factor * 4


def test_dlm_count_identity_partial_rows():
    # 36 elements = 144 bits: one row, one 256-bit sector, trailing omitted
    layer = conv(4, 5, hw=4, k=3)
    plan = plan_mapping(layer)
    counts = custom_counts(lower(layer, plan).program)
    assert counts[DlM] == layer.och * 1
    assert counts[DlI] == layer.oh * layer.ow * 1


def test_lower_rejects_mismatched_plan():
    with pytest.raises(MappingError):
        lower(conv(8, 8), plan_mapping(conv(16, 8)))
    with pytest.raises(MappingError):
        lower(conv(8, 8), terminal="weird")


# -- lowering: functional equivalence -----------------------------------------

def test_run_layer_unit_conv():
    low = lower(LayerDescriptor(kind="conv", ich=1, och=1))
    _, out = run_layer(low, None, np.array([[[1]]]), np.array([[[[1]]]]))
    assert out.tolist() == [[[1]]]


def test_run_layer_matches_conv_reference():
    layer = conv(4, 2, hw=5, k=3, stride=1, pad=1)
    x, w = tensors(layer, seed=3)
    low = lower(layer, quant=QuantConfig(2, 4))
    _, got = run_layer(low, None, x, w)
    want = oracle.quantize_partials(
        oracle.conv_partials(x, w, 1, 1), QuantConfig(2, 4))
    assert np.array_equal(got, want)


def test_run_layer_partial_flow_matches_reference():
    layer = conv(6, 33, hw=3, k=2, mode=PrecisionMode(4, True, False))
    x, w = tensors(layer, seed=4)
    low = lower(layer, terminal="partial")
    _, got = run_layer(low, None, x, w)
    assert np.array_equal(got, oracle.conv_partials(x, w, 1, 0))


def test_run_layer_fc_matches_reference():
    layer = LayerDescriptor(kind="fc", ich=300, och=5, precision=PrecisionMode(2))
    x, w = tensors(layer, seed=5)
    low = lower(layer, terminal="partial")
    _, got = run_layer(low, None, x, w)
    assert np.array_equal(got, oracle.conv_partials(x, w, 1, 0))


def test_zero_weights_zero_output_same_cycles():
    layer = conv(3, 4, hw=4, k=2)
    x, w = tensors(layer, seed=6)
    low = lower(layer)
    noisy, _ = run_layer(low, None, x, w)
    zero, out = run_layer(low, None, x, np.zeros_like(w))
    assert not out.any()
    assert zero.total_cycles == noisy.total_cycles
    assert zero.cycles_by_class == noisy.cycles_by_class


def test_memory_image_validation():
    layer = conv(2, 2, hw=2)
    low = lower(layer)
    x, w = tensors(layer)
    with pytest.raises(MappingError, match="shape"):
        low.memory_image(x[:1], w)
    with pytest.raises(MappingError, match="outside"):
        low.memory_image(np.full((2, 2, 2), 99), w)
    with pytest.raises(MappingError, match="integer"):
        low.memory_image(x.astype(float), w)


# -- packing ------------------------------------------------------------------

def test_odd_kernel_count_leaves_trailing_half_byte_zero():
    layer = conv(4, 5, hw=2, k=1)  # one group of five kernels
    x, w = tensors(layer, seed=7)
    low = lower(layer, quant=QuantConfig(0, 4))
    outcome, got = run_layer(low, None, x, w)
    rec = low._layout.rest_record
    base = low._layout.rest_base
    want = oracle.quantize_partials(oracle.conv_partials(x, w, 1, 0), QuantConfig(0, 4))
    for pos in range(4):
        record = outcome.memory[base + pos * rec: base + (pos + 1) * rec]
        # kernels 0..4 pack into bytes 0..2; byte 2 keeps its high nibble clear
        assert record[2] >> 4 == 0
        oy, ox = divmod(pos, 2)
        packed = [record[0] & 0xF, record[0] >> 4,
                  record[1] & 0xF, record[1] >> 4, record[2] & 0xF]
        assert packed == [int(v) for v in want[oy, ox]]
        assert bytes(record[3:]) == bytes(rec - 3)


# -- loop compression ----------------------------------------------------------

@pytest.mark.parametrize("layer, terminal", [
    (conv(8, 3, hw=4, k=2, pad=1), "final"),
    (conv(8, 3, hw=4, k=2, pad=1), "partial"),
    (conv(80, 37, hw=3, k=2), "final"),      # tiled, partial last group
    (conv(33, 70, hw=3, k=1, stride=2), "partial"),
    (LayerDescriptor(kind="fc", ich=600, och=7), "final"),
    (conv(4, 40, hw=2, k=1, mode=PrecisionMode(1)), "final"),
])
def test_compressed_lowering_matches_flat_cycles(layer, terminal):
    # the extrapolated timing-only run against the functional walk of
    # every iteration of the same program
    low = lower(layer, terminal=terminal, quant=QuantConfig(1, 4))
    flat = execute(low.program, memory=bytearray(low._layout.total_bytes))
    comp = execute(low.program)
    assert comp.total_cycles == flat.total_cycles
    assert comp.cycles_by_class == flat.cycles_by_class
    assert comp.counts_by_class == flat.counts_by_class


def test_compressed_lowering_uses_repeats():
    program = lower(conv(32, 64, k=2)).program
    assert any(isinstance(n, Repeat) for n in program.body)


def test_resnet50_programs_stay_compressed():
    # every Repeat body counted once: at most one group prologue and one
    # position block per layer, where the unrolled streams run to millions
    def records(nodes):
        return sum(records(n.body) if isinstance(n, Repeat) else 1 for n in nodes)

    for name, layer in load_workload("resnet50").entries:
        if layer.precision.dimc_supported:
            assert records(lower(layer).program.body) <= 762, name


def test_compressed_respects_timing_table():
    layer = conv(16, 8, hw=3, k=2)
    slow = TimingModel(memory_latency=20)
    low = lower(layer)
    flat = execute(low.program, slow, memory=bytearray(low._layout.total_bytes))
    comp = execute(low.program, slow)
    assert comp.total_cycles == flat.total_cycles


@st.composite
def small_layers(draw):
    mode = PrecisionMode(draw(st.sampled_from((1, 2, 4))), draw(st.booleans()),
                         draw(st.booleans()))
    if draw(st.booleans()):
        return LayerDescriptor(kind="fc", ich=draw(st.integers(1, 2048)),
                               och=draw(st.integers(1, 40)), precision=mode)
    k = draw(st.integers(1, 3))
    return conv(draw(st.integers(1, 64)), draw(st.integers(1, 70)),
                hw=draw(st.integers(k, 5)), k=k, stride=draw(st.integers(1, 2)),
                pad=draw(st.integers(0, 1)), mode=mode)


timing_tables = st.builds(
    TimingModel,
    memory_latency=st.integers(1, 16),
    latency=st.dictionaries(st.sampled_from(INSTRUCTION_KINDS), st.integers(1, 16)),
    issue_interval=st.dictionaries(st.sampled_from(INSTRUCTION_KINDS),
                                   st.one_of(st.integers(1, 4), st.integers(5, 64))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(layer=small_layers(), terminal=st.sampled_from(("final", "partial")),
       timing=timing_tables)
def test_extrapolated_cycles_equal_walked_cycles(layer, terminal, timing):
    program = lower(layer, terminal=terminal).program
    extrapolated = execute(program, timing)
    walked = execute(program, timing, trace=[])
    assert extrapolated.total_cycles == walked.total_cycles
    assert extrapolated.cycles_by_class == walked.cycles_by_class
    assert extrapolated.counts_by_class == walked.counts_by_class


@settings(max_examples=200, deadline=None, derandomize=True)
@given(layer=small_layers(), terminal=st.sampled_from(("final", "partial")))
def test_address_intervals_clear_every_lowered_loop(layer, terminal):
    # the static checks clear every loop the lowering emits: the data half
    # batches each of them but a group prologue's loop over its kernels,
    # which it walks because its iterations write different weight rows
    low = lower(layer, terminal=terminal)
    machine = _Machine(low.program, bytearray(low._layout.total_bytes))
    for node in low.program.body:
        if isinstance(node, Repeat):
            body = machine.analyze(node.body)
            assert body.independent and machine._commutes(node, body)


@settings(max_examples=40, deadline=5000, derandomize=True)
@given(layer=small_layers(), terminal=st.sampled_from(("final", "partial")),
       quant=st.builds(QuantConfig, right_shift=st.integers(0, 10),
                       out_bits=st.sampled_from((1, 2, 4))),
       timing=timing_tables, seed=st.integers(0, 2**16))
def test_batched_run_matches_unrolled_program_and_oracle(layer, terminal, quant, timing, seed):
    # the loop-compressed program, with its Repeats run as batches, against
    # the same program unrolled into straight-line code, which runs one
    # instruction at a time; and both against the convolution reference
    low = lower(layer, terminal=terminal, quant=quant)
    x, w = tensors(layer, seed)
    outcome, got = run_layer(low, timing, x, w)
    want = oracle.conv_partials(x, w, layer.stride, layer.padding)
    if terminal == "final":
        want = oracle.quantize_partials(want, quant)
    assert np.array_equal(got, want)
    flat = Program(tuple(instructions(low.program.body)), low.program.mode, quant)
    unrolled = execute(flat, timing, low.memory_image(x, w))
    assert outcome.memory == unrolled.memory
    assert outcome.vrf == unrolled.vrf
    extrapolated = execute(low.program, timing)
    assert outcome.total_cycles == extrapolated.total_cycles == unrolled.total_cycles
    assert outcome.cycles_by_class == extrapolated.cycles_by_class
    assert outcome.counts_by_class == extrapolated.counts_by_class
