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
from dimcsim.mapper import LayerDescriptor, lower
from dimcsim.sim import (CLASSES, INSTRUCTION_KINDS, NUM_VREGS, Barrier, Program, Repeat,
                         SimulationError, TimingModel, VClear, VLoad, VStore, _Clock,
                         _NEVER, _kinds, execute, run_layer)
from dimcsim.tile import DimcTile


def prog(body, **kw):
    return Program(tuple(body), **kw)


def reg(out, r, half=None):
    """Register r of a run's register file, or its half, as an unsigned int."""
    lo, size = (8 * r, 8) if half is None else (8 * r + 4 * half, 4)
    return int.from_bytes(out.vrf[lo:lo + size], "little")


def test_empty_program():
    out = execute(prog([]))
    assert out.total_cycles == 0
    assert out.cycles_by_class == {"computing": 0, "loading": 0, "storing": 0}
    assert out.counts_by_class == {"computing": 0, "loading": 0, "storing": 0}


@pytest.mark.parametrize("latency", [1, 4, 9])
def test_independent_dcp_pipeline_fill(latency):
    # N back-to-back independent computes at issue interval 1, latency L:
    # issues at 0..N-1, last completes at N-1+L
    timing = TimingModel(latency={"dc.p": latency})
    for n in (1, 2, 7, 20):
        body = [DcP(vs1=0, vd=1 + (i % 8), sh=0, dh=i % 2, m_row=0) for i in range(n)]
        out = execute(prog(body), timing)
        assert out.total_cycles == n + latency - 1


def test_dependent_compute_waits_for_dli():
    body = [DlI(vs1=1, nvec=4, sec=0, mask=0b1111),
            DcP(vs1=0, vd=1, sh=0, dh=0, m_row=0)]
    # dl.i issues at 0 and completes at 1; dc.p issues at 1, done at 5
    assert execute(prog(body)).total_cycles == 5
    # with a 3-cycle dl.i the compute is pushed to cycle 3, done at 7
    slow = TimingModel(latency={"dl.i": 3})
    assert execute(prog(body), slow).total_cycles == 7


def test_load_to_dli_stall_is_memory_latency():
    body = [VLoad(vd=1, addr=0), DlI(vs1=1, nvec=1, sec=0, mask=0b0001)]
    out = execute(prog(body), memory=bytearray(8))
    # vload ready at 8, dl.i issues there and retires at 9
    assert out.total_cycles == 9
    assert out.cycles_by_class == {"computing": 0, "loading": 9, "storing": 0}


@pytest.mark.parametrize("ins, cls", [
    (DcF(vs1=0, vd=0, sh=0, dh=0, m_row=0, bidx=0), "computing"),
    (DcP(vs1=0, vd=0, sh=0, dh=0, m_row=0), "computing"),
    (DlM(vs1=0, nvec=1, sec=0, mask=0, m_row=0), "loading"),
    (DlI(vs1=0, nvec=1, sec=0, mask=0), "loading"),
    (VLoad(vd=0, addr=0), "loading"),
    (VStore(vs1=0, addr=0), "storing"),
    (VClear(vd=0), "computing"),
], ids=lambda value: getattr(value, "mnemonic", value))
def test_instruction_counts_under_its_class(ins, cls):
    out = execute(prog([ins]))
    assert out.counts_by_class == {c: int(c == cls) for c in CLASSES}
    assert out.cycles_by_class[cls] == out.total_cycles


def test_non_instruction_is_rejected():
    with pytest.raises(SimulationError, match="cannot execute"):
        execute(prog(["nonsense"]))


def test_class_cycles_sum_to_total():
    body = [VLoad(1, 0), DlI(vs1=1, nvec=1, sec=0, mask=1),
            DcF(vs1=0, vd=2, sh=0, dh=0, m_row=0, bidx=0), VStore(2, 8)]
    out = execute(prog(body), memory=bytearray(16))
    assert sum(out.cycles_by_class.values()) == out.total_cycles
    assert out.counts_by_class == {"computing": 1, "loading": 2, "storing": 1}
    assert out.total_cycles >= out.instruction_count


def test_vload_vstore_roundtrip():
    mem = bytearray(24)
    mem[0:8] = (0x1122334455667788).to_bytes(8, "little")
    out = execute(prog([VLoad(3, 0), VStore(3, 16)]), memory=mem)
    assert out.memory[16:24] == mem[0:8]
    assert reg(out, 3) == 0x1122334455667788


def test_unwritten_registers_read_zero():
    out = execute(prog([VStore(17, 0)]), memory=bytearray(8))
    assert out.memory == bytearray(8)


def test_dcp_writes_sign_extended_partial():
    mem = bytearray(8)
    mem[0:4] = (0x00FFFFFF).to_bytes(4, "little")  # wraps to partial -1
    body = [VLoad(1, 0),
            DcP(vs1=1, vd=2, sh=0, dh=1, m_row=0),
            DcP(vs1=2, vd=3, sh=1, dh=0, m_row=0)]
    out = execute(prog(body), memory=mem)
    assert reg(out, 2, half=1) == 0xFFFFFFFF
    assert reg(out, 3, half=0) == 0xFFFFFFFF


def _dcf(vs1, bidx):
    return DcF(vs1=vs1, vd=2, sh=0, dh=0, m_row=0, bidx=bidx)


def test_dcf_nibble_packing_pairs_and_flushes():
    mem = bytearray(32)
    for i, v in enumerate((5, 9, 3, 7)):
        mem[8 * i:8 * i + 8] = v.to_bytes(8, "little")
    body = [VLoad(3, 0), VLoad(4, 8), VLoad(5, 16), VLoad(6, 24),
            _dcf(3, 0),   # low nibble of byte 0
            _dcf(4, 0),   # consecutive, same byte: high nibble
            _dcf(5, 1),   # new byte: low nibble
            VClear(7),    # any other instruction flushes the packer
            _dcf(6, 1)]   # starts byte 1 afresh, clearing the old value
    out = execute(prog(body), memory=mem)
    half = reg(out, 2, half=0)
    assert half & 0xFF == 0x95
    assert (half >> 8) & 0xFF == 0x07


def test_barrier_flushes_dcf_packer():
    mem = bytearray(16)
    mem[0:8] = (5).to_bytes(8, "little")
    mem[8:16] = (9).to_bytes(8, "little")
    body = [VLoad(3, 0), VLoad(4, 8), _dcf(3, 0), Barrier(), _dcf(4, 0)]
    out = execute(prog(body), memory=mem)
    assert reg(out, 2, half=0) & 0xFF == 0x09


def test_dcf_odd_run_leaves_high_nibble_zero():
    mem = bytearray(8)
    mem[0:8] = (6).to_bytes(8, "little")
    out = execute(prog([VLoad(3, 0), _dcf(3, 2)]), memory=mem)
    assert (reg(out, 2, half=0) >> 16) & 0xFF == 0x06


def test_determinism():
    rng = np.random.default_rng(9)
    mem = bytearray(rng.integers(0, 256, 64, dtype=np.uint8).tobytes())
    body = [VLoad(1, 0), VLoad(2, 8), DlI(vs1=1, nvec=2, sec=0, mask=0b11),
            DlM(vs1=2, nvec=1, sec=0, mask=1, m_row=3),
            DcP(vs1=0, vd=4, sh=0, dh=0, m_row=3), VStore(4, 32)]
    t1, t2 = [], []
    a = execute(prog(body), memory=bytearray(mem), trace=t1)
    b = execute(prog(body), memory=bytearray(mem), trace=t2)
    assert a.total_cycles == b.total_cycles
    assert a.cycles_by_class == b.cycles_by_class
    assert a.memory == b.memory
    assert a.vrf == b.vrf
    assert t1 == t2


def test_latency_changes_never_change_functional_state():
    mem0 = bytearray(64)
    mem0[0:8] = (0x0102030405060708).to_bytes(8, "little")
    body = [VLoad(1, 0), DlI(vs1=1, nvec=1, sec=0, mask=1),
            DlM(vs1=1, nvec=1, sec=0, mask=1, m_row=0),
            DcF(vs1=0, vd=2, sh=0, dh=0, m_row=0, bidx=0), VStore(2, 32)]
    fast = execute(prog(body), TimingModel(memory_latency=1), memory=bytearray(mem0))
    slow = execute(prog(body), TimingModel(memory_latency=30, latency={"dc.f": 9}),
                   memory=bytearray(mem0))
    assert fast.memory == slow.memory and fast.vrf == slow.vrf
    assert fast.total_cycles != slow.total_cycles


def test_timing_is_data_independent():
    body = [VLoad(1, 0), DlM(vs1=1, nvec=1, sec=0, mask=1, m_row=0),
            VLoad(1, 8), DlI(vs1=1, nvec=1, sec=0, mask=1),
            DcF(vs1=0, vd=2, sh=0, dh=0, m_row=0, bidx=0), VStore(2, 16)]
    zeros = execute(prog(body), memory=bytearray(24))
    mem = bytearray(np.random.default_rng(0).integers(0, 256, 24, dtype=np.uint8).tobytes())
    noisy = execute(prog(body), memory=mem)
    assert zeros.total_cycles == noisy.total_cycles
    assert zeros.cycles_by_class == noisy.cycles_by_class


def test_issue_interval_throttles_unit():
    timing = TimingModel(issue_interval={"dc.p": 3})
    body = [DcP(vs1=0, vd=1, sh=0, dh=0, m_row=0),
            DcP(vs1=0, vd=2, sh=0, dh=0, m_row=1)]
    # second compute waits for the unit at cycle 3, completes at 7
    assert execute(prog(body), timing).total_cycles == 7


def test_barrier_drains_pipeline():
    body = [VLoad(1, 0), Barrier(), VClear(2)]
    out = execute(prog(body), memory=bytearray(8))
    # the clear would issue at 1; the barrier holds it to the vload's
    # completion at 8, and the drain gap stays accounted as loading
    assert out.total_cycles == 9
    assert out.cycles_by_class == {"computing": 1, "loading": 8, "storing": 0}
    assert out.counts_by_class["computing"] == 1  # barrier is not an instruction


@pytest.mark.parametrize("body, pc", [
    ([VClear(1), DlI(vs1=30, nvec=4, sec=0, mask=0b1111)], 1),
    # v1, v2 and v3 clear at pcs 0-2, so the inner loop's first pass
    # faults at 3; the Repeat(0) body never runs, so its fault never counts
    ([VClear(1), Repeat(3, (VClear(2), Repeat(0, (VClear(99),)),
                            Repeat(2, (VClear(3), VClear(50)))))], 3),
], ids=["flat", "nested"])
def test_gather_past_register_file_reports_pc(body, pc):
    with pytest.raises(SimulationError) as err:
        execute(prog(body))
    assert err.value.pc == pc


@pytest.mark.parametrize("rows", [-1, True, 1.0])
def test_repeat_rows_must_be_a_non_negative_integer(rows):
    with pytest.raises(ValueError, match="rows"):
        Repeat(2, (), rows=rows)


@pytest.mark.parametrize("body, pc", [
    # rows 20, 24 and 28 pass; iteration 3 reaches row 32 with its dl.m at
    # pc 1 + 3 * 2 + 1
    ((VClear(1), Repeat(5, (VClear(2), DlM(vs1=1, nvec=1, sec=0, mask=1, m_row=20)),
                        rows=4)), 8),
    # nested advances add up to row 20 + 3n + 2k, which reaches 32 at n = 2,
    # k = 3, pc 2 * 5 + 1 + 3; the Repeat(0) never executes, so its rows
    # never count
    ((Repeat(0, (Repeat(5, (DcP(vs1=0, vd=1, sh=0, dh=0, m_row=31),), rows=5),)),
      Repeat(3, (VClear(2), Repeat(4, (DcP(vs1=0, vd=1, sh=0, dh=0, m_row=20),), rows=2)),
             rows=3)), 14),
], ids=["flat", "nested"])
def test_row_past_the_last_reports_the_pc_of_its_iteration(body, pc):
    with pytest.raises(SimulationError, match="weight row 32 out of range") as err:
        Program(body)
    assert err.value.pc == pc
    # rows 4, 13, 22 and 31 all exist
    assert Program((Repeat(4, (DlM(vs1=1, nvec=1, sec=0, mask=1, m_row=4),),
                           rows=9),)).counts == (0, 4, 0)


def test_static_fault_is_raised_when_the_program_is_built():
    # the vload would be out of bounds first, but the bad register is
    # static and rejected before anything runs
    with pytest.raises(SimulationError, match="vclear register 40") as err:
        Program((VLoad(1, 1000), VClear(40)))
    assert err.value.pc == 1


@pytest.mark.parametrize("kind", [VLoad, VStore])
@pytest.mark.parametrize("addr", [16, 12, -8, -4],
                         ids=["past-end", "straddling-end", "negative", "straddling-zero"])
def test_out_of_bounds_access_reports_pc_and_keeps_state(kind, addr):
    # a short or negative slice assigned into a bytearray would resize it
    # instead of raising, so the bounds check has to come first
    mem = bytearray(16)
    program = prog([VClear(1), kind(1, addr)])
    machine = _Machine(program, mem)
    with pytest.raises(SimulationError, match="out of bounds") as err:
        machine.run_nodes(program.body)
    assert err.value.pc == 1
    assert len(mem) == 16 and len(machine.vrf) == 8 * NUM_VREGS


def test_trace_records():
    trace = []
    body = [DlI(vs1=1, nvec=1, sec=0, mask=1), DcP(vs1=0, vd=1, sh=0, dh=0, m_row=0)]
    execute(prog(body), trace=trace)
    assert trace == [(1, "loading", "dl.i"), (5, "computing", "dc.p")]


def _loop_body():
    return (DlI(vs1=1, nvec=4, sec=0, mask=0b1111),
            DcP(vs1=0, vd=2, sh=0, dh=0, m_row=0),
            DcP(vs1=2, vd=2, sh=0, dh=1, m_row=1),
            DcF(vs1=2, vd=3, sh=1, dh=0, m_row=2, bidx=0))


@pytest.mark.parametrize("count", [1, 2, 3, 4, 50, 1000])
def test_repeat_matches_flat_expansion(count):
    body = _loop_body()
    flat = execute(prog(list(body) * count), memory=bytearray())
    comp = execute(prog([Repeat(count, body)]))
    assert comp.total_cycles == flat.total_cycles
    assert comp.cycles_by_class == flat.cycles_by_class
    assert comp.counts_by_class == flat.counts_by_class
    assert comp.memory is None and flat.memory is not None


def test_nested_repeat_matches_flat_expansion():
    inner = _loop_body()
    flat_body = ([VClear(4)] + list(inner) * 7 + [Barrier()]) * 5
    comp = execute(prog([Repeat(5, (VClear(4), Repeat(7, inner), Barrier()))]))
    flat = execute(prog(flat_body))
    assert comp.total_cycles == flat.total_cycles
    assert comp.cycles_by_class == flat.cycles_by_class


def test_walked_repeat_rebases_addresses():
    # copy a 2x3 grid of words: the outer loop advances both regions by a
    # row, the inner one by a word; offsets unwind after each loop
    inner = Repeat(3, (VLoad(1, 0, region=1), VStore(1, 64, region=2)), strides=(0, 8, 8))
    body = [Repeat(2, (inner,), strides=(0, 24, 24)), VLoad(2, 0, region=1)]
    mem = bytearray(range(48)) + bytearray(64)
    out = execute(prog(body), memory=mem)
    assert out.memory[64:112] == bytes(range(48))
    assert reg(out, 2) == int.from_bytes(bytes(range(8)), "little")
    flat = [ins for a in range(0, 48, 8) for ins in (VLoad(1, a), VStore(1, a + 64))]
    flat.append(VLoad(2, 0))
    assert out.total_cycles == execute(prog(flat), memory=bytearray(112)).total_cycles
    with pytest.raises(ValueError, match="strides"):
        Repeat(1, (), strides=(0, 0, 0, 0))


def _counting_computes(monkeypatch) -> list:
    """Record every tile compute call (dc.f's counts once, as compute_row)."""
    calls = []
    real = DimcTile.compute_row

    def counted(self, *args):
        calls.append(args[0])
        return real(self, *args)

    monkeypatch.setattr(DimcTile, "compute_row", counted)
    return calls


def _rebased(body, n, strides):
    """Iteration n of a Repeat body with its addresses rebased."""
    return [dataclasses.replace(i, addr=i.addr + n * strides[i.region])
            if type(i) in (VLoad, VStore) else i for i in body]


# weights at 0, six 8-byte patches at 8, six 8-byte outputs at 56
_PROLOGUE = (VLoad(1, 0), DlM(vs1=1, nvec=1, sec=0, mask=1, m_row=0))


def _patch_memory():
    rng = np.random.default_rng(3)
    return bytearray(rng.integers(0, 256, 56, dtype=np.uint8).tobytes()) + bytearray(48)


def test_independent_repeat_runs_as_one_batch(monkeypatch):
    # every iteration loads its own patch and stores its own result, so the
    # six iterations run as one pass: one tile call per compute instruction
    body = (VLoad(2, 8, region=1), DlI(vs1=2, nvec=1, sec=0, mask=1),
            DcP(vs1=0, vd=3, sh=0, dh=0, m_row=0),
            DcF(vs1=3, vd=4, sh=0, dh=1, m_row=0, bidx=2), VStore(4, 56, region=2))
    strides = (0, 8, 8)
    calls = _counting_computes(monkeypatch)
    batched = execute(prog(_PROLOGUE + (Repeat(6, body, strides),),
                           quant=QuantConfig(right_shift=2)), memory=_patch_memory())
    assert len(calls) == 2
    flat = list(_PROLOGUE) + [i for n in range(6) for i in _rebased(body, n, strides)]
    unrolled = execute(prog(flat, quant=QuantConfig(right_shift=2)), memory=_patch_memory())
    assert len(calls) == 2 + 12
    assert batched.memory == unrolled.memory and batched.vrf == unrolled.vrf
    assert batched.memory[56:] != bytes(48)


@pytest.mark.parametrize("nodes", [
    # dc.p accumulates onto the partial the previous iteration left in v3
    (Repeat(6, (VLoad(2, 8, region=1), DlI(vs1=2, nvec=1, sec=0, mask=1),
                DcP(vs1=3, vd=3, sh=0, dh=0, m_row=0), VStore(3, 56, region=2)), (0, 8, 8)),),
    # the vload from region 2 reads the word the previous iteration stored
    (Repeat(6, (VLoad(2, 48, region=2), DlI(vs1=2, nvec=1, sec=0, mask=1),
                DcP(vs1=0, vd=3, sh=0, dh=0, m_row=0), VStore(3, 56, region=2)), (0, 0, 8)),),
    # the two vstores, 48 bytes apart under an 8-byte stride, interleave
    # across iterations without meeting: the address intervals cannot
    # clear the loop, so it is walked
    (Repeat(6, (VLoad(2, 8, region=1), DlI(vs1=2, nvec=1, sec=0, mask=1),
                DcP(vs1=0, vd=3, sh=0, dh=0, m_row=0), VStore(3, 56, region=2),
                VStore(2, 104, region=2)), (0, 8, 8)),),
    # each iteration of a row loop loads patch n into weight row 1 + n, and
    # each of a second one computes against row 1 + n: neither batches,
    # since a batch would keep only its last iteration's row
    (DlI(vs1=1, nvec=1, sec=0, mask=1),
     Repeat(6, (VLoad(2, 8, region=1), DlM(vs1=2, nvec=1, sec=0, mask=1, m_row=1)),
            (0, 8, 0), rows=1),
     Repeat(6, (DcP(vs1=0, vd=3, sh=0, dh=0, m_row=1), VStore(3, 56, region=2)),
            (0, 0, 8), rows=1)),
    # each pass computes against row 2, which the row loop after it writes
    # in its third iteration: a pass reads a row the previous pass wrote
    (DlI(vs1=1, nvec=1, sec=0, mask=1),
     Repeat(6, (DcP(vs1=0, vd=3, sh=0, dh=0, m_row=2), VStore(3, 56, region=2),
                Repeat(3, (VLoad(2, 8, region=1), DlM(vs1=2, nvec=1, sec=0, mask=1, m_row=0)),
                       (0, 8, 0), rows=1)), (0, 0, 8))),
], ids=["carried-partial", "load-after-store", "interleaved-stores", "row-loops",
        "row-carried-across-passes"])
def test_repeat_with_carried_state_matches_flat_expansion(monkeypatch, nodes):
    # room for the interleaved stores, which reach byte 152
    memory = _patch_memory() + bytearray(48)
    calls = _counting_computes(monkeypatch)
    walked = execute(prog(_PROLOGUE + nodes), memory=bytearray(memory))
    assert len(calls) == 6  # one pass per iteration
    unrolled = execute(prog(_PROLOGUE + tuple(_unrolled(nodes))), memory=bytearray(memory))
    assert walked.memory == unrolled.memory and walked.vrf == unrolled.vrf
    assert walked.memory[56:104] != bytes(48)


def test_groups_of_a_single_position_layer_run_as_one_batch(monkeypatch):
    # an fc layer has one output position, so each of its three kernel
    # groups holds a Repeat(1) over positions; the groups still run as one
    # batch: one compute call per kernel chunk of a group (16 kernels of
    # two chunks each), not one per group iteration
    layer = LayerDescriptor(kind="fc", ich=320, och=48)
    lowering = lower(layer)
    rng = np.random.default_rng(5)
    inputs = rng.integers(-8, 8, (1, 1, 320))
    weights = rng.integers(-8, 8, (48, 1, 1, 320))
    calls = _counting_computes(monkeypatch)
    _, got = run_layer(lowering, None, inputs, weights)
    assert len(calls) == 16 * 2
    want = oracle.quantize_partials(oracle.conv_partials(inputs, weights, 1, 0), lowering.quant)
    assert np.array_equal(got, want)


def test_one_iteration_loop_that_keeps_its_store_in_place_still_batches(monkeypatch):
    # the Repeat(1) does not advance region 2, but it runs once per outer
    # iteration, and the outer loop moves the store: the three stores are
    # disjoint and the outer loop runs as one batch
    inner = Repeat(1, (DcP(vs1=0, vd=3, sh=0, dh=0, m_row=0), VStore(3, 56, region=2)))
    body = (VLoad(2, 8, region=1), DlI(vs1=2, nvec=1, sec=0, mask=1), inner)
    strides = (0, 8, 8)
    calls = _counting_computes(monkeypatch)
    batched = execute(prog(_PROLOGUE + (Repeat(3, body, strides),)), memory=_patch_memory())
    assert len(calls) == 1
    flat = list(_PROLOGUE) + [i for n in range(3) for i in _rebased(body[:2] + inner.body,
                                                                     n, strides)]
    unrolled = execute(prog(flat), memory=_patch_memory())
    assert batched.memory == unrolled.memory and batched.vrf == unrolled.vrf
    assert batched.memory[56:80] != bytes(24)


def test_out_of_bounds_after_a_batch_and_an_empty_loop_reports_the_unrolled_pc(monkeypatch):
    # the batch walks one pass of its four instructions, the unrolled
    # program six; the Repeat(0) adds nothing: the vload is at pc 2 + 24
    body = (VLoad(2, 8, region=1), DlI(vs1=2, nvec=1, sec=0, mask=1),
            DcP(vs1=0, vd=3, sh=0, dh=0, m_row=0), VStore(3, 56, region=2))
    calls = _counting_computes(monkeypatch)
    program = prog(_PROLOGUE + (Repeat(6, body, (0, 8, 8)), Repeat(0, (VClear(5),)),
                                VLoad(1, 104)))
    with pytest.raises(SimulationError, match="out of bounds") as err:
        execute(program, memory=_patch_memory())
    assert len(calls) == 1
    assert err.value.pc == 2 + 6 * 4


@pytest.mark.parametrize("load_base, store_base, pc", [(0, 56, 13), (56, 0, 12)],
                         ids=["vstore", "vload"])
def test_out_of_bounds_in_a_batched_iteration_reports_its_pc(load_base, store_base, pc):
    # a 2x3 grid copy whose last access, iteration (1, 2), ends past the
    # 96-byte image: the error names the pc the unrolled program fails at
    inner = (VLoad(1, load_base, region=1), VStore(1, store_base, region=2))
    program = prog([Repeat(2, (VClear(2), Repeat(3, inner, strides=(0, 8, 8))),
                           strides=(0, 24, 24))])
    flat = prog([i for g in range(2) for i in [VClear(2)] +
                 [j for p in range(3) for j in _rebased(inner, 3 * g + p, (0, 8, 8))]])
    states = []
    for p in (program, flat):
        mem = bytearray(range(96))
        machine = _Machine(p, mem)
        with pytest.raises(SimulationError, match="out of bounds") as err:
            machine.run_nodes(p.body)
        assert err.value.pc == pc
        assert len(mem) == 96 and len(machine.vrf) == 8 * NUM_VREGS
        states.append((bytes(mem), machine.vrf))
    assert states[0] == states[1]


def test_timing_model_validation():
    with pytest.raises(ValueError):
        TimingModel(latency={"dc.p": 0})
    with pytest.raises(ValueError):
        TimingModel(freq_hz=0)
    with pytest.raises(ValueError):
        TimingModel.from_dict({"bogus": 1})
    t = TimingModel.from_dict({"memory_latency": 3})
    assert t.latency["vload"] == 3 and t.latency["dc.p"] == 4


def test_program_mode_controls_compute():
    # one byte 0b00000011 in buffer and row: at 1-bit unsigned that is
    # elements {1,1}, dot = 2; at 2-bit unsigned it is element 3, dot = 9
    mem = bytearray(8)
    mem[0] = 0b11
    body = [VLoad(1, 0), DlI(vs1=1, nvec=1, sec=0, mask=1),
            DlM(vs1=1, nvec=1, sec=0, mask=1, m_row=0),
            DcP(vs1=0, vd=2, sh=0, dh=0, m_row=0)]
    one = execute(prog(body, mode=PrecisionMode(1, False, False)), memory=bytearray(mem))
    two = execute(prog(body, mode=PrecisionMode(2, False, False)), memory=bytearray(mem))
    assert reg(one, 2, half=0) == 2
    assert reg(two, 2, half=0) == 9


def test_unsupported_precision_is_rejected_before_the_data_walk():
    # the data half builds its tile for the program's precision, so an 8-bit
    # program fails before its first instruction; its timing still runs
    program = prog([VLoad(1, 0), VStore(1, 8)], mode=PrecisionMode(8))
    memory = bytearray(range(16))
    with pytest.raises(ValueError, match="8-bit"):
        execute(program, memory=memory)
    assert memory == bytearray(range(16))
    assert execute(program).total_cycles == execute(prog(program.body)).total_cycles


def test_program_quant_controls_dcf():
    mem = bytearray(8)
    mem[0:4] = (57).to_bytes(4, "little")
    body = [VLoad(1, 0), DcF(vs1=1, vd=2, sh=0, dh=0, m_row=0, bidx=0)]
    out = execute(prog(body, quant=QuantConfig(right_shift=3, out_bits=4)),
                  memory=bytearray(mem))
    assert reg(out, 2, half=0) == 7


# -- a per-instruction reference scheduler, written from the timing contract
# in the sim module docstring, against the compiled one

_KIND_CLASS = {"vload": "loading", "dl.i": "loading", "dl.m": "loading", "vstore": "storing",
               "varith": "computing", "dc.p": "computing", "dc.f": "computing"}


def _unrolled(nodes, offsets=(0, 0, 0), row=0):
    """The instructions the unrolled program runs, each vload and vstore
    address rebased and each weight row advanced by its enclosing loops."""
    for node in nodes:
        if isinstance(node, Repeat):
            strides = node.strides + (0,) * (3 - len(node.strides))
            for n in range(node.count):
                yield from _unrolled(node.body, [o + n * s for o, s in zip(offsets, strides)],
                                     row + n * node.rows)
        elif isinstance(node, (VLoad, VStore)):
            yield dataclasses.replace(node, addr=node.addr + offsets[node.region])
        elif isinstance(node, (DlM, DcP, DcF)):
            yield dataclasses.replace(node, m_row=node.m_row + row)
        else:
            yield node


def _operands(ins):
    """(values read, values written): register halves, input-buffer sectors
    and weight-row sectors."""
    def halves(r, n=1):
        return [("v", q, h) for q in range(r, r + n) for h in (0, 1)]
    if ins.kind in ("vload", "varith"):
        return [], halves(ins.vd)
    if ins.kind == "vstore":
        return halves(ins.vs1), []
    if ins.kind in ("dl.i", "dl.m"):
        target = ("in", ins.sec) if ins.kind == "dl.i" else ("row", ins.m_row, ins.sec)
        return halves(ins.vs1, ins.nvec), [target]
    sectors = [("in", s) for s in range(4)] + [("row", ins.m_row, s) for s in range(4)]
    return [("v", ins.vs1, ins.sh)] + sectors, [("v", ins.vd, ins.dh)]


def reference_schedule(nodes, timing):
    """Each instruction at the earliest cycle after the previous issue (and
    after every result before a barrier) at which its unit is free and its
    reads are ready; each gap is booked on the earlier instruction's class."""
    ready, free, trace = {}, {}, []
    cycles, counts = dict.fromkeys(CLASSES, 0), dict.fromkeys(CLASSES, 0)
    last, t_last, t_max, drained = None, -1, 0, 0
    for ins in _unrolled(nodes):
        if isinstance(ins, Barrier):
            drained = t_max
            continue
        reads, writes = _operands(ins)
        t = max([t_last + 1, drained, free.get(ins.kind, 0)] + [ready.get(k, 0) for k in reads])
        done = t + timing.latency[ins.kind]
        ready.update(dict.fromkeys(writes, done))
        free[ins.kind] = t + timing.issue_interval[ins.kind]
        if last:
            cycles[last] += t - t_last
        last, t_last, t_max = _KIND_CLASS[ins.kind], t, max(t_max, done)
        counts[last] += 1
        trace.append((done, last, ins.mnemonic))
    if last:
        cycles[last] += t_max - t_last
    return t_max, cycles, counts, trace


_regs = st.integers(0, 7)
_bits = st.integers(0, 1)
_rows = st.integers(0, 3)
_straight = st.one_of(
    st.builds(VLoad, vd=_regs, addr=st.just(0), region=st.integers(0, 2)),
    st.builds(VStore, vs1=_regs, addr=st.just(0), region=st.integers(0, 2)),
    st.builds(VClear, vd=_regs),
    st.builds(DlI, vs1=_regs, nvec=st.integers(1, 4), sec=st.integers(0, 3),
              mask=st.integers(0, 15)),
    st.builds(DlM, vs1=_regs, nvec=st.integers(1, 4), sec=st.integers(0, 3),
              mask=st.integers(0, 15), m_row=_rows),
    st.builds(DcP, vs1=_regs, vd=_regs, sh=_bits, dh=_bits, m_row=_rows),
    st.builds(DcF, vs1=_regs, vd=_regs, sh=_bits, dh=_bits, m_row=_rows,
              bidx=st.integers(0, 3)))
_instructions = st.one_of(_straight, st.just(Barrier()))
# weight rows 0-3, advanced by at most 2 over at most 9 iterations, stay
# below row 32
_loop = st.builds(Repeat, count=st.integers(0, 9),
                  body=st.lists(_instructions, min_size=1, max_size=6),
                  rows=st.integers(0, 2))
_nodes = st.one_of(_instructions, _loop, st.builds(
    Repeat, count=st.integers(0, 6),
    body=st.lists(st.one_of(_instructions, _loop), min_size=1, max_size=6)))
_tables = st.builds(
    TimingModel, memory_latency=st.integers(1, 16),
    latency=st.dictionaries(st.sampled_from(INSTRUCTION_KINDS), st.integers(1, 16)),
    issue_interval=st.dictionaries(
        st.sampled_from(INSTRUCTION_KINDS),
        st.one_of(st.integers(1, 4), st.integers(5, 64))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(body=st.lists(_nodes, max_size=8), timing=_tables)
def test_schedule_matches_reference_scheduler(body, timing):
    total, cycles, counts, trace = reference_schedule(body, timing)
    walked_trace = []
    walked = execute(prog(body), timing, trace=walked_trace)
    extrapolated = execute(prog(body), timing)
    for out in (walked, extrapolated):
        assert out.total_cycles == total
        assert out.cycles_by_class == cycles
        assert out.counts_by_class == counts
    assert walked_trace == trace


@settings(max_examples=300, deadline=None, derandomize=True)
@given(body=st.lists(_nodes, max_size=8), timing=_tables)
def test_walk_leaves_the_state_of_the_unrolled_walk(body, timing):
    # every pass of a single-run loop but the last stores only the keys a
    # later pass reads before writing them; whether each pass applies its
    # schedule or issues one by one, the walk ends in the state the unrolled
    # program, which has no loop, leaves
    def walked(nodes):
        clock = _Clock(_kinds(timing), None, walk=True)
        clock.run(clock.compile(Program(nodes).body)[0])
        return clock.ready, clock.cycles, clock.t_last, clock.t_max, clock.pending

    assert walked(body) == walked(tuple(_unrolled(body)))


_tiny_loop = st.builds(Repeat, count=st.integers(0, 2),
                       body=st.lists(_instructions, min_size=1, max_size=4),
                       rows=st.integers(0, 2))
_tiny_nodes = st.one_of(_instructions, _tiny_loop, st.builds(
    Repeat, count=st.integers(0, 2),
    body=st.lists(st.one_of(_instructions, _tiny_loop), min_size=1, max_size=4)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(body=st.lists(_tiny_nodes, max_size=6))
def test_counts_are_those_of_the_unrolled_program(body):
    # Repeat(0) and Repeat(1) at every depth, with and without a row
    # advance: the counts the build pass takes are those of the
    # instructions the unrolled program issues
    counts = dict.fromkeys(CLASSES, 0)
    for ins in _unrolled(body):
        if not isinstance(ins, Barrier):
            counts[_KIND_CLASS[ins.kind]] += 1
    assert execute(prog(body)).counts_by_class == counts


@pytest.mark.parametrize("interval", [7, 40])
def test_run_whose_entry_wait_binds_matches_reference_scheduler(monkeypatch, interval):
    # every pass's dc.f waits for the dc.f unit the previous pass left busy,
    # by one cycle at interval 7 and by 34 at 40, so the passes after the
    # first issue their instructions one by one. dc.f issues at 2, then
    # every interval cycles; the last vstore issues 4 later, completes 8 later
    timing = TimingModel(issue_interval={"dc.f": interval})
    body = [VClear(2), Repeat(6, (DlI(vs1=1, nvec=4, sec=0, mask=0b1111),
                                  DcF(vs1=2, vd=3, sh=0, dh=0, m_row=0, bidx=0),
                                  VStore(3, 0)))]
    # compiling a run drives the same kernel with ``waits``; count only the
    # runtime fallback passes, which pass none
    one_by_one = []
    issue_each = _Clock._issue_each

    def counted(clock, instructions, waits=None):
        if waits is None:
            one_by_one.append(len(instructions))
        issue_each(clock, instructions, waits)

    monkeypatch.setattr(_Clock, "_issue_each", counted)
    total, cycles, counts, trace = reference_schedule(body, timing)
    assert total == 2 + 5 * interval + 4 + 8
    walked = execute(prog(body), timing, bytearray(8))
    assert one_by_one == [3] * 5
    traced_rows = []
    traced = execute(prog(body), timing, trace=traced_rows)
    extrapolated = execute(prog(body), timing)
    for out in (walked, traced, extrapolated):
        assert out.total_cycles == total
        assert out.cycles_by_class == cycles
        assert out.counts_by_class == counts
    assert traced_rows == trace


@settings(max_examples=200, deadline=None, derandomize=True)
@given(run=st.lists(_straight, min_size=1, max_size=12),
       timing=st.builds(
           TimingModel, memory_latency=st.integers(1, 16),
           latency=st.dictionaries(st.sampled_from(INSTRUCTION_KINDS), st.integers(1, 16)),
           issue_interval=st.dictionaries(st.sampled_from(INSTRUCTION_KINDS),
                                          st.integers(1, 64))))
def test_cold_guard_offsets_are_exact(run, timing):
    # an entry key ready exactly at its guard offset leaves the compiled
    # schedule as it is; ready one cycle later, it delays the run
    kinds = _kinds(timing)
    (compiled,), _ = _Clock(kinds, []).compile(tuple(run))

    def issued(key, ready):
        clock = _Clock(kinds, [], ready=_NEVER)
        clock.ready[key] = ready
        clock._issue_each(run)
        return clock

    for key, offset in zip(*compiled.guards[0]):
        clock = issued(key, offset)
        # a key the run never writes keeps the offset it was given
        stores = {k: c for k, c in enumerate(clock.ready) if c != _NEVER}
        assert stores == {key: offset, **dict(compiled.stores)}
        assert (clock.t_max, clock.t_last) == (compiled.peak, compiled.tail)
        assert tuple((c, n) for c, n in enumerate(clock.cycles[:3]) if n) == compiled.gaps
        assert clock.trace == compiled.rows
        assert issued(key, offset + 1).trace != compiled.rows


def _starts(nodes, offsets):
    """(is_store, start address) of every vload/vstore the unrolled nodes run."""
    for node in nodes:
        if isinstance(node, Repeat):
            for i in range(node.count):
                yield from _starts(node.body, [o + i * s for o, s in zip(offsets, node.strides)])
        elif isinstance(node, (VLoad, VStore)):
            yield isinstance(node, VStore), node.addr + offsets[node.region]


def _commutes_by_brute_force(node, offsets, size) -> bool:
    accesses = list(_starts([node], offsets))
    stores = [a for store, a in accesses if store]
    return (all(0 <= a <= size - 8 for _, a in accesses)
            and all(abs(a - b) >= 8 for i, a in enumerate(stores) for b in stores[:i])
            and all(abs(a - b) >= 8 for store, a in accesses if not store for b in stores))


def _commute_checks(node, offsets, size) -> bool:
    """The interval check of a top-level loop."""
    machine = _Machine(prog([node]), bytearray(size))
    machine.offsets = list(offsets)
    return machine._commutes(node, machine.analyze(node.body))


_addrs = st.one_of(st.integers(0, 8).map(lambda k: 8 * k), st.integers(0, 64))
_moves = st.one_of(st.sampled_from([-16, -8, 0, 8, 16, 24]), st.integers(-20, 20))
_region_moves = st.tuples(_moves, _moves, _moves)
_accesses = st.one_of(st.builds(VLoad, vd=_regs, addr=_addrs, region=st.integers(0, 2)),
                      st.builds(VStore, vs1=_regs, addr=_addrs, region=st.integers(0, 2)))
# the vstores of one output record: one region, under one loop nest
_store_records = st.lists(st.builds(VStore, vs1=_regs, addr=_addrs, region=st.just(2)),
                          min_size=2, max_size=3)
_access_loops = st.builds(Repeat, count=st.integers(0, 3),
                          body=st.one_of(st.lists(_accesses, min_size=1, max_size=3),
                                         _store_records),
                          strides=_region_moves)


@st.composite
def _access_nests(draw):
    """A loop of vloads, vstores and loops of them, region offsets that put
    the first access at byte -1, 0 or later, and an image that the last
    access ends one byte past, exactly at, or before."""
    node = Repeat(draw(st.integers(1, 4)),
                  draw(st.lists(st.one_of(_accesses, _access_loops), min_size=1, max_size=4)),
                  draw(_region_moves))
    offsets = draw(st.tuples(*[st.integers(0, 24)] * 3))
    starts = [a for _, a in _starts([node], offsets)] or [0]
    shift = draw(st.sampled_from([-1, 0, 0, 8])) - min(starts)
    offsets = tuple(o + shift for o in offsets)
    end = max(starts) + shift + 8
    return node, offsets, max(0, end + draw(st.sampled_from([-1, 0, 0, 16])))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(nest=_access_nests())
def test_interval_check_agrees_with_every_address(nest):
    # negative strides, vstores that interleave across iterations, loads
    # over stored bytes, images the accesses end at or one byte past, and
    # Repeat(0)/Repeat(1) inner loops: the interval check clears a loop
    # only where every address shows that it commutes
    node, offsets, size = nest
    cleared = _commute_checks(node, offsets, size)
    assert _commutes_by_brute_force(node, offsets, size) or not cleared


@pytest.mark.parametrize("body, strides, size, decided, commutes", [
    # two vstores per pass, 8 apart, under a 16-byte stride: one cluster
    ((VStore(1, 0, 2), VStore(2, 8, 2)), (0, 0, 16), 48, True, True),
    # the same cluster ending one byte past the image
    ((VStore(1, 0, 2), VStore(2, 8, 2)), (0, 0, 16), 47, False, False),
    # stores 24 apart under an 8-byte stride interleave without meeting
    ((VStore(1, 0, 2), VStore(2, 24, 2)), (0, 0, 8), 48, False, True),
    # ... and under a 16-byte stride the second pass meets the first
    ((VStore(1, 0, 2), VStore(2, 16, 2)), (0, 0, 16), 48, False, False),
    # a negative stride walks down from the base; the load stays below it
    ((VLoad(1, 0, 1), VStore(1, 40, 2)), (0, 8, -8), 48, True, True),
    # a Repeat(0) adds nothing, a Repeat(1) does not move its store
    ((Repeat(0, (VStore(1, 0, 2),)), Repeat(1, (VStore(1, 0, 2),), (0, 0, 64))),
     (0, 0, 8), 24, True, True),
    # two vstores of one pass 7 bytes apart
    ((VStore(1, 0, 2), VStore(2, 7, 2)), (0, 0, 16), 48, False, False),
    # a load of the bytes the next pass stores
    ((VLoad(1, 8, 2), VStore(1, 0, 2)), (0, 0, 8), 48, False, False),
], ids=["cluster", "one-past", "interleaved", "overlapping", "negative", "empty-and-once",
        "seven-apart", "load-over-store"])
def test_interval_check_decides_the_common_cases(body, strides, size, decided, commutes):
    node = Repeat(3, body, strides)
    assert _commute_checks(node, (0, 0, 0), size) == decided
    assert _commutes_by_brute_force(node, (0, 0, 0), size) == commutes


def test_interval_check_decides_every_resnet50_loop():
    for name, layer in load_workload("resnet50").entries:
        lowering = lower(layer)
        for node in lowering.program.body:
            if isinstance(node, Repeat):
                assert _commute_checks(node, (0, 0, 0), lowering._layout.total_bytes), name


@pytest.mark.parametrize("name, loads", [("conv2_1_a", 33), ("conv4_2_a", 144),
                                         ("fc1000", 160)])
def test_verify_layers_make_one_tile_call_per_instruction_of_a_batched_pass(
        monkeypatch, name, loads):
    # the benchmark's tile call counts mean this many calls per layer
    layer = dict(load_workload("resnet50").entries)[name]
    computes = _counting_computes(monkeypatch)
    load_calls = []
    for method in ("load_input_sector", "load_memory_row"):
        real = getattr(DimcTile, method)
        monkeypatch.setattr(DimcTile, method,
                            lambda self, *args, real=real: load_calls.append(1) or real(self, *args))
    rng = np.random.default_rng(0)
    inputs = rng.integers(*layer.precision.input_range(), (layer.h, layer.w, layer.ich),
                          endpoint=True)
    weights = rng.integers(*layer.precision.weight_range(),
                           (layer.och, layer.kh, layer.kw, layer.ich), endpoint=True)
    lowering = lower(layer)
    _, got = run_layer(lowering, None, inputs, weights)
    assert (len(computes), len(load_calls)) == (32, loads)
    want = oracle.quantize_partials(oracle.conv_partials(inputs, weights, layer.stride,
                                                         layer.padding), lowering.quant)
    assert np.array_equal(got, want)
