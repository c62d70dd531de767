"""Randomised co-simulation: generated programs agree across models.

Hypothesis generates random (but well-formed) straight-line data-
processing programs; the reference interpreter, the OoO model and the
RT-level model must compute identical architectural results.  This is
the broadest semantic net in the suite -- any divergence in ALU, flags,
forwarding, renaming or bypass behaviour fails here.

The second half turns the same generator against the lane engine
(``repro.batch``): random fault batches over random programs must
classify bit-identically to the scalar campaign path, on the arch and
rtl tiers (the lane walk forking at checkpoints and at in-flight
waypoints).
"""

from hypothesis import given, settings, strategies as st

from repro.injection.campaign import Campaign, CampaignConfig
from repro.isa import Interpreter, assemble
from repro.rtl import RTLConfig, RTLSim
from repro.sim.archsim import ArchSim
from repro.uarch import CortexA9Config, MicroArchSim, RunStatus

FAST_UARCH = CortexA9Config(dcache_size=1024, icache_size=1024)
FAST_RTL = RTLConfig(trace_signals=False, dcache_size=1024,
                     icache_size=1024)

_DP = ("add", "sub", "and", "orr", "eor", "adc", "sbc", "rsb", "bic")
_SHIFTS = ("lsl", "lsr", "asr", "ror")

REG = st.integers(min_value=1, max_value=10)  # keep r0 for output


@st.composite
def random_inst(draw):
    kind = draw(st.integers(min_value=0, max_value=4))
    rd = draw(REG)
    rn = draw(REG)
    rm = draw(REG)
    if kind == 0:
        op = draw(st.sampled_from(_DP))
        s = draw(st.sampled_from(("", "s")))
        return f"{op}{s} r{rd}, r{rn}, r{rm}"
    if kind == 1:
        op = draw(st.sampled_from(_DP))
        imm = draw(st.integers(min_value=0, max_value=4095))
        return f"{op} r{rd}, r{rn}, #{imm}"
    if kind == 2:
        shift = draw(st.sampled_from(_SHIFTS))
        amount = draw(st.integers(min_value=0, max_value=31))
        op = draw(st.sampled_from(_DP))
        return f"{op} r{rd}, r{rn}, r{rm}, {shift} #{amount}"
    if kind == 3:
        imm = draw(st.integers(min_value=0, max_value=0xFFFF))
        op = draw(st.sampled_from(("movw", "movt")))
        return f"{op} r{rd}, #{imm}"
    return f"mul r{rd}, r{rn}, r{rm}"


@st.composite
def random_program(draw):
    seeds = [
        f"    movw r{i}, #{draw(st.integers(0, 0xFFFF))}"
        for i in range(1, 11)
    ]
    body = [f"    {draw(random_inst())}" for _ in
            range(draw(st.integers(min_value=3, max_value=25)))]
    fold = []
    for i in range(1, 11):
        fold.append(f"    eor r0, r0, r{i}")
        fold.append(f"    add r0, r0, r{i}, ror #{i}")
    return "\n".join(
        [".text", "_start:", "    movw r0, #0"] + seeds + body + fold
        + ["    svc #3", "    movw r0, #0", "    svc #0"]
    )


@settings(max_examples=25, deadline=None)
@given(random_program())
def test_three_models_agree_on_random_programs(source):
    program = assemble(source)
    ref = Interpreter(program).run(max_insts=10_000)
    uarch = MicroArchSim(program, FAST_UARCH)
    assert uarch.run(max_cycles=200_000) is RunStatus.EXITED
    rtl = RTLSim(program, FAST_RTL)
    assert rtl.run(max_cycles=200_000) is RunStatus.EXITED
    assert uarch.output == ref.output
    assert rtl.output == ref.output
    assert uarch.icount == ref.inst_count
    assert rtl.icount == ref.inst_count


# ----------------------------------------------------------------------
# randomized fault batches: lane engine vs scalar campaign
# ----------------------------------------------------------------------

def _campaign_keys(program, structure, samples, seed, lanes,
                   level="arch"):
    """One campaign's records projected onto the bit-identity contract
    (fault cell/bit/cycle draws come deterministically from ``seed``,
    so both lane counts see the same batch)."""
    if level == "rtl":
        factory = lambda: RTLSim(program, FAST_RTL)  # noqa: E731
    else:
        factory = lambda: ArchSim(program)  # noqa: E731
    config = CampaignConfig(samples=samples, seed=seed, window=300,
                            checkpoint_interval=200, batch_lanes=lanes)
    result = Campaign(factory, structure, config,
                      workload="random", level=level).run()
    return [(r.fault.bit, r.fault.cycle, r.fclass, r.detail,
             r.sim_cycles) for r in result.records]


@settings(max_examples=10, deadline=None)
@given(random_program(),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=10),
       st.integers(min_value=2, max_value=6),
       st.sampled_from(("regfile", "cpsr")))
def test_lane_engine_matches_scalar_on_random_batches(
        source, seed, samples, lanes, structure):
    """Random programs x random fault batches: final classifications,
    details and simulated tails are identical lanes=N vs the scalar
    ``Interpreter`` replay path.  Shrinkable: a failure minimises the
    program body and the batch together."""
    program = assemble(source)
    scalar = _campaign_keys(program, structure, samples, seed, lanes=1)
    batch = _campaign_keys(program, structure, samples, seed, lanes=lanes)
    assert batch == scalar


@settings(max_examples=8, deadline=None)
@given(random_program(),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=10),
       st.integers(min_value=2, max_value=6),
       st.sampled_from(("regfile", "cpsr")))
def test_rtl_lane_engine_matches_scalar_on_random_batches(
        source, seed, samples, lanes, structure):
    """The same net thrown over the rtl lane backend: random programs x
    random fault batches classify bit-identically lanes=N vs the scalar
    pipeline replay, exercising vectorized execution, enforce-point
    drops and the scalar-fallback rerun path together."""
    program = assemble(source)
    scalar = _campaign_keys(program, structure, samples, seed, lanes=1,
                            level="rtl")
    batch = _campaign_keys(program, structure, samples, seed,
                           lanes=lanes, level="rtl")
    assert batch == scalar
