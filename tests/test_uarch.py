"""Microarchitectural (OoO) model: correctness and mechanics."""

import pytest

from repro.isa import Interpreter, Toolchain, assemble
from repro.uarch import CortexA9Config, MicroArchSim, RunStatus
from repro.workloads import build, expected_output

FAST_CONFIG = CortexA9Config(dcache_size=2048, icache_size=2048)


def run_uarch(body, config=None):
    program = assemble(".text\n_start:\n" + body)
    sim = MicroArchSim(program, config or FAST_CONFIG)
    status = sim.run()
    return sim, status


EXIT = "    movw r0, #0\n    svc #0\n"


def test_simple_program_exits():
    sim, status = run_uarch("""
    movw r1, #7
    add  r2, r1, r1
""" + EXIT)
    assert status is RunStatus.EXITED
    assert sim.arch_state()["regs"][2] == 14


def test_matches_interp_on_branches_and_memory():
    body = """
    movw r4, #0
    movw r5, #0
loop:
    add  r5, r5, r4
    add  r4, r4, #1
    cmp  r4, #20
    blt  loop
    ldr  r1, =buffer
    str  r5, [r1]
    ldr  r6, [r1]
    mov  r0, r6
    svc  #2
""" + EXIT + "\n.data\nbuffer: .space 4\n"
    program = assemble(".text\n_start:\n" + body)
    ref = Interpreter(program).run()
    sim = MicroArchSim(program, FAST_CONFIG)
    sim.run()
    assert sim.output == ref.output
    assert sim.icount == ref.inst_count


def test_store_load_forwarding():
    sim, status = run_uarch("""
    ldr  r1, =buffer
    movw r2, #77
    str  r2, [r1]
    ldr  r3, [r1]       ; must see the in-flight store
    mov  r0, r3
    svc  #2
""" + EXIT + "\n.data\nbuffer: .space 4\n")
    assert sim.output == b"77"


def test_partial_store_overlap_forwarding():
    sim, _ = run_uarch("""
    ldr  r1, =buffer
    movw r2, #0x1111
    movt r2, #0x1111
    str  r2, [r1]
    movw r3, #0xAB
    strb r3, [r1, #1]
    ldr  r4, [r1]
    mov  r0, r4
    svc  #3
""" + EXIT + "\n.data\nbuffer: .space 4\n")
    assert sim.output == b"1111ab11"


def test_mispredict_recovery_correct():
    """A data-dependent branch pattern the bimodal predictor gets wrong."""
    sim, status = run_uarch("""
    movw r4, #0
    movw r5, #0
loop:
    and  r1, r4, #1
    cmp  r1, #0
    beq  even
    add  r5, r5, #3
    b    next
even:
    add  r5, r5, #1
next:
    add  r4, r4, #1
    cmp  r4, #30
    blt  loop
    mov  r0, r5
    svc  #2
""" + EXIT)
    assert status is RunStatus.EXITED
    assert sim.output == b"60"
    assert sim.core.mispredicts > 0


def test_conditional_execution():
    sim, _ = run_uarch("""
    movw r1, #5
    cmp  r1, #5
    moveq r2, #1
    movne r3, #1
    mov  r0, r2
    svc  #2
    mov  r0, r3
    svc  #2
""" + EXIT)
    assert sim.output == b"10"


def test_exception_is_precise():
    """Only the faulting load's effects appear; older output committed."""
    sim, status = run_uarch("""
    movw r0, #65
    svc  #1
    mvn  r1, #0
    ldr  r2, [r1]       ; faults
    movw r0, #66
    svc  #1
""" + EXIT)
    assert status is RunStatus.FAULT
    assert sim.output == b"A"
    assert sim.fault.kind in ("mem-fault", "align-fault")


def test_wrong_path_fault_squashed():
    """A faulting load on the mispredicted path must not kill the run."""
    sim, status = run_uarch("""
    movw r4, #0
loop:
    add  r4, r4, #1
    cmp  r4, #12
    blt  loop           ; predictor learns taken; final fall-through
    b    done
    mvn  r1, #0
    ldr  r2, [r1]       ; wrong-path junk after unconditional branch
done:
""" + EXIT)
    assert status is RunStatus.EXITED


def test_stop_cycle_semantics():
    program = build("sha", Toolchain("gnu"))
    sim = MicroArchSim(program, FAST_CONFIG)
    status = sim.run(stop_cycle=500)
    assert status is RunStatus.STOPPED
    assert sim.cycle >= 500
    status = sim.run()
    assert status is RunStatus.EXITED


def test_watchdog_timeout():
    program = assemble(".text\n_start:\nloop: b loop\n")
    sim = MicroArchSim(program, FAST_CONFIG)
    status = sim.run(max_cycles=20_000)
    assert status is RunStatus.TIMEOUT and sim.cycle == 20_000


@pytest.mark.parametrize("name", ("fft", "qsort", "sha", "stringsearch"))
def test_cosim_output_and_icount(name):
    program = build(name, Toolchain("gnu"))
    ref = Interpreter(program).run(max_insts=2_000_000)
    sim = MicroArchSim(program)
    status = sim.run()
    assert status is RunStatus.EXITED
    assert sim.output == ref.output == expected_output(name)
    assert sim.icount == ref.inst_count


def test_checkpoint_restore_determinism():
    program = build("qsort", Toolchain("gnu"))
    sim = MicroArchSim(program, FAST_CONFIG)
    sim.run(stop_cycle=2000)
    cp = sim.checkpoint()
    sim.run()
    reference = (sim.output, [t.key() for t in sim.pinout], sim.icount)
    other = MicroArchSim(program, FAST_CONFIG)
    other.restore(cp)
    other.run()
    assert (other.output, [t.key() for t in other.pinout],
            other.icount) == reference


def test_restored_run_matches_continuous_golden_content():
    program = build("sha", Toolchain("gnu"))
    golden = MicroArchSim(program, FAST_CONFIG)
    golden.run()
    sim = MicroArchSim(program, FAST_CONFIG)
    sim.run(stop_cycle=3000)
    cp = sim.checkpoint()
    sim.restore(cp)
    sim.run()
    assert sim.output == golden.output
    assert [t.key() for t in sim.pinout] == \
        [t.key() for t in golden.pinout]


def test_fault_targets_populations():
    program = build("sha", Toolchain("gnu"))
    sim = MicroArchSim(program)
    targets = sim.fault_targets()
    assert targets["regfile"] == 56 * 32
    assert targets["l1d.data"] == 32 * 1024 * 8


def test_inject_into_free_phys_reg_is_masked():
    """Flipping a bit in a never-used physical register changes nothing."""
    program = build("stringsearch", Toolchain("gnu"))
    golden = MicroArchSim(program, FAST_CONFIG)
    golden.run()
    sim = MicroArchSim(program, FAST_CONFIG)
    sim.run(stop_cycle=100)
    free_phys = sim.rat.free[-1]
    sim.inject("regfile", free_phys * 32 + 5)
    sim.run()
    assert sim.output == golden.output


def test_inject_into_live_reg_can_corrupt():
    program = build("sha", Toolchain("gnu"))
    golden = MicroArchSim(program, FAST_CONFIG)
    golden.run()
    corrupted = 0
    for arch in (4, 5, 6, 7, 8):   # SHA-1 working variables a..e
        for bit in (3, 31):
            sim = MicroArchSim(program, FAST_CONFIG)
            sim.run(stop_cycle=2000)
            phys = sim.rat.committed[arch]
            sim.inject("regfile", phys * 32 + bit)
            status = sim.run(max_cycles=sim.cycle + 500_000)
            if status is not RunStatus.EXITED \
                    or sim.output != golden.output:
                corrupted += 1
    assert corrupted > 0


def test_unknown_fault_target_rejected():
    sim = MicroArchSim(build("sha", Toolchain("gnu")))
    with pytest.raises(ValueError):
        sim.inject("l2.data", 0)


def test_stats_shape():
    program = build("stringsearch", Toolchain("gnu"))
    sim = MicroArchSim(program, FAST_CONFIG)
    sim.run()
    stats = sim.stats()
    assert 0.1 < stats["ipc"] <= 2.0
    assert stats["instructions"] == sim.icount
    assert stats["l1d_hits"] > stats["l1d_misses"]


def test_pinout_contains_refills_and_writebacks():
    program = build("stringsearch", Toolchain("gnu"))
    # 1 KB forces dirty evictions (the campaign-scaled capacity).
    sim = MicroArchSim(program, CortexA9Config(dcache_size=1024,
                                               icache_size=1024))
    sim.run()
    kinds = {t.kind for t in sim.pinout}
    assert "rd" in kinds and "wb" in kinds


def test_table1_rows_match_paper():
    rows = dict(CortexA9Config().table_rows())
    assert rows["Physical Register File"] == "56 registers"
    assert rows["Instruction queue"] == "32"
    assert rows["Reorder buffer"] == "40"
    assert rows["Fetch/Execute/Writeback width"] == "2/4/4"
    assert rows["Data cache"] == "32KB 4-way"


def test_config_rejects_unknown_attribute():
    with pytest.raises(TypeError):
        CortexA9Config(bogus=1)
