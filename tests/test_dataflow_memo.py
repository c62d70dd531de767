"""The per-instruction dataflow memo (``Inst.flow``) against the
on-demand queries it replaces in the pipelines' hot paths."""

import pickle

import pytest

from repro.isa.instructions import (
    BRANCH_OPS,
    LOAD_OPS,
    MEM_OPS,
    STORE_OPS,
    Cond,
    Op,
)
from repro.isa.toolchain import Toolchain
from repro.sim import registry
from repro.workloads import WORKLOAD_NAMES, build


def _assert_memo_matches(inst):
    flow = inst.flow
    srcs = inst.src_regs()
    dsts = inst.dst_regs()
    # Same members *and* the same iteration order as the set the
    # pipelines used to build per dispatch (operand reads are traced).
    assert list(flow.src_set) == list(set(srcs))
    assert list(flow.renamed_srcs) == list(set(a for a in srcs if a != 15))
    assert list(flow.reg_dsts) == [a for a in dsts if a != 15]
    assert flow.writes_flags == inst.writes_flags()
    assert flow.conditional == (inst.cond != Cond.AL)
    assert flow.reads_cpsr == (inst.cond != Cond.AL or inst.reads_flags())
    assert flow.flag_src == (inst.cond != Cond.AL or inst.reads_flags()
                             or inst.writes_flags())
    assert flow.is_load == (inst.op in LOAD_OPS or inst.op == Op.LDM)
    assert flow.is_store == (inst.op in STORE_OPS or inst.op == Op.STM)
    assert flow.is_mem == (inst.op in MEM_OPS)
    assert flow.is_branch == (inst.op in BRANCH_OPS or 15 in dsts)
    assert flow.is_mul == (inst.op in (Op.MUL, Op.MLA))
    assert inst.flow is flow  # memoized, not rebuilt


@pytest.mark.parametrize("toolchain", ["gnu", "armcc"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_memo_matches_on_demand_queries(workload, toolchain):
    program = build(workload, Toolchain(toolchain))
    for inst in program.insts:
        _assert_memo_matches(inst)
    for inst in program.decode_table().values():
        _assert_memo_matches(inst)


def test_memo_is_lazy():
    program = build("sha")
    assert not any(hasattr(inst, "_flow") for inst in program.insts)
    assert not any(hasattr(inst, "_flow")
                   for inst in program.decode_table().values())


@pytest.mark.parametrize("level", ["uarch", "rtl"])
def test_memo_stays_out_of_pickles(level):
    frontend = registry.create_frontend(level, "sha")
    before = pickle.dumps(frontend.program)
    frontend.golden_run()
    assert any(hasattr(inst, "_flow") for inst in frontend.program.insts)
    assert pickle.dumps(frontend.program) == before
    clone = pickle.loads(before)
    assert not any(hasattr(inst, "_flow") for inst in clone.insts)
    for inst in clone.insts:
        _assert_memo_matches(inst)
