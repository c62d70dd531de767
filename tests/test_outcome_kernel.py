"""The fault-outcome kernel, rule by rule.

:func:`repro.injection.classify.classify_outcome` is the one rule set
the scalar runner and both lane backends classify through.  The table
below lists every (observation, stop status) row with the class and
detail it must produce.  A ``None`` hardware state or pinout suffix
means the row must not read it: the callable handed in raises, which
pins the kernel's laziness (both cost a full memory image or pinout key
list on the lane paths).
"""

import pytest

from repro.errors import SimFault
from repro.injection.classify import FaultClass, classify_outcome
from repro.sim.base import RunStatus

GOLDEN = {
    "output": b"needle found",
    "hw_state": (("regs", 0), 0xC0FFEE),
    "pinout_keys": [("rf", 0x100, b""), ("rf", 0x140, b""),
                    ("wb", 0x200, b"\x01"), ("rf", 0x180, b"")],
}
LATCHED = SimFault("mem-fault", "access of 4 bytes outside RAM",
                   addr=0x80000000)
CLEAN = GOLDEN["output"]
SAME_HW = GOLDEN["hw_state"]
OTHER_HW = (("regs", 1), 0xC0FFEE)

M, S, D, H = (FaultClass.MASKED, FaultClass.SDC, FaultClass.DUE,
              FaultClass.HANG)
MM, L = FaultClass.MISMATCH, FaultClass.LATENT
EXITED, STOPPED = RunStatus.EXITED, RunStatus.STOPPED
FAULT, TIMEOUT = RunStatus.FAULT, RunStatus.TIMEOUT

#: (observation, status, output, hw_state, pinout suffix, trace base,
#:  expected class, expected detail)
ROWS = [
    # Machine faults and the watchdog win at every observation point.
    *[(obs, FAULT, b"", None, None, 0, D, str(LATCHED))
      for obs in ("pinout", "software", "arch")],
    *[(obs, TIMEOUT, b"", None, None, 0, H, "watchdog expired")
      for obs in ("pinout", "software", "arch")],
    # Software (AVF/SOP): whole output at exit, prefix at window end.
    ("software", EXITED, CLEAN, None, None, 0, M, ""),
    ("software", EXITED, b"needle", None, None, 0, S,
     "program output differs"),
    ("software", STOPPED, b"needle", None, None, 0, M,
     "window expired, prefix clean"),
    ("software", STOPPED, b"needle lost", None, None, 0, S,
     "output prefix differs"),
    # Arch (HVF): output first, then the hardware state.
    ("arch", EXITED, b"haystack", None, None, 0, S,
     "program output differs"),
    ("arch", EXITED, CLEAN, SAME_HW, None, 0, M, ""),
    ("arch", EXITED, CLEAN, OTHER_HW, None, 0, L,
     "hardware state differs"),
    # Pinout: the suffix from the trace base must match exactly at
    # exit and be a prefix of the golden suffix at window end.
    ("pinout", EXITED, b"", None, GOLDEN["pinout_keys"][1:], 1, M, ""),
    ("pinout", EXITED, b"", None, GOLDEN["pinout_keys"][1:3], 1, MM,
     "pinout trace deviates"),
    ("pinout", STOPPED, b"", None, GOLDEN["pinout_keys"][2:3], 2, M, ""),
    ("pinout", STOPPED, b"", None, [("wb", 0x200, b"\x02")], 2, MM,
     "pinout trace deviates"),
    ("pinout", STOPPED, b"", None,
     GOLDEN["pinout_keys"][2:] + [("rf", 0x1C0, b"")], 2, MM,
     "pinout trace deviates"),
]


def _never(name):
    def read():
        raise AssertionError(f"{name} read outside its observation rule")
    return read


@pytest.mark.parametrize(
    "observation,status,output,hw_state,suffix,base,fclass,detail", ROWS,
    ids=[f"{r[0]}-{r[1].value}-{i}" for i, r in enumerate(ROWS)])
def test_outcome_kernel_rule_table(observation, status, output, hw_state,
                                   suffix, base, fclass, detail):
    verdict = classify_outcome(
        status, observation, GOLDEN, output=output,
        hw_state=_never("hw_state") if hw_state is None
        else lambda: hw_state,
        pinout_suffix=_never("pinout_suffix") if suffix is None
        else lambda: suffix,
        trace_base=base, machine_fault=LATCHED)
    assert verdict == (fclass, detail)
