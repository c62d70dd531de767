"""Decoded instruction representation for the ARMlet ISA.

Instructions are held in a flat, slot-based record so that both pipelines
can dispatch on :attr:`Inst.op` cheaply.  The 32-bit binary form lives in
:mod:`repro.isa.encoding`; simulators execute the decoded form (instruction
*data* faults are out of the paper's scope -- it injects the register file
and the L1 data cache only).
"""

from __future__ import annotations

import enum
from typing import Any

from repro.isa.flags import COND_CODES


class Op(enum.IntEnum):
    """Operation codes.  Values are also the binary opcode field."""

    # Data processing, register operand2 (with optional barrel shift).
    AND = 0
    EOR = 1
    SUB = 2
    RSB = 3
    ADD = 4
    ADC = 5
    SBC = 6
    ORR = 7
    BIC = 8
    MOV = 9
    MVN = 10
    CMP = 11
    CMN = 12
    TST = 13
    TEQ = 14
    # Data processing, immediate operand2.
    ANDI = 16
    EORI = 17
    SUBI = 18
    RSBI = 19
    ADDI = 20
    ADCI = 21
    SBCI = 22
    ORRI = 23
    BICI = 24
    MOVI = 25
    MVNI = 26
    CMPI = 27
    CMNI = 28
    TSTI = 29
    TEQI = 30
    # Wide moves.
    MOVW = 32
    MOVT = 33
    # Multiply.
    MUL = 34
    MLA = 35
    # Loads / stores, immediate offset.
    LDR = 36
    STR = 37
    LDRB = 38
    STRB = 39
    LDRH = 40
    STRH = 41
    # Loads / stores, register offset.
    LDRR = 42
    STRR = 43
    LDRBR = 44
    STRBR = 45
    LDRHR = 46
    STRHR = 47
    # Multiple transfer.
    LDM = 48
    STM = 49
    # Control flow.
    B = 50
    BL = 51
    BX = 52
    # System.
    SVC = 53
    NOP = 54
    HLT = 55  # simulator-stop sentinel (assembler emits for bare-metal end)


class ShiftKind(enum.IntEnum):
    LSL = 0
    LSR = 1
    ASR = 2
    ROR = 3


SHIFT_NAMES = {
    "lsl": ShiftKind.LSL,
    "lsr": ShiftKind.LSR,
    "asr": ShiftKind.ASR,
    "ror": ShiftKind.ROR,
}


class Cond(enum.IntEnum):
    """Condition codes (ARM order)."""

    EQ = 0
    NE = 1
    CS = 2
    CC = 3
    MI = 4
    PL = 5
    VS = 6
    VC = 7
    HI = 8
    LS = 9
    GE = 10
    LT = 11
    GT = 12
    LE = 13
    AL = 14


#: Data-processing ops that take a register operand2.
DP_REG_OPS = frozenset(
    {Op.AND, Op.EOR, Op.SUB, Op.RSB, Op.ADD, Op.ADC, Op.SBC, Op.ORR,
     Op.BIC, Op.MOV, Op.MVN, Op.CMP, Op.CMN, Op.TST, Op.TEQ}
)
#: Data-processing ops with an immediate operand2.
DP_IMM_OPS = frozenset(
    {Op.ANDI, Op.EORI, Op.SUBI, Op.RSBI, Op.ADDI, Op.ADCI, Op.SBCI,
     Op.ORRI, Op.BICI, Op.MOVI, Op.MVNI, Op.CMPI, Op.CMNI, Op.TSTI, Op.TEQI}
)
#: Compare-style ops: no destination register, always set flags.
COMPARE_OPS = frozenset(
    {Op.CMP, Op.CMN, Op.TST, Op.TEQ, Op.CMPI, Op.CMNI, Op.TSTI, Op.TEQI}
)
#: Ops whose operand2 is unary (no rn source).
UNARY_OPS = frozenset({Op.MOV, Op.MVN, Op.MOVI, Op.MVNI})

LOAD_OPS = frozenset({Op.LDR, Op.LDRB, Op.LDRH, Op.LDRR, Op.LDRBR, Op.LDRHR})
STORE_OPS = frozenset({Op.STR, Op.STRB, Op.STRH, Op.STRR, Op.STRBR, Op.STRHR})
MEM_OPS = LOAD_OPS | STORE_OPS | {Op.LDM, Op.STM}
BRANCH_OPS = frozenset({Op.B, Op.BL, Op.BX})

#: Byte width of each scalar memory op.
MEM_SIZE = {
    Op.LDR: 4, Op.STR: 4, Op.LDRR: 4, Op.STRR: 4,
    Op.LDRB: 1, Op.STRB: 1, Op.LDRBR: 1, Op.STRBR: 1,
    Op.LDRH: 2, Op.STRH: 2, Op.LDRHR: 2, Op.STRHR: 2,
}

#: Register-offset twin of each immediate-offset memory op.
MEM_REG_FORM = {
    Op.LDR: Op.LDRR, Op.STR: Op.STRR,
    Op.LDRB: Op.LDRBR, Op.STRB: Op.STRBR,
    Op.LDRH: Op.LDRHR, Op.STRH: Op.STRHR,
}

#: Immediate twin of each register-operand2 data-processing op.
DP_IMM_FORM = {
    Op.AND: Op.ANDI, Op.EOR: Op.EORI, Op.SUB: Op.SUBI, Op.RSB: Op.RSBI,
    Op.ADD: Op.ADDI, Op.ADC: Op.ADCI, Op.SBC: Op.SBCI, Op.ORR: Op.ORRI,
    Op.BIC: Op.BICI, Op.MOV: Op.MOVI, Op.MVN: Op.MVNI, Op.CMP: Op.CMPI,
    Op.CMN: Op.CMNI, Op.TST: Op.TSTI, Op.TEQ: Op.TEQI,
}
DP_REG_FORM = {imm: reg for reg, imm in DP_IMM_FORM.items()}


class Inst:
    """One decoded instruction.

    Field usage by format:

    * data processing: ``rd``, ``rn``, ``rm``/``imm``, ``shift_kind``,
      ``shift_amount``, ``shift_reg`` (register-specified shift amount),
      ``s`` (update flags);
    * memory: ``rd`` (data), ``rn`` (base), ``imm``/``rm`` (offset),
      ``pre`` (pre-index), ``writeback``;
    * LDM/STM: ``rn`` (base), ``reglist`` (bit i = register i),
      ``writeback``; LDM is increment-after, STM decrement-before
      (the PUSH/POP pair);
    * branches: ``imm`` holds the *byte* offset relative to the branch's
      own address (resolved by the assembler), ``rm`` for BX;
    * SVC: ``imm`` is the syscall number.

    An instruction is immutable once decoded: :attr:`flow` memoizes its
    dataflow on first use.
    """

    __slots__ = (
        "op", "cond", "s", "rd", "rn", "rm", "ra", "imm",
        "shift_kind", "shift_amount", "shift_reg",
        "pre", "writeback", "reglist", "addr", "text", "_flow",
    )

    def __init__(self, op: Op, cond: Cond = Cond.AL, s: bool = False,
                 rd: int = 0, rn: int = 0, rm: int = 0, ra: int = 0,
                 imm: int = 0, shift_kind: ShiftKind = ShiftKind.LSL,
                 shift_amount: int = 0, shift_reg: int | None = None,
                 pre: bool = True, writeback: bool = False,
                 reglist: int = 0, addr: int = 0, text: str = "") -> None:
        self.op = op
        self.cond = cond
        self.s = s
        self.rd = rd
        self.rn = rn
        self.rm = rm
        self.ra = ra
        self.imm = imm
        self.shift_kind = shift_kind
        self.shift_amount = shift_amount
        self.shift_reg = shift_reg
        self.pre = pre
        self.writeback = writeback
        self.reglist = reglist
        self.addr = addr
        self.text = text

    # -- dataflow queries used by both pipelines ---------------------------

    def src_regs(self) -> list[int]:
        """Architectural source registers read by this instruction."""
        op = self.op
        srcs: list[int] = []
        if op in DP_REG_OPS:
            if op not in UNARY_OPS:
                srcs.append(self.rn)
            srcs.append(self.rm)
            if self.shift_reg is not None:
                srcs.append(self.shift_reg)
        elif op in DP_IMM_OPS:
            if op not in UNARY_OPS:
                srcs.append(self.rn)
        elif op == Op.MOVT:
            srcs.append(self.rd)
        elif op in (Op.MUL, Op.MLA):
            srcs.extend((self.rn, self.rm))
            if op == Op.MLA:
                srcs.append(self.ra)
        elif op in LOAD_OPS:
            srcs.append(self.rn)
            if op in (Op.LDRR, Op.LDRBR, Op.LDRHR):
                srcs.append(self.rm)
        elif op in STORE_OPS:
            srcs.extend((self.rd, self.rn))
            if op in (Op.STRR, Op.STRBR, Op.STRHR):
                srcs.append(self.rm)
        elif op == Op.LDM:
            srcs.append(self.rn)
        elif op == Op.STM:
            srcs.append(self.rn)
            srcs.extend(i for i in range(16) if self.reglist & (1 << i))
        elif op == Op.BX:
            srcs.append(self.rm)
        elif op == Op.SVC:
            srcs.extend((0, 1, 2))
        return srcs

    def dst_regs(self) -> list[int]:
        """Architectural destination registers written by this instruction."""
        op = self.op
        dsts: list[int] = []
        if op in DP_REG_OPS or op in DP_IMM_OPS:
            if op not in COMPARE_OPS:
                dsts.append(self.rd)
        elif op in (Op.MOVW, Op.MOVT, Op.MUL, Op.MLA):
            dsts.append(self.rd)
        elif op in LOAD_OPS:
            dsts.append(self.rd)
            if self.writeback:
                dsts.append(self.rn)
        elif op in STORE_OPS:
            if self.writeback:
                dsts.append(self.rn)
        elif op == Op.LDM:
            dsts.extend(i for i in range(16) if self.reglist & (1 << i))
            if self.writeback:
                dsts.append(self.rn)
        elif op == Op.STM:
            if self.writeback:
                dsts.append(self.rn)
        elif op == Op.BL:
            dsts.append(14)
        elif op == Op.SVC:
            dsts.append(0)
        return dsts

    def reads_flags(self) -> bool:
        if self.cond != Cond.AL:
            return True
        return self.op in (Op.ADC, Op.SBC, Op.ADCI, Op.SBCI)

    def writes_flags(self) -> bool:
        return self.s or self.op in COMPARE_OPS

    @property
    def flow(self) -> Dataflow:
        """The memoized :class:`Dataflow` record (built on first use,
        never in ``__init__``: :func:`repro.isa.encoding.decode` fills
        fields in after construction)."""
        try:
            return self._flow
        except AttributeError:
            self._flow: Dataflow = Dataflow(self)
            return self._flow

    def __getstate__(self) -> tuple[None, dict[str, Any]]:
        # The memo is derived: keep it out of pickles (worker payloads).
        return None, {name: getattr(self, name) for name in self.__slots__
                      if name != "_flow"}

    def __repr__(self) -> str:
        cond = "" if self.cond == Cond.AL else COND_CODES[self.cond]
        label = self.text or self.op.name.lower() + cond
        return f"<Inst {self.addr:#06x} {label}>"


class Dataflow:
    """What both pipelines ask of an :class:`Inst` on every dispatch,
    computed once per instruction (see :attr:`Inst.flow`)."""

    __slots__ = (
        "src_set", "renamed_srcs", "reg_dsts", "writes_flags",
        "conditional", "reads_cpsr", "flag_src", "is_load", "is_store",
        "is_mem", "is_branch", "is_mul",
    )

    def __init__(self, inst: Inst) -> None:
        op = inst.op
        srcs = inst.src_regs()
        dsts = inst.dst_regs()
        #: Distinct sources in ``set`` iteration order (the RT level's
        #: operand-read order).
        self.src_set = tuple(set(srcs))
        #: Distinct sources bar the PC (r15 lives in fetch, unrenamed).
        self.renamed_srcs = tuple(set(a for a in srcs if a != 15))
        #: Register-file destinations (the PC excluded).
        self.reg_dsts = tuple(a for a in dsts if a != 15)
        self.writes_flags = inst.writes_flags()
        self.conditional = inst.cond != Cond.AL
        self.reads_cpsr = self.conditional or inst.reads_flags()
        #: Needs the current flags (reads them, or preserves them
        #: through a failed condition).
        self.flag_src = self.reads_cpsr or self.writes_flags
        self.is_load = op in LOAD_OPS or op == Op.LDM
        self.is_store = op in STORE_OPS or op == Op.STM
        self.is_mem = op in MEM_OPS
        self.is_branch = op in BRANCH_OPS or 15 in dsts
        self.is_mul = op == Op.MUL or op == Op.MLA
