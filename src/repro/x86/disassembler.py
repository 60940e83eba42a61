"""x86-64 instruction decoder.

The decoder understands the instruction subset produced by
:class:`repro.x86.assembler.Assembler` plus the most common encodings found in
compiler output, and fails loudly (:class:`DecodeError`) on anything else.
That failure mode is load-bearing: the function-pointer validation of the
FETCH pipeline (§IV-E of the paper) treats "invalid opcode" as evidence that a
candidate pointer is not a function start.

Decoding is table-driven: a flat 256-entry dispatch table (plus a second one
for the ``0F`` two-byte map) is built once at import, and each entry is a
closure that reads its operands directly off the buffer with
``int.from_bytes`` — no cursor object, no per-byte method calls.  The batch
entry point :func:`decode_block` decodes a run of sequential instructions in
one call and fills the shared per-address cache in bulk; it is what the
analysis layers use on the cold path.
"""

from __future__ import annotations

from collections.abc import Iterator, MutableMapping

from repro.x86.instruction import (
    _F_CALL,
    _F_INDIRECT,
    _F_NOP,
    _F_PADDING,
    _F_TERMINATOR,
    _F_UNCOND_JUMP,
    _MNEMONIC_FLAGS,
    CONDITION_CODES,
    Instruction,
)
from repro.x86.operands import Imm, Mem
from repro.x86.registers import GPR64, Register

_MAX_INSTRUCTION_LENGTH = 15

#: Cache type accepted by the decode entry points: address -> decoded
#: instruction, or ``None`` for a remembered decode failure.
DecodeCacheMap = MutableMapping[int, "Instruction | None"]


class _DecodeStats:
    """Process-wide decode-work counter (see :data:`DECODE_STATS`)."""

    __slots__ = ("raw_decodes",)

    def __init__(self) -> None:
        self.raw_decodes = 0


#: Counts every raw (non-memoized) instruction decode performed in this
#: process.  Deterministic, unlike wall-clock time, which makes it the
#: benchmark-grade measure of how much decode work a cache actually saved.
#: The increment is unsynchronized, so readings taken around multi-threaded
#: (``jobs > 1``) regions are approximate; the process-pool backend of
#: :class:`repro.eval.runner.CorpusEvaluator` and the detection service's
#: worker processes fold each child's count back into the parent
#: (:func:`repro.eval.executor.fold_decodes`), so their readings are exact.
DECODE_STATS = _DecodeStats()

_GROUP1_MNEMONICS = {0: "add", 1: "or", 2: "adc", 3: "sbb", 4: "and", 5: "sub", 6: "xor", 7: "cmp"}
_SHIFT_MNEMONICS = {0: "rol", 1: "ror", 2: "rcl", 3: "rcr", 4: "shl", 5: "shr", 7: "sar"}

#: Registers indexed by their 4-bit encoding number (REX extension folded in).
_REG = GPR64

_from_bytes = int.from_bytes


class DecodeError(ValueError):
    """Raised when bytes cannot be decoded as a supported instruction."""

    def __init__(self, message: str, address: int = 0):
        super().__init__(f"{message} at {address:#x}")
        self.address = address


def _parse_modrm(
    code, pos: int, address: int, rex: int
) -> tuple[int, Register | Mem, int]:
    """Parse a ModRM byte (and SIB/displacement) starting at ``code[pos]``.

    Returns ``(reg_field, rm_operand, next_pos)``.
    """
    n = len(code)
    if pos >= n:
        raise DecodeError("truncated instruction", address)
    modrm = code[pos]
    pos += 1
    mod = modrm >> 6
    reg = ((modrm >> 3) & 0b111) | ((rex & 0b100) << 1)
    rm = modrm & 0b111

    if mod == 0b11:
        return reg, _REG[rm | ((rex & 1) << 3)], pos

    # Mem objects are built through ``__new__`` + direct slot stores: every
    # field combination produced here is valid by construction (the scale is
    # always ``1 << bits`` and the RIP form never carries base/index), so the
    # constructor's validation would only re-check invariants of this parser.
    if rm == 0b101 and mod == 0b00:
        end = pos + 4
        if end > n:
            raise DecodeError("truncated instruction", address)
        mem = Mem.__new__(Mem)
        mem.base = None
        mem.index = None
        mem.scale = 1
        mem.disp = _from_bytes(code[pos:end], "little", signed=True)
        mem.rip_relative = True
        mem.size = 8
        return reg, mem, end

    index: Register | None = None
    scale = 1

    if rm == 0b100:
        if pos >= n:
            raise DecodeError("truncated instruction", address)
        sib = code[pos]
        pos += 1
        scale = 1 << (sib >> 6)
        index_bits = ((sib >> 3) & 0b111) | ((rex & 0b10) << 2)
        if index_bits != 0b100:
            index = _REG[index_bits]
        if (sib & 0b111) == 0b101 and mod == 0b00:
            end = pos + 4
            if end > n:
                raise DecodeError("truncated instruction", address)
            mem = Mem.__new__(Mem)
            mem.base = None
            mem.index = index
            mem.scale = scale
            mem.disp = _from_bytes(code[pos:end], "little", signed=True)
            mem.rip_relative = False
            mem.size = 8
            return reg, mem, end
        base = _REG[(sib & 0b111) | ((rex & 1) << 3)]
    else:
        base = _REG[rm | ((rex & 1) << 3)]

    if mod == 0b00:
        disp = 0
    elif mod == 0b01:
        if pos >= n:
            raise DecodeError("truncated instruction", address)
        disp = code[pos]
        if disp >= 128:
            disp -= 256
        pos += 1
    else:
        end = pos + 4
        if end > n:
            raise DecodeError("truncated instruction", address)
        disp = _from_bytes(code[pos:end], "little", signed=True)
        pos = end
    mem = Mem.__new__(Mem)
    mem.base = base
    mem.index = index
    mem.scale = scale
    mem.disp = disp
    mem.rip_relative = False
    mem.size = 8
    return reg, mem, pos


def _read_i8(code, pos: int, address: int) -> tuple[int, int]:
    if pos >= len(code):
        raise DecodeError("truncated instruction", address)
    value = code[pos]
    return (value - 256 if value >= 128 else value), pos + 1


def _read_i32(code, pos: int, address: int) -> tuple[int, int]:
    end = pos + 4
    if end > len(code):
        raise DecodeError("truncated instruction", address)
    return _from_bytes(code[pos:end], "little", signed=True), end


# ---------------------------------------------------------------------------
# Dispatch tables.  Each handler is called as
#     handler(code, pos, start, address, rex, prefix_66, prefix_f3)
# with ``pos`` just past the opcode byte and ``start`` at the first prefix
# byte; it returns the finished Instruction (whose data spans start..end).
#
# Handlers build Instructions through ``__new__`` + direct slot stores rather
# than the constructor: each handler statically knows its mnemonic's
# classification flags and which operand slot (if any) can hold a memory
# operand, so the constructor's per-instruction flag lookup and operand scan
# would only recompute constants.  Every slot ``Instruction.__init__``
# assigns is assigned here.  The decode entry points guarantee ``code`` is
# ``bytes``, so ``code[start:pos]`` is already the final ``data`` value.
# ---------------------------------------------------------------------------
_DISPATCH: list = [None] * 256
_DISPATCH_0F: list = [None] * 256

_INSN_NEW = Instruction.__new__
_IMM_NEW = Imm.__new__


def _m_simple(mnemonic):
    flags = _MNEMONIC_FLAGS.get(mnemonic, 0)

    def handler(code, pos, start, address, rex, p66, pf3):
        insn = _INSN_NEW(Instruction)
        insn.mnemonic = mnemonic
        insn.operands = ()
        insn.address = address
        insn.data = code[start:pos]
        insn.operand_size = 8
        insn.comment = ""
        insn.end = address + (pos - start)
        insn._flags = flags
        insn.branch_target = None
        insn._memory_operand = None
        insn.rip_target = None
        insn._consts = None
        return insn

    return handler


def _m_push_pop_reg(mnemonic, low):
    def handler(code, pos, start, address, rex, p66, pf3):
        insn = _INSN_NEW(Instruction)
        insn.mnemonic = mnemonic
        insn.operands = (_REG[low | ((rex & 1) << 3)],)
        insn.address = address
        insn.data = code[start:pos]
        insn.operand_size = 8
        insn.comment = ""
        insn.end = address + (pos - start)
        insn._flags = 0
        insn.branch_target = None
        insn._memory_operand = None
        insn.rip_target = None
        insn._consts = None
        return insn

    return handler


def _m_push_imm(imm_size):
    def handler(code, pos, start, address, rex, p66, pf3):
        if imm_size == 1:
            value, pos = _read_i8(code, pos, address)
        else:
            value, pos = _read_i32(code, pos, address)
        imm = _IMM_NEW(Imm)
        imm.value = value
        imm.size = imm_size
        insn = _INSN_NEW(Instruction)
        insn.mnemonic = "push"
        insn.operands = (imm,)
        insn.address = address
        insn.data = code[start:pos]
        insn.operand_size = 8
        insn.comment = ""
        insn.end = address + (pos - start)
        insn._flags = 0
        insn.branch_target = None
        insn._memory_operand = None
        insn.rip_target = None
        insn._consts = value if imm_size == 4 else None
        return insn

    return handler


def _m_alu_store(mnemonic):
    """ALU ``r/m, r`` forms (operands ``(rm, reg)``)."""

    def handler(code, pos, start, address, rex, p66, pf3):
        # Register-form ModRM (mod == 0b11) is the dominant shape in compiler
        # output and needs none of the SIB/displacement parsing.
        if pos < len(code) and code[pos] >= 0xC0:
            modrm = code[pos]
            pos += 1
            insn = _INSN_NEW(Instruction)
            insn.mnemonic = mnemonic
            insn.operands = (
                _REG[(modrm & 0b111) | ((rex & 1) << 3)],
                _REG[((modrm >> 3) & 0b111) | ((rex & 0b100) << 1)],
            )
            insn.address = address
            insn.data = code[start:pos]
            insn.operand_size = 8 if rex & 8 else 4
            insn.comment = ""
            insn.end = address + (pos - start)
            insn._flags = 0
            insn.branch_target = None
            insn._memory_operand = None
            insn.rip_target = None
            insn._consts = None
            return insn
        reg_field, rm, pos = _parse_modrm(code, pos, address, rex)
        insn = _INSN_NEW(Instruction)
        insn.mnemonic = mnemonic
        insn.operands = (rm, _REG[reg_field])
        insn.address = address
        insn.data = code[start:pos]
        insn.operand_size = 8 if rex & 8 else 4
        insn.comment = ""
        end = address + (pos - start)
        insn.end = end
        insn._flags = 0
        insn.branch_target = None
        if rm.__class__ is Mem:
            insn._memory_operand = rm
            insn.rip_target = insn._consts = (
                end + rm.disp if rm.rip_relative else None
            )
        else:
            insn._memory_operand = None
            insn.rip_target = None
            insn._consts = None
        return insn

    return handler


def _m_alu_load(mnemonic):
    """ALU ``r, r/m`` forms (operands ``(reg, rm)``)."""

    def handler(code, pos, start, address, rex, p66, pf3):
        if pos < len(code) and code[pos] >= 0xC0:
            modrm = code[pos]
            pos += 1
            insn = _INSN_NEW(Instruction)
            insn.mnemonic = mnemonic
            insn.operands = (
                _REG[((modrm >> 3) & 0b111) | ((rex & 0b100) << 1)],
                _REG[(modrm & 0b111) | ((rex & 1) << 3)],
            )
            insn.address = address
            insn.data = code[start:pos]
            insn.operand_size = 8 if rex & 8 else 4
            insn.comment = ""
            insn.end = address + (pos - start)
            insn._flags = 0
            insn.branch_target = None
            insn._memory_operand = None
            insn.rip_target = None
            insn._consts = None
            return insn
        reg_field, rm, pos = _parse_modrm(code, pos, address, rex)
        insn = _INSN_NEW(Instruction)
        insn.mnemonic = mnemonic
        insn.operands = (_REG[reg_field], rm)
        insn.address = address
        insn.data = code[start:pos]
        insn.operand_size = 8 if rex & 8 else 4
        insn.comment = ""
        end = address + (pos - start)
        insn.end = end
        insn._flags = 0
        insn.branch_target = None
        if rm.__class__ is Mem:
            insn._memory_operand = rm
            insn.rip_target = insn._consts = (
                end + rm.disp if rm.rip_relative else None
            )
        else:
            insn._memory_operand = None
            insn.rip_target = None
            insn._consts = None
        return insn

    return handler


def _h_lea(code, pos, start, address, rex, p66, pf3):
    reg_field, rm, pos = _parse_modrm(code, pos, address, rex)
    if rm.__class__ is not Mem:
        raise DecodeError("lea with register operand", address)
    insn = _INSN_NEW(Instruction)
    insn.mnemonic = "lea"
    insn.operands = (_REG[reg_field], rm)
    insn.address = address
    insn.data = code[start:pos]
    insn.operand_size = 8 if rex & 8 else 4
    insn.comment = ""
    end = address + (pos - start)
    insn.end = end
    insn._flags = 0
    insn.branch_target = None
    insn._memory_operand = rm
    insn.rip_target = insn._consts = end + rm.disp if rm.rip_relative else None
    return insn


def _m_group1(imm_is_8bit):
    def handler(code, pos, start, address, rex, p66, pf3):
        if pos < len(code) and code[pos] >= 0xC0:
            modrm = code[pos]
            reg_field = (modrm >> 3) & 0b111
            rm = _REG[(modrm & 0b111) | ((rex & 1) << 3)]
            pos += 1
        else:
            reg_field, rm, pos = _parse_modrm(code, pos, address, rex)
        if imm_is_8bit:
            value, pos = _read_i8(code, pos, address)
            imm_size = 1
        else:
            value, pos = _read_i32(code, pos, address)
            imm_size = 4
        imm = _IMM_NEW(Imm)
        imm.value = value
        imm.size = imm_size
        insn = _INSN_NEW(Instruction)
        insn.mnemonic = _GROUP1_MNEMONICS[reg_field & 0b111]
        insn.operands = (rm, imm)
        insn.address = address
        insn.data = code[start:pos]
        insn.operand_size = 8 if rex & 8 else 4
        insn.comment = ""
        end = address + (pos - start)
        insn.end = end
        insn._flags = 0
        insn.branch_target = None
        if rm.__class__ is Mem:
            insn._memory_operand = rm
            rip = end + rm.disp if rm.rip_relative else None
            insn.rip_target = rip
            if imm_size == 4:
                insn._consts = value if rip is None else (value, rip)
            else:
                insn._consts = rip
        else:
            insn._memory_operand = None
            insn.rip_target = None
            insn._consts = value if imm_size == 4 else None
        return insn

    return handler


def _m_mov_imm(low):
    def handler(code, pos, start, address, rex, p66, pf3):
        reg = _REG[low | ((rex & 1) << 3)]
        if rex & 8:
            pos += 8
            if pos > len(code):
                raise DecodeError("truncated instruction", address)
            value = _from_bytes(code[pos - 8 : pos], "little", signed=True)
            osize = 8
        else:
            value, pos = _read_i32(code, pos, address)
            osize = 4
        imm = _IMM_NEW(Imm)
        imm.value = value
        imm.size = osize
        operands = (reg, imm)
        insn = _INSN_NEW(Instruction)
        insn.mnemonic = "mov"
        insn.operands = operands
        insn.address = address
        insn.data = code[start:pos]
        insn.operand_size = osize
        insn.comment = ""
        insn.end = address + (pos - start)
        insn._flags = 0
        insn.branch_target = None
        insn._memory_operand = None
        insn.rip_target = None
        insn._consts = value
        return insn

    return handler


def _m_mov_rm_imm(imm_size, error):
    def handler(code, pos, start, address, rex, p66, pf3):
        reg_field, rm, pos = _parse_modrm(code, pos, address, rex)
        if (reg_field & 0b111) != 0:
            raise DecodeError(error, address)
        if imm_size == 1:
            value, pos = _read_i8(code, pos, address)
            osize = 1
        else:
            value, pos = _read_i32(code, pos, address)
            osize = 8 if rex & 8 else 4
        imm = _IMM_NEW(Imm)
        imm.value = value
        imm.size = imm_size
        insn = _INSN_NEW(Instruction)
        insn.mnemonic = "mov"
        insn.operands = (rm, imm)
        insn.address = address
        insn.data = code[start:pos]
        insn.operand_size = osize
        insn.comment = ""
        end = address + (pos - start)
        insn.end = end
        insn._flags = 0
        insn.branch_target = None
        if rm.__class__ is Mem:
            insn._memory_operand = rm
            rip = end + rm.disp if rm.rip_relative else None
            insn.rip_target = rip
            if imm_size == 4:
                insn._consts = value if rip is None else (value, rip)
            else:
                insn._consts = rip
        else:
            insn._memory_operand = None
            insn.rip_target = None
            insn._consts = value if imm_size == 4 else None
        return insn

    return handler


def _h_shift(code, pos, start, address, rex, p66, pf3):
    reg_field, rm, pos = _parse_modrm(code, pos, address, rex)
    mnemonic = _SHIFT_MNEMONICS.get(reg_field & 0b111)
    if mnemonic is None:
        raise DecodeError("unsupported shift extension", address)
    value, pos = _read_i8(code, pos, address)
    imm = _IMM_NEW(Imm)
    imm.value = value
    imm.size = 1
    insn = _INSN_NEW(Instruction)
    insn.mnemonic = mnemonic
    insn.operands = (rm, imm)
    insn.address = address
    insn.data = code[start:pos]
    insn.operand_size = 8 if rex & 8 else 4
    insn.comment = ""
    end = address + (pos - start)
    insn.end = end
    insn._flags = 0
    insn.branch_target = None
    if rm.__class__ is Mem:
        insn._memory_operand = rm
        insn.rip_target = insn._consts = end + rm.disp if rm.rip_relative else None
    else:
        insn._memory_operand = None
        insn.rip_target = None
        insn._consts = None
    return insn


def _m_rel32(mnemonic):
    flags = _MNEMONIC_FLAGS.get(mnemonic, 0)

    def handler(code, pos, start, address, rex, p66, pf3):
        pos += 4
        if pos > len(code):
            raise DecodeError("truncated instruction", address)
        end = address + (pos - start)
        target = end + _from_bytes(code[pos - 4 : pos], "little", signed=True)
        imm = _IMM_NEW(Imm)
        imm.value = target
        imm.size = 8
        insn = _INSN_NEW(Instruction)
        insn.mnemonic = mnemonic
        insn.operands = (imm,)
        insn.address = address
        insn.data = code[start:pos]
        insn.operand_size = 8
        insn.comment = ""
        insn.end = end
        insn._flags = flags
        insn.branch_target = target
        insn._memory_operand = None
        insn.rip_target = None
        insn._consts = None
        return insn

    return handler


def _m_rel8(mnemonic):
    flags = _MNEMONIC_FLAGS.get(mnemonic, 0)

    def handler(code, pos, start, address, rex, p66, pf3):
        rel, pos = _read_i8(code, pos, address)
        end = address + (pos - start)
        target = end + rel
        imm = _IMM_NEW(Imm)
        imm.value = target
        imm.size = 8
        insn = _INSN_NEW(Instruction)
        insn.mnemonic = mnemonic
        insn.operands = (imm,)
        insn.address = address
        insn.data = code[start:pos]
        insn.operand_size = 8
        insn.comment = ""
        insn.end = end
        insn._flags = flags
        insn.branch_target = target
        insn._memory_operand = None
        insn.rip_target = None
        insn._consts = None
        return insn

    return handler


_RET_FLAGS = _MNEMONIC_FLAGS["ret"]


def _h_ret_imm(code, pos, start, address, rex, p66, pf3):
    pos += 2
    if pos > len(code):
        raise DecodeError("truncated instruction", address)
    imm = _IMM_NEW(Imm)
    imm.value = code[pos - 2] | (code[pos - 1] << 8)
    imm.size = 2
    insn = _INSN_NEW(Instruction)
    insn.mnemonic = "ret"
    insn.operands = (imm,)
    insn.address = address
    insn.data = code[start:pos]
    insn.operand_size = 8
    insn.comment = ""
    insn.end = address + (pos - start)
    insn._flags = _RET_FLAGS
    insn.branch_target = None
    insn._memory_operand = None
    insn.rip_target = None
    insn._consts = None
    return insn


#: ``FF /n`` forms: extension -> (mnemonic, uses operand size, flags).  The
#: ``call``/``jmp`` forms always take a register or memory operand, so their
#: flags carry ``_F_INDIRECT`` statically.
_FF_GROUP = {
    0: ("inc", True, 0),
    1: ("dec", True, 0),
    2: ("call", False, _F_CALL | _F_INDIRECT),
    4: ("jmp", False, _F_UNCOND_JUMP | _F_TERMINATOR | _F_INDIRECT),
    6: ("push", False, 0),
}


def _h_group_ff(code, pos, start, address, rex, p66, pf3):
    reg_field, rm, pos = _parse_modrm(code, pos, address, rex)
    entry = _FF_GROUP.get(reg_field & 0b111)
    if entry is None:
        raise DecodeError("unsupported FF extension", address)
    mnemonic, uses_osize, flags = entry
    insn = _INSN_NEW(Instruction)
    insn.mnemonic = mnemonic
    insn.operands = (rm,)
    insn.address = address
    insn.data = code[start:pos]
    insn.operand_size = (8 if rex & 8 else 4) if uses_osize else 8
    insn.comment = ""
    end = address + (pos - start)
    insn.end = end
    insn._flags = flags
    insn.branch_target = None
    if rm.__class__ is Mem:
        insn._memory_operand = rm
        insn.rip_target = insn._consts = end + rm.disp if rm.rip_relative else None
    else:
        insn._memory_operand = None
        insn.rip_target = None
        insn._consts = None
    return insn


def _h_two_byte(code, pos, start, address, rex, p66, pf3):
    if pos >= len(code):
        raise DecodeError("truncated instruction", address)
    opcode2 = code[pos]
    handler = _DISPATCH_0F[opcode2]
    if handler is None:
        raise DecodeError(f"unsupported opcode 0f {opcode2:#04x}", address)
    return handler(code, pos + 1, start, address, rex, p66, pf3)


def _h_endbr(code, pos, start, address, rex, p66, pf3):
    if not pf3:
        # Without the F3 prefix this is not an ENDBR encoding at all.
        raise DecodeError("unsupported opcode 0f 0x1e", address)
    if pos >= len(code):
        raise DecodeError("truncated instruction", address)
    modrm = code[pos]
    pos += 1
    if modrm == 0xFA:
        return Instruction("endbr64", (), address, bytes(code[start:pos]), 8)
    if modrm == 0xFB:
        return Instruction("endbr32", (), address, bytes(code[start:pos]), 8)
    raise DecodeError("unsupported F3 0F 1E form", address)


_NOP_FLAGS = _F_NOP | _F_PADDING


def _h_long_nop(code, pos, start, address, rex, p66, pf3):
    _reg_field, _rm, pos = _parse_modrm(code, pos, address, rex)
    insn = _INSN_NEW(Instruction)
    insn.mnemonic = "nop"
    insn.operands = ()
    insn.address = address
    insn.data = code[start:pos]
    insn.operand_size = 8
    insn.comment = ""
    insn.end = address + (pos - start)
    insn._flags = _NOP_FLAGS
    insn.branch_target = None
    insn._memory_operand = None
    insn.rip_target = None
    insn._consts = None
    return insn


def _build_dispatch() -> None:
    for op in range(0x50, 0x58):
        _DISPATCH[op] = _m_push_pop_reg("push", op - 0x50)
    for op in range(0x58, 0x60):
        _DISPATCH[op] = _m_push_pop_reg("pop", op - 0x58)
    _DISPATCH[0x68] = _m_push_imm(4)
    _DISPATCH[0x6A] = _m_push_imm(1)
    for op, name in {
        0x01: "add", 0x09: "or", 0x21: "and", 0x29: "sub",
        0x31: "xor", 0x39: "cmp", 0x85: "test", 0x89: "mov",
    }.items():
        _DISPATCH[op] = _m_alu_store(name)
    for op, name in {0x03: "add", 0x2B: "sub", 0x33: "xor", 0x3B: "cmp", 0x8B: "mov"}.items():
        _DISPATCH[op] = _m_alu_load(name)
    _DISPATCH[0x8D] = _h_lea
    _DISPATCH[0x63] = _m_alu_load("movsxd")
    _DISPATCH[0x81] = _m_group1(imm_is_8bit=False)
    _DISPATCH[0x83] = _m_group1(imm_is_8bit=True)
    for op in range(0xB8, 0xC0):
        _DISPATCH[op] = _m_mov_imm(op - 0xB8)
    _DISPATCH[0xC7] = _m_mov_rm_imm(4, "unsupported C7 extension")
    _DISPATCH[0xC6] = _m_mov_rm_imm(1, "unsupported C6 extension")
    _DISPATCH[0xC1] = _h_shift
    _DISPATCH[0xE8] = _m_rel32("call")
    _DISPATCH[0xE9] = _m_rel32("jmp")
    _DISPATCH[0xEB] = _m_rel8("jmp")
    for op in range(0x70, 0x80):
        _DISPATCH[op] = _m_rel8(CONDITION_CODES[op - 0x70])
    _DISPATCH[0xC3] = _m_simple("ret")
    _DISPATCH[0xC2] = _h_ret_imm
    _DISPATCH[0xFF] = _h_group_ff
    _DISPATCH[0x90] = _m_simple("nop")
    _DISPATCH[0xC9] = _m_simple("leave")
    _DISPATCH[0xCC] = _m_simple("int3")
    _DISPATCH[0xF4] = _m_simple("hlt")
    _DISPATCH[0x0F] = _h_two_byte

    _DISPATCH_0F[0x05] = _m_simple("syscall")
    _DISPATCH_0F[0x0B] = _m_simple("ud2")
    _DISPATCH_0F[0x1E] = _h_endbr
    _DISPATCH_0F[0x1F] = _h_long_nop
    for op in range(0x80, 0x90):
        _DISPATCH_0F[op] = _m_rel32(CONDITION_CODES[op - 0x80])
    _DISPATCH_0F[0xAF] = _m_alu_load("imul")
    _DISPATCH_0F[0xB6] = _m_alu_load("movzx")
    _DISPATCH_0F[0xB7] = _m_alu_load("movzx")
    _DISPATCH_0F[0xBE] = _m_alu_load("movsx")
    _DISPATCH_0F[0xBF] = _m_alu_load("movsx")


_build_dispatch()


def _decode_one(code, pos: int, address: int) -> Instruction:
    """Decode the instruction at ``code[pos]`` (``address`` = its VA)."""
    n = len(code)
    start = pos
    rex = 0
    prefix_66 = False
    prefix_f3 = False
    while True:
        if pos >= n:
            raise DecodeError("empty input", address)
        byte = code[pos]
        if byte == 0x66:
            prefix_66 = True
            pos += 1
        elif byte == 0xF2 or byte == 0xF3:
            prefix_f3 = byte == 0xF3
            pos += 1
        elif 0x40 <= byte <= 0x4F:
            rex = byte
            pos += 1
            if pos >= n:
                raise DecodeError("truncated instruction", address)
            break
        else:
            break
        if pos - start > 4:
            raise DecodeError("too many prefixes", address)

    opcode = code[pos]
    handler = _DISPATCH[opcode]
    if handler is None:
        raise DecodeError(f"unsupported opcode {opcode:#04x}", address)
    instruction = handler(code, pos + 1, start, address, rex, prefix_66, prefix_f3)
    if len(instruction.data) > _MAX_INSTRUCTION_LENGTH:
        raise DecodeError("instruction exceeds 15 bytes", address)
    return instruction


def _decode_instruction_uncached(code, offset: int, address: int) -> Instruction:
    DECODE_STATS.raw_decodes += 1
    return _decode_one(code, offset, address)


def decode_instruction(
    code,
    offset: int = 0,
    address: int = 0,
    cache: DecodeCacheMap | None = None,
) -> Instruction:
    """Decode a single instruction starting at ``code[offset]``.

    ``address`` is the virtual address of the instruction and is used to
    compute absolute targets of relative branches.

    ``cache`` memoizes decodes by virtual address: decoding the same address
    twice (from the same image, which every caller guarantees) returns the
    stored :class:`Instruction`, and a stored ``None`` replays the original
    :class:`DecodeError`.  A shared cache — typically owned by a
    :class:`repro.core.context.AnalysisContext` — is what lets many detectors
    run over one binary without re-decoding every byte.

    Raises:
        DecodeError: for unsupported opcodes or truncated input.
    """
    if code.__class__ is not bytes:
        code = bytes(code)
    if cache is not None:
        try:
            hit = cache[address]
        except KeyError:
            pass
        else:
            if hit is None:
                raise DecodeError("undecodable bytes (cached)", address)
            return hit
        try:
            insn = _decode_instruction_uncached(code, offset, address)
        except DecodeError:
            cache[address] = None
            raise
        cache[address] = insn
        return insn
    return _decode_instruction_uncached(code, offset, address)


_MISSING = object()


def decode_block(
    code,
    offset: int = 0,
    address: int = 0,
    count: int = 64,
    *,
    cache: DecodeCacheMap | None = None,
    stop_at_terminator: bool = False,
    stop_flags: int = 0,
) -> tuple[list[Instruction], bool]:
    """Decode up to ``count`` sequential instructions starting at
    ``code[offset]``.

    ``address`` is the virtual address of ``code[offset]``.  This is the batch
    entry point for cold-path cache filling: one call decodes a run of
    instructions and stores each into ``cache`` (failures are remembered as
    ``None``, exactly as :func:`decode_instruction` would), without the
    per-instruction call and cache-probe overhead of the single-instruction
    API.  ``code`` may be any buffer (``bytes`` or ``memoryview``).

    Decoding stops at the first undecodable address (fresh failure or cached
    one), at a previously-cached failure, at the end of the buffer, after
    ``count`` instructions, or after an instruction whose classification bits
    intersect ``stop_flags``.  ``stop_at_terminator`` is shorthand for
    ``stop_flags=_F_TERMINATOR`` (``ret``/``jmp``/``ud2``/``hlt``); the span
    cache passes ``_F_TERMINATOR | _F_CALL`` so spans end wherever the
    recursive traversal can break a fall-through run.

    Returns ``(instructions, stopped_on_error)``; the flag distinguishes a
    stop caused by an undecodable address from the other stop conditions so
    callers like :func:`decode_range` can act on the failure without a second
    decode attempt.
    """
    if code.__class__ is not bytes:
        # Handlers slice instruction bytes straight out of ``code``, so it
        # must be ``bytes`` (the conversion is free for the common case).
        code = bytes(code)
    if stop_at_terminator:
        stop_flags |= _F_TERMINATOR
    out: list[Instruction] = []
    n = len(code)
    base = address - offset
    pos = offset
    stats = DECODE_STATS
    dispatch = _DISPATCH
    dispatch_0f = _DISPATCH_0F
    get = cache.get if cache is not None else None
    while count > 0 and pos < n:
        va = base + pos
        if get is not None:
            hit = get(va, _MISSING)
            if hit is None:
                return out, True
        else:
            hit = _MISSING
        if hit is _MISSING:
            stats.raw_decodes += 1
            try:
                # Inline of :func:`_decode_one` (kept in sync with it): the
                # per-instruction call frame is measurable at this volume.
                ipos = pos
                rex = 0
                p66 = False
                pf3 = False
                while True:
                    if ipos >= n:
                        raise DecodeError("empty input", va)
                    byte = code[ipos]
                    if byte == 0x66:
                        p66 = True
                        ipos += 1
                    elif byte == 0xF2 or byte == 0xF3:
                        pf3 = byte == 0xF3
                        ipos += 1
                    elif 0x40 <= byte <= 0x4F:
                        rex = byte
                        ipos += 1
                        if ipos >= n:
                            raise DecodeError("truncated instruction", va)
                        break
                    else:
                        break
                    if ipos - pos > 4:
                        raise DecodeError("too many prefixes", va)
                opcode = code[ipos]
                if opcode == 0x0F:
                    ipos += 1
                    if ipos >= n:
                        raise DecodeError("truncated instruction", va)
                    opcode2 = code[ipos]
                    handler = dispatch_0f[opcode2]
                    if handler is None:
                        raise DecodeError(f"unsupported opcode 0f {opcode2:#04x}", va)
                else:
                    handler = dispatch[opcode]
                    if handler is None:
                        raise DecodeError(f"unsupported opcode {opcode:#04x}", va)
                insn = handler(code, ipos + 1, pos, va, rex, p66, pf3)
                if len(insn.data) > _MAX_INSTRUCTION_LENGTH:
                    raise DecodeError("instruction exceeds 15 bytes", va)
            except DecodeError:
                if cache is not None:
                    cache[va] = None
                return out, True
            if cache is not None:
                cache[va] = insn
        else:
            insn = hit
        out.append(insn)
        pos = insn.end - base
        count -= 1
        if stop_flags and insn._flags & stop_flags:
            break
    return out, False


def decode_range(
    code,
    address: int,
    start: int = 0,
    end: int | None = None,
    *,
    stop_on_error: bool = True,
    cache: DecodeCacheMap | None = None,
) -> Iterator[Instruction]:
    """Linearly decode instructions from ``code[start:end]``.

    ``address`` is the virtual address of ``code[0]``.  With
    ``stop_on_error=False`` an undecodable byte is emitted as a one-byte
    ``(bad)`` instruction and decoding continues at the next byte, which is
    the behaviour linear-sweep style baselines rely on.  ``cache`` memoizes
    per-address decodes exactly as in :func:`decode_instruction`; the
    synthetic ``(bad)`` placeholders are never cached.  Decoding proceeds in
    :func:`decode_block` batches.
    """
    if code.__class__ is not bytes:
        code = bytes(code)
    limit = len(code) if end is None else min(end, len(code))
    pos = start
    while pos < limit:
        block, errored = decode_block(code, pos, address + pos, 64, cache=cache)
        bad = False
        for insn in block:
            if pos >= limit:
                # Window exhausted mid-block; later block entries (and any
                # trailing decode failure) lie outside the requested range.
                break
            if insn.end - address > limit:
                # Instruction spills past the requested window.
                bad = True
                break
            yield insn
            pos = insn.end - address
        if not bad:
            bad = errored and pos < limit
        if bad:
            if stop_on_error:
                return
            yield Instruction("(bad)", (), address + pos, bytes(code[pos : pos + 1]))
            pos += 1
