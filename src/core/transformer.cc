#include "src/core/transformer.hh"

#include <algorithm>

#include "src/isp/isp_core.hh"

namespace conduit
{

namespace
{

/** MVE/Helium mnemonic for the ISP path. */
std::string
mveMnemonic(OpCode op)
{
    switch (op) {
      case OpCode::And: return "vand";
      case OpCode::Or: return "vorr";
      case OpCode::Xor: return "veor";
      case OpCode::Not: return "vmvn";
      case OpCode::Nand: return "vand+vmvn";
      case OpCode::Nor: return "vorr+vmvn";
      case OpCode::ShiftL: return "vshl";
      case OpCode::ShiftR: return "vshr";
      case OpCode::Add: return "vadd";
      case OpCode::Sub: return "vsub";
      case OpCode::CmpLt: return "vcmp.lt";
      case OpCode::CmpEq: return "vcmp.eq";
      case OpCode::Select: return "vpsel";
      case OpCode::Min: return "vmin";
      case OpCode::Max: return "vmax";
      case OpCode::Copy: return "vldr+vstr";
      case OpCode::Mul: return "vmul";
      case OpCode::Div: return "sdiv(loop)";
      case OpCode::Mac: return "vmla";
      case OpCode::Shuffle: return "vtbl";
      case OpCode::Gather: return "vldr.gather";
      case OpCode::Scatter: return "vstr.scatter";
      case OpCode::Exp: return "poly.exp(loop)";
      case OpCode::Rsqrt: return "vrsqrte";
      default: return "nop";
    }
}

/** SIMDRAM/MIMDRAM/Proteus bbop for the PuD path. */
std::string
bbopMnemonic(OpCode op)
{
    switch (op) {
      case OpCode::And: return "bbop_and";
      case OpCode::Or: return "bbop_or";
      case OpCode::Xor: return "bbop_xor";
      case OpCode::Not: return "bbop_not";
      case OpCode::Nand: return "bbop_nand";
      case OpCode::Nor: return "bbop_nor";
      case OpCode::ShiftL: return "bbop_shl";
      case OpCode::ShiftR: return "bbop_shr";
      case OpCode::Add: return "bbop_add";
      case OpCode::Sub: return "bbop_sub";
      case OpCode::CmpLt: return "bbop_lt";
      case OpCode::CmpEq: return "bbop_eq";
      case OpCode::Select: return "bbop_sel";
      case OpCode::Min: return "bbop_min";
      case OpCode::Max: return "bbop_max";
      case OpCode::Copy: return "rowclone_aap";
      case OpCode::Mul: return "bbop_mul";
      case OpCode::Mac: return "bbop_mac";
      default: return "bbop_invalid";
    }
}

/** Flash-Cosmos / Ares-Flash primitive for the IFP path. */
std::string
ifpMnemonic(OpCode op)
{
    switch (op) {
      case OpCode::And: return "mws_and";
      case OpCode::Or: return "mws_or";
      case OpCode::Nand: return "mws_and+latch_inv";
      case OpCode::Nor: return "mws_or+latch_inv";
      case OpCode::Xor: return "latch_xor";
      case OpCode::Not: return "latch_inv";
      case OpCode::ShiftL: return "latch_shift_l";
      case OpCode::ShiftR: return "latch_shift_r";
      case OpCode::Copy: return "latch_copy";
      case OpCode::Add: return "shift_and_add.add";
      case OpCode::Sub: return "shift_and_add.sub";
      case OpCode::Mul: return "shift_and_add.mul";
      default: return "ifp_invalid";
    }
}

} // namespace

InstructionTransformer::InstructionTransformer(std::uint32_t page_bytes,
                                               std::uint32_t dram_row_bytes,
                                               std::uint32_t isp_simd_bytes)
    : pageBytes_(page_bytes), rowBytes_(dram_row_bytes),
      simdBytes_(isp_simd_bytes)
{
}

std::uint32_t
InstructionTransformer::nativeLanes(Target target,
                                    std::uint16_t elem_bits) const
{
    const std::uint32_t ebytes = std::max(1, elem_bits / 8);
    switch (target) {
      case Target::Ifp:
        return pageBytes_ / ebytes;
      case Target::Pud:
        return rowBytes_ / ebytes;
      case Target::Isp:
        return IspCore::simdLanes(simdBytes_, elem_bits);
    }
    return 1;
}

NativeInstruction
InstructionTransformer::transform(const VecInstruction &instr,
                                  Target target) const
{
    NativeInstruction out;
    out.target = target;
    out.nativeLanes = nativeLanes(target, instr.elemBits);
    out.subOps = (instr.lanes + out.nativeLanes - 1) / out.nativeLanes;
    switch (target) {
      case Target::Isp:
        out.mnemonic = mveMnemonic(instr.op);
        break;
      case Target::Pud:
        out.mnemonic = bbopMnemonic(instr.op);
        break;
      case Target::Ifp:
        out.mnemonic = ifpMnemonic(instr.op);
        break;
    }
    return out;
}

} // namespace conduit
