//===- analysis/Webs.h - Right-number-of-names live ranges ------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's "right number of names" analysis (after Chaitin et al.):
/// def-use chains that reach a common use are combined into one compound
/// live interval — the value must end up in a single register (Figure 6).
/// A web is such a maximal union of definitions; webs are the vertices of
/// the interference graph and of the parallelizable interference graph.
///
/// Values read before any definition (function inputs) are modeled by a
/// virtual definition at the entry, so every use belongs to exactly one
/// web.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_ANALYSIS_WEBS_H
#define PIRA_ANALYSIS_WEBS_H

#include "ir/Instruction.h"

#include <cassert>
#include <span>
#include <utility>
#include <vector>

namespace pira {

class Function;

/// A definition site: block index and instruction index within it.
using DefSite = std::pair<unsigned, unsigned>;

/// Partitions definitions into webs via reaching-definitions dataflow and
/// union-find over shared uses.
///
/// Every table is flat: an instruction's global id is its block's first
/// id plus its index, and the use operands of all instructions, the
/// definitions of each web and (during construction) the definitions of
/// each register each sit in one offsets-plus-values array.
class Webs {
public:
  /// Runs the analysis on \p F.
  explicit Webs(const Function &F);

  /// Returns the number of webs (live-range vertices).
  unsigned numWebs() const { return static_cast<unsigned>(WebRegs.size()); }

  /// Returns the register the web names (all defs of a web define the
  /// same register).
  Reg webRegister(unsigned Web) const { return WebRegs[Web]; }

  /// Returns the web of the value defined by instruction \p Inst of block
  /// \p Block (which must have a def).
  unsigned webOfDef(unsigned Block, unsigned Inst) const {
    unsigned Web = DefWebAt[instId(Block, Inst)];
    assert(Web != NoWeb && "instruction has no def");
    return Web;
  }

  /// Returns the web supplying use operand \p OpIdx of instruction
  /// \p Inst in block \p Block.
  unsigned webOfUse(unsigned Block, unsigned Inst, unsigned OpIdx) const {
    std::span<const unsigned> Uses = websOfUses(Block, Inst);
    assert(OpIdx < Uses.size() && "use operand out of range");
    return Uses[OpIdx];
  }

  /// The webs of every use operand of instruction \p Inst in block
  /// \p Block, in operand order.
  std::span<const unsigned> websOfUses(unsigned Block, unsigned Inst) const {
    unsigned Id = instId(Block, Inst);
    return {UseWebs.data() + UseStart[Id], UseStart[Id + 1] - UseStart[Id]};
  }

  /// Real definition sites of \p Web in program order.
  std::span<const DefSite> defsOfWeb(unsigned Web) const {
    return {WebDefSites.data() + WebDefStart[Web],
            WebDefStart[Web + 1] - WebDefStart[Web]};
  }

  /// True when the web's value may flow in at function entry (it contains
  /// the register's virtual entry definition).
  bool hasEntryDef(unsigned Web) const { return WebHasEntryDef[Web]; }

  /// Number of use operands bound to \p Web across the function.
  unsigned numUsesOfWeb(unsigned Web) const { return WebUseCounts[Web]; }

private:
  /// DefWebAt entry of an instruction that defines nothing.
  static constexpr unsigned NoWeb = ~0u;

  unsigned instId(unsigned Block, unsigned Inst) const {
    assert(Block + 1 < BlockStart.size() &&
           Inst < BlockStart[Block + 1] - BlockStart[Block] &&
           "instruction out of range");
    return BlockStart[Block] + Inst;
  }

  std::vector<unsigned> BlockStart;  // block -> its first global id; N + 1
  std::vector<unsigned> DefWebAt;    // global id -> web defined, or NoWeb
  std::vector<unsigned> UseStart;    // global id -> first operand in UseWebs
  std::vector<unsigned> UseWebs;     // use operand -> web
  std::vector<Reg> WebRegs;
  std::vector<unsigned> WebDefStart; // web -> first site in WebDefSites
  std::vector<DefSite> WebDefSites;
  std::vector<bool> WebHasEntryDef;
  std::vector<unsigned> WebUseCounts;
};

} // namespace pira

#endif // PIRA_ANALYSIS_WEBS_H
