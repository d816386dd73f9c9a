//===- regalloc/SpillInserter.cpp - Spill code rewriting ------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "regalloc/SpillInserter.h"

#include "analysis/Webs.h"
#include "ir/Function.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <span>

using namespace pira;

PIRA_STAT(NumSpillStoresInserted, "Spill stores inserted after definitions");
PIRA_STAT(NumSpillLoadsInserted, "Spill reloads inserted before uses");

SpillCode pira::insertSpillCode(Function &F, const Webs &W,
                                const std::vector<unsigned> &SpillWebs,
                                std::set<Reg> &NoSpillRegs) {
  SpillCode Code;
  if (SpillWebs.empty())
    return Code;
  PIRA_TIME_SCOPE("spill/insert");

  // Assign slots past any slots earlier rounds claimed.
  constexpr unsigned NoSlot = ~0u;
  unsigned FirstSlot = F.arraySize(SpillArrayName);
  std::vector<unsigned> SlotOfWeb(W.numWebs(), NoSlot);
  for (unsigned I = 0, E = static_cast<unsigned>(SpillWebs.size()); I != E;
       ++I) {
    SlotOfWeb[SpillWebs[I]] = FirstSlot + I;
    NoSpillRegs.insert(W.webRegister(SpillWebs[I]));
  }
  F.declareArray(SpillArrayName,
                 FirstSlot + static_cast<unsigned>(SpillWebs.size()));

  // Spill code copies one load and one store whose array name is
  // interned once; each copy takes its own register and slot.
  Instruction LoadProto(Opcode::Load, NoReg, {});
  LoadProto.setArraySymbol(SpillArrayName);
  Instruction StoreProto(Opcode::Store, NoReg, {NoReg});
  StoreProto.setArraySymbol(SpillArrayName);
  auto MakeLoad = [&](unsigned Slot) {
    // Fresh registers only grow, so each lands at the set's end.
    Reg Fresh = F.makeReg();
    NoSpillRegs.insert(NoSpillRegs.end(), Fresh);
    Instruction L = LoadProto;
    L.setDef(Fresh);
    L.setImm(static_cast<int64_t>(Slot));
    ++Code.Loads;
    return std::pair<Instruction, Reg>(std::move(L), Fresh);
  };
  auto MakeStore = [&](unsigned Slot, Reg Value) {
    Instruction S = StoreProto;
    S.setUse(0, Value);
    S.setImm(static_cast<int64_t>(Slot));
    ++Code.Stores;
    return S;
  };

  // The reloads of the instruction being rewritten, one per distinct
  // spilled web it reads: a handful at most, so a linear search.
  std::vector<std::pair<unsigned, Reg>> ReloadOfWeb;
  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
    BasicBlock &BB = F.block(B);
    std::vector<Instruction> NewInsts;
    NewInsts.reserve(BB.size());

    // Function-input values of spilled webs materialize in their register
    // at entry; park them in their slot before anything else runs.
    if (B == 0)
      for (unsigned Web : SpillWebs)
        if (W.hasEntryDef(Web))
          NewInsts.push_back(
              MakeStore(SlotOfWeb[Web], W.webRegister(Web)));

    // W reads no instruction, so each one moves out of the old block.
    for (unsigned I = 0, E = BB.size(); I != E; ++I) {
      Instruction Inst = std::move(BB.inst(I));

      ReloadOfWeb.clear();
      std::span<const unsigned> UseWebs = W.websOfUses(B, I);
      for (unsigned Op = 0, OE = static_cast<unsigned>(UseWebs.size());
           Op != OE; ++Op) {
        unsigned Web = UseWebs[Op];
        if (SlotOfWeb[Web] == NoSlot)
          continue;
        auto Reload = std::find_if(
            ReloadOfWeb.begin(), ReloadOfWeb.end(),
            [Web](const std::pair<unsigned, Reg> &P) { return P.first == Web; });
        if (Reload == ReloadOfWeb.end()) {
          auto [L, Fresh] = MakeLoad(SlotOfWeb[Web]);
          NewInsts.push_back(std::move(L));
          ReloadOfWeb.emplace_back(Web, Fresh);
          Reload = ReloadOfWeb.end() - 1;
        }
        Inst.setUse(Op, Reload->second);
      }

      unsigned Slot =
          Inst.hasDef() ? SlotOfWeb[W.webOfDef(B, I)] : NoSlot;
      Reg DefReg = Inst.hasDef() ? Inst.def() : NoReg;
      NewInsts.push_back(std::move(Inst));
      if (Slot != NoSlot)
        NewInsts.push_back(MakeStore(Slot, DefReg));
    }
    BB.instructions() = std::move(NewInsts);
  }
  NumSpillStoresInserted += Code.Stores;
  NumSpillLoadsInserted += Code.Loads;
  return Code;
}
