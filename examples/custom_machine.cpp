//===- examples/custom_machine.cpp - Porting to a new core ----------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// Scenario: a backend engineer brings up a new embedded DSP core — two
// float pipes, a slow single load unit, a small register file — and
// wants to see how the parallelizable interference graph changes with the
// machine description, and what the machine-aware allocation buys on a
// signal-processing kernel. Demonstrates: custom MachineModel
// construction, latency overrides, direct inspection of the false
// dependence graph and PIG, and DOT export of the paper's graphs.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "analysis/Webs.h"
#include "core/FalseDependenceGraph.h"
#include "core/ParallelInterferenceGraph.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "machine/MachineModel.h"
#include "pipeline/Strategies.h"
#include "regalloc/InterferenceGraph.h"

#include <iostream>

using namespace pira;

/// Builds a small complex-FIR tap: two complex multiply-accumulates.
static Function buildDspKernel() {
  Function F("cfir_tap");
  IRBuilder B(F);
  B.startBlock("body");
  Reg Xr = B.load("x", NoReg, 0);
  Reg Xi = B.load("x", NoReg, 1);
  Reg Hr = B.load("h", NoReg, 0);
  Reg Hi = B.load("h", NoReg, 1);
  Reg RR = B.binary(Opcode::FMul, Xr, Hr);
  Reg II = B.binary(Opcode::FMul, Xi, Hi);
  Reg RI = B.binary(Opcode::FMul, Xr, Hi);
  Reg IR = B.binary(Opcode::FMul, Xi, Hr);
  Reg Re = B.binary(Opcode::FSub, RR, II);
  Reg Im = B.binary(Opcode::FAdd, RI, IR);
  Reg AccR = B.load("acc", NoReg, 0);
  Reg AccI = B.load("acc", NoReg, 1);
  Reg NewR = B.binary(Opcode::FAdd, AccR, Re);
  Reg NewI = B.binary(Opcode::FAdd, AccI, Im);
  B.store("acc", NewR, NoReg, 0);
  B.store("acc", NewI, NoReg, 1);
  B.ret();
  return F;
}

int main() {
  // The new core: dual float pipes (so FMULs pair), one slow memory
  // port, one integer ALU, 4-wide issue, 6 registers.
  MachineModel Dsp("dsp-dual-fpu", {1, 2, 1, 1, 2}, /*IssueWidth=*/4,
                   /*NumPhysRegs=*/6);
  Dsp.setLatency(Opcode::Load, 3);
  Dsp.setLatency(Opcode::FMul, 2);

  Function F = buildDspKernel();
  std::cout << "=== kernel ===\n";
  printFunction(F, std::cout);

  std::cout << "\n=== machine ===\n"
            << Dsp.name() << ": issue " << Dsp.issueWidth() << "-wide;";
  for (unsigned K = 0; K != NumUnitKinds; ++K)
    std::cout << ' ' << unitKindName(static_cast<UnitKind>(K)) << " x"
              << Dsp.units(static_cast<UnitKind>(K));
  std::cout << "; load latency " << Dsp.latency(Opcode::Load) << '\n';

  // With TWO float units, fmul pairs are no longer machine-constrained:
  // the false dependence graph grows and the PIG demands more registers.
  Webs W(F);
  InterferenceGraph IG(F, W);
  FalseDependenceGraph FDG(F, 0, Dsp);
  ParallelInterferenceGraph PIG(F, W, IG, Dsp);
  MachineModel OneFpu = MachineModel::rs6000(6);
  FalseDependenceGraph FDGNarrow(F, 0, OneFpu);
  std::cout << "\nco-issuable pairs (Ef): " << FDG.parallelPairs().numEdges()
            << " on " << Dsp.name() << " vs "
            << FDGNarrow.parallelPairs().numEdges() << " on "
            << OneFpu.name() << " (one FPU)\n"
            << "PIG: " << PIG.interference().numEdges()
            << " interference edges + " << PIG.numParallelOnlyEdges()
            << " parallel-only edges over " << PIG.numWebs() << " webs\n";

  // Export the paper's graphs for graphviz rendering.
  std::cout << "\n=== DOT of the parallelizable interference graph ===\n";
  std::vector<std::string> Labels;
  for (unsigned Web = 0; Web != PIG.numWebs(); ++Web)
    Labels.push_back("%s" + std::to_string(W.webRegister(Web)));
  writePigDot(std::cout, "pig", PIG, Labels);

  std::cout << "\n=== combined compilation for the new core ===\n";
  PipelineResult R = runAndMeasure(StrategyKind::Combined, F, Dsp);
  if (!R.Success) {
    std::cerr << "failed: " << R.Error << '\n';
    return 1;
  }
  for (unsigned B = 0; B != R.Final.numBlocks(); ++B) {
    auto Groups = R.Sched.Blocks[B].groupsByCycle();
    for (unsigned C = 0; C != Groups.size(); ++C) {
      std::cout << "  cycle " << C << ":";
      for (unsigned I : Groups[C])
        std::cout << "  ["
                  << formatInstruction(R.Final.block(B).inst(I), true,
                                       &R.Final)
                  << "]";
      std::cout << '\n';
    }
  }
  std::cout << "\nregisters " << R.RegistersUsed << ", cycles "
            << R.DynCycles << ", false deps " << R.FalseDeps
            << ", verified " << (R.SemanticsPreserved ? "yes" : "NO")
            << '\n';
  return 0;
}
