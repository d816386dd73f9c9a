//===- perfbench/src/Workloads.cpp - Benchmark workloads ------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
//
// Why each workload exists is in ../README.md; the sizes below are the
// part of that reasoning the code has to carry.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

using namespace pira;
using namespace pira::perfbench;

/// splitmix64 of a combination of inputs; derives every per-program and
/// per-cell seed from the workload seed.
static uint64_t mixSeed(uint64_t A, uint64_t B, uint64_t C) {
  uint64_t Z = A * 0x9E3779B97F4A7C15ull ^ (B + 0x632BE59BD9B4E019ull) * 31 ^
               (C + 0x85EBCA77C2B2AE63ull) * 0xC2B2AE3D27D4EB4Full;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

const std::vector<std::string> &Workload::names() {
  static const std::vector<std::string> Names = {"large-combined",
                                                 "large-phased",
                                                 "kernel-suite"};
  return Names;
}

std::unique_ptr<Workload> Workload::create(const std::string &Name,
                                           uint64_t Seed, bool Smoke) {
  std::unique_ptr<Workload> W(new Workload());
  W->Seed = Seed;
  if (Name == "large-combined") {
    // Straight-line blocks of 262..518 instructions: where Section 4
    // coloring does nearly all of a combined compile's work. Three of
    // the five are mid-size (390 instructions), so the median cell of a
    // run is a median of several like compiles, not one compile's time.
    W->Machines = {MachineModel::rs6000(12)};
    W->Strategies = {StrategyKind::Combined};
    W->Ladder = Smoke ? std::vector<unsigned>{8, 16}
                      : std::vector<unsigned>{128, 192, 192, 192, 256};
    W->QualityPasses = Smoke ? 1 : 2;
  } else if (Name == "large-phased") {
    // 1030..2054-instruction blocks through the strategies that build no
    // PIG: the false-dependence check, scheduling and Chaitin dominate.
    W->Machines = {MachineModel::rs6000(12)};
    W->Strategies = {StrategyKind::AllocFirst, StrategyKind::SchedFirst,
                     StrategyKind::IntegratedPrepass};
    W->Ladder = Smoke ? std::vector<unsigned>{16, 32}
                      : std::vector<unsigned>{512, 768, 1024};
    W->QualityPasses = Smoke ? 1 : 2;
  } else if (Name == "kernel-suite") {
    // EXPERIMENTS S1: every standard kernel x strategy x machine at six
    // registers. Already small, so smoke mode runs it whole.
    W->Machines = {MachineModel::paperTwoUnit(6), MachineModel::rs6000(6),
                   MachineModel::vliw4(6)};
    W->Strategies = {StrategyKind::Combined, StrategyKind::IntegratedPrepass,
                     StrategyKind::SchedFirst, StrategyKind::AllocFirst};
    W->Kernels = standardKernelSuite();
    W->QualityPasses = 1;
  } else {
    return nullptr;
  }
  return W;
}

static Function randomProgram(unsigned InstructionsPerBlock, uint64_t Seed) {
  RandomProgramOptions Opts;
  Opts.InstructionsPerBlock = InstructionsPerBlock;
  Opts.FloatPercent = 40;
  Opts.MemoryPercent = 25;
  Opts.Shape = CfgShape::Straight;
  Opts.Seed = Seed;
  return generateRandomProgram(Opts);
}

void Workload::addCell(Pass &P, unsigned Index, const std::string &Label,
                       const Function &F, const MachineModel &M,
                       StrategyKind S) const {
  Cell C;
  C.Program = Label;
  C.Name = Label + "/" + M.name() + "/" + strategyName(S);
  C.Input = &F;
  C.Machine = &M;
  C.Strategy = S;
  C.SimSeed = mixSeed(Seed ^ 0x5EED, Index, P.Cells.size());
  P.Cells.push_back(std::move(C));
}

Pass Workload::makePass(unsigned Index) const {
  Pass P;
  if (Ladder.empty()) {
    // Machine-major order, as bench/strategy_comparison walks the suite.
    for (const MachineModel &M : Machines)
      for (const auto &[KernelName, Kernel] : Kernels)
        for (StrategyKind S : Strategies)
          addCell(P, Index, KernelName, Kernel, M, S);
    return P;
  }
  for (unsigned I = 0; I != Ladder.size(); ++I) {
    P.Programs.push_back(std::make_unique<Function>(
        randomProgram(Ladder[I], mixSeed(Seed, Index, I))));
    std::string Label =
        "p" + std::to_string(Index) + ".ipb" + std::to_string(Ladder[I]);
    for (const MachineModel &M : Machines)
      for (StrategyKind S : Strategies)
        addCell(P, Index, Label, *P.Programs.back(), M, S);
  }
  return P;
}

Pass Workload::makeWarmup() const {
  Pass P;
  const Function *Input = nullptr;
  if (Ladder.empty()) {
    Input = &Kernels.front().second;
  } else {
    P.Programs.push_back(
        std::make_unique<Function>(randomProgram(8, mixSeed(Seed, ~0ull, 0))));
    Input = P.Programs.back().get();
  }
  for (const MachineModel &M : Machines)
    for (StrategyKind S : Strategies)
      addCell(P, ~0u, "warmup", *Input, M, S);
  return P;
}
