//===- machine/MachineConfig.cpp - Textual machine descriptions -----------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "machine/MachineConfig.h"

#include <array>
#include <cctype>
#include <charconv>
#include <sstream>
#include <vector>

using namespace pira;

namespace {

/// Tokenized "key=value" pair.
struct KeyValue {
  std::string Key;
  std::string Value;
};

/// Splits a line into whitespace-separated words, honoring '#' comments.
std::vector<std::string> splitWords(const std::string &Line) {
  std::vector<std::string> Words;
  std::string Current;
  for (char C : Line) {
    if (C == '#')
      break;
    if (std::isspace(static_cast<unsigned char>(C))) {
      if (!Current.empty())
        Words.push_back(std::move(Current));
      Current.clear();
      continue;
    }
    Current.push_back(C);
  }
  if (!Current.empty())
    Words.push_back(std::move(Current));
  return Words;
}

/// Splits "key=value"; returns false when '=' is missing.
bool splitKeyValue(const std::string &Word, KeyValue &Out) {
  size_t Eq = Word.find('=');
  if (Eq == std::string::npos || Eq == 0 || Eq + 1 == Word.size())
    return false;
  Out.Key = Word.substr(0, Eq);
  Out.Value = Word.substr(Eq + 1);
  return true;
}

/// Parses a non-negative decimal integer that fits in unsigned; returns
/// false on junk and on values out of range (never wraps).
bool parseUnsigned(const std::string &Text, unsigned &Out) {
  const char *Begin = Text.data(), *End = Begin + Text.size();
  unsigned Value = 0;
  auto [Ptr, Ec] = std::from_chars(Begin, End, Value);
  if (Ec != std::errc() || Ptr != End || Begin == End)
    return false;
  Out = Value;
  return true;
}

/// Maps a unit-class name to its kind; returns false when unknown.
bool unitKindByName(const std::string &Name, UnitKind &Out) {
  for (unsigned K = 0; K != NumUnitKinds; ++K)
    if (Name == unitKindName(static_cast<UnitKind>(K))) {
      Out = static_cast<UnitKind>(K);
      return true;
    }
  return false;
}

/// Maps an opcode mnemonic; returns false when unknown.
bool opcodeByName(const std::string &Name, Opcode &Out) {
  for (unsigned I = 0; I != NumOpcodes; ++I)
    if (Name == opcodeName(static_cast<Opcode>(I))) {
      Out = static_cast<Opcode>(I);
      return true;
    }
  return false;
}

} // namespace

std::optional<MachineModel> pira::parseMachineModel(std::string_view Text,
                                                    std::string &Error) {
  Error.clear();
  std::string Name = "custom";
  unsigned Width = 1;
  unsigned Regs = 8;
  std::array<unsigned, NumUnitKinds> Units;
  Units.fill(1);
  std::vector<std::pair<Opcode, unsigned>> Latencies;

  std::istringstream In{std::string(Text)};
  std::string Line;
  unsigned LineNo = 0;
  auto Fail = [&](const std::string &Msg) {
    Error = "line " + std::to_string(LineNo) + ": " + Msg;
    return std::nullopt;
  };

  while (std::getline(In, Line)) {
    ++LineNo;
    std::vector<std::string> Words = splitWords(Line);
    if (Words.empty())
      continue;
    const std::string &Directive = Words[0];
    if (Directive == "machine") {
      if (Words.size() != 2)
        return Fail("expected 'machine <name>'");
      Name = Words[1];
    } else if (Directive == "width") {
      if (Words.size() != 2 || !parseUnsigned(Words[1], Width) ||
          Width == 0)
        return Fail("expected 'width <positive integer>'");
    } else if (Directive == "regs") {
      // A register file of 0 can hold no value: every allocator would
      // spill forever, and IPS asserts a positive limit.
      if (Words.size() != 2 || !parseUnsigned(Words[1], Regs) || Regs == 0)
        return Fail("expected 'regs <positive integer>'");
    } else if (Directive == "units") {
      for (size_t I = 1; I != Words.size(); ++I) {
        KeyValue KV;
        UnitKind Kind;
        unsigned Count = 0;
        if (!splitKeyValue(Words[I], KV) ||
            !unitKindByName(KV.Key, Kind) ||
            !parseUnsigned(KV.Value, Count) || Count == 0)
          return Fail("bad unit spec '" + Words[I] +
                      "' (want class=count)");
        Units[static_cast<unsigned>(Kind)] = Count;
      }
    } else if (Directive == "latency") {
      for (size_t I = 1; I != Words.size(); ++I) {
        KeyValue KV;
        Opcode Op;
        unsigned Cycles = 0;
        if (!splitKeyValue(Words[I], KV) || !opcodeByName(KV.Key, Op) ||
            !parseUnsigned(KV.Value, Cycles) || Cycles == 0)
          return Fail("bad latency spec '" + Words[I] +
                      "' (want opcode=cycles)");
        Latencies.emplace_back(Op, Cycles);
      }
    } else {
      return Fail("unknown directive '" + Directive + "'");
    }
  }

  MachineModel M(Name, Units, Width, Regs);
  for (const auto &[Op, Cycles] : Latencies)
    M.setLatency(Op, Cycles);
  return M;
}

std::string pira::machineModelToString(const MachineModel &M) {
  std::ostringstream OS;
  OS << "machine " << M.name() << '\n'
     << "width " << M.issueWidth() << '\n'
     << "regs " << M.numPhysRegs() << '\n'
     << "units";
  for (unsigned K = 0; K != NumUnitKinds; ++K)
    OS << ' ' << unitKindName(static_cast<UnitKind>(K)) << '='
       << M.units(static_cast<UnitKind>(K));
  OS << '\n';
  // Only emit latencies that differ from the opcode defaults.
  bool AnyLatency = false;
  for (unsigned I = 0; I != NumOpcodes; ++I) {
    Opcode Op = static_cast<Opcode>(I);
    if (M.latency(Op) != opcodeInfo(Op).DefaultLatency) {
      OS << (AnyLatency ? " " : "latency ") << opcodeName(Op) << '='
         << M.latency(Op);
      AnyLatency = true;
    }
  }
  if (AnyLatency)
    OS << '\n';
  return OS.str();
}
