//===- machine/MachineConfig.h - Textual machine descriptions ---*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small textual format for machine descriptions, so tools (pirac) and
/// experiments can target new cores without recompiling:
///
/// \code
///   machine dsp-dual-fpu
///   width 4
///   regs 6
///   units fixed=1 float=2 mem=1 branch=1 move=2
///   latency load=3 fmul=2
/// \endcode
///
/// Lines may appear in any order after `machine`; omitted unit classes
/// default to one unit, omitted latencies to the opcode defaults, and
/// '#' starts a comment. Widths, register counts, unit counts and
/// latencies must be positive.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_MACHINE_MACHINECONFIG_H
#define PIRA_MACHINE_MACHINECONFIG_H

#include "machine/MachineModel.h"

#include <optional>
#include <string>
#include <string_view>

namespace pira {

/// Parses \p Text into a machine model.
///
/// \returns the model, or std::nullopt with a "line N: message"
/// diagnostic in \p Error.
std::optional<MachineModel> parseMachineModel(std::string_view Text,
                                              std::string &Error);

/// Renders \p M in the textual format (round-trippable).
std::string machineModelToString(const MachineModel &M);

} // namespace pira

#endif // PIRA_MACHINE_MACHINECONFIG_H
