//===- tests/JsonParser.h - JSON parser for the tests -----------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A strict recursive-descent parser into support/Json's Value. The
/// library only writes JSON; the tests read reports back with this to
/// check their shape and their write/parse round trips.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_TESTS_JSONPARSER_H
#define PIRA_TESTS_JSONPARSER_H

#include "support/Json.h"

#include <string>

namespace pira {
namespace json {

/// Parses \p Text into \p Out. On failure returns false and describes
/// the first error (with offset) in \p Error. Trailing garbage after the
/// top-level value is an error.
bool parse(const std::string &Text, Value &Out, std::string &Error);

} // namespace json
} // namespace pira

#endif // PIRA_TESTS_JSONPARSER_H
