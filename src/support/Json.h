//===- support/Json.h - Minimal JSON value and writer -----------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dependency-free JSON writer for the telemetry subsystem: a value
/// type with insertion-ordered objects (so reports are byte-stable run to
/// run) and a pretty-printing writer. Integers are kept distinct from
/// doubles so counters survive a write/parse round trip exactly, and
/// number formatting is locale-independent (std::to_chars): reports
/// written under a comma-decimal locale still read back everywhere. The
/// tests read reports back with tests/JsonParser.h.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_JSON_H
#define PIRA_SUPPORT_JSON_H

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace pira {
namespace json {

/// One JSON value of any kind. Objects preserve insertion order and
/// member lookup is linear — reports are small and stability matters
/// more than asymptotics here.
class Value {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Value() : K(Kind::Null) {}
  Value(std::nullptr_t) : K(Kind::Null) {}
  Value(bool B) : K(Kind::Bool), BoolVal(B) {}
  Value(int I) : K(Kind::Int), IntVal(I) {}
  Value(unsigned I) : K(Kind::Int), IntVal(static_cast<int64_t>(I)) {}
  Value(int64_t I) : K(Kind::Int), IntVal(I) {}
  Value(uint64_t I) : K(Kind::Int), IntVal(static_cast<int64_t>(I)) {}
  Value(double D) : K(Kind::Double), DoubleVal(D) {}
  Value(const char *S) : K(Kind::String), StringVal(S) {}
  Value(std::string S) : K(Kind::String), StringVal(std::move(S)) {}

  static Value array() {
    Value V;
    V.K = Kind::Array;
    return V;
  }
  static Value object() {
    Value V;
    V.K = Kind::Object;
    return V;
  }

  bool isNull() const { return K == Kind::Null; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return BoolVal; }
  int64_t asInt() const {
    return K == Kind::Double ? static_cast<int64_t>(DoubleVal) : IntVal;
  }
  double asDouble() const {
    return K == Kind::Int ? static_cast<double>(IntVal) : DoubleVal;
  }
  const std::string &asString() const { return StringVal; }

  /// Array access.
  const std::vector<Value> &elements() const { return Elements; }
  void push(Value V) { Elements.push_back(std::move(V)); }
  size_t size() const {
    return K == Kind::Array ? Elements.size() : Members.size();
  }

  /// Object access. set() replaces an existing member in place so
  /// insertion order is preserved.
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Members;
  }
  void set(const std::string &Key, Value V) {
    for (auto &[K2, V2] : Members)
      if (K2 == Key) {
        V2 = std::move(V);
        return;
      }
    Members.emplace_back(Key, std::move(V));
  }
  /// Returns the member named \p Key, or null if absent.
  const Value *find(const std::string &Key) const {
    for (const auto &[K2, V2] : Members)
      if (K2 == Key)
        return &V2;
    return nullptr;
  }
  bool has(const std::string &Key) const { return find(Key) != nullptr; }

  /// Serializes with two-space indentation when \p Indent >= 0, compact
  /// otherwise.
  void write(std::ostream &OS, int Indent = 0) const;
  std::string toString(int Indent = 0) const;

private:
  Kind K;
  bool BoolVal = false;
  int64_t IntVal = 0;
  double DoubleVal = 0.0;
  std::string StringVal;
  std::vector<Value> Elements;
  std::vector<std::pair<std::string, Value>> Members;
};

/// Writes \p S with JSON escaping (quotes included).
void writeEscaped(std::ostream &OS, const std::string &S);

} // namespace json
} // namespace pira

#endif // PIRA_SUPPORT_JSON_H
