//===- support/Json.cpp - Minimal JSON value and writer -------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#if !(defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L)
#include <clocale>
#endif

using namespace pira;
using namespace pira::json;

// Number formatting must not depend on the global C locale: under a
// comma-decimal locale (de_DE.UTF-8, ...) snprintf("%.17g") writes
// "3,14", which is invalid JSON. std::to_chars is locale-independent by
// definition and emits the *shortest* string that parses back to the
// same double. Toolchains without floating-point to_chars (pre-GCC-11
// libstdc++) fall back to printf with the locale's decimal point
// swapped by hand.

namespace {

/// Writes \p D into \p Buf (shortest round-trip form) and returns Buf.
const char *formatDouble(double D, char (&Buf)[40]) {
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  auto [Ptr, Ec] = std::to_chars(Buf, Buf + sizeof(Buf) - 1, D);
  (void)Ec; // 39 chars always fit the shortest form of a double
  *Ptr = '\0';
#else
  std::snprintf(Buf, sizeof(Buf), "%.17g", D);
  const char *Point = std::localeconv()->decimal_point;
  for (char *P = Buf; *P; ++P)
    if (*P == *Point)
      *P = '.';
#endif
  return Buf;
}

} // namespace

void json::writeEscaped(std::ostream &OS, const std::string &S) {
  OS << '"';
  for (char C : S) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\r':
      OS << "\\r";
      break;
    case '\t':
      OS << "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        OS << Buf;
      } else {
        OS << C;
      }
    }
  }
  OS << '"';
}

static void writeIndent(std::ostream &OS, int Indent) {
  for (int I = 0; I != Indent; ++I)
    OS << "  ";
}

void Value::write(std::ostream &OS, int Indent) const {
  const bool Pretty = Indent >= 0;
  switch (K) {
  case Kind::Null:
    OS << "null";
    return;
  case Kind::Bool:
    OS << (BoolVal ? "true" : "false");
    return;
  case Kind::Int:
    OS << IntVal;
    return;
  case Kind::Double:
    if (std::isfinite(DoubleVal)) {
      char Buf[40];
      OS << formatDouble(DoubleVal, Buf);
    } else {
      OS << "null"; // JSON has no Inf/NaN; degrade rather than corrupt
    }
    return;
  case Kind::String:
    writeEscaped(OS, StringVal);
    return;
  case Kind::Array: {
    if (Elements.empty()) {
      OS << "[]";
      return;
    }
    OS << '[';
    for (size_t I = 0; I != Elements.size(); ++I) {
      if (I != 0)
        OS << ',';
      if (Pretty) {
        OS << '\n';
        writeIndent(OS, Indent + 1);
      }
      Elements[I].write(OS, Pretty ? Indent + 1 : -1);
    }
    if (Pretty) {
      OS << '\n';
      writeIndent(OS, Indent);
    }
    OS << ']';
    return;
  }
  case Kind::Object: {
    if (Members.empty()) {
      OS << "{}";
      return;
    }
    OS << '{';
    for (size_t I = 0; I != Members.size(); ++I) {
      if (I != 0)
        OS << ',';
      if (Pretty) {
        OS << '\n';
        writeIndent(OS, Indent + 1);
      }
      writeEscaped(OS, Members[I].first);
      OS << (Pretty ? ": " : ":");
      Members[I].second.write(OS, Pretty ? Indent + 1 : -1);
    }
    if (Pretty) {
      OS << '\n';
      writeIndent(OS, Indent);
    }
    OS << '}';
    return;
  }
  }
}

std::string Value::toString(int Indent) const {
  std::ostringstream OS;
  write(OS, Indent);
  return OS.str();
}
