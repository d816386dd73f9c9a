//===- tests/JsonParser.cpp - JSON parser for the tests -------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "JsonParser.h"

#include <cctype>
#include <charconv>
#include <string_view>
#include <system_error>

#if !(defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L)
#include <cerrno>
#include <clocale>
#include <cstdlib>
#endif

using namespace pira;
using namespace pira::json;

// Number parsing must not depend on the global C locale: std::stod
// refuses the '.' spelling under a comma-decimal locale (de_DE.UTF-8,
// ...), while std::from_chars is locale-independent by definition.
// Toolchains without floating-point from_chars (pre-GCC-11 libstdc++)
// fall back to strtod with the locale's decimal point swapped in by
// hand.

namespace {

/// Parses the JSON number token \p Token as a double; false on overflow
/// or (should-not-happen after tokenization) malformed input.
bool parseDoubleToken(std::string_view Token, double &Out) {
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  auto [Ptr, Ec] = std::from_chars(Token.data(), Token.data() + Token.size(),
                                   Out);
  return Ec == std::errc() && Ptr == Token.data() + Token.size();
#else
  // strtod honors the locale's decimal point, so present the token in
  // that spelling.
  std::string Localized(Token);
  const char *Point = std::localeconv()->decimal_point;
  for (char &C : Localized)
    if (C == '.')
      C = *Point;
  errno = 0;
  char *End = nullptr;
  Out = std::strtod(Localized.c_str(), &End);
  return errno == 0 && End == Localized.c_str() + Localized.size();
#endif
}

/// Strict recursive-descent parser over the whole input buffer.
class Parser {
public:
  Parser(const std::string &Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool run(Value &Out) {
    skipWhitespace();
    if (!parseValue(Out, /*Depth=*/0))
      return false;
    skipWhitespace();
    if (Pos != Text.size())
      return fail("trailing characters after top-level value");
    return true;
  }

private:
  bool fail(const std::string &Message) {
    Error = Message + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWhitespace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C, const char *What) {
    if (Pos >= Text.size() || Text[Pos] != C)
      return fail(std::string("expected ") + What);
    ++Pos;
    return true;
  }

  bool literal(const char *Word) {
    size_t Len = std::string(Word).size();
    if (Text.compare(Pos, Len, Word) != 0)
      return fail(std::string("expected '") + Word + "'");
    Pos += Len;
    return true;
  }

  bool parseValue(Value &Out, unsigned Depth) {
    if (Depth > 200)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case 'n':
      if (!literal("null"))
        return false;
      Out = Value();
      return true;
    case 't':
      if (!literal("true"))
        return false;
      Out = Value(true);
      return true;
    case 'f':
      if (!literal("false"))
        return false;
      Out = Value(false);
      return true;
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value(std::move(S));
      return true;
    }
    case '[':
      return parseArray(Out, Depth);
    case '{':
      return parseObject(Out, Depth);
    default:
      return parseNumber(Out);
    }
  }

  bool parseString(std::string &Out) {
    if (!consume('"', "'\"'"))
      return false;
    Out.clear();
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad hex digit in \\u escape");
        }
        // UTF-8 encode the BMP code point (surrogate pairs are not
        // produced by our writer; decode them permissively as-is).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape character");
      }
    }
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    bool IsDouble = false;
    if (Pos < Text.size() && Text[Pos] == '.') {
      IsDouble = true;
      ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      IsDouble = true;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    std::string_view Token(Text.data() + Start, Pos - Start);
    if (Token.empty() || Token == "-")
      return fail("malformed number");
    if (IsDouble) {
      double D = 0.0;
      if (!parseDoubleToken(Token, D))
        return fail("number out of range");
      Out = Value(D);
    } else {
      int64_t I = 0;
      auto [Ptr, Ec] =
          std::from_chars(Token.data(), Token.data() + Token.size(), I);
      if (Ec != std::errc() || Ptr != Token.data() + Token.size())
        return fail("number out of range");
      Out = Value(I);
    }
    return true;
  }

  bool parseArray(Value &Out, unsigned Depth) {
    ++Pos; // '['
    Out = Value::array();
    skipWhitespace();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      Value Element;
      skipWhitespace();
      if (!parseValue(Element, Depth + 1))
        return false;
      Out.push(std::move(Element));
      skipWhitespace();
      if (Pos >= Text.size())
        return fail("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return consume(']', "']' or ','");
    }
  }

  bool parseObject(Value &Out, unsigned Depth) {
    ++Pos; // '{'
    Out = Value::object();
    skipWhitespace();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWhitespace();
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWhitespace();
      if (!consume(':', "':'"))
        return false;
      skipWhitespace();
      Value Member;
      if (!parseValue(Member, Depth + 1))
        return false;
      Out.set(Key, std::move(Member));
      skipWhitespace();
      if (Pos >= Text.size())
        return fail("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return consume('}', "'}' or ','");
    }
  }

  const std::string &Text;
  std::string &Error;
  size_t Pos = 0;
};

} // namespace

bool json::parse(const std::string &Text, Value &Out, std::string &Error) {
  return Parser(Text, Error).run(Out);
}
