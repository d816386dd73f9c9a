//===- ir/Parser.cpp - Textual IR parser ----------------------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include "ir/Function.h"
#include "support/FaultInjection.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

using namespace pira;

namespace {

enum class TokKind {
  Ident,   // bare identifier / mnemonic / keyword
  Reg,     // %s4 or %r4
  Integer, // decimal integer, possibly negative
  Punct,   // single punctuation character
  End,
};

struct Token {
  TokKind Kind = TokKind::End;
  std::string Text;   // spelling: identifier, punct char, or digits
  int64_t Value = 0;  // integer value / register number
  bool OutOfRange = false; // the digits do not fit int64_t
  bool PhysicalReg = false;
  unsigned Line = 1;
};

/// Splits the input into tokens; '#' starts a to-end-of-line comment.
class Lexer {
public:
  explicit Lexer(std::string_view Text) : Text(Text) {}

  Token next() {
    skipSpace();
    Token T;
    T.Line = Line;
    if (Pos >= Text.size())
      return T;
    char C = Text[Pos];
    if (C == '%')
      return lexReg();
    if (std::isdigit(static_cast<unsigned char>(C)) || C == '-')
      return lexInt();
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_' || C == '@')
      return lexIdent();
    ++Pos;
    T.Kind = TokKind::Punct;
    T.Text = std::string(1, C);
    return T;
  }

private:
  void skipSpace() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '#') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
        continue;
      }
      if (!std::isspace(static_cast<unsigned char>(C)))
        return;
      if (C == '\n')
        ++Line;
      ++Pos;
    }
  }

  Token lexReg() {
    Token T;
    T.Line = Line;
    ++Pos; // consume '%'
    if (Pos < Text.size() && (Text[Pos] == 's' || Text[Pos] == 'r')) {
      T.PhysicalReg = Text[Pos] == 'r';
      ++Pos;
    }
    T.Kind = TokKind::Reg;
    size_t Start = Pos;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    if (Pos == Start) {
      T.Kind = TokKind::Punct; // malformed; surface as stray '%'
      T.Text = "%";
      return T;
    }
    lexValue(T, Start);
    return T;
  }

  /// Reads Text[Start, Pos) into \p T. Digits past int64_t's range set
  /// OutOfRange instead of throwing or wrapping; the parser reports them.
  void lexValue(Token &T, size_t Start) {
    T.Text = std::string(Text.substr(Start, Pos - Start));
    T.OutOfRange =
        std::from_chars(Text.data() + Start, Text.data() + Pos, T.Value).ec ==
        std::errc::result_out_of_range;
  }

  Token lexInt() {
    Token T;
    T.Line = Line;
    T.Kind = TokKind::Integer;
    size_t Start = Pos;
    if (Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    if (Pos == Start + (Text[Start] == '-' ? 1u : 0u)) {
      T.Kind = TokKind::Punct;
      T.Text = "-";
      return T;
    }
    lexValue(T, Start);
    return T;
  }

  Token lexIdent() {
    Token T;
    T.Line = Line;
    T.Kind = TokKind::Ident;
    size_t Start = Pos;
    if (Text[Pos] == '@')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_'))
      ++Pos;
    T.Text = std::string(Text.substr(Start, Pos - Start));
    return T;
  }

  std::string_view Text;
  size_t Pos = 0;
  unsigned Line = 1;
};

/// Recursive-descent parser over the token stream.
class Parser {
public:
  Parser(std::string_view Text, Function &F, std::string &Error)
      : Lex(Text), F(F), Error(Error) {
    advance();
  }

  bool run() {
    if (!parseHeader())
      return false;
    while (Tok.Kind == TokKind::Ident && Tok.Text == "array")
      if (!parseArray())
        return false;
    while (Tok.Kind == TokKind::Ident && Tok.Text == "block")
      if (!parseBlock())
        return false;
    if (!expectPunct("}"))
      return false;
    return resolveTargets() && checkRegSpace();
  }

private:
  void advance() { Tok = Lex.next(); }

  bool fail(const std::string &Msg) {
    std::ostringstream OS;
    OS << "line " << Tok.Line << ": " << Msg;
    Error = OS.str();
    return false;
  }

  bool expectIdent(const std::string &Word) {
    if (Tok.Kind != TokKind::Ident || Tok.Text != Word)
      return fail("expected '" + Word + "'");
    advance();
    return true;
  }

  bool expectPunct(const std::string &P) {
    if (Tok.Kind != TokKind::Punct || Tok.Text != P)
      return fail("expected '" + P + "'");
    advance();
    return true;
  }

  bool parseInt(int64_t &Out) {
    if (Tok.Kind != TokKind::Integer)
      return fail("expected integer");
    if (Tok.OutOfRange)
      return fail("integer " + Tok.Text + " out of range");
    Out = Tok.Value;
    advance();
    return true;
  }

  /// Parses a count or size that must fit `unsigned`; \p What names it.
  bool parseCount(unsigned &Out, const std::string &What) {
    if (Tok.Kind != TokKind::Integer || Tok.Value < 0)
      return fail("bad " + What);
    if (Tok.OutOfRange ||
        static_cast<uint64_t>(Tok.Value) > std::numeric_limits<unsigned>::max())
      return fail(What + " " + Tok.Text + " out of range");
    Out = static_cast<unsigned>(Tok.Value);
    advance();
    return true;
  }

  bool parseReg(Reg &Out) {
    if (Tok.Kind != TokKind::Reg)
      return fail("expected register");
    // Every id below NoReg names a register; NoReg itself means none.
    if (Tok.OutOfRange || static_cast<uint64_t>(Tok.Value) >= NoReg)
      return fail("register number " + Tok.Text + " out of range");
    if (!SawAnyReg && !HeaderPhysical) {
      Physical = Tok.PhysicalReg;
      F.setAllocated(Physical);
    } else if (Tok.PhysicalReg != Physical) {
      return fail("mixed %s and %r registers in one function");
    }
    SawAnyReg = true;
    Out = static_cast<Reg>(Tok.Value);
    advance();
    return true;
  }

  bool parseName(std::string &Out) {
    if (Tok.Kind != TokKind::Ident)
      return fail("expected identifier");
    Out = Tok.Text;
    advance();
    return true;
  }

  bool parseHeader() {
    if (!expectIdent("func"))
      return false;
    if (Tok.Kind != TokKind::Ident || Tok.Text.empty() ||
        Tok.Text[0] != '@')
      return fail("expected @name");
    F.setName(Tok.Text.substr(1));
    advance();
    if (!expectIdent("regs") || !parseCount(DeclaredRegs, "register count"))
      return false;
    if (Tok.Kind == TokKind::Ident && Tok.Text == "physical") {
      Physical = true;
      HeaderPhysical = true;
      F.setAllocated(true);
      advance();
    }
    return expectPunct("{");
  }

  bool parseArray() {
    advance(); // 'array'
    std::string Name;
    unsigned Size = 0;
    if (!parseName(Name) || !parseCount(Size, "array size"))
      return false;
    F.declareArray(Name, Size);
    return true;
  }

  bool parseBlock() {
    advance(); // 'block'
    std::string Label;
    if (!parseName(Label))
      return false;
    if (F.findBlock(Label) != -1)
      return fail("duplicate block label '" + Label + "'");
    if (!expectPunct(":"))
      return false;
    CurBlock = F.addBlock(Label);
    while (!atBlockEnd())
      if (!parseInstruction())
        return false;
    return true;
  }

  bool atBlockEnd() const {
    if (Tok.Kind == TokKind::End)
      return true;
    if (Tok.Kind == TokKind::Punct && Tok.Text == "}")
      return true;
    return Tok.Kind == TokKind::Ident && Tok.Text == "block";
  }

  /// Looks up an opcode by mnemonic; returns nullopt when unknown.
  static std::optional<Opcode> opcodeByName(const std::string &Name) {
    for (unsigned I = 0; I != NumOpcodes; ++I) {
      Opcode Op = static_cast<Opcode>(I);
      if (Name == opcodeName(Op))
        return Op;
    }
    return std::nullopt;
  }

  bool parseInstruction() {
    Reg Def = NoReg;
    if (Tok.Kind == TokKind::Reg) {
      if (!parseReg(Def) || !expectPunct("="))
        return false;
    }
    std::string Mnemonic;
    if (!parseName(Mnemonic))
      return false;
    std::optional<Opcode> Op = opcodeByName(Mnemonic);
    if (!Op)
      return fail("unknown opcode '" + Mnemonic + "'");
    const OpcodeInfo &Info = opcodeInfo(*Op);
    if (Info.HasDef != (Def != NoReg))
      return fail(std::string("opcode '") + Mnemonic +
                  (Info.HasDef ? "' requires a result register"
                               : "' takes no result register"));

    switch (*Op) {
    case Opcode::LoadImm:
      return parseLoadImm(Def);
    case Opcode::Load:
      return parseLoad(Def);
    case Opcode::Store:
      return parseStore();
    case Opcode::Br:
      return parseBr();
    case Opcode::CondBr:
      return parseCondBr();
    case Opcode::Ret:
      return parseRet();
    default:
      return parseRegOperands(*Op, Def, Info.NumUses);
    }
  }

  void emit(Instruction I, std::vector<std::string> TargetLabels = {}) {
    F.block(CurBlock).append(std::move(I));
    if (!TargetLabels.empty())
      PendingTargets.push_back(
          {CurBlock, F.block(CurBlock).size() - 1, std::move(TargetLabels)});
  }

  bool parseLoadImm(Reg Def) {
    int64_t Imm = 0;
    if (!parseInt(Imm))
      return false;
    emit(Instruction(Opcode::LoadImm, Def, {}, Imm));
    return true;
  }

  /// Parses `name[%i + 4]`, `name[%i]`, or `name[4]` into its parts.
  bool parseAddress(std::string &Array, Reg &Index, int64_t &Offset) {
    Index = NoReg;
    Offset = 0;
    if (!parseName(Array) || !expectPunct("["))
      return false;
    if (Tok.Kind == TokKind::Reg) {
      if (!parseReg(Index))
        return false;
      if (Tok.Kind == TokKind::Punct && Tok.Text == "+") {
        advance();
        if (!parseInt(Offset))
          return false;
      }
    } else if (!parseInt(Offset)) {
      return false;
    }
    return expectPunct("]");
  }

  bool parseLoad(Reg Def) {
    std::string Array;
    Reg Index = NoReg;
    int64_t Offset = 0;
    if (!parseAddress(Array, Index, Offset))
      return false;
    Instruction I(Opcode::Load, Def,
                  Index == NoReg ? std::vector<Reg>{}
                                 : std::vector<Reg>{Index},
                  Offset);
    I.setArraySymbol(Array);
    F.declareArray(Array, 0);
    emit(std::move(I));
    return true;
  }

  bool parseStore() {
    std::string Array;
    Reg Index = NoReg;
    int64_t Offset = 0;
    if (!parseAddress(Array, Index, Offset) || !expectPunct(","))
      return false;
    Reg Value = NoReg;
    if (!parseReg(Value))
      return false;
    Instruction I(Opcode::Store, NoReg,
                  Index == NoReg ? std::vector<Reg>{Value}
                                 : std::vector<Reg>{Value, Index},
                  Offset);
    I.setArraySymbol(Array);
    F.declareArray(Array, 0);
    emit(std::move(I));
    return true;
  }

  bool parseBr() {
    std::string Label;
    if (!parseName(Label))
      return false;
    Instruction I(Opcode::Br, NoReg, {});
    emit(std::move(I), {Label});
    return true;
  }

  bool parseCondBr() {
    Reg Cond = NoReg;
    std::string TrueLabel, FalseLabel;
    if (!parseReg(Cond) || !expectPunct(",") || !parseName(TrueLabel) ||
        !expectPunct(",") || !parseName(FalseLabel))
      return false;
    Instruction I(Opcode::CondBr, NoReg, {Cond});
    emit(std::move(I), {TrueLabel, FalseLabel});
    return true;
  }

  bool parseRet() {
    std::vector<Reg> Uses;
    if (Tok.Kind == TokKind::Reg) {
      Reg R = NoReg;
      if (!parseReg(R))
        return false;
      Uses.push_back(R);
    }
    emit(Instruction(Opcode::Ret, NoReg, std::move(Uses)));
    return true;
  }

  bool parseRegOperands(Opcode Op, Reg Def, unsigned Count) {
    std::vector<Reg> Uses;
    for (unsigned I = 0; I != Count; ++I) {
      if (I != 0 && !expectPunct(","))
        return false;
      Reg R = NoReg;
      if (!parseReg(R))
        return false;
      Uses.push_back(R);
    }
    emit(Instruction(Op, Def, std::move(Uses)));
    return true;
  }

  bool resolveTargets() {
    for (const PendingTarget &P : PendingTargets) {
      std::vector<unsigned> Resolved;
      for (const std::string &Label : P.Labels) {
        int Idx = F.findBlock(Label);
        if (Idx == -1) {
          Error = "undefined block label '" + Label + "'";
          return false;
        }
        Resolved.push_back(static_cast<unsigned>(Idx));
      }
      F.block(P.Block).inst(P.Inst).setTargets(std::move(Resolved));
    }
    return true;
  }

  /// Widens the declared register space to cover every operand actually
  /// used, then validates the declaration.
  bool checkRegSpace() {
    unsigned MaxSeen = 0;
    for (const BasicBlock &B : F.blocks())
      for (const Instruction &I : B.instructions()) {
        if (I.hasDef())
          MaxSeen = std::max(MaxSeen, I.def() + 1);
        for (Reg U : I.uses())
          MaxSeen = std::max(MaxSeen, U + 1);
      }
    if (DeclaredRegs < MaxSeen) {
      Error = "declared register count " + std::to_string(DeclaredRegs) +
              " is smaller than highest register used (" +
              std::to_string(MaxSeen) + ")";
      return false;
    }
    F.setNumRegs(DeclaredRegs);
    return true;
  }

  struct PendingTarget {
    unsigned Block;
    unsigned Inst;
    std::vector<std::string> Labels;
  };

  Lexer Lex;
  Function &F;
  std::string &Error;
  Token Tok;
  unsigned CurBlock = 0;
  unsigned DeclaredRegs = 0;
  bool Physical = false;
  bool HeaderPhysical = false;
  bool SawAnyReg = false;
  std::vector<PendingTarget> PendingTargets;
};

} // namespace

bool pira::parseFunction(std::string_view Text, Function &F,
                         std::string &Error) {
  F = Function();
  Error.clear();
  Parser P(Text, F, Error);
  return P.run();
}

Expected<Function> pira::parseFunctionEx(std::string_view Text,
                                         std::string_view Name) {
  std::string Frame =
      "input " + (Name.empty() ? std::string("<input>") : std::string(Name));
  if (faultinject::shouldFire("parse.enter")) {
    Status S = Status::error(ErrorCode::FaultInjected, "parse",
                             "injected parse failure");
    S.addContext(std::move(Frame));
    return S;
  }
  Function F;
  std::string Error;
  if (!parseFunction(Text, F, Error)) {
    Status S = Status::error(ErrorCode::ParseError, "parse", Error);
    S.addContext(std::move(Frame));
    return S;
  }
  return F;
}
