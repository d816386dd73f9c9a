//===- workloads/Kernels.cpp - Benchmark kernel programs ------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "workloads/Kernels.h"

#include "ir/IRBuilder.h"

#include <cassert>

using namespace pira;

Function pira::paperExample1() {
  // Paper (a):  x := a[i];  y := z + z;  z := x*5 + z  — with z preloaded
  // into s1 and i into s2. The single-instruction s5 := s3*5 + s1 maps to
  // mul(s3, s1): same operands, same fixed-point unit, same dependences.
  Function F("example1");
  IRBuilder B(F);
  B.startBlock("body");
  Reg S1 = B.load("z", NoReg, 0);          // s1 := load z
  Reg S2 = B.loadImm(7);                   // s2 := i
  Reg S3 = B.load("a", S2, 0);             // s3 := a[s2]
  Reg S4 = B.binary(Opcode::Add, S1, S1);  // s4 := s1 + s1
  Reg S5 = B.binary(Opcode::Mul, S3, S1);  // s5 := s3*5 + s1 (see above)
  B.br(1);
  B.startBlock("exit");
  B.store("y", S4, NoReg, 0);
  B.store("z", S5, NoReg, 0);
  B.ret();
  F.declareArray("z", 1);
  F.declareArray("y", 1);
  return F;
}

Function pira::paperExample2() {
  Function F("example2");
  IRBuilder B(F);
  B.startBlock("body");
  Reg S1 = B.load("z", NoReg, 0);           // s1 := load z   (fixed)
  Reg S2 = B.load("y", NoReg, 0);           // s2 := load y   (fixed)
  Reg S3 = B.binary(Opcode::Add, S1, S2);   // s3 := s1 + s2
  Reg S4 = B.binary(Opcode::Mul, S1, S2);   // s4 := s1 * s2
  Reg S5 = B.binary(Opcode::Add, S3, S4);   // s5 := s3 + s4
  Reg S6 = B.load("x", NoReg, 0);           // s6 := load x   (float)
  Reg S7 = B.load("w", NoReg, 0);           // s7 := load w   (float)
  Reg S8 = B.binary(Opcode::FMul, S7, S6);  // s8 := s7 * s6
  Reg S9 = B.binary(Opcode::FAdd, S5, S8);  // s9 := s5 + s8
  B.ret(S9);
  F.declareArray("z", 1);
  F.declareArray("y", 1);
  F.declareArray("x", 1);
  F.declareArray("w", 1);
  return F;
}

Function pira::figure6Diamond() {
  // Three definitions of one variable x reaching one use (paper Fig. 6):
  //   entry: x := 1;           branch to mid or join
  //   mid:   x := c2 + c2;     branch to last or join
  //   last:  x := c2 * c2;     fall into join
  //   join:  use x
  // All three defs write the same symbolic register; the web analysis
  // must merge the def-use chains into a single compound interval.
  Function F("figure6");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg C1 = B.load("c", NoReg, 0);
  Reg C2 = B.load("c", NoReg, 1);
  Reg X = B.loadImm(1); // def 1
  B.condBr(C1, 1, 3);

  B.startBlock("mid");
  B.binaryInto(X, Opcode::Add, C2, C2); // def 2
  B.condBr(C2, 2, 3);

  B.startBlock("last");
  B.binaryInto(X, Opcode::Mul, C2, C2); // def 3
  B.br(3);

  B.startBlock("join");
  B.ret(X);
  F.declareArray("c", 2);
  return F;
}

/// Appends the canonical counted-loop tail to the current block: bump the
/// induction register by \p Step, compare against \p Bound, and branch
/// back to \p LoopBlock or on to \p ExitBlock.
static void loopTail(IRBuilder &B, Reg Induction, Reg StepReg, Reg Bound,
                     unsigned LoopBlock, unsigned ExitBlock) {
  B.binaryInto(Induction, Opcode::Add, Induction, StepReg);
  Reg Cmp = B.binary(Opcode::CmpLt, Induction, Bound);
  B.condBr(Cmp, LoopBlock, ExitBlock);
}

Function pira::dotProduct(unsigned Unroll) {
  assert(Unroll >= 1 && "unroll factor must be positive");
  Function F("dotproduct");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Sum = B.loadImm(0);
  Reg I = B.loadImm(0);
  Reg N = B.loadImm(64);
  Reg Step = B.loadImm(static_cast<int64_t>(Unroll));
  B.br(1);

  B.startBlock("loop");
  for (unsigned U = 0; U != Unroll; ++U) {
    Reg A = B.load("a", I, static_cast<int64_t>(U));
    Reg Bv = B.load("b", I, static_cast<int64_t>(U));
    Reg Prod = B.binary(Opcode::FMul, A, Bv);
    B.binaryInto(Sum, Opcode::FAdd, Sum, Prod);
  }
  loopTail(B, I, Step, N, 1, 2);

  B.startBlock("exit");
  B.ret(Sum);
  F.declareArray("a", 64);
  F.declareArray("b", 64);
  return F;
}

Function pira::saxpy(unsigned Unroll) {
  assert(Unroll >= 1 && "unroll factor must be positive");
  Function F("saxpy");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Alpha = B.load("alpha", NoReg, 0);
  Reg I = B.loadImm(0);
  Reg N = B.loadImm(64);
  Reg Step = B.loadImm(static_cast<int64_t>(Unroll));
  B.br(1);

  B.startBlock("loop");
  for (unsigned U = 0; U != Unroll; ++U) {
    Reg X = B.load("x", I, static_cast<int64_t>(U));
    Reg Y = B.load("y", I, static_cast<int64_t>(U));
    Reg AX = B.binary(Opcode::FMul, Alpha, X);
    Reg R = B.binary(Opcode::FAdd, AX, Y);
    B.store("y", R, I, static_cast<int64_t>(U));
  }
  loopTail(B, I, Step, N, 1, 2);

  B.startBlock("exit");
  B.ret();
  F.declareArray("alpha", 1);
  F.declareArray("x", 64);
  F.declareArray("y", 64);
  return F;
}

Function pira::firFilter(unsigned Taps) {
  assert(Taps >= 1 && "need at least one tap");
  Function F("fir");
  IRBuilder B(F);
  B.startBlock("entry");
  // Coefficients stay in registers across the loop (live-through webs).
  std::vector<Reg> Coef;
  for (unsigned T = 0; T != Taps; ++T)
    Coef.push_back(B.load("h", NoReg, static_cast<int64_t>(T)));
  Reg I = B.loadImm(0);
  Reg N = B.loadImm(48);
  Reg One = B.loadImm(1);
  B.br(1);

  B.startBlock("loop");
  Reg Acc = B.loadImm(0);
  for (unsigned T = 0; T != Taps; ++T) {
    Reg X = B.load("x", I, static_cast<int64_t>(T));
    Reg P = B.binary(Opcode::FMul, Coef[T], X);
    B.binaryInto(Acc, Opcode::FAdd, Acc, P);
  }
  B.store("out", Acc, I, 0);
  loopTail(B, I, One, N, 1, 2);

  B.startBlock("exit");
  B.ret();
  F.declareArray("h", Taps);
  F.declareArray("x", 64);
  F.declareArray("out", 64);
  return F;
}

Function pira::horner(unsigned Degree) {
  assert(Degree >= 1 && "degree must be positive");
  Function F("horner");
  IRBuilder B(F);
  B.startBlock("body");
  Reg X = B.load("x", NoReg, 0);
  Reg Acc = B.load("coef", NoReg, 0);
  for (unsigned D = 1; D <= Degree; ++D) {
    Reg C = B.load("coef", NoReg, static_cast<int64_t>(D));
    Reg Mul = B.binary(Opcode::FMul, Acc, X);
    Acc = B.binary(Opcode::FAdd, Mul, C);
  }
  B.ret(Acc);
  F.declareArray("x", 1);
  F.declareArray("coef", Degree + 1);
  return F;
}

Function pira::complexMultiply(unsigned N) {
  assert(N >= 1 && "need at least one multiply");
  Function F("cmul");
  IRBuilder B(F);
  B.startBlock("body");
  for (unsigned K = 0; K != N; ++K) {
    int64_t Base = static_cast<int64_t>(2 * K);
    Reg Ar = B.load("a", NoReg, Base);
    Reg Ai = B.load("a", NoReg, Base + 1);
    Reg Br2 = B.load("b", NoReg, Base);
    Reg Bi = B.load("b", NoReg, Base + 1);
    Reg RR = B.binary(Opcode::FMul, Ar, Br2);
    Reg II = B.binary(Opcode::FMul, Ai, Bi);
    Reg RI = B.binary(Opcode::FMul, Ar, Bi);
    Reg IR = B.binary(Opcode::FMul, Ai, Br2);
    Reg Re = B.binary(Opcode::FSub, RR, II);
    Reg Im = B.binary(Opcode::FAdd, RI, IR);
    B.store("out", Re, NoReg, Base);
    B.store("out", Im, NoReg, Base + 1);
  }
  B.ret();
  F.declareArray("a", 2 * N);
  F.declareArray("b", 2 * N);
  F.declareArray("out", 2 * N);
  return F;
}

Function pira::matmul2x2() {
  Function F("matmul2");
  IRBuilder B(F);
  B.startBlock("body");
  Reg A[2][2], Bm[2][2];
  for (unsigned R = 0; R != 2; ++R)
    for (unsigned C = 0; C != 2; ++C) {
      A[R][C] = B.load("ma", NoReg, static_cast<int64_t>(2 * R + C));
      Bm[R][C] = B.load("mb", NoReg, static_cast<int64_t>(2 * R + C));
    }
  for (unsigned R = 0; R != 2; ++R)
    for (unsigned C = 0; C != 2; ++C) {
      Reg P0 = B.binary(Opcode::FMul, A[R][0], Bm[0][C]);
      Reg P1 = B.binary(Opcode::FMul, A[R][1], Bm[1][C]);
      Reg S = B.binary(Opcode::FAdd, P0, P1);
      B.store("mc", S, NoReg, static_cast<int64_t>(2 * R + C));
    }
  B.ret();
  F.declareArray("ma", 4);
  F.declareArray("mb", 4);
  F.declareArray("mc", 4);
  return F;
}

Function pira::stencil3(unsigned Unroll) {
  assert(Unroll >= 1 && "unroll factor must be positive");
  Function F("stencil3");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg I = B.loadImm(1);
  Reg N = B.loadImm(62);
  Reg Step = B.loadImm(static_cast<int64_t>(Unroll));
  Reg Three = B.loadImm(3);
  B.br(1);

  B.startBlock("loop");
  for (unsigned U = 0; U != Unroll; ++U) {
    int64_t Off = static_cast<int64_t>(U);
    Reg L = B.load("x", I, Off - 1);
    Reg M = B.load("x", I, Off);
    Reg R = B.load("x", I, Off + 1);
    Reg S0 = B.binary(Opcode::FAdd, L, M);
    Reg S1 = B.binary(Opcode::FAdd, S0, R);
    Reg Avg = B.binary(Opcode::FDiv, S1, Three);
    B.store("yout", Avg, I, Off);
  }
  loopTail(B, I, Step, N, 1, 2);

  B.startBlock("exit");
  B.ret();
  F.declareArray("x", 64);
  F.declareArray("yout", 64);
  return F;
}

Function pira::livermoreHydro(unsigned Unroll) {
  assert(Unroll >= 1 && "unroll factor must be positive");
  Function F("hydro");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Q = B.load("q", NoReg, 0);
  Reg Rc = B.load("r", NoReg, 0);
  Reg T = B.load("t", NoReg, 0);
  Reg I = B.loadImm(0);
  Reg N = B.loadImm(40);
  Reg Step = B.loadImm(static_cast<int64_t>(Unroll));
  B.br(1);

  B.startBlock("loop");
  for (unsigned U = 0; U != Unroll; ++U) {
    int64_t Off = static_cast<int64_t>(U);
    Reg Z10 = B.load("z", I, Off + 10);
    Reg Z11 = B.load("z", I, Off + 11);
    Reg RZ = B.binary(Opcode::FMul, Rc, Z10);
    Reg TZ = B.binary(Opcode::FMul, T, Z11);
    Reg Inner = B.binary(Opcode::FAdd, RZ, TZ);
    Reg Y = B.load("yv", I, Off);
    Reg YI = B.binary(Opcode::FMul, Y, Inner);
    Reg Xv = B.binary(Opcode::FAdd, Q, YI);
    B.store("xout", Xv, I, Off);
  }
  loopTail(B, I, Step, N, 1, 2);

  B.startBlock("exit");
  B.ret();
  F.declareArray("q", 1);
  F.declareArray("r", 1);
  F.declareArray("t", 1);
  F.declareArray("z", 64);
  F.declareArray("yv", 64);
  F.declareArray("xout", 64);
  return F;
}

Function pira::reductionTree(unsigned Leaves) {
  assert(Leaves >= 2 && "need at least two leaves");
  Function F("reduce");
  IRBuilder B(F);
  B.startBlock("body");
  std::vector<Reg> Level;
  for (unsigned L = 0; L != Leaves; ++L)
    Level.push_back(B.load("a", NoReg, static_cast<int64_t>(L)));
  while (Level.size() > 1) {
    std::vector<Reg> Next;
    for (size_t K = 0; K + 1 < Level.size(); K += 2)
      Next.push_back(B.binary(Opcode::FAdd, Level[K], Level[K + 1]));
    if (Level.size() % 2 != 0)
      Next.push_back(Level.back());
    Level = std::move(Next);
  }
  B.ret(Level[0]);
  F.declareArray("a", Leaves);
  return F;
}

Function pira::livermoreIccg(unsigned Unroll) {
  assert(Unroll >= 1 && "unroll factor must be positive");
  Function F("iccg");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg I = B.loadImm(0);
  Reg N = B.loadImm(24);
  Reg Step = B.loadImm(static_cast<int64_t>(Unroll));
  B.br(1);

  B.startBlock("loop");
  for (unsigned U = 0; U != Unroll; ++U) {
    int64_t Off = static_cast<int64_t>(U);
    // x[i] = x[i] - v[i]*x[i+8] - v[i+8]*x[i+16] (gathered streams).
    Reg X0 = B.load("x", I, Off);
    Reg V0 = B.load("v", I, Off);
    Reg X1 = B.load("x", I, Off + 8);
    Reg V1 = B.load("v", I, Off + 8);
    Reg X2 = B.load("x", I, Off + 16);
    Reg P0 = B.binary(Opcode::FMul, V0, X1);
    Reg P1 = B.binary(Opcode::FMul, V1, X2);
    Reg D0 = B.binary(Opcode::FSub, X0, P0);
    Reg D1 = B.binary(Opcode::FSub, D0, P1);
    B.store("xnew", D1, I, Off);
  }
  loopTail(B, I, Step, N, 1, 2);

  B.startBlock("exit");
  B.ret();
  F.declareArray("x", 64);
  F.declareArray("v", 64);
  F.declareArray("xnew", 64);
  return F;
}

Function pira::tridiagonal() {
  Function F("tridiag");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Carry = B.load("x", NoReg, 0); // x[0]
  Reg I = B.loadImm(1);
  Reg N = B.loadImm(32);
  Reg One = B.loadImm(1);
  B.br(1);

  B.startBlock("loop");
  // x[i] = z[i] * (y[i] - x[i-1]): the recurrence keeps Carry live
  // around the back edge and serializes iterations.
  Reg Y = B.load("y", I, 0);
  Reg Z = B.load("z", I, 0);
  Reg Diff = B.binary(Opcode::FSub, Y, Carry);
  B.binaryInto(Carry, Opcode::FMul, Z, Diff);
  B.store("x", Carry, I, 0);
  loopTail(B, I, One, N, 1, 2);

  B.startBlock("exit");
  B.ret(Carry);
  F.declareArray("x", 64);
  F.declareArray("y", 64);
  F.declareArray("z", 64);
  return F;
}

Function pira::matmul3x3() {
  Function F("matmul3");
  IRBuilder B(F);
  B.startBlock("body");
  Reg A[3][3], Bm[3][3];
  for (unsigned R = 0; R != 3; ++R)
    for (unsigned C = 0; C != 3; ++C) {
      A[R][C] = B.load("ma", NoReg, static_cast<int64_t>(3 * R + C));
      Bm[R][C] = B.load("mb", NoReg, static_cast<int64_t>(3 * R + C));
    }
  for (unsigned R = 0; R != 3; ++R)
    for (unsigned C = 0; C != 3; ++C) {
      Reg P0 = B.binary(Opcode::FMul, A[R][0], Bm[0][C]);
      Reg Acc = B.fma(A[R][1], Bm[1][C], P0);
      Acc = B.fma(A[R][2], Bm[2][C], Acc);
      B.store("mc", Acc, NoReg, static_cast<int64_t>(3 * R + C));
    }
  B.ret();
  F.declareArray("ma", 9);
  F.declareArray("mb", 9);
  F.declareArray("mc", 9);
  return F;
}

Function pira::convolve5(unsigned Unroll) {
  assert(Unroll >= 1 && "unroll factor must be positive");
  Function F("conv5");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg K0 = B.load("k", NoReg, 0);
  Reg K1 = B.load("k", NoReg, 1);
  Reg K2 = B.load("k", NoReg, 2);
  Reg I = B.loadImm(2);
  Reg N = B.loadImm(60);
  Reg Step = B.loadImm(static_cast<int64_t>(Unroll));
  B.br(1);

  B.startBlock("loop");
  for (unsigned U = 0; U != Unroll; ++U) {
    int64_t Off = static_cast<int64_t>(U);
    // Symmetric taps: k2*(x[i-2]+x[i+2]) + k1*(x[i-1]+x[i+1]) + k0*x[i].
    Reg Xm2 = B.load("x", I, Off - 2);
    Reg Xp2 = B.load("x", I, Off + 2);
    Reg Xm1 = B.load("x", I, Off - 1);
    Reg Xp1 = B.load("x", I, Off + 1);
    Reg X0 = B.load("x", I, Off);
    Reg S2 = B.binary(Opcode::FAdd, Xm2, Xp2);
    Reg S1 = B.binary(Opcode::FAdd, Xm1, Xp1);
    Reg T = B.binary(Opcode::FMul, K2, S2);
    T = B.fma(K1, S1, T);
    T = B.fma(K0, X0, T);
    B.store("out", T, I, Off);
  }
  loopTail(B, I, Step, N, 1, 2);

  B.startBlock("exit");
  B.ret();
  F.declareArray("k", 3);
  F.declareArray("x", 64);
  F.declareArray("out", 64);
  return F;
}

Function pira::twoLoops() {
  Function F("twoloops");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg Scale = B.load("alpha", NoReg, 0);
  Reg I = B.loadImm(0);
  Reg N = B.loadImm(32);
  Reg One = B.loadImm(1);
  B.br(1);

  B.startBlock("scaleloop");
  Reg X = B.load("x", I, 0);
  Reg SX = B.binary(Opcode::FMul, Scale, X);
  B.store("x", SX, I, 0);
  loopTail(B, I, One, N, 1, 2);

  B.startBlock("mid");
  Reg J = B.loadImm(0);
  B.br(3);

  B.startBlock("addloop");
  Reg XV = B.load("x", J, 0);
  Reg YV = B.load("y", J, 0);
  Reg S = B.binary(Opcode::FAdd, XV, YV);
  B.store("y", S, J, 0);
  loopTail(B, J, One, N, 3, 4);

  B.startBlock("exit");
  B.ret();
  F.declareArray("alpha", 1);
  F.declareArray("x", 64);
  F.declareArray("y", 64);
  return F;
}

Function pira::storeLoop(unsigned Slots) {
  Function F("fill");
  IRBuilder B(F);
  B.startBlock("entry");
  Reg I = B.loadImm(0);
  Reg N = B.loadImm(Slots);
  Reg One = B.loadImm(1);
  B.br(1);

  B.startBlock("loop");
  B.store("a", I, I, 0);
  loopTail(B, I, One, N, 1, 2);

  B.startBlock("exit");
  B.ret(I);
  F.declareArray("a", Slots);
  return F;
}

std::vector<std::pair<std::string, Function>> pira::standardKernelSuite() {
  std::vector<std::pair<std::string, Function>> Suite;
  Suite.emplace_back("example1", paperExample1());
  Suite.emplace_back("example2", paperExample2());
  Suite.emplace_back("dot-u4", dotProduct(4));
  Suite.emplace_back("saxpy-u4", saxpy(4));
  Suite.emplace_back("fir-t4", firFilter(4));
  Suite.emplace_back("horner-d8", horner(8));
  Suite.emplace_back("cmul-3", complexMultiply(3));
  Suite.emplace_back("matmul2", matmul2x2());
  Suite.emplace_back("stencil-u2", stencil3(2));
  Suite.emplace_back("hydro-u2", livermoreHydro(2));
  Suite.emplace_back("reduce-8", reductionTree(8));
  Suite.emplace_back("iccg-u2", livermoreIccg(2));
  Suite.emplace_back("tridiag", tridiagonal());
  Suite.emplace_back("matmul3", matmul3x3());
  Suite.emplace_back("conv5-u1", convolve5(1));
  Suite.emplace_back("twoloops", twoLoops());
  return Suite;
}
