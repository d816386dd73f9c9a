//===- workloads/Kernels.h - Benchmark kernel programs ----------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic kernel programs: the paper's two worked examples encoded
/// exactly (modulo the one-instruction `s3*5+s1` multiply-add, which maps
/// to a two-source fixed-point op with identical dependence structure),
/// plus the numeric kernels the evaluation sweeps over — chosen to span
/// the parallelism/pressure space: reduction chains (serial), unrolled
/// streaming loops (parallel, memory-bound), and mixed fixed/float work.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_WORKLOADS_KERNELS_H
#define PIRA_WORKLOADS_KERNELS_H

#include "ir/Function.h"

#include <string>
#include <vector>

namespace pira {

/// Example 1(b) of the paper: z/i loads feeding a fixed-point pair, with
/// the results stored in a second block so they stay live. Instructions
/// 0..4 of block 0 are the paper's s1..s5.
Function paperExample1();

/// Example 2 of the paper: the 9-instruction block for the
/// one-fixed-unit / one-float-unit / one-fetch-unit machine
/// (MachineModel::paperTwoUnit). Instructions 0..8 are s1..s9.
Function paperExample2();

/// Figure 6 shape: an if-then-else whose branches (and fall-through)
/// define the same variable, merged at a common use — exercises compound
/// (non-linear) live intervals in the web analysis.
Function figure6Diamond();

/// Dot product of a and b over one loop iteration body unrolled
/// \p Unroll times (loop over 64 elements).
Function dotProduct(unsigned Unroll = 4);

/// y[i] = alpha * x[i] + y[i], unrolled \p Unroll times per iteration.
Function saxpy(unsigned Unroll = 4);

/// FIR filter with \p Taps coefficient loads per output element.
Function firFilter(unsigned Taps = 4);

/// Horner evaluation of a degree-\p Degree polynomial: a serial
/// dependence chain with almost no parallelism.
Function horner(unsigned Degree = 8);

/// \p N independent complex multiplies (interleaved fixed/float work
/// with high instruction-level parallelism).
Function complexMultiply(unsigned N = 3);

/// Fully unrolled 2x2 matrix multiply.
Function matmul2x2();

/// Three-point stencil y[i] = (x[i-1] + x[i] + x[i+1]) / 3, unrolled.
Function stencil3(unsigned Unroll = 2);

/// Livermore loop 1 (hydro fragment):
/// x[k] = q + y[k] * (r * z[k+10] + t * z[k+11]), unrolled.
Function livermoreHydro(unsigned Unroll = 2);

/// Balanced binary reduction over \p Leaves loaded values — maximal tree
/// parallelism.
Function reductionTree(unsigned Leaves = 8);

/// Livermore loop 2 flavor (ICCG-style gather-multiply-accumulate with
/// two index streams), unrolled.
Function livermoreIccg(unsigned Unroll = 2);

/// Tridiagonal elimination sweep x[i] = z[i] * (y[i] - x[i-1]): a
/// loop-carried serial recurrence (the anti-parallel extreme).
Function tridiagonal();

/// Fully unrolled 3x3 matrix multiply (27 multiplies, heavy pressure).
Function matmul3x3();

/// 1-D convolution with a symmetric 5-tap kernel held in registers.
Function convolve5(unsigned Unroll = 1);

/// Two independent back-to-back loops (vector scale then vector add) —
/// exercises multi-loop CFGs and per-loop live ranges.
Function twoLoops();

/// Fills a \p Slots-element array with a[i] = i, one store per
/// iteration, and returns the final index. Not in the kernel suite: it
/// exists to time simulation against the number of memory slots a loop
/// stores.
Function storeLoop(unsigned Slots);

/// A named kernel suite used by the strategy benchmarks: pairs of
/// (name, program).
std::vector<std::pair<std::string, Function>> standardKernelSuite();

} // namespace pira

#endif // PIRA_WORKLOADS_KERNELS_H
