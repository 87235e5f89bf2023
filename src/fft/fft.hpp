#pragma once

/// \file fft.hpp
/// Complex FFT used by the energy-convolution kernels (paper §4.4): the
/// element-wise P- and Sigma-convolutions over the energy grid are evaluated
/// as products in the (Fourier-conjugate) time domain, reducing the cost per
/// matrix element from O(N_E^2) to O(N_E log N_E).
///
/// Power-of-two lengths run an iterative radix-2 Cooley-Tukey transform
/// through a Plan: a bit-reversal swap table plus per-stage twiddle tables,
/// built once per length and cached process-wide (mutex-guarded, a few KB
/// per length). Arbitrary lengths fall back to Bluestein's chirp-z
/// algorithm so callers never need to care about padding granularity.
///
/// Bit-identity contract: the planned transform returns the same bytes as
/// the historic per-call loop (twiddles from the running product
/// `w *= wlen`, butterflies with `std::complex` arithmetic). The twiddle
/// tables are filled by that very recurrence, and the butterflies are
/// written in split real/imaginary arithmetic in the operation order of
/// GCC's complex multiply (re = ac - bd, im = ad + bc), which is the same
/// IEEE result whenever no product overflows (the NaN-recovery branch of
/// the complex multiply only fires on inf/NaN). tests/test_fft.cpp keeps
/// the historic loop as the oracle and compares with ==.

#include <utility>
#include <vector>

#include "common/types.hpp"

namespace qtx::fft {

/// Tables for the in-place radix-2 transform of one power-of-two length.
/// Obtain shared instances through plan(); a Plan is immutable after
/// construction, so one instance serves any number of threads.
class Plan {
 public:
  /// \param n transform length, a power of two >= 1
  explicit Plan(int n);

  int size() const { return n_; }

  /// Unnormalized in-place forward transform of x[0, n):
  /// X_k = sum_j x_j exp(-2 pi i k j / n).
  void forward(cplx* x) const { run(x, forward_twiddles_); }

  /// Unnormalized in-place inverse transform of x[0, n) (no 1/n factor):
  /// x_j = sum_k X_k exp(+2 pi i k j / n).
  void inverse(cplx* x) const { run(x, inverse_twiddles_); }

 private:
  void run(cplx* x, const std::vector<cplx>& twiddles) const;

  int n_;
  /// Bit-reversal permutation as the (i, rev(i)) pairs with i < rev(i).
  std::vector<std::pair<int, int>> swaps_;
  /// Stage with half-width h owns entries [h - 1, 2h - 1); n - 1 in total.
  std::vector<cplx> forward_twiddles_, inverse_twiddles_;
};

/// The process-wide plan for power-of-two length \p n, built on first use.
/// Safe to call concurrently from any number of threads.
const Plan& plan(int n);

/// In-place forward DFT: X_k = sum_n x_n exp(-2 pi i k n / N).
void fft(std::vector<cplx>& x);

/// In-place inverse DFT (normalized by 1/N): x_n = (1/N) sum_k X_k
/// exp(+2 pi i k n / N).
void ifft(std::vector<cplx>& x);

/// Smallest power of two >= n, for 1 <= n <= 2^30 (anything else is
/// rejected: the next power of two would not fit in an int).
int next_pow2(int n);

/// O(N^2) reference DFT for tests and the FFT-ablation benchmark.
std::vector<cplx> dft_reference(const std::vector<cplx>& x, bool inverse);

}  // namespace qtx::fft
