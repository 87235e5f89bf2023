#include "fft/fft.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>

#include "common/check.hpp"
#include "common/flops.hpp"

namespace qtx::fft {
namespace {

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

/// Twiddles of every stage, stage-major: the stage of length len = 2h
/// holds w_j = wlen^j for j in [0, h), produced by the running product
/// w *= wlen so each value carries exactly the rounding the transform
/// loop has always used.
std::vector<cplx> stage_twiddles(int n, bool inverse) {
  std::vector<cplx> out;
  out.reserve(n > 0 ? n - 1 : 0);
  for (int half = 1; half < n; half <<= 1) {
    const int len = 2 * half;
    const double ang = 2.0 * kPi / len * (inverse ? 1.0 : -1.0);
    const cplx wlen(std::cos(ang), std::sin(ang));
    cplx w(1.0);
    for (int j = 0; j < half; ++j) {
      out.push_back(w);
      w *= wlen;
    }
  }
  return out;
}

/// Bluestein chirp-z: expresses an arbitrary-length DFT as a convolution,
/// evaluated with a power-of-two FFT.
void fft_bluestein(std::vector<cplx>& x, bool inverse) {
  const int n = static_cast<int>(x.size());
  const int m = next_pow2(2 * n - 1);
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<cplx> chirp(n);
  for (int k = 0; k < n; ++k) {
    // Use k^2 mod 2n to avoid overflow / precision loss for large k.
    const long long k2 = static_cast<long long>(k) * k % (2LL * n);
    const double ang = sign * kPi * static_cast<double>(k2) / n;
    chirp[k] = cplx(std::cos(ang), std::sin(ang));
  }
  std::vector<cplx> a(m, cplx(0.0)), b(m, cplx(0.0));
  for (int k = 0; k < n; ++k) a[k] = x[k] * chirp[k];
  b[0] = std::conj(chirp[0]);
  for (int k = 1; k < n; ++k) b[k] = b[m - k] = std::conj(chirp[k]);
  const Plan& p = plan(m);
  p.forward(a.data());
  p.forward(b.data());
  for (int k = 0; k < m; ++k) a[k] *= b[k];
  p.inverse(a.data());
  const double inv_m = 1.0 / m;
  for (int k = 0; k < n; ++k) x[k] = a[k] * inv_m * chirp[k];
}

}  // namespace

Plan::Plan(int n)
    : n_(n),
      forward_twiddles_(stage_twiddles(n, false)),
      inverse_twiddles_(stage_twiddles(n, true)) {
  QTX_CHECK_MSG(is_pow2(n), "fft::Plan needs a power-of-two length, got "
                                << n);
  for (int i = 1, j = 0; i < n; ++i) {
    int bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) swaps_.emplace_back(i, j);
  }
}

void Plan::run(cplx* x, const std::vector<cplx>& twiddles) const {
  for (const auto& [i, j] : swaps_) std::swap(x[i], x[j]);
  // Split real/imaginary butterflies over the interleaved (re, im) doubles
  // the standard guarantees as std::complex's array layout. v = hi * w keeps
  // the complex-multiply order (re = a c - b d, im = a d + b c), so each
  // value is bit-identical to the std::complex expression it replaces.
  double* d = reinterpret_cast<double*>(x);
  const double* tw = reinterpret_cast<const double*>(twiddles.data());
  for (int half = 1; half < n_; half <<= 1) {
    const double* w = tw + 2 * (half - 1);
    for (int i = 0; i < n_; i += 2 * half) {
      double* lo = d + 2 * i;
      double* hi = lo + 2 * half;
      for (int j = 0; j < half; ++j) {
        const double wr = w[2 * j], wi = w[2 * j + 1];
        const double ar = hi[2 * j], ai = hi[2 * j + 1];
        const double vr = ar * wr - ai * wi;
        const double vi = ar * wi + ai * wr;
        const double ur = lo[2 * j], ui = lo[2 * j + 1];
        lo[2 * j] = ur + vr;
        lo[2 * j + 1] = ui + vi;
        hi[2 * j] = ur - vr;
        hi[2 * j + 1] = ui - vi;
      }
    }
  }
  FlopLedger::add(flop_count::fft(n_));
}

const Plan& plan(int n) {
  QTX_CHECK_MSG(is_pow2(n),
                "fft::plan needs a power-of-two length, got " << n);
  // One slot per log2(n). A plan is never replaced or freed before exit,
  // so the returned reference outlives every caller.
  static std::mutex slots_mu;
  static std::array<std::unique_ptr<const Plan>, 31> slots;
  const std::lock_guard<std::mutex> lock(slots_mu);
  std::unique_ptr<const Plan>& slot =
      slots[std::countr_zero(static_cast<unsigned>(n))];
  if (!slot) slot = std::make_unique<const Plan>(n);
  return *slot;
}

int next_pow2(int n) {
  QTX_CHECK_MSG(n > 0 && n <= (1 << 30),
                "fft::next_pow2: n = " << n
                                       << " is outside [1, 2^30]; its next "
                                          "power of two does not fit in int");
  return static_cast<int>(std::bit_ceil(static_cast<unsigned>(n)));
}

void fft(std::vector<cplx>& x) {
  if (x.size() <= 1) return;
  if (is_pow2(static_cast<int>(x.size()))) {
    plan(static_cast<int>(x.size())).forward(x.data());
  } else {
    fft_bluestein(x, false);
  }
}

void ifft(std::vector<cplx>& x) {
  if (x.size() <= 1) return;
  if (is_pow2(static_cast<int>(x.size()))) {
    plan(static_cast<int>(x.size())).inverse(x.data());
  } else {
    fft_bluestein(x, true);
  }
  const double inv_n = 1.0 / static_cast<double>(x.size());
  for (auto& v : x) v *= inv_n;
}

std::vector<cplx> dft_reference(const std::vector<cplx>& x, bool inverse) {
  const int n = static_cast<int>(x.size());
  std::vector<cplx> out(n, cplx(0.0));
  const double sign = inverse ? 1.0 : -1.0;
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * kPi * k * j / n;
      out[k] += x[j] * cplx(std::cos(ang), std::sin(ang));
    }
  }
  if (inverse)
    for (auto& v : out) v *= 1.0 / n;
  return out;
}

}  // namespace qtx::fft
