#include "fft/convolution.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "fft/fft.hpp"

namespace qtx::fft {

namespace {

/// Zero-padded load: buf[0, n) = x, buf[n, m) = 0.
void load_padded(const std::vector<cplx>& x, std::vector<cplx>& buf) {
  std::copy(x.begin(), x.end(), buf.begin());
  std::fill(buf.begin() + static_cast<std::ptrdiff_t>(x.size()), buf.end(),
            cplx(0.0));
}

}  // namespace

EnergyConvolver::EnergyConvolver(int n_energy, double de)
    : n_(n_energy), de_(de) {
  QTX_CHECK(n_energy > 0 && de > 0.0);
  // Sigma needs a length-(3N-2) linear convolution; one padded size serves
  // every kernel.
  m_ = next_pow2(3 * n_ - 2);
  plan_ = &plan(m_);
  buf_a_.resize(m_);
  buf_b_.resize(m_);
  buf_c_.resize(m_);
}

void EnergyConvolver::polarization(const std::vector<cplx>& g_lt,
                                   const std::vector<cplx>& g_gt,
                                   std::vector<cplx>& p_lt,
                                   std::vector<cplx>& p_gt) {
  QTX_CHECK(static_cast<int>(g_lt.size()) == n_ &&
            static_cast<int>(g_gt.size()) == n_);
  // P<_ij(w) = (i dE/2pi) sum_E G<_ij(E) conj(G>_ij(E - w))
  //          = (i dE/2pi) sum_m g_lt[m + k] conj(g_gt[m]),
  // a cross-correlation c[k] = sum_m a[m + k] conj(b[m]) evaluated as
  // c = IFFT(FFT(a) . conj(FFT(b))); P> swaps the roles of G< and G>. Both
  // products come from the same two spectra. Padding to m_ >= 2N keeps the
  // circular correlation equal to the linear one on k in [0, N).
  load_padded(g_lt, buf_a_);
  load_padded(g_gt, buf_b_);
  plan_->forward(buf_a_.data());
  plan_->forward(buf_b_.data());
  // buf_c_ = A conj(B), buf_b_ = B conj(A), in split arithmetic with the
  // complex-multiply order of a * conj(b).
  const double* a = reinterpret_cast<const double*>(buf_a_.data());
  double* b = reinterpret_cast<double*>(buf_b_.data());
  double* c = reinterpret_cast<double*>(buf_c_.data());
  for (int k = 0; k < 2 * m_; k += 2) {
    const double ar = a[k], ai = a[k + 1], br = b[k], bi = b[k + 1];
    const double nai = -ai, nbi = -bi;
    c[k] = ar * br - ai * nbi;
    c[k + 1] = ar * nbi + ai * br;
    b[k] = br * ar - bi * nai;
    b[k + 1] = br * nai + bi * ar;
  }
  plan_->inverse(buf_c_.data());
  plan_->inverse(buf_b_.data());
  const cplx pref = kI * de_ / (2.0 * kPi);
  unload(buf_c_, 0, p_lt);
  for (auto& v : p_lt) v *= pref;
  unload(buf_b_, 0, p_gt);
  for (auto& v : p_gt) v *= pref;
}

void EnergyConvolver::polarization_direct(const std::vector<cplx>& g_lt,
                                          const std::vector<cplx>& g_gt,
                                          std::vector<cplx>& p_lt,
                                          std::vector<cplx>& p_gt) {
  const cplx pref = kI * de_ / (2.0 * kPi);
  p_lt.assign(n_, cplx(0.0));
  p_gt.assign(n_, cplx(0.0));
  for (int k = 0; k < n_; ++k) {
    cplx slt = 0.0, sgt = 0.0;
    for (int m = 0; m + k < n_; ++m) {
      slt += g_lt[m + k] * std::conj(g_gt[m]);
      sgt += g_gt[m + k] * std::conj(g_lt[m]);
    }
    p_lt[k] = pref * slt;
    p_gt[k] = pref * sgt;
  }
}

void EnergyConvolver::self_energy(const std::vector<cplx>& g_lt,
                                  const std::vector<cplx>& g_gt,
                                  const std::vector<cplx>& w_lt,
                                  const std::vector<cplx>& w_gt,
                                  std::vector<cplx>& s_lt,
                                  std::vector<cplx>& s_gt) {
  QTX_CHECK(static_cast<int>(g_lt.size()) == n_ &&
            static_cast<int>(w_lt.size()) == n_);
  const cplx pref = kI * de_ / (2.0 * kPi);
  // Full-range bosonic series, index shift s = N-1, written straight into
  // the padded workspace:
  //   buf_b_[k + s] = W(w_k),  k in (-N, N),
  // with negative frequencies from the lesser/greater symmetry.
  const int s = n_ - 1;
  const int full = 2 * n_ - 1;
  auto convolve_full = [&](const std::vector<cplx>& g,
                           const std::vector<cplx>& w_pos,
                           const std::vector<cplx>& w_other,
                           std::vector<cplx>& out) {
    load_padded(g, buf_a_);
    for (int k = 0; k < n_; ++k) buf_b_[k + s] = w_pos[k];
    for (int k = 1; k < n_; ++k) buf_b_[s - k] = boson_negative(w_other, k);
    std::fill(buf_b_.begin() + full, buf_b_.end(), cplx(0.0));
    // Linear convolution c = g * W (two-sided); Sigma(E_n) = pref * c[n + s].
    plan_->forward(buf_a_.data());
    plan_->forward(buf_b_.data());
    double* a = reinterpret_cast<double*>(buf_a_.data());
    const double* b = reinterpret_cast<const double*>(buf_b_.data());
    for (int k = 0; k < 2 * m_; k += 2) {
      const double ar = a[k], ai = a[k + 1], br = b[k], bi = b[k + 1];
      a[k] = ar * br - ai * bi;
      a[k + 1] = ar * bi + ai * br;
    }
    plan_->inverse(buf_a_.data());
    unload(buf_a_, s, out);
    for (auto& v : out) v = pref * v;
  };
  convolve_full(g_lt, w_lt, w_gt, s_lt);
  convolve_full(g_gt, w_gt, w_lt, s_gt);
}

void EnergyConvolver::self_energy_direct(const std::vector<cplx>& g_lt,
                                         const std::vector<cplx>& g_gt,
                                         const std::vector<cplx>& w_lt,
                                         const std::vector<cplx>& w_gt,
                                         std::vector<cplx>& s_lt,
                                         std::vector<cplx>& s_gt) {
  const cplx pref = kI * de_ / (2.0 * kPi);
  s_lt.assign(n_, cplx(0.0));
  s_gt.assign(n_, cplx(0.0));
  for (int i = 0; i < n_; ++i) {
    cplx alt = 0.0, agt = 0.0;
    for (int k = -(n_ - 1); k < n_; ++k) {
      const int ge = i - k;  // index of G(E - w_k)
      if (ge < 0 || ge >= n_) continue;
      const cplx wl = (k >= 0) ? w_lt[k] : boson_negative(w_gt, -k);
      const cplx wg = (k >= 0) ? w_gt[k] : boson_negative(w_lt, -k);
      alt += g_lt[ge] * wl;
      agt += g_gt[ge] * wg;
    }
    s_lt[i] = pref * alt;
    s_gt[i] = pref * agt;
  }
}

void EnergyConvolver::unload(const std::vector<cplx>& buf, int offset,
                             std::vector<cplx>& out) const {
  const double inv_m = 1.0 / static_cast<double>(m_);
  out.resize(n_);
  for (int i = 0; i < n_; ++i) out[i] = buf[offset + i] * inv_m;
}

/// Shared causal-window pipeline: given the jump d(E) = X>(E) - X<(E) laid
/// out in a zero-padded length-m buffer, overwrite it with the (unnormalized,
/// factor m) spectrum of theta(t) d(t).
///
/// With the convention X(E) = int dt e^{iEt} X(t), "to the time domain" is
/// the forward FFT (phases e^{-2 pi i q p / m}), so indices q in [0, m/2]
/// represent t >= 0. Half-weights at q = 0 and q = m/2 make the identity
/// X^R - X^A = X> - X< hold exactly on the discrete grid.
void EnergyConvolver::causal_window() {
  plan_->forward(buf_a_.data());  // energy -> time
  buf_a_[0] *= 0.5;
  buf_a_[m_ / 2] *= 0.5;
  std::fill(buf_a_.begin() + m_ / 2 + 1, buf_a_.end(), cplx(0.0));
  plan_->inverse(buf_a_.data());  // time -> energy
}

void EnergyConvolver::retarded_fermion(const std::vector<cplx>& x_lt,
                                       const std::vector<cplx>& x_gt,
                                       std::vector<cplx>& x_r) {
  QTX_CHECK(static_cast<int>(x_lt.size()) == n_);
  for (int i = 0; i < n_; ++i) buf_a_[i] = x_gt[i] - x_lt[i];
  std::fill(buf_a_.begin() + n_, buf_a_.end(), cplx(0.0));
  causal_window();
  unload(buf_a_, 0, x_r);
}

void EnergyConvolver::retarded_boson(const std::vector<cplx>& x_lt,
                                     const std::vector<cplx>& x_gt,
                                     std::vector<cplx>& x_r) {
  QTX_CHECK(static_cast<int>(x_lt.size()) == n_);
  // Full transfer-grid jump, centred at index s = N-1. The causal window
  // commutes with circular index shifts (a shift in energy is a modulation
  // in time, and the window is a pointwise product there), so no explicit
  // recentring is needed.
  const int s = n_ - 1;
  for (int k = 0; k < n_; ++k) buf_a_[k + s] = x_gt[k] - x_lt[k];
  for (int k = 1; k < n_; ++k)
    buf_a_[s - k] = boson_negative(x_lt, k) - boson_negative(x_gt, k);
  std::fill(buf_a_.begin() + 2 * n_ - 1, buf_a_.end(), cplx(0.0));
  causal_window();
  unload(buf_a_, s, x_r);
}

}  // namespace qtx::fft
