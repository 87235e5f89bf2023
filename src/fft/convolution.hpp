#pragma once

/// \file convolution.hpp
/// Energy-convolution engine (paper §4.4, Eq. 3). Computes, per matrix
/// element (i, j), the polarization and self-energy convolutions over the
/// energy axis, plus the causal (retarded) reconstructions.
///
/// Conventions (see DESIGN.md "Physics conventions"):
///  - Fermionic quantities (G, Sigma) live on the grid E_n = E_min + n dE,
///    n in [0, N).
///  - Bosonic quantities (P, W) live on the transfer grid w_k = k dE,
///    k in [0, N); their negative-frequency values follow from the exact
///    identity X<_ij(-w) = -conj(X>_ij(w)) — the same lesser/greater symmetry
///    the paper exploits to halve storage and communication (§5.2).
///  - Polarization:   P≶_ij(w)  = (i dE/2pi) sum_E G≶_ij(E) conj(G≷_ij(E-w))
///    (the partner series G_ji enters through anti-Hermiticity, which is why
///    one energy series per stored element suffices).
///  - Self-energy:    S≶_ij(E)  = (i dE/2pi) sum_w G≶_ij(E-w) W≶_ij(w)
///    with the w-sum running over both signs via the identity above.
///  - Retarded parts: X^R(t) = theta(t) (X>(t) - X<(t)), evaluated by
///    windowing the inverse FFT in the time domain.
///
/// All routines exist in two versions: FFT-accelerated (O(N log N)) and
/// direct (O(N^2)) — the latter as a reference for tests and for the paper's
/// complexity-ablation benchmark.
///
/// The FFT versions run on one cached fft::Plan of the padded length and
/// allocate nothing once the output vectors have their size. polarization
/// transforms each G series once and builds both P< and P> from the two
/// spectra. Spectral products use the same split arithmetic as the
/// butterflies, so every output is bit-identical to the one-correlation-
/// per-component formulation kept as the oracle in tests/test_fft.cpp.

#include <vector>

#include "common/types.hpp"

namespace qtx::fft {

class Plan;

/// Per-element convolution workspace. Construct once per (thread, grid) and
/// reuse across matrix elements; buffers are recycled between calls.
class EnergyConvolver {
 public:
  /// \param n_energy grid size N (same for fermionic and bosonic grids)
  /// \param de       grid spacing in eV
  EnergyConvolver(int n_energy, double de);

  int n_energy() const { return n_; }
  double de() const { return de_; }

  /// P≶_ij(w >= 0) from the G≶_ij energy series.
  void polarization(const std::vector<cplx>& g_lt,
                    const std::vector<cplx>& g_gt, std::vector<cplx>& p_lt,
                    std::vector<cplx>& p_gt);

  /// Sigma≶_ij(E) from G≶_ij and the dynamic screened interaction W≶_ij
  /// (bosonic, w >= 0 stored).
  void self_energy(const std::vector<cplx>& g_lt,
                   const std::vector<cplx>& g_gt,
                   const std::vector<cplx>& w_lt,
                   const std::vector<cplx>& w_gt, std::vector<cplx>& s_lt,
                   std::vector<cplx>& s_gt);

  /// Retarded reconstruction on the fermionic grid:
  /// X^R(E) = FT[theta(t) (X>(t) - X<(t))].
  void retarded_fermion(const std::vector<cplx>& x_lt,
                        const std::vector<cplx>& x_gt,
                        std::vector<cplx>& x_r);

  /// Retarded reconstruction on the bosonic grid (w >= 0 stored, negative
  /// frequencies supplied by the lesser/greater symmetry).
  void retarded_boson(const std::vector<cplx>& x_lt,
                      const std::vector<cplx>& x_gt, std::vector<cplx>& x_r);

  /// O(N^2) reference implementations (tests + ablation bench).
  void polarization_direct(const std::vector<cplx>& g_lt,
                           const std::vector<cplx>& g_gt,
                           std::vector<cplx>& p_lt, std::vector<cplx>& p_gt);
  void self_energy_direct(const std::vector<cplx>& g_lt,
                          const std::vector<cplx>& g_gt,
                          const std::vector<cplx>& w_lt,
                          const std::vector<cplx>& w_gt,
                          std::vector<cplx>& s_lt, std::vector<cplx>& s_gt);

 private:
  /// Causal window (theta(t)) applied in place to the jump in buf_a_.
  void causal_window();

  /// out[i] = buf[offset + i] / m for i in [0, N): the 1/m normalization of
  /// an inverse transform, applied only to the entries a kernel keeps.
  void unload(const std::vector<cplx>& buf, int offset,
              std::vector<cplx>& out) const;

  int n_;
  double de_;
  int m_;  ///< padded FFT length
  const Plan* plan_;  ///< shared tables for length m_
  std::vector<cplx> buf_a_, buf_b_, buf_c_;
};

/// Bosonic negative-frequency extension: value of X<_ij at -w_k given the
/// stored positive-frequency series (identity X<(-w) = -conj(X>(w))).
inline cplx boson_negative(const std::vector<cplx>& other_component, int k) {
  return -std::conj(other_component[k]);
}

}  // namespace qtx::fft
