#pragma once

/// \file gw.hpp
/// Element-wise GW convolution stage (paper §4.4, Fig. 3d). After the data
/// transposition, each stored matrix element (i, j) carries its full energy
/// series; the polarization and self-energy follow from per-element FFT
/// convolutions, and the retarded functions from causal reconstruction.
///
/// Storage exploits the §5.2 symmetry: only diagonal-block and upper-block
/// elements are serialized. The lower elements of P^R / Sigma^R (which do
/// NOT obey the lesser/greater symmetry) are recovered exactly from
///     X^R_ji(E) = conj(X^R_ij(E)) - conj(X>_ij(E) - X<_ij(E)),
/// the discrete retarded-minus-advanced identity of the causal window.

#include <cstdint>
#include <vector>

#include "bsparse/bsparse.hpp"
#include "core/energy_grid.hpp"
#include "fft/convolution.hpp"

namespace qtx::core {

using bt::BlockTridiag;
using bt::BtSymmetric;

/// Serialization of the symmetric (diag + upper) BT storage into a flat
/// element vector; fixed layout shared by all quantities.
struct SymLayout {
  int nb = 0;
  int bs = 0;

  std::int64_t diag_elements() const {
    return static_cast<std::int64_t>(nb) * bs * bs;
  }
  std::int64_t num_elements() const {
    return static_cast<std::int64_t>(2 * nb - 1) * bs * bs;
  }
};

/// Flatten diag + upper blocks (column-major within blocks).
std::vector<cplx> serialize_sym(const BlockTridiag& x);

/// Rebuild a full BT matrix from a flat element vector, with lower blocks
/// from the lesser/greater symmetry (-upper†).
BlockTridiag deserialize_lesser(const std::vector<cplx>& flat,
                                const SymLayout& layout);

/// Rebuild a retarded BT matrix: lower elements from the R/A identity using
/// the jump d = X> - X< (same flat layout).
BlockTridiag deserialize_retarded(const std::vector<cplx>& flat_r,
                                  const std::vector<cplx>& flat_jump,
                                  const SymLayout& layout);

/// Element-wise GW kernels operating on energy-major stacks
/// stack[e][k] with k indexing the SymLayout elements.
class GwEngine {
 public:
  GwEngine(const EnergyGrid& grid, const SymLayout& layout)
      : grid_(grid), layout_(layout), conv_(grid.n, grid.de()) {}

  const SymLayout& layout() const { return layout_; }

  /// P≶(w>=0) and the retarded P^R(w>=0) per element. The output stacks
  /// are shaped [ne][nk] on first use and overwritten in place afterwards,
  /// so a caller that keeps them across iterations allocates nothing.
  void polarization(const std::vector<std::vector<cplx>>& g_lt,
                    const std::vector<std::vector<cplx>>& g_gt,
                    std::vector<std::vector<cplx>>& p_lt,
                    std::vector<std::vector<cplx>>& p_gt,
                    std::vector<std::vector<cplx>>& p_r);

  /// Adds Sigma≶(E), the dynamic Sigma^R(E), and the static Fock term
  /// Sigma^F_ij = (i dE / 2 pi) V_ij sum_E G<_ij(E), all per element, into
  /// the given stacks (already shaped [ne][nk] and [nk]); each slot receives
  /// exactly one `+=`, so accumulating into zeroed stacks reproduces the
  /// plain values. \p v_elements is the serialized bare Coulomb matrix.
  void self_energy(const std::vector<std::vector<cplx>>& g_lt,
                   const std::vector<std::vector<cplx>>& g_gt,
                   const std::vector<std::vector<cplx>>& w_lt,
                   const std::vector<std::vector<cplx>>& w_gt,
                   const std::vector<cplx>& v_elements, double fock_scale,
                   std::vector<std::vector<cplx>>& s_lt,
                   std::vector<std::vector<cplx>>& s_gt,
                   std::vector<std::vector<cplx>>& s_r,
                   std::vector<cplx>& s_fock);

 private:
  EnergyGrid grid_;
  SymLayout layout_;
  fft::EnergyConvolver conv_;
  /// Element-major series of the element in flight; reused across elements
  /// and calls.
  std::vector<cplx> in_lt_, in_gt_, in_wlt_, in_wgt_, out_lt_, out_gt_,
      out_r_;
};

/// Materialize the Hermitian Fock matrix from its serialized elements
/// (lower blocks = +upper†).
BlockTridiag deserialize_hermitian(const std::vector<cplx>& flat,
                                   const SymLayout& layout);

}  // namespace qtx::core
