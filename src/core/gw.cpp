#include "core/gw.hpp"

#include "common/flops.hpp"
#include "common/reduction.hpp"

namespace qtx::core {

std::vector<cplx> serialize_sym(const BlockTridiag& x) {
  const int nb = x.num_blocks(), bs = x.block_size();
  std::vector<cplx> out;
  out.reserve(static_cast<size_t>(2 * nb - 1) * bs * bs);
  for (int i = 0; i < nb; ++i) {
    const la::Matrix& d = x.diag(i);
    out.insert(out.end(), d.data(), d.data() + static_cast<size_t>(bs) * bs);
  }
  for (int i = 0; i + 1 < nb; ++i) {
    const la::Matrix& u = x.upper(i);
    out.insert(out.end(), u.data(), u.data() + static_cast<size_t>(bs) * bs);
  }
  return out;
}

namespace {

la::Matrix block_from(const std::vector<cplx>& flat, std::int64_t offset,
                      int bs) {
  la::Matrix m(bs, bs);
  std::copy(flat.begin() + offset,
            flat.begin() + offset + static_cast<std::int64_t>(bs) * bs,
            m.data());
  return m;
}

}  // namespace

BlockTridiag deserialize_lesser(const std::vector<cplx>& flat,
                                const SymLayout& layout) {
  const int nb = layout.nb, bs = layout.bs;
  QTX_CHECK(static_cast<std::int64_t>(flat.size()) == layout.num_elements());
  BlockTridiag out(nb, bs);
  const std::int64_t bsz = static_cast<std::int64_t>(bs) * bs;
  for (int i = 0; i < nb; ++i) out.diag(i) = block_from(flat, i * bsz, bs);
  for (int i = 0; i + 1 < nb; ++i) {
    out.upper(i) = block_from(flat, (nb + i) * bsz, bs);
    out.lower(i) = out.upper(i).dagger() * cplx(-1.0);
  }
  return out;
}

BlockTridiag deserialize_retarded(const std::vector<cplx>& flat_r,
                                  const std::vector<cplx>& flat_jump,
                                  const SymLayout& layout) {
  const int nb = layout.nb, bs = layout.bs;
  QTX_CHECK(static_cast<std::int64_t>(flat_r.size()) ==
            layout.num_elements());
  BlockTridiag out(nb, bs);
  const std::int64_t bsz = static_cast<std::int64_t>(bs) * bs;
  for (int i = 0; i < nb; ++i) out.diag(i) = block_from(flat_r, i * bsz, bs);
  for (int i = 0; i + 1 < nb; ++i) {
    out.upper(i) = block_from(flat_r, (nb + i) * bsz, bs);
    const la::Matrix jump = block_from(flat_jump, (nb + i) * bsz, bs);
    // X^R_ji = conj(X^R_ij) - conj(d_ij), element-wise: as a block,
    // lower = (upper - jump) conjugate-transposed... element (j,i) of the
    // lower block at position (b, a) corresponds to upper-block entry (a, b).
    la::Matrix lower(bs, bs);
    for (int a = 0; a < bs; ++a)
      for (int b = 0; b < bs; ++b)
        lower(b, a) = std::conj(out.upper(i)(a, b)) - std::conj(jump(a, b));
    out.lower(i) = std::move(lower);
  }
  return out;
}

BlockTridiag deserialize_hermitian(const std::vector<cplx>& flat,
                                   const SymLayout& layout) {
  const int nb = layout.nb, bs = layout.bs;
  BlockTridiag out(nb, bs);
  const std::int64_t bsz = static_cast<std::int64_t>(bs) * bs;
  for (int i = 0; i < nb; ++i) {
    out.diag(i) = block_from(flat, i * bsz, bs);
    // Hermitize the diagonal against elementwise roundoff.
    la::Matrix& d = out.diag(i);
    for (int a = 0; a < bs; ++a)
      for (int b = 0; b <= a; ++b) {
        const cplx v = 0.5 * (d(b, a) + std::conj(d(a, b)));
        d(b, a) = v;
        d(a, b) = std::conj(v);
      }
  }
  for (int i = 0; i + 1 < nb; ++i) {
    out.upper(i) = block_from(flat, (nb + i) * bsz, bs);
    out.lower(i) = out.upper(i).dagger();
  }
  return out;
}

namespace {

/// Give an energy-major stack the shape [ne][nk], keeping the storage it
/// already has (callers overwrite every slot).
void shape_stack(std::vector<std::vector<cplx>>& x, int ne, std::int64_t nk) {
  x.resize(static_cast<std::size_t>(ne));
  for (auto& row : x) row.resize(static_cast<std::size_t>(nk));
}

}  // namespace

void GwEngine::polarization(const std::vector<std::vector<cplx>>& g_lt,
                            const std::vector<std::vector<cplx>>& g_gt,
                            std::vector<std::vector<cplx>>& p_lt,
                            std::vector<std::vector<cplx>>& p_gt,
                            std::vector<std::vector<cplx>>& p_r) {
  const int ne = grid_.n;
  const std::int64_t nk = layout_.num_elements();
  QTX_CHECK(static_cast<int>(g_lt.size()) == ne);
  shape_stack(p_lt, ne, nk);
  shape_stack(p_gt, ne, nk);
  shape_stack(p_r, ne, nk);
  in_lt_.resize(ne);
  in_gt_.resize(ne);
  for (std::int64_t k = 0; k < nk; ++k) {
    for (int e = 0; e < ne; ++e) {
      in_lt_[e] = g_lt[e][k];
      in_gt_[e] = g_gt[e][k];
    }
    conv_.polarization(in_lt_, in_gt_, out_lt_, out_gt_);
    conv_.retarded_boson(out_lt_, out_gt_, out_r_);
    for (int e = 0; e < ne; ++e) {
      p_lt[e][k] = out_lt_[e];
      p_gt[e][k] = out_gt_[e];
      p_r[e][k] = out_r_[e];
    }
  }
}

void GwEngine::self_energy(const std::vector<std::vector<cplx>>& g_lt,
                           const std::vector<std::vector<cplx>>& g_gt,
                           const std::vector<std::vector<cplx>>& w_lt,
                           const std::vector<std::vector<cplx>>& w_gt,
                           const std::vector<cplx>& v_elements,
                           double fock_scale,
                           std::vector<std::vector<cplx>>& s_lt,
                           std::vector<std::vector<cplx>>& s_gt,
                           std::vector<std::vector<cplx>>& s_r,
                           std::vector<cplx>& s_fock) {
  const int ne = grid_.n;
  const std::int64_t nk = layout_.num_elements();
  QTX_CHECK(static_cast<std::int64_t>(v_elements.size()) == nk);
  QTX_CHECK(static_cast<int>(s_lt.size()) == ne &&
            static_cast<int>(s_gt.size()) == ne &&
            static_cast<int>(s_r.size()) == ne &&
            static_cast<std::int64_t>(s_fock.size()) == nk);
  const cplx fock_pref = kI * grid_.de() / (2.0 * kPi) * fock_scale;
  in_lt_.resize(ne);
  in_gt_.resize(ne);
  in_wlt_.resize(ne);
  in_wgt_.resize(ne);
  for (std::int64_t k = 0; k < nk; ++k) {
    for (int e = 0; e < ne; ++e) {
      in_lt_[e] = g_lt[e][k];
      in_gt_[e] = g_gt[e][k];
      in_wlt_[e] = w_lt[e][k];
      in_wgt_[e] = w_gt[e][k];
    }
    // Fold through the shared ordered reduction (ascending energy index,
    // bit-identical to the historic running sum).
    const cplx gsum = ordered_sum(in_lt_);
    conv_.self_energy(in_lt_, in_gt_, in_wlt_, in_wgt_, out_lt_, out_gt_);
    conv_.retarded_fermion(out_lt_, out_gt_, out_r_);
    for (int e = 0; e < ne; ++e) {
      s_lt[e][k] += out_lt_[e];
      s_gt[e][k] += out_gt_[e];
      s_r[e][k] += out_r_[e];
    }
    s_fock[k] += fock_pref * v_elements[k] * gsum;
  }
}

}  // namespace qtx::core
