#include "core/stage_registry.hpp"

#include "common/reduction.hpp"
#include "par/comm_socket.hpp"
#include "par/thread_pool.hpp"
#include "rgf/nested_dissection.hpp"

#include <sstream>
#include <utility>

namespace qtx::core {
namespace {

// ---------------------------------------------------------------------------
// OBC backends
// ---------------------------------------------------------------------------

/// §5.3 memoizer adapter: warm-started fixed point with direct fallback.
class MemoizedObcSolver final : public ObcSolver {
 public:
  explicit MemoizedObcSolver(const obc::MemoizerOptions& opt) : memo_(opt) {}
  std::string_view name() const override { return "memoized"; }
  la::Matrix solve_surface(const obc::ObcKey& key, const la::Matrix& m,
                           const la::Matrix& n,
                           const la::Matrix& np) override {
    return memo_.solve_surface(key, m, n, np);
  }
  la::Matrix solve_stein(const obc::ObcKey& key, const la::Matrix& q,
                         const la::Matrix& a, double sigma) override {
    return memo_.solve_stein(key, q, a, sigma);
  }
  const obc::MemoizerStats& stats() const override { return memo_.stats(); }
  void reset() override {
    memo_.clear_cache();
    memo_.reset_stats();
  }

 private:
  obc::ObcMemoizer memo_;
};

/// Direct adapter over obc/beyn.hpp: contour-integral surface solves (with
/// the Sancho-Rubio / fixed-point safety ladder) and Schur Stein solves,
/// every time — no cross-iteration state.
class BeynObcSolver final : public ObcSolver {
 public:
  explicit BeynObcSolver(int quadrature) : quadrature_(quadrature) {}
  std::string_view name() const override { return "beyn"; }
  la::Matrix solve_surface(const obc::ObcKey&, const la::Matrix& m,
                           const la::Matrix& n,
                           const la::Matrix& np) override {
    stats_.direct_calls += 1;
    return obc::solve_surface_direct(m, n, np, quadrature_);
  }
  la::Matrix solve_stein(const obc::ObcKey&, const la::Matrix& q,
                         const la::Matrix& a, double sigma) override {
    stats_.direct_calls += 1;
    return obc::stein_direct(q, a, sigma);
  }
  const obc::MemoizerStats& stats() const override { return stats_; }
  void reset() override { stats_.reset(); }

 private:
  int quadrature_;
  obc::MemoizerStats stats_;
};

/// Iterative adapter over obc/lyapunov.hpp and the Sancho-Rubio decimation:
/// surface solves by decimation, Stein solves by the doubling ("squaring")
/// iteration, each falling back to the direct solver when not convergent.
class LyapunovObcSolver final : public ObcSolver {
 public:
  std::string_view name() const override { return "lyapunov"; }
  la::Matrix solve_surface(const obc::ObcKey&, const la::Matrix& m,
                           const la::Matrix& n,
                           const la::Matrix& np) override {
    const obc::SanchoRubioResult sr = obc::surface_sancho_rubio(m, n, np);
    if (sr.converged && obc::surface_residual(sr.x, m, n, np) < 1e-6) {
      stats_.memoized_calls += 1;
      stats_.fpi_iterations += sr.iterations;
      return sr.x;
    }
    stats_.direct_calls += 1;
    return obc::solve_surface_direct(m, n, np);
  }
  la::Matrix solve_stein(const obc::ObcKey&, const la::Matrix& q,
                         const la::Matrix& a, double sigma) override {
    const obc::SteinResult r = obc::stein_doubling(q, a, sigma);
    if (r.converged) {
      stats_.memoized_calls += 1;
      stats_.fpi_iterations += r.iterations;
      return r.x;
    }
    stats_.direct_calls += 1;
    return obc::stein_direct(q, a, sigma);
  }
  const obc::MemoizerStats& stats() const override { return stats_; }
  void reset() override { stats_.reset(); }

 private:
  obc::MemoizerStats stats_;
};

// ---------------------------------------------------------------------------
// Green's-function backends
// ---------------------------------------------------------------------------

class SequentialRgfSolver final : public GreensSolver {
 public:
  explicit SequentialRgfSolver(bool symmetrize) {
    opt_.symmetrize = symmetrize;
  }
  std::string_view name() const override { return "rgf"; }
  rgf::SelectedSolution solve(const bt::BlockTridiag& m,
                              const bt::BlockTridiag& bl,
                              const bt::BlockTridiag& bg) override {
    return rgf::rgf_solve(m, bl, bg, opt_);
  }

 private:
  rgf::RgfOptions opt_;
};

class NestedDissectionSolver final : public GreensSolver {
 public:
  explicit NestedDissectionSolver(const rgf::NdOptions& opt) : opt_(opt) {}
  std::string_view name() const override { return "nested-dissection"; }
  rgf::SelectedSolution solve(const bt::BlockTridiag& m,
                              const bt::BlockTridiag& bl,
                              const bt::BlockTridiag& bg) override {
    return rgf::nd_solve(m, bl, bg, opt_).sel;
  }

 private:
  rgf::NdOptions opt_;
};

// ---------------------------------------------------------------------------
// Energy-loop execution policies
// ---------------------------------------------------------------------------

/// One batch after the other on the calling thread — the reference schedule
/// every parallel policy must reproduce bit-identically.
class SequentialExecutor final : public EnergyLoopExecutor {
 public:
  std::string_view name() const override { return "sequential"; }
  int concurrency() const override { return 1; }
  void for_each_batch(
      const std::vector<EnergyBatch>& batches,
      const std::function<void(const EnergyBatch&)>& fn) override {
    for (const EnergyBatch& b : batches) fn(b);
  }
};

/// OpenMP-style fork-join over the work-stealing thread pool: every
/// for_each_batch scatters the batches across the workers and joins before
/// returning (the implicit barrier of an `omp parallel for`).
class OmpExecutor final : public EnergyLoopExecutor {
 public:
  explicit OmpExecutor(int num_threads) : pool_(num_threads) {}
  std::string_view name() const override { return "omp"; }
  int concurrency() const override { return pool_.size(); }
  void for_each_batch(
      const std::vector<EnergyBatch>& batches,
      const std::function<void(const EnergyBatch&)>& fn) override {
    pool_.parallel_for(static_cast<int>(batches.size()),
                       [&](int i) { fn(batches[i]); });
  }

 private:
  par::ThreadPool pool_;
};

// ---------------------------------------------------------------------------
// Self-energy channels
// ---------------------------------------------------------------------------

/// Dynamic GW self-energy plus static Fock exchange (paper §4.4).
class GwChannel final : public SelfEnergyChannel {
 public:
  GwChannel(const SimulationOptions& opt, const SymLayout& layout)
      : engine_(opt.grid, layout), fock_scale_(opt.fock_scale) {}
  std::string_view name() const override { return "gw"; }
  bool needs_screened_interaction() const override { return true; }
  void accumulate(const SelfEnergyInput& in,
                  SelfEnergyAccumulator& out) override {
    QTX_CHECK_MSG(in.w_lesser != nullptr && in.w_greater != nullptr,
                  "the \"gw\" channel needs the screened-interaction stacks; "
                  "the driver must run the P and W stages first");
    engine_.self_energy(*in.g_lesser, *in.g_greater, *in.w_lesser,
                        *in.w_greater, *in.v_elements, fock_scale_,
                        *out.s_lesser, *out.s_greater, *out.s_retarded,
                        *out.s_fock);
  }

 private:
  GwEngine engine_;
  double fock_scale_;
};

/// Static (Hartree-Fock) exchange only: Sigma^F_ij = (i dE / 2 pi) V_ij
/// sum_E G<_ij(E), no screened interaction required.
class FockChannel final : public SelfEnergyChannel {
 public:
  explicit FockChannel(double fock_scale) : fock_scale_(fock_scale) {}
  std::string_view name() const override { return "fock"; }
  void accumulate(const SelfEnergyInput& in,
                  SelfEnergyAccumulator& out) override {
    const int ne = in.grid->n;
    const std::int64_t nk = in.layout->num_elements();
    const cplx pref = kI * in.grid->de() / (2.0 * kPi) * fock_scale_;
    std::vector<cplx> glt(static_cast<std::size_t>(ne));
    for (std::int64_t k = 0; k < nk; ++k) {
      for (int e = 0; e < ne; ++e)
        glt[static_cast<std::size_t>(e)] = (*in.g_lesser)[e][k];
      // Ascending-energy fold via the shared ordered reduction —
      // bit-identical to the historic running sum.
      const cplx gsum = ordered_sum(glt);
      (*out.s_fock)[k] += pref * (*in.v_elements)[k] * gsum;
    }
  }

 private:
  double fock_scale_;
};

/// Electron-phonon SCBA channel (paper §8) — adapter over core/ephonon.hpp.
class EPhononChannel final : public SelfEnergyChannel {
 public:
  EPhononChannel(const SimulationOptions& opt, const SymLayout& layout)
      : ep_(opt.grid, layout, opt.ephonon) {}
  std::string_view name() const override { return "ephonon"; }
  void accumulate(const SelfEnergyInput& in,
                  SelfEnergyAccumulator& out) override {
    ep_.accumulate(*in.g_lesser, *in.g_greater, *out.s_lesser,
                   *out.s_greater, *out.s_retarded);
  }

 private:
  EPhononSelfEnergy ep_;
};

// ---------------------------------------------------------------------------
// Self-consistency mixers (adapters over src/accel)
// ---------------------------------------------------------------------------

/// Map the facade's option fields onto the accel layer's MixerOptions.
accel::MixerOptions mixer_options(const SimulationOptions& opt) {
  accel::MixerOptions m;
  m.damping = opt.mixing;
  m.history = opt.mixing_history;
  m.regularization = opt.mixing_regularization;
  return m;
}

// ---------------------------------------------------------------------------
// Registry plumbing
// ---------------------------------------------------------------------------

template <class Map>
std::vector<std::string> sorted_keys(const Map& m) {
  std::vector<std::string> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k);
  return keys;  // std::map iterates sorted
}

template <class Map>
std::string key_list(const Map& m) {
  std::ostringstream os;
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) os << ", ";
    os << '"' << k << '"';
    first = false;
  }
  return os.str();
}

void check_key(const std::string& key) {
  QTX_CHECK_MSG(!key.empty() && key != kAutoBackend,
                "backend keys must be non-empty and not \"auto\", got \""
                    << key << "\"");
}

}  // namespace

void StageRegistry::register_obc(const std::string& key, ObcFactory factory,
                                 std::string description) {
  check_key(key);
  obc_[key] = {std::move(factory), std::move(description)};
}

void StageRegistry::register_greens(const std::string& key,
                                    GreensFactory factory,
                                    std::string description) {
  check_key(key);
  greens_[key] = {std::move(factory), std::move(description)};
}

void StageRegistry::register_channel(const std::string& key,
                                     ChannelFactory factory,
                                     std::string description) {
  check_key(key);
  channels_[key] = {std::move(factory), std::move(description)};
}

void StageRegistry::register_executor(const std::string& key,
                                      ExecutorFactory factory,
                                      std::string description) {
  check_key(key);
  executors_[key] = {std::move(factory), std::move(description)};
}

void StageRegistry::register_mixer(const std::string& key,
                                   MixerFactory factory,
                                   std::string description) {
  check_key(key);
  mixers_[key] = {std::move(factory), std::move(description)};
}

void StageRegistry::register_la(const std::string& key, LaFactory factory,
                                std::string description) {
  check_key(key);
  la_[key] = {std::move(factory), std::move(description)};
}

void StageRegistry::register_comm(const std::string& key, CommFactory factory,
                                  std::string description) {
  check_key(key);
  comm_[key] = {std::move(factory), std::move(description)};
}

std::unique_ptr<ObcSolver> StageRegistry::make_obc(
    const std::string& key, const SimulationOptions& opt) const {
  const auto it = obc_.find(key);
  QTX_CHECK_MSG(it != obc_.end(), "unknown OBC backend \""
                                      << key << "\"; registered keys: "
                                      << key_list(obc_));
  return it->second.factory(opt);
}

std::unique_ptr<GreensSolver> StageRegistry::make_greens(
    const std::string& key, const SimulationOptions& opt) const {
  const auto it = greens_.find(key);
  QTX_CHECK_MSG(it != greens_.end(), "unknown Green's-function backend \""
                                         << key << "\"; registered keys: "
                                         << key_list(greens_));
  return it->second.factory(opt);
}

std::unique_ptr<SelfEnergyChannel> StageRegistry::make_channel(
    const std::string& key, const SimulationOptions& opt,
    const SymLayout& layout) const {
  const auto it = channels_.find(key);
  QTX_CHECK_MSG(it != channels_.end(), "unknown self-energy channel \""
                                           << key << "\"; registered keys: "
                                           << key_list(channels_));
  return it->second.factory(opt, layout);
}

std::unique_ptr<EnergyLoopExecutor> StageRegistry::make_executor(
    const std::string& key, const SimulationOptions& opt) const {
  const auto it = executors_.find(key);
  QTX_CHECK_MSG(it != executors_.end(), "unknown energy-loop executor \""
                                            << key << "\"; registered keys: "
                                            << key_list(executors_));
  return it->second.factory(opt);
}

std::unique_ptr<accel::Mixer> StageRegistry::make_mixer(
    const std::string& key, const SimulationOptions& opt) const {
  const auto it = mixers_.find(key);
  QTX_CHECK_MSG(it != mixers_.end(), "unknown self-consistency mixer \""
                                         << key << "\"; registered keys: "
                                         << key_list(mixers_));
  return it->second.factory(opt);
}

std::vector<std::string> StageRegistry::obc_keys() const {
  return sorted_keys(obc_);
}
std::vector<std::string> StageRegistry::greens_keys() const {
  return sorted_keys(greens_);
}
std::vector<std::string> StageRegistry::channel_keys() const {
  return sorted_keys(channels_);
}
std::vector<std::string> StageRegistry::executor_keys() const {
  return sorted_keys(executors_);
}

std::unique_ptr<la::Backend> StageRegistry::make_la(
    const std::string& key, const SimulationOptions& opt) const {
  const auto it = la_.find(key);
  QTX_CHECK_MSG(it != la_.end(), "unknown linear-algebra backend \""
                                     << key << "\"; registered keys: "
                                     << key_list(la_));
  return it->second.factory(opt);
}

std::vector<std::string> StageRegistry::mixer_keys() const {
  return sorted_keys(mixers_);
}

std::vector<std::string> StageRegistry::la_keys() const {
  return sorted_keys(la_);
}

std::unique_ptr<par::CommGroup> StageRegistry::make_comm(
    const std::string& key, int size, const SimulationOptions& opt) const {
  const auto it = comm_.find(key);
  QTX_CHECK_MSG(it != comm_.end(), "unknown comm backend \""
                                       << key << "\"; registered keys: "
                                       << key_list(comm_));
  return it->second.factory(size, opt);
}

std::vector<std::string> StageRegistry::comm_keys() const {
  return sorted_keys(comm_);
}

std::vector<BackendDescription> StageRegistry::describe() const {
  std::vector<BackendDescription> out;
  out.reserve(obc_.size() + greens_.size() + channels_.size() +
              mixers_.size() + executors_.size() + la_.size() + comm_.size());
  for (const auto& [k, e] : obc_) out.push_back({"obc", k, e.description});
  for (const auto& [k, e] : greens_)
    out.push_back({"greens", k, e.description});
  for (const auto& [k, e] : channels_)
    out.push_back({"channel", k, e.description});
  for (const auto& [k, e] : mixers_)
    out.push_back({"mixer", k, e.description});
  for (const auto& [k, e] : executors_)
    out.push_back({"executor", k, e.description});
  for (const auto& [k, e] : la_) out.push_back({"la", k, e.description});
  for (const auto& [k, e] : comm_) out.push_back({"comm", k, e.description});
  return out;  // std::map iterates sorted within each kind
}

StageRegistry StageRegistry::with_builtins() {
  StageRegistry reg;
  reg.register_obc(
      "memoized",
      [](const SimulationOptions&) {
        obc::MemoizerOptions mopt;
        mopt.enabled = true;
        return std::make_unique<MemoizedObcSolver>(mopt);
      },
      "warm-started fixed-point OBC solves with direct fallback (paper "
      "§5.3); the default");
  reg.register_obc(
      "beyn",
      [](const SimulationOptions&) {
        return std::make_unique<BeynObcSolver>(
            obc::MemoizerOptions{}.beyn_quadrature);
      },
      "direct Beyn contour-integral surface solves + Schur Stein solves, "
      "no cross-iteration state");
  reg.register_obc(
      "lyapunov",
      [](const SimulationOptions&) {
        return std::make_unique<LyapunovObcSolver>();
      },
      "Sancho-Rubio decimation surface solves + Lyapunov doubling Stein "
      "solves, direct fallback");
  reg.register_greens(
      "rgf",
      [](const SimulationOptions& opt) {
        return std::make_unique<SequentialRgfSolver>(opt.symmetrize);
      },
      "sequential recursive Green's-function selected solver (paper "
      "§4.3.2); the default");
  reg.register_greens(
      "nested-dissection",
      [](const SimulationOptions& opt) {
        rgf::NdOptions nopt;
        nopt.num_partitions = opt.nd_partitions;
        nopt.num_threads = opt.nd_threads;
        nopt.symmetrize = opt.symmetrize;
        return std::make_unique<NestedDissectionSolver>(nopt);
      },
      "spatial domain decomposition over nd_partitions transport-cell "
      "partitions (paper §5.4)");
  reg.register_channel(
      "gw",
      [](const SimulationOptions& opt, const SymLayout& layout) {
        return std::make_unique<GwChannel>(opt, layout);
      },
      "dynamic GW self-energy plus static Fock exchange (paper §4.4)");
  reg.register_channel(
      "fock",
      [](const SimulationOptions& opt, const SymLayout&) {
        return std::make_unique<FockChannel>(opt.fock_scale);
      },
      "static Hartree-Fock exchange only; skips the P and W stages");
  reg.register_channel(
      "ephonon",
      [](const SimulationOptions& opt, const SymLayout& layout) {
        return std::make_unique<EPhononChannel>(opt, layout);
      },
      "deformation-potential electron-phonon SCBA channel (paper §8)");
  reg.register_mixer(
      "linear",
      [](const SimulationOptions& opt) {
        return accel::make_linear_mixer(mixer_options(opt));
      },
      "damped fixed-point Sigma update (sigma += mixing * delta), "
      "bit-identical to the historic driver; the default");
  reg.register_mixer(
      "anderson",
      [](const SimulationOptions& opt) {
        return accel::make_anderson_mixer(mixer_options(opt));
      },
      "Anderson/DIIS acceleration over a mixing_history residual window "
      "(regularized least squares)");
  reg.register_mixer(
      "adaptive",
      [](const SimulationOptions& opt) {
        return accel::make_adaptive_mixer(mixer_options(opt));
      },
      "linear mixing with automatic damping back-off on residual growth");
  reg.register_executor(
      "sequential",
      [](const SimulationOptions&) {
        return std::make_unique<SequentialExecutor>();
      },
      "one energy batch after the other on the calling thread; the "
      "reference schedule");
  reg.register_executor(
      "omp",
      [](const SimulationOptions& opt) {
        return std::make_unique<OmpExecutor>(opt.num_threads);
      },
      "fork-join energy batches over the work-stealing thread pool "
      "(num_threads workers)");
  reg.register_la(
      "reference",
      [](const SimulationOptions&) { return la::make_reference_backend(); },
      "portable unit-stride oracle loops for gemm/LU; golden files are "
      "pinned to this path; the default");
  reg.register_la(
      "native",
      [](const SimulationOptions&) { return la::make_native_backend(); },
      "cache-blocked split-complex gemm/LU kernels, same pivoting as "
      "reference; validated by the la-backend equivalence suite");
  if (la::blas_backend_available()) {
    reg.register_la(
        "blas",
        [](const SimulationOptions&) { return la::make_blas_backend(); },
        "system CBLAS/LAPACKE bindings (zgemm/zgetrf/zgetrs); available "
        "because the build found cblas.h and lapacke.h");
  }
  reg.register_comm(
      "device-direct",
      [](int size, const SimulationOptions&) {
        return std::make_unique<par::CommWorld>(size,
                                                par::Backend::kDeviceDirect);
      },
      "in-process mailbox transport with zero-copy payload hand-off (the "
      "*CCL analogue of Fig. 6); the default");
  reg.register_comm(
      "host-staged",
      [](int size, const SimulationOptions&) {
        return std::make_unique<par::CommWorld>(size,
                                                par::Backend::kHostStaged);
      },
      "in-process mailbox transport staging every payload through a host "
      "buffer (the host-MPI analogue of Fig. 6)");
  reg.register_comm(
      "socket",
      [](int size, const SimulationOptions&) {
        return std::make_unique<par::SocketWorld>(size);
      },
      "length-prefixed frames over AF_UNIX socket pairs — the wire "
      "transport behind multi-process `qtx run --ranks`");
  return reg;
}

StageRegistry& StageRegistry::global() {
  static StageRegistry reg = with_builtins();
  return reg;
}

}  // namespace qtx::core
