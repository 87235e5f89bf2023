#include "decorators.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <utility>

#include "common/flops.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using qtx::cplx;
namespace core = qtx::core;
namespace la = qtx::la;

struct AtomicCounters {
  std::atomic<std::int64_t> gemm_flops{0}, gemm_bytes{0};
  std::atomic<std::int64_t> gemm_le16{0}, gemm_le32{0}, gemm_gt32{0};
  std::atomic<std::int64_t> lu_flops{0};
  std::atomic<std::int64_t> obc_direct{0}, obc_memoized{0};
  std::atomic<std::int64_t> comm_messages{0}, comm_bytes{0};
  std::atomic<std::int64_t> executor_concurrency{0};
};
AtomicCounters g_counters;

void add(std::atomic<std::int64_t>& c, std::int64_t v) {
  c.fetch_add(v, std::memory_order_relaxed);
}

class TimedLa final : public la::Backend {
 public:
  explicit TimedLa(std::unique_ptr<la::Backend> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }

  void gemm_accumulate(cplx alpha, const la::Matrix& a, la::Op opa,
                       const la::Matrix& b, la::Op opb,
                       la::Matrix& c) const override {
    const std::int64_t m = c.rows(), n = c.cols();
    const std::int64_t k = (opa == la::Op::kNone) ? a.cols() : a.rows();
    add(g_counters.gemm_flops, qtx::flop_count::gemm(m, n, k));
    // Computed traffic: read op(a) and op(b), read and write c.
    add(g_counters.gemm_bytes,
        static_cast<std::int64_t>(sizeof(cplx)) * (m * k + k * n + 2 * m * n));
    const std::int64_t size = std::max({m, n, k});
    add(size <= 16   ? g_counters.gemm_le16
        : size <= 32 ? g_counters.gemm_le32
                     : g_counters.gemm_gt32,
        1);
    const Span span("la.gemm");
    inner_->gemm_accumulate(alpha, a, opa, b, opb, c);
  }

  la::LuFactors lu_factor(const la::Matrix& a) const override {
    add(g_counters.lu_flops, qtx::flop_count::lu(a.rows()));
    const Span span("la.lu_factor");
    return inner_->lu_factor(a);
  }

  la::Matrix lu_solve(const la::LuFactors& f,
                      const la::Matrix& b) const override {
    add(g_counters.lu_flops, qtx::flop_count::lu_solve(f.lu.rows(), b.cols()));
    const Span span("la.lu_solve");
    return inner_->lu_solve(f, b);
  }

  la::Matrix lu_solve_right(const la::LuFactors& f,
                            const la::Matrix& b) const override {
    add(g_counters.lu_flops, qtx::flop_count::lu_solve(f.lu.rows(), b.rows()));
    const Span span("la.lu_solve_right");
    return inner_->lu_solve_right(f, b);
  }

 private:
  std::unique_ptr<la::Backend> inner_;
};

class TimedObc final : public core::ObcSolver {
 public:
  explicit TimedObc(std::unique_ptr<core::ObcSolver> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }

  la::Matrix solve_surface(const qtx::obc::ObcKey& key, const la::Matrix& m,
                           const la::Matrix& n,
                           const la::Matrix& np) override {
    const qtx::obc::MemoizerStats before = inner_->stats();
    la::Matrix x;
    {
      const Span span("obc.surface");
      x = inner_->solve_surface(key, m, n, np);
    }
    count(before);
    return x;
  }

  la::Matrix solve_stein(const qtx::obc::ObcKey& key, const la::Matrix& q,
                         const la::Matrix& a, double sigma) override {
    const qtx::obc::MemoizerStats before = inner_->stats();
    la::Matrix x;
    {
      const Span span("obc.stein");
      x = inner_->solve_stein(key, q, a, sigma);
    }
    count(before);
    return x;
  }

  const qtx::obc::MemoizerStats& stats() const override {
    return inner_->stats();
  }
  void reset() override { inner_->reset(); }

 private:
  void count(const qtx::obc::MemoizerStats& before) {
    const qtx::obc::MemoizerStats& after = inner_->stats();
    add(g_counters.obc_direct, after.direct_calls - before.direct_calls);
    add(g_counters.obc_memoized, after.memoized_calls - before.memoized_calls);
  }

  std::unique_ptr<core::ObcSolver> inner_;
};

class TimedGreens final : public core::GreensSolver {
 public:
  explicit TimedGreens(std::unique_ptr<core::GreensSolver> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }
  qtx::rgf::SelectedSolution solve(
      const qtx::bt::BlockTridiag& m, const qtx::bt::BlockTridiag& b_lesser,
      const qtx::bt::BlockTridiag& b_greater) override {
    const Span span("rgf.solve");
    return inner_->solve(m, b_lesser, b_greater);
  }

 private:
  std::unique_ptr<core::GreensSolver> inner_;
};

class TimedChannel final : public core::SelfEnergyChannel {
 public:
  explicit TimedChannel(std::unique_ptr<core::SelfEnergyChannel> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }
  bool needs_screened_interaction() const override {
    return inner_->needs_screened_interaction();
  }
  void accumulate(const core::SelfEnergyInput& in,
                  core::SelfEnergyAccumulator& out) override {
    const Span span("core.channel.accumulate");
    inner_->accumulate(in, out);
  }

 private:
  std::unique_ptr<core::SelfEnergyChannel> inner_;
};

class TimedMixer final : public qtx::accel::Mixer {
 public:
  explicit TimedMixer(std::unique_ptr<qtx::accel::Mixer> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  int history_size() const override { return inner_->history_size(); }
  qtx::accel::MixOutcome mix(const qtx::accel::SigmaState& state,
                             const qtx::accel::SigmaProposal& proposal,
                             const qtx::accel::EnergyLoop& loop) override {
    const Span span("accel.mix");
    return inner_->mix(state, proposal, loop);
  }

 private:
  std::unique_ptr<qtx::accel::Mixer> inner_;
};

class TimedExecutor final : public core::EnergyLoopExecutor {
 public:
  explicit TimedExecutor(std::unique_ptr<core::EnergyLoopExecutor> inner)
      : inner_(std::move(inner)) {
    g_counters.executor_concurrency.store(inner_->concurrency());
  }
  std::string_view name() const override { return inner_->name(); }
  int concurrency() const override { return inner_->concurrency(); }
  void for_each_batch(
      const std::vector<core::EnergyBatch>& batches,
      const std::function<void(const core::EnergyBatch&)>& fn) override {
    const Span span("core.pipeline");
    inner_->for_each_batch(batches, [&fn](const core::EnergyBatch& b) {
      const Span batch_span("core.batch");
      fn(b);
    });
  }

 private:
  std::unique_ptr<core::EnergyLoopExecutor> inner_;
};

}  // namespace

LayerCounters layer_counters() {
  const AtomicCounters& c = g_counters;
  LayerCounters out;
  out.gemm_flops = c.gemm_flops.load();
  out.gemm_bytes = c.gemm_bytes.load();
  out.gemm_le16 = c.gemm_le16.load();
  out.gemm_le32 = c.gemm_le32.load();
  out.gemm_gt32 = c.gemm_gt32.load();
  out.lu_flops = c.lu_flops.load();
  out.obc_direct = c.obc_direct.load();
  out.obc_memoized = c.obc_memoized.load();
  out.comm_messages = c.comm_messages.load();
  out.comm_bytes = c.comm_bytes.load();
  out.executor_concurrency = c.executor_concurrency.load();
  return out;
}

void reset_layer_counters() {
  for (std::atomic<std::int64_t>* c :
       {&g_counters.gemm_flops, &g_counters.gemm_bytes, &g_counters.gemm_le16,
        &g_counters.gemm_le32, &g_counters.gemm_gt32, &g_counters.lu_flops,
        &g_counters.obc_direct, &g_counters.obc_memoized,
        &g_counters.comm_messages, &g_counters.comm_bytes,
        &g_counters.executor_concurrency})
    c->store(0);
}

core::StageRegistry make_timed_registry() {
  auto base =
      std::make_shared<const core::StageRegistry>(core::StageRegistry::with_builtins());
  core::StageRegistry reg = *base;
  for (const core::BackendDescription& d : base->describe()) {
    const std::string key = d.key;
    if (d.kind == "obc") {
      reg.register_obc(
          key,
          [base, key](const core::SimulationOptions& opt) {
            return std::make_unique<TimedObc>(base->make_obc(key, opt));
          },
          d.description);
    } else if (d.kind == "greens") {
      reg.register_greens(
          key,
          [base, key](const core::SimulationOptions& opt) {
            return std::make_unique<TimedGreens>(base->make_greens(key, opt));
          },
          d.description);
    } else if (d.kind == "channel") {
      reg.register_channel(
          key,
          [base, key](const core::SimulationOptions& opt,
                      const core::SymLayout& layout) {
            return std::make_unique<TimedChannel>(
                base->make_channel(key, opt, layout));
          },
          d.description);
    } else if (d.kind == "mixer") {
      reg.register_mixer(
          key,
          [base, key](const core::SimulationOptions& opt) {
            return std::make_unique<TimedMixer>(base->make_mixer(key, opt));
          },
          d.description);
    } else if (d.kind == "executor") {
      reg.register_executor(
          key,
          [base, key](const core::SimulationOptions& opt) {
            return std::make_unique<TimedExecutor>(
                base->make_executor(key, opt));
          },
          d.description);
    } else if (d.kind == "la") {
      reg.register_la(
          key,
          [base, key](const core::SimulationOptions& opt) {
            return std::make_unique<TimedLa>(base->make_la(key, opt));
          },
          d.description);
    }
  }
  return reg;
}

void TimedComm::barrier() {
  const Span span("par.barrier");
  inner_.barrier();
}

void TimedComm::send(int dst, std::vector<cplx> data) {
  add(g_counters.comm_messages, 1);
  add(g_counters.comm_bytes,
      static_cast<std::int64_t>(data.size() * sizeof(cplx)));
  const Span span("par.send");
  inner_.send(dst, std::move(data));
}

std::vector<cplx> TimedComm::recv(int src) {
  const Span span("par.recv");
  return inner_.recv(src);
}

}  // namespace perfbench
