#pragma once

// Timing decorators for the pluggable stages of a qtx run. Each decorator
// wraps the real backend that the built-in registry would have made, times
// every call into it as a perfbench::Span, and forwards the call unchanged,
// so the numbers a decorated run produces are the undecorated ones bit for
// bit. The decorators shadow the built-in keys in a local StageRegistry
// (re-registering a key replaces it); decks are never edited.

#include <cstdint>
#include <vector>

#include "core/stage_registry.hpp"
#include "par/comm.hpp"

namespace perfbench {

/// Counters the decorators keep beside their spans (exact counts).
struct LayerCounters {
  std::int64_t gemm_flops = 0;
  std::int64_t gemm_bytes = 0;  ///< computed from operand sizes
  std::int64_t gemm_le16 = 0;   ///< calls with max(m, n, k) <= 16
  std::int64_t gemm_le32 = 0;   ///< 16 < max(m, n, k) <= 32
  std::int64_t gemm_gt32 = 0;   ///< max(m, n, k) > 32
  std::int64_t lu_flops = 0;
  std::int64_t obc_direct = 0;    ///< ObcSolver::stats() deltas
  std::int64_t obc_memoized = 0;
  std::int64_t comm_messages = 0;
  std::int64_t comm_bytes = 0;
  std::int64_t executor_concurrency = 0;  ///< of the last executor made
};
LayerCounters layer_counters();
void reset_layer_counters();

/// The built-in registry with every obc, greens, channel, mixer, executor
/// and la backend wrapped in its timing decorator.
qtx::core::StageRegistry make_timed_registry();

/// A par::Comm that forwards to \p inner and times its blocking calls
/// (spans "par.send", "par.recv", "par.barrier") and counts messages and
/// payload bytes.
class TimedComm final : public qtx::par::Comm {
 public:
  explicit TimedComm(qtx::par::Comm& inner) : inner_(inner) {}
  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }
  void barrier() override;
  void send(int dst, std::vector<qtx::cplx> data) override;
  std::vector<qtx::cplx> recv(int src) override;
  std::int64_t bytes_sent() const override { return inner_.bytes_sent(); }

 private:
  qtx::par::Comm& inner_;
};

}  // namespace perfbench
