// Tests for the parallel energy-loop execution engine: the work-stealing
// par::ThreadPool, the energy_grid.hpp batching properties, the executor
// registry keys, the process-wide FFT plan cache under concurrent first use,
// and — the load-bearing guarantee — bit-identical TransportResults for
// every thread count on all three stop-reason paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/flops.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/observables.hpp"
#include "core/simulation.hpp"
#include "fft/fft.hpp"
#include "par/thread_pool.hpp"

namespace qtx::core {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, ExecutesEveryIndexExactlyOnce) {
  par::ThreadPool pool(8);
  EXPECT_EQ(pool.size(), 8);
  const int n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  par::ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(0, [&](int) { count.fetch_add(1); });
  pool.parallel_for(-5, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  // Fewer tasks than workers: every index still runs exactly once.
  pool.parallel_for(3, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, FlopLedgerSafeToPollDuringThreadedRun) {
  // Regression (data race): total()/by_phase() used to read the per-thread
  // counter blocks without synchronizing against the owners' lock-free
  // add() writes. Under TSan this test reported the race; it now passes
  // because observers take each block's mutex. The observer polls total()
  // and by_phase() continuously while pool workers hammer add().
  FlopLedger::reset();
  par::ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::int64_t max_seen = 0;
  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::int64_t t = FlopLedger::total();
      EXPECT_GE(t, max_seen);  // totals only grow while workers add
      max_seen = t;
      for (const auto& [phase, flops] : FlopLedger::by_phase())
        EXPECT_GE(flops, 0) << phase;
    }
  });
  const int n = 2000, per_task = 7;
  pool.parallel_for(n, [&](int i) {
    FlopPhase phase(i % 2 == 0 ? "even" : "odd");
    for (int k = 0; k < 100; ++k) FlopLedger::add(per_task);
  });
  stop.store(true, std::memory_order_release);
  observer.join();
  EXPECT_EQ(FlopLedger::total(), std::int64_t{n} * 100 * per_task);
  const auto phases = FlopLedger::by_phase();
  EXPECT_EQ(phases.at("even") + phases.at("odd"), FlopLedger::total());
  FlopLedger::reset();
}

TEST(ThreadPool, TimerRegistrySafeToPollDuringThreadedRun) {
  // Regression (data race): TimerRegistry::add used to accumulate into a
  // single map under one global mutex, and all()/seconds() read it back
  // while workers were mid-add. The registry now uses per-thread blocks
  // (same immortal-block pattern as FlopLedger); observers lock the
  // registry plus each block. The observer polls all() and seconds()
  // continuously while pool workers hammer add().
  TimerRegistry::reset();
  par::ThreadPool pool(4);
  std::atomic<bool> stop{false};
  double max_seen = 0.0;
  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const double t = TimerRegistry::seconds("poll: work");
      EXPECT_GE(t, max_seen);  // totals only grow while workers add
      max_seen = t;
      for (const auto& [name, secs] : TimerRegistry::all())
        EXPECT_GE(secs, 0.0) << name;
    }
  });
  const int n = 2000;
  const double per_task = 0.001;
  pool.parallel_for(n, [&](int i) {
    TimerRegistry::add("poll: work", per_task);
    TimerRegistry::add(i % 2 == 0 ? "poll: even" : "poll: odd", per_task);
  });
  stop.store(true, std::memory_order_release);
  observer.join();
  EXPECT_NEAR(TimerRegistry::seconds("poll: work"), n * per_task, 1e-9);
  const auto all = TimerRegistry::all();
  EXPECT_NEAR(all.at("poll: even") + all.at("poll: odd"), n * per_task,
              1e-9);
  TimerRegistry::reset();
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  par::ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 100; ++round)
    pool.parallel_for(32, [&](int i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), 100L * (31 * 32 / 2));
}

TEST(ThreadPool, PropagatesTaskExceptionsToCaller) {
  par::ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(64, [&](int i) {
      if (i == 7) throw std::runtime_error("task 7 failed");
      ran.fetch_add(1);
    });
    FAIL() << "expected the task exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7 failed");
  }
  // The pool must survive a failed job and stay usable.
  pool.parallel_for(8, [&](int) { ran.fetch_add(1); });
  EXPECT_GE(ran.load(), 8);
}

TEST(ThreadPool, SingleWorkerRunsAllTasks) {
  par::ThreadPool pool(1);
  std::vector<int> order;
  // One worker drains its own deque front-out, so submission order holds.
  pool.parallel_for(16, [&](int i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, RejectsNonPositiveWorkerCount) {
  EXPECT_THROW(par::ThreadPool(0), std::runtime_error);
  EXPECT_THROW(par::ThreadPool(-2), std::runtime_error);
  EXPECT_GE(par::ThreadPool::hardware_threads(), 1);
}

// ---------------------------------------------------------------------------
// FFT plan cache
// ---------------------------------------------------------------------------

/// Forward then inverse transforms of one seeded series per length, through
/// the free fft::fft / fft::ifft (and so through the shared plan cache).
std::vector<std::vector<cplx>> transform_lengths(const std::vector<int>& ns) {
  std::vector<std::vector<cplx>> out;
  for (int n : ns) {
    Rng rng(31 + n);
    std::vector<cplx> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = rng.complex_uniform();
    fft::fft(x);
    out.push_back(x);
    fft::ifft(x);
    out.push_back(x);
  }
  return out;
}

TEST(FftPlanCache, ConcurrentFirstUseMatchesSingleThreadedRun) {
  // Every thread walks the same lengths from a different starting point, so
  // several threads race to build each plan on first use (this test runs in
  // a fresh process, so the cache starts empty). Bluestein lengths (12, 100)
  // reach the cache through their padded power-of-two transform.
  const std::vector<int> lengths = {2,  4,  8,   16,  32,   64,  128, 256,
                                    512, 1024, 2048, 4096, 12, 100};
  const int num_threads = 4;
  std::vector<std::vector<int>> orders(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    for (std::size_t i = 0; i < lengths.size(); ++i)
      orders[t].push_back(
          lengths[(i + static_cast<std::size_t>(3 * t)) % lengths.size()]);
  }
  std::vector<std::vector<std::vector<cplx>>> got(num_threads);
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t)
    threads.emplace_back([&, t] { got[t] = transform_lengths(orders[t]); });
  for (auto& th : threads) th.join();
  for (int t = 0; t < num_threads; ++t) {
    const std::vector<std::vector<cplx>> want = transform_lengths(orders[t]);
    ASSERT_EQ(got[t].size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[t][i].size(), want[i].size());
      EXPECT_EQ(std::memcmp(got[t][i].data(), want[i].data(),
                            want[i].size() * sizeof(cplx)),
                0)
          << "thread " << t << ", result " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Energy-grid batching properties
// ---------------------------------------------------------------------------

/// The one invariant everything rests on: the batches tile [0, n) exactly —
/// contiguous, ordered, non-empty, sequentially indexed, sizes <= batch.
void expect_exact_cover(int n, int batch) {
  const std::vector<EnergyBatch> batches = make_energy_batches(n, batch);
  const int eff = batch <= 0 ? 1 : batch;
  ASSERT_EQ(static_cast<int>(batches.size()), (n + eff - 1) / eff)
      << "n=" << n << " batch=" << batch;
  int expected_begin = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const EnergyBatch& b = batches[i];
    EXPECT_EQ(b.index, static_cast<int>(i));
    EXPECT_EQ(b.begin, expected_begin) << "n=" << n << " batch=" << batch;
    EXPECT_GT(b.size(), 0);
    EXPECT_LE(b.size(), eff);
    expected_begin = b.end;
  }
  EXPECT_EQ(expected_begin, n) << "n=" << n << " batch=" << batch;
}

TEST(EnergyBatches, CoverTheGridExactlyOnceForArbitraryPairs) {
  for (const int n : {0, 1, 2, 3, 5, 7, 16, 24, 63, 64, 65, 97, 256})
    for (const int batch : {0, 1, 2, 3, 5, 8, 16, 64, 100, 1000})
      expect_exact_cover(n, batch);
}

TEST(EnergyBatches, BatchLargerThanGridYieldsOneBatch) {
  const auto batches = make_energy_batches(5, 100);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].begin, 0);
  EXPECT_EQ(batches[0].end, 5);
}

TEST(EnergyBatches, BatchOneYieldsSingletons) {
  const auto batches = make_energy_batches(7, 1);
  ASSERT_EQ(batches.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(batches[i].begin, i);
    EXPECT_EQ(batches[i].size(), 1);
  }
}

TEST(EnergyBatches, AutoPolicyIsOnePointPerBatch) {
  EXPECT_EQ(make_energy_batches(24, 0).size(), 24u);
  EXPECT_TRUE(make_energy_batches(0, 0).empty());
}

TEST(EnergyBatches, RaggedTailIsShorter) {
  const auto batches = make_energy_batches(10, 4);  // 4 + 4 + 2
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[2].begin, 8);
  EXPECT_EQ(batches[2].size(), 2);
}

// ---------------------------------------------------------------------------
// Executor registry
// ---------------------------------------------------------------------------

TEST(ExecutorRegistry, BuiltinsAreRegistered) {
  const StageRegistry reg = StageRegistry::with_builtins();
  const auto keys = reg.executor_keys();
  EXPECT_NE(std::find(keys.begin(), keys.end(), "sequential"), keys.end());
  EXPECT_NE(std::find(keys.begin(), keys.end(), "omp"), keys.end());
}

TEST(ExecutorRegistry, UnknownKeyFailsWithKnownKeyList) {
  const StageRegistry reg = StageRegistry::with_builtins();
  SimulationOptions opt;
  try {
    (void)reg.make_executor("cuda-graphs", opt);
    FAIL() << "expected unknown-key failure";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown energy-loop executor"), std::string::npos);
    EXPECT_NE(msg.find("\"omp\""), std::string::npos);
    EXPECT_NE(msg.find("\"sequential\""), std::string::npos);
  }
}

TEST(ExecutorRegistry, AutoResolvesFromThreadCount) {
  SimulationOptions opt;
  EXPECT_EQ(opt.resolved_executor(), "sequential");
  opt.num_threads = 4;
  EXPECT_EQ(opt.resolved_executor(), "omp");
  opt.executor = "sequential";  // explicit key wins over the thread count
  EXPECT_EQ(opt.resolved_executor(), "sequential");
}

// ---------------------------------------------------------------------------
// Determinism: bit-identical results for every thread count
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t mix(std::uint64_t hash, double value) {
  return fnv1a(hash, std::bit_cast<std::uint64_t>(value));
}

/// Hash of every iteration observable of a finished run: the per-iteration
/// convergence metrics plus the physical observables derived from the final
/// Green's-function state. Any single-bit divergence between schedules
/// changes this value.
std::uint64_t observable_hash(const Simulation& sim,
                              const TransportResult& res) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(h, static_cast<std::uint64_t>(res.iterations));
  h = fnv1a(h, static_cast<std::uint64_t>(res.stop_reason));
  for (const IterationResult& it : res.history) h = mix(h, it.sigma_update);
  for (const double v : total_dos(sim)) h = mix(h, v);
  for (const double v : electron_density(sim)) h = mix(h, v);
  for (const double v : transmission(sim)) h = mix(h, v);
  for (const double v : spectral_current_left(sim)) h = mix(h, v);
  h = mix(h, terminal_current_left(sim));
  h = mix(h, terminal_current_right(sim));
  return h;
}

SimulationBuilder det_builder(const device::Structure& st) {
  const auto gap = st.band_gap();
  return SimulationBuilder(st)
      .grid(-6.0, 6.0, 24)
      .eta(0.05)
      .contacts(gap.conduction_min + 0.3, gap.conduction_min + 0.1)
      .gw(0.25)
      .mixing(0.4)
      .max_iterations(3)
      .tolerance(1e-3);
}

struct RunDigest {
  std::uint64_t hash = 0;
  StopReason stop = StopReason::kNone;
  int iterations = 0;
  obc::MemoizerStats obc;
};

RunDigest run_digest(SimulationBuilder builder, int threads) {
  Simulation sim = builder.num_threads(threads).build();
  const TransportResult res = sim.run();
  RunDigest d;
  d.hash = observable_hash(sim, res);
  d.stop = res.stop_reason;
  d.iterations = res.iterations;
  d.obc = sim.memoizer_stats();
  return d;
}

void expect_thread_count_invariant(const SimulationBuilder& builder,
                                   StopReason expected_stop) {
  const RunDigest seq = run_digest(builder, 1);
  EXPECT_EQ(seq.stop, expected_stop);
  for (const int threads : {2, 8}) {
    const RunDigest par = run_digest(builder, threads);
    EXPECT_EQ(par.hash, seq.hash)
        << "num_threads = " << threads
        << " diverged from the sequential path";
    EXPECT_EQ(par.stop, seq.stop);
    EXPECT_EQ(par.iterations, seq.iterations);
    // The dispatch decisions (direct vs memoized OBC solves) must match
    // too: caches are keyed per energy, not per worker.
    EXPECT_EQ(par.obc.direct_calls, seq.obc.direct_calls);
    EXPECT_EQ(par.obc.memoized_calls, seq.obc.memoized_calls);
    EXPECT_EQ(par.obc.fpi_iterations, seq.obc.fpi_iterations);
  }
}

TEST(Determinism, ConvergedGwRunIsBitIdenticalAcrossThreadCounts) {
  const device::Structure st = device::make_test_structure(3);
  expect_thread_count_invariant(
      det_builder(st).tolerance(10.0).max_iterations(10),
      StopReason::kConverged);
}

TEST(Determinism, BudgetExhaustedRunIsBitIdenticalAcrossThreadCounts) {
  const device::Structure st = device::make_test_structure(3);
  expect_thread_count_invariant(det_builder(st).tolerance(1e-12),
                                StopReason::kBudgetExhausted);
}

TEST(Determinism, NonInteractingRunIsBitIdenticalAcrossThreadCounts) {
  const device::Structure st = device::make_test_structure(3);
  expect_thread_count_invariant(det_builder(st).ballistic(),
                                StopReason::kNonInteracting);
}

TEST(Determinism, BatchLayoutDoesNotChangeResults) {
  // Stronger than the headline guarantee: even different batch layouts are
  // bit-identical, because all per-batch state is keyed by energy index.
  const device::Structure st = device::make_test_structure(3);
  const RunDigest base = run_digest(det_builder(st).energy_batch(0), 2);
  for (const int batch : {1, 3, 24, 100}) {
    const RunDigest d = run_digest(det_builder(st).energy_batch(batch), 2);
    EXPECT_EQ(d.hash, base.hash) << "energy_batch = " << batch;
  }
}

TEST(Determinism, ExplicitOmpExecutorWithOneWorkerMatchesSequential) {
  const device::Structure st = device::make_test_structure(3);
  const RunDigest seq = run_digest(det_builder(st).executor("sequential"), 1);
  const RunDigest omp = run_digest(det_builder(st).executor("omp"), 1);
  EXPECT_EQ(omp.hash, seq.hash);
}

TEST(Pipeline, SimulationExposesResolvedPolicy) {
  const device::Structure st = device::make_test_structure(3);
  Simulation seq = det_builder(st).build();
  EXPECT_EQ(seq.pipeline().executor_name(), "sequential");
  EXPECT_EQ(seq.pipeline().concurrency(), 1);
  EXPECT_EQ(seq.pipeline().num_batches(), 24);  // auto: 1 point per batch
  Simulation par = det_builder(st).num_threads(4).energy_batch(6).build();
  EXPECT_EQ(par.pipeline().executor_name(), "omp");
  EXPECT_EQ(par.pipeline().concurrency(), 4);
  EXPECT_EQ(par.pipeline().num_batches(), 4);
}

}  // namespace
}  // namespace qtx::core
