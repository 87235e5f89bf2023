// Table 4 reproduction: per-kernel workload, time, and performance per SCBA
// iteration, with and without OBC memoization, on scaled-down analogues of
// the paper's NW-1 / NW-2 / NR-16 / NR-23 devices. The substrate here is a
// CPU and a synthetic Hamiltonian, so absolute numbers differ from the
// GH200/MI250X measurements — the reproduced *shape* is the kernel
// decomposition and the memoizer's effect on the OBC-heavy rows (paper:
// 2.00x / 3.77x per-energy speed-up on NW-1 / NW-2, and Beyn+Lyapunov times
// collapsing when memoized).
//
// PR 6 extension: every kernel row is also scored as achieved GFLOP/s
// against the measured single-core host peak (core::measure_host_peak), and
// a gemm microbench compares every registered la backend against the
// "reference" oracle at paper-relevant block sizes.
//
// The FFT stage is gated as a rate: p_fft_pct_of_peak and
// sigma_fft_pct_of_peak are the minimum over the devices of the
// "Other: P-FFT" / "Other: Sigma-FFT" rows' % of host peak
// (bench/references.json holds their wall-time floors).
//
// Gates:
//   - equivalence gate (always enforced): every registered la backend must
//     reproduce the reference gemm result to 1e-10 on the microbench
//     operands (the full property suite lives in test_la_backends).
//   - speedup gate (multi-core hosts only, like bench_mixers' timing gate):
//     "native" must be >= 1.5x faster than "reference" on gemm at n >= 128.
//     On single-core or sanitizer machines the ratio is reported and the
//     gate recorded as skipped — wall time is too noisy without cores.
//
// Emits BENCH_table4_kernels.json (current working directory) and exits
// non-zero if an enforced gate fails.
//
//   ./bench_table4_kernels

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/perf_model.hpp"
#include "core/simulation.hpp"
#include "la/la.hpp"
#include "par/thread_pool.hpp"

using namespace qtx;

namespace {

struct MiniDevice {
  const char* name;
  const char* paper_note;
  int num_cells;
  int orbitals;  // per PUC; transport cell = 2 PUCs
  int energies;
};

/// Per-kernel ledger of one steady-state iteration, collected through the
/// streaming on_kernel_timing observer — the bench never touches driver
/// internals.
struct KernelLedger {
  std::map<std::string, double> seconds;
  std::map<std::string, std::int64_t> flops;
};

KernelLedger measure(const device::Structure& st, int ne, bool memoizer) {
  const auto gap = st.band_gap();
  KernelLedger ledger;
  core::Simulation sim =
      core::SimulationBuilder(st)
          .grid(-6.0, 6.0, ne)
          .eta(0.05)
          .contacts(gap.conduction_min + 0.3, gap.conduction_min + 0.1)
          .gw(0.3)
          .obc_backend(memoizer ? "memoized" : "beyn")
          .on_kernel_timing([&ledger](const core::KernelTiming& sample) {
            // Keep only the steady iteration (see below).
            if (sample.iteration == 3) {
              ledger.seconds[sample.kernel] = sample.seconds;
              ledger.flops[sample.kernel] = sample.flops;
            }
          })
          .build();
  // Paper §6.3: discard the first iterations (JIT/warm-up analogue: direct
  // OBC solves fill the caches); report the median-like steady iteration.
  sim.iterate();
  sim.iterate();
  sim.iterate();
  return ledger;
}

/// One la-backend gemm measurement: best-of-3 wall time of c = a*b at
/// \p n, plus the max |difference| against the reference-backend result.
struct GemmSample {
  std::string backend;
  int n = 0;
  double seconds = 0.0;  // best of 3
  double gflops = 0.0;
  double pct_of_peak = 0.0;
  double max_diff_vs_reference = 0.0;
};

GemmSample measure_gemm(const std::string& backend, int n,
                        const la::Matrix& a, const la::Matrix& b,
                        const la::Matrix& reference_c) {
  la::BackendGuard guard(backend);
  GemmSample s;
  s.backend = backend;
  s.n = n;
  la::Matrix c(n, n);
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch sw;
    la::gemm(cplx{1.0, 0.0}, a, la::Op::kNone, b, la::Op::kNone,
             cplx{0.0, 0.0}, c);
    const double t = sw.seconds();
    if (t < best) best = t;
  }
  s.seconds = best;
  const double flops = 8.0 * double(n) * double(n) * double(n);
  s.gflops = core::achieved_gflops(flops, best);
  s.pct_of_peak = core::pct_of_host_peak(s.gflops);
  s.max_diff_vs_reference = la::max_abs_diff(c, reference_c);
  return s;
}

std::string json_escape_rowname(const std::string& row) {
  std::string out;
  for (char ch : row) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

}  // namespace

int main() {
  const std::vector<MiniDevice> devices = {
      {"NW-1*", "paper NW-1: 18 cells, NBS 416, 1.27x/2.00x", 9, 6, 24},
      {"NW-2*", "paper NW-2: 16 cells, NBS 2016, 2.45x/3.77x", 16, 8, 16},
      {"NR-16*", "paper NR-16: NBS 3408, 72.9% Rpeak w/ memo", 16, 10, 12},
      {"NR-23*", "paper NR-23: 23 cells (Alps)", 23, 10, 12},
  };
  const std::vector<std::string> rows = {
      "G: OBC",           "G: RGF",           "W: Assembly: Beyn",
      "W: Assembly: Lyapunov", "W: Assembly: LHS", "W: Assembly: RHS",
      "W: RGF",           "Other: P-FFT",     "Other: Sigma-FFT"};

  const int hw = par::ThreadPool::hardware_threads();
  const core::HostPeak& peak = core::measure_host_peak();
  std::printf("host peak: %.2f GFLOP/s single-core FMA (measured in %.0f ms, "
              "%d hardware threads)\n\n",
              peak.fma_gflops, peak.measure_seconds * 1e3, hw);

  FILE* json = std::fopen("BENCH_table4_kernels.json", "w");
  if (json) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"table4_kernels\",\n"
                 "  \"hardware_threads\": %d,\n"
                 "  \"host_peak_gflops\": %.4f,\n"
                 "  \"devices\": [\n",
                 hw, peak.fma_gflops);
  }

  // Minimum over devices of each FFT row's % of peak (top-level gates).
  std::map<std::string, double> fft_pct_min = {{"Other: P-FFT", 1e300},
                                               {"Other: Sigma-FFT", 1e300}};

  std::printf("=== Table 4: per-kernel workload/time per SCBA iteration ===\n");
  for (std::size_t di = 0; di < devices.size(); ++di) {
    const MiniDevice& d = devices[di];
    device::StructureParams p;
    p.num_cells = d.num_cells;
    p.orbitals_per_puc = d.orbitals;
    p.nu = 2;
    p.nu_h = 2;
    const device::Structure st{p};
    std::printf("\n--- %s (%d cells x %d orbitals, %d energies) [%s]\n",
                d.name, d.num_cells, 2 * d.orbitals, d.energies,
                d.paper_note);
    const auto off = measure(st, d.energies, false);
    const auto on = measure(st, d.energies, true);
    if (json) {
      std::fprintf(json,
                   "    {\"device\": \"%s\", \"num_cells\": %d, "
                   "\"energies\": %d, \"kernels\": [\n",
                   d.name, d.num_cells, d.energies);
    }
    std::printf("%-24s %12s %12s %12s %9s %10s %7s\n", "Kernel",
                "Work[Gflop]", "t_off[ms]", "t_on[ms]", "speedup",
                "GFLOP/s", "%peak");
    double t_off_tot = 0.0, t_on_tot = 0.0, work_tot = 0.0;
    for (std::size_t ri = 0; ri < rows.size(); ++ri) {
      const std::string& row = rows[ri];
      const double work =
          (on.flops.count(row) ? on.flops.at(row) : 0) / 1e9;
      const double toff =
          (off.seconds.count(row) ? off.seconds.at(row) : 0) * 1e3;
      const double ton =
          (on.seconds.count(row) ? on.seconds.at(row) : 0) * 1e3;
      // Achieved rate on the memoized (production-path) run.
      const double gflops = core::achieved_gflops(work * 1e9, ton / 1e3);
      const double pct = core::pct_of_host_peak(gflops);
      std::printf("%-24s %12.3f %12.2f %12.2f %9.2f %10.2f %7.1f\n",
                  row.c_str(), work, toff, ton,
                  (ton > 0) ? toff / ton : 0.0, gflops, pct);
      if (json) {
        std::fprintf(json,
                     "      {\"kernel\": \"%s\", \"work_gflop\": %.6f, "
                     "\"t_off_ms\": %.4f, \"t_on_ms\": %.4f, "
                     "\"gflops\": %.4f, \"pct_of_peak\": %.2f}%s\n",
                     json_escape_rowname(row).c_str(), work, toff, ton,
                     gflops, pct, ri + 1 < rows.size() ? "," : "");
      }
      if (const auto it = fft_pct_min.find(row); it != fft_pct_min.end())
        it->second = std::min(it->second, pct);
      t_off_tot += toff;
      t_on_tot += ton;
      work_tot += work;
    }
    std::printf("%-24s %12.3f %12.2f %12.2f %9.2f\n", "Total", work_tot,
                t_off_tot, t_on_tot, t_off_tot / t_on_tot);
    std::printf("per-energy: %.2f ms (off) / %.2f ms (on); "
                "sustained %.2f Gflop/s\n",
                t_off_tot / d.energies, t_on_tot / d.energies,
                work_tot / (t_on_tot / 1e3));
    if (json) {
      std::fprintf(json, "    ]}%s\n",
                   di + 1 < devices.size() ? "," : "");
    }
  }

  // --- la-backend gemm microbench -----------------------------------------
  // Paper-relevant dense block sizes: 128 covers the NR cross-sections
  // above, 256 the next octave. The "reference" row is the baseline the
  // speedup gate divides by.
  const std::vector<std::string> backends = la::builtin_backend_names();
  const std::vector<int> sizes = {128, 256};
  std::printf("\n=== la-backend gemm microbench (c = a*b, best of 3) ===\n");
  std::printf("%-12s %6s %12s %10s %7s %14s\n", "backend", "n", "t[ms]",
              "GFLOP/s", "%peak", "maxdiff(ref)");
  std::vector<GemmSample> gemm_samples;
  bool equivalence_ok = true;
  double worst_native_ratio = 1e300;
  for (int n : sizes) {
    Rng rng(2025 + n);
    const la::Matrix a = la::Matrix::random_hermitian(n, rng);
    const la::Matrix b = la::Matrix::random_hermitian(n, rng);
    la::Matrix ref_c(n, n);
    {
      la::BackendGuard guard("reference");
      la::gemm(cplx{1.0, 0.0}, a, la::Op::kNone, b, la::Op::kNone,
               cplx{0.0, 0.0}, ref_c);
    }
    double reference_s = 0.0, native_s = 0.0;
    for (const std::string& backend : backends) {
      gemm_samples.push_back(measure_gemm(backend, n, a, b, ref_c));
      const GemmSample& s = gemm_samples.back();
      std::printf("%-12s %6d %12.3f %10.2f %7.1f %14.3e\n",
                  s.backend.c_str(), s.n, s.seconds * 1e3, s.gflops,
                  s.pct_of_peak, s.max_diff_vs_reference);
      equivalence_ok = equivalence_ok && s.max_diff_vs_reference < 1e-10;
      if (s.backend == "reference") reference_s = s.seconds;
      if (s.backend == "native") native_s = s.seconds;
    }
    if (reference_s > 0.0 && native_s > 0.0) {
      const double ratio = reference_s / native_s;
      if (ratio < worst_native_ratio) worst_native_ratio = ratio;
    }
  }
  if (worst_native_ratio == 1e300) worst_native_ratio = 0.0;

  const bool speedup_enforced = hw >= 4;
  const bool speedup_ok = worst_native_ratio >= 1.5;
  std::printf("\nequivalence gate (every backend within 1e-10 of reference): "
              "%s\n",
              equivalence_ok ? "PASS" : "FAIL");
  if (speedup_enforced) {
    std::printf("speedup gate (native >= 1.5x reference gemm, n >= 128): %s "
                "(worst ratio %.2fx)\n",
                speedup_ok ? "PASS" : "FAIL", worst_native_ratio);
  } else {
    std::printf("speedup gate (native >= 1.5x reference gemm, n >= 128): "
                "skipped — only %d hardware thread%s (measured %.2fx)\n",
                hw, hw == 1 ? "" : "s", worst_native_ratio);
  }

  const bool pass = equivalence_ok && (!speedup_enforced || speedup_ok);
  if (json) {
    std::fprintf(json, "  ],\n  \"gemm_microbench\": [\n");
    for (std::size_t i = 0; i < gemm_samples.size(); ++i) {
      const GemmSample& s = gemm_samples[i];
      std::fprintf(json,
                   "    {\"backend\": \"%s\", \"n\": %d, "
                   "\"seconds\": %.6f, \"gflops\": %.4f, "
                   "\"pct_of_peak\": %.2f, "
                   "\"max_diff_vs_reference\": %.3e}%s\n",
                   s.backend.c_str(), s.n, s.seconds, s.gflops,
                   s.pct_of_peak, s.max_diff_vs_reference,
                   i + 1 < gemm_samples.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n"
                 "  \"p_fft_pct_of_peak\": %.2f,\n"
                 "  \"sigma_fft_pct_of_peak\": %.2f,\n"
                 "  \"equivalence_gate\": %s,\n"
                 "  \"native_speedup_ratio\": %.4f,\n"
                 "  \"speedup_gate_enforced\": %s,\n"
                 "  \"speedup_ok\": %s,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 fft_pct_min.at("Other: P-FFT"),
                 fft_pct_min.at("Other: Sigma-FFT"),
                 equivalence_ok ? "true" : "false", worst_native_ratio,
                 speedup_enforced ? "true" : "false",
                 speedup_ok ? "true" : "false", pass ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_table4_kernels.json\n");
  }

  std::printf(
      "\nShape checks vs paper Table 4: (i) RGF rows dominate the workload,\n"
      "(ii) Beyn/Lyapunov rows collapse with memoization while RGF rows are\n"
      "unchanged, (iii) the memoizer's total speed-up grows with the OBC\n"
      "share, as in the paper's NW-2 (3.77x) vs NW-1 (2.00x).\n");
  return pass ? 0 : 1;
}
