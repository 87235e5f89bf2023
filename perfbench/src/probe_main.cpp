// perfbench_probe: the in-process half of the benchmark; perfbench/run.py
// runs it and reduces its output. Subcommands:
//
//   peak  --seconds S
//       host FMA peak, median of repeated probes
//   setup --deck D [--set K=V]...
//       seconds from deck parse to a constructed Simulation (deck parse,
//       device build, host-peak probe, Simulation/EnergyPipeline build)
//   run   --deck D [--set K=V]... --ranks R --runs N --out DIR [--spans F]
//       traced runs through the timing decorators; R > 1 drives
//       par::launch_ranks + io::run_scenario(..., &comm) itself
//   serve --decks F --out DIR (--socket S | --workers W) [--seconds T |
//         --per-client N] [--runs N] [--check K] [--spans F]
//       closed loop of one client thread per deck list against an external
//       daemon (--socket) or an in-process traced serve::Server (--workers)
//
// Raw aggregates go to JSON files; run.py turns them into metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flops.hpp"
#include "core/perf_model.hpp"
#include "core/simulation.hpp"
#include "decorators.hpp"
#include "io/result_writer.hpp"
#include "io/scenario_parser.hpp"
#include "io/scenario_runner.hpp"
#include "par/launcher.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "spans.hpp"

namespace {

using perfbench::now_seconds;
namespace io = qtx::io;
namespace serve = qtx::serve;

// ---------------------------------------------------------------------------
// Arguments and JSON output
// ---------------------------------------------------------------------------

struct Args {
  std::string command;
  std::map<std::string, std::string> values;
  std::vector<std::pair<std::string, std::string>> overrides;  // --set

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  std::string need(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
  double number(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : std::stod(it->second);
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: perfbench_probe <command> ...");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::runtime_error("bad argument " + arg);
    const std::string value = argv[++i];
    if (arg == "--set") {
      const auto eq = value.find('=');
      if (eq == std::string::npos)
        throw std::runtime_error("--set needs KEY=VALUE");
      a.overrides.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else {
      a.values[arg.substr(2)] = value;
    }
  }
  return a;
}

/// JSON object writer: numbers, and raw JSON values for nesting.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonOut& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":" + json);
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text << "\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

io::Scenario load_deck(const Args& a) {
  io::Scenario s = io::parse_scenario_file(a.need("deck"));
  for (const auto& [key, value] : a.overrides)
    io::apply_scenario_override(s, key, value);
  return s;
}

// ---------------------------------------------------------------------------
// peak: host FMA peak
// ---------------------------------------------------------------------------

// Independent multiply-add chains: the lane loop vectorizes at the build's
// SIMD width, the carry across iterations keeps it from folding away.
constexpr int kLanes = 64;

double fma_batch(std::int64_t iters, double seed) {
  double acc[kLanes];
  for (int l = 0; l < kLanes; ++l) acc[l] = seed + 0.01 * l;
  const double m = 1.0 + 1e-9, c = 1e-9;
  for (std::int64_t i = 0; i < iters; ++i)
    for (int l = 0; l < kLanes; ++l) acc[l] = acc[l] * m + c;
  double sum = 0.0;
  for (int l = 0; l < kLanes; ++l) sum += acc[l];
  return sum;
}

int cmd_peak(const Args& a) {
  const double budget = a.number("seconds", 0.5);
  double sink = 0.0;
  std::int64_t iters = 1 << 14;
  for (;;) {  // calibrate one batch to about 20 ms
    const double t0 = now_seconds();
    sink += fma_batch(iters, 1.0);
    if (now_seconds() - t0 >= 0.02 || iters >= (std::int64_t{1} << 30)) break;
    iters *= 2;
  }
  std::vector<double> rates;
  const double start = now_seconds();
  while (rates.size() < 5 || now_seconds() - start < budget) {
    const double t0 = now_seconds();
    sink += fma_batch(iters, 1.0 + static_cast<double>(rates.size()));
    const double s = now_seconds() - t0;
    rates.push_back(2.0 * kLanes * static_cast<double>(iters) / s / 1e9);
  }
  std::sort(rates.begin(), rates.end());
  std::cout << JsonOut()
                   .num("peak_gflops", rates[rates.size() / 2])
                   .num("probes", static_cast<double>(rates.size()))
                   .num("sink", sink > 0 ? 1 : 0)
                   .text()
            << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// setup: time before the first unit of work
// ---------------------------------------------------------------------------

int cmd_setup(const Args& a) {
  const double t0 = now_seconds();
  const io::Scenario s = load_deck(a);
  const qtx::device::Structure structure = io::make_structure(s);
  const qtx::core::SimulationOptions opt =
      io::resolved_solver_options(s, structure);
  qtx::core::measure_host_peak();
  const qtx::core::Simulation sim(structure, opt);
  const double t1 = now_seconds();
  std::cout << JsonOut().num("setup_s", t1 - t0).text() << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// run: traced deck-in -> results.json-out runs
// ---------------------------------------------------------------------------

std::string span_totals_json() {
  std::string out;
  for (const auto& [name, t] : perfbench::SpanLog::totals()) {
    out += (out.empty() ? "" : ",") + ("\"" + name + "\":") +
           JsonOut()
               .num("calls", static_cast<double>(t.calls))
               .num("total_s", t.total_s)
               .num("self_s", t.self_s)
               .num("first_start", t.first_start)
               .text();
  }
  return "{" + out + "}";
}

std::string counters_json() {
  const perfbench::LayerCounters c = perfbench::layer_counters();
  const perfbench::AllocCount allocs = perfbench::alloc_count();
  const auto phases = qtx::FlopLedger::by_phase();
  const auto un = phases.find("unattributed");
  return JsonOut()
      .num("gemm_flops", static_cast<double>(c.gemm_flops))
      .num("gemm_bytes", static_cast<double>(c.gemm_bytes))
      .num("gemm_le16", static_cast<double>(c.gemm_le16))
      .num("gemm_le32", static_cast<double>(c.gemm_le32))
      .num("gemm_gt32", static_cast<double>(c.gemm_gt32))
      .num("lu_flops", static_cast<double>(c.lu_flops))
      .num("obc_direct", static_cast<double>(c.obc_direct))
      .num("obc_memoized", static_cast<double>(c.obc_memoized))
      .num("comm_messages", static_cast<double>(c.comm_messages))
      .num("comm_bytes", static_cast<double>(c.comm_bytes))
      .num("executor_concurrency",
           static_cast<double>(c.executor_concurrency))
      .num("allocs", static_cast<double>(allocs.calls))
      .num("alloc_bytes", static_cast<double>(allocs.bytes))
      .num("flops_total", static_cast<double>(qtx::FlopLedger::total()))
      .num("flops_unattributed",
           un == phases.end() ? 0.0 : static_cast<double>(un->second))
      .text();
}

void reset_run_state(int run) {
  perfbench::SpanLog::clear();
  perfbench::SpanLog::set_run(run);
  perfbench::reset_layer_counters();
  perfbench::reset_alloc_count();
  qtx::FlopLedger::reset();
}

/// One traced deck-in -> results.json-out run on this process (one rank of
/// \p comm when non-null). Returns the rank's raw aggregates as JSON.
std::string traced_run(const Args& a, const qtx::core::StageRegistry& reg,
                       const std::string& out_dir, qtx::par::Comm* comm) {
  // Device build timed on its own: run_scenario builds it again inside.
  const io::Scenario probe = load_deck(a);
  const double b0 = now_seconds();
  const qtx::device::Structure structure = io::make_structure(probe);
  const double build_s = now_seconds() - b0;

  const double t0 = now_seconds();
  io::Scenario s = load_deck(a);
  const double parse_s = now_seconds() - t0;
  s.output.directory.clear();
  const double r0 = now_seconds();
  perfbench::set_alloc_counting(true);
  io::RunOutcome out = io::run_scenario(s, reg, nullptr, nullptr, comm);
  perfbench::set_alloc_counting(false);
  const double r1 = now_seconds();
  double write_s = 0.0, results_bytes = 0.0;
  if (comm == nullptr || comm->rank() == 0) {
    const double w0 = now_seconds();
    std::filesystem::create_directories(out_dir);
    io::write_result_csvs(out_dir, s, out.resolved, out.results);
    const std::string path =
        io::write_result_json(out_dir, s, out.resolved, out.results);
    write_s = now_seconds() - w0;
    results_bytes = static_cast<double>(std::filesystem::file_size(path));
  }
  const double t1 = now_seconds();
  const auto totals = perfbench::SpanLog::totals();
  const auto first = totals.find("core.pipeline");
  const double first_work =
      first == totals.end() ? r1 : first->second.first_start;
  return JsonOut()
      .num("rank", comm == nullptr ? 0 : comm->rank())
      .num("wall_s", t1 - t0)
      .num("parse_s", parse_s)
      .num("build_s", build_s)
      .num("write_s", write_s)
      .num("results_bytes", results_bytes)
      .num("core_setup_s", first_work - r0)
      .num("loop_s", out.results.result.total_seconds)
      .num("iterations", out.results.result.iterations)
      .num("peak_rss_mb", peak_rss_mb())
      .raw("spans", span_totals_json())
      .raw("counters", counters_json())
      .text();
}

int cmd_run(const Args& a) {
  const int ranks = static_cast<int>(a.number("ranks", 1));
  const int runs = static_cast<int>(a.number("runs", 1));
  const std::string out = a.need("out");
  const std::string spans = a.get("spans", "");
  const qtx::core::StageRegistry reg = perfbench::make_timed_registry();
  std::filesystem::create_directories(out);
  for (int run = 1; run <= runs; ++run) {
    const std::string dir = out + "/run" + std::to_string(run);
    const std::string spans_file =
        (run == 1 && !spans.empty()) ? spans : std::string();
    double wall = 0.0;
    if (ranks == 1) {
      reset_run_state(run);
      const double t0 = now_seconds();
      const std::string raw = traced_run(a, reg, dir, nullptr);
      wall = now_seconds() - t0;
      write_file(dir + ".rank0.json", raw);
      if (!spans_file.empty())
        perfbench::SpanLog::write_chrome(spans_file + ".rank0", 0, 400000,
                                         "la.");
    } else {
      const double t0 = now_seconds();
      const qtx::par::LaunchReport report = qtx::par::launch_ranks(
          ranks, 600.0, [&](qtx::par::Comm& comm) {
            reset_run_state(run);
            perfbench::TimedComm timed(comm);
            const std::string raw = traced_run(a, reg, dir, &timed);
            write_file(dir + ".rank" + std::to_string(comm.rank()) + ".json",
                       raw);
            if (!spans_file.empty())
              perfbench::SpanLog::write_chrome(
                  spans_file + ".rank" + std::to_string(comm.rank()),
                  comm.rank(), 200000, "la.");
          });
      wall = now_seconds() - t0;
      if (!report.ok()) throw std::runtime_error(report.diagnostic);
    }
    write_file(dir + ".json", JsonOut().num("wall_s", wall).text());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// serve: closed loop of client threads
// ---------------------------------------------------------------------------

struct Request {
  int client = 0;
  int deck_id = 0;
  std::string text;
};

/// Deck list file: blocks introduced by "@request <client> <deck_id>".
std::vector<std::vector<Request>> read_decks(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<Request> all;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("@request ", 0) == 0) {
      Request r;
      std::istringstream(line.substr(9)) >> r.client >> r.deck_id;
      all.push_back(r);
    } else if (!all.empty()) {
      all.back().text += line + "\n";
    }
  }
  int clients = 0;
  for (const Request& r : all) clients = std::max(clients, r.client + 1);
  std::vector<std::vector<Request>> lists(static_cast<std::size_t>(clients));
  for (Request& r : all)
    lists[static_cast<std::size_t>(r.client)].push_back(std::move(r));
  return lists;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double field_after(const std::string& text, const std::string& key) {
  const auto at = text.rfind("\"" + key + "\": ");
  return at == std::string::npos
             ? 0.0
             : std::strtod(text.c_str() + at + key.size() + 4, nullptr);
}

struct Outcome {
  int client = 0;
  int deck_id = 0;
  double start = 0.0;
  double end = 0.0;
  bool ok = false;
  bool repeat = false;  // the client sent this deck before
  bool match = true;    // repeat reply identical to the first reply
  bool cache_hit = false;
  double queue_s = 0.0;
  double solve_s = 0.0;
  double loop_s = 0.0;  // SCBA-loop seconds the reply reports
  std::size_t bytes = 0;
};

/// What a cold run of the deck renders — the reference a served reply must
/// reproduce (the daemon's own normalization: name fallback, blanked
/// output spec).
std::string cold_reference(const std::string& deck_text, double& render_s) {
  const std::string name = "explore.ini";
  io::Scenario s = io::parse_scenario_text(deck_text, name);
  if (s.name.empty()) s.name = io::scenario_path_stem(name);
  s.output = io::OutputSpec{};
  s.output.directory.clear();
  const io::RunOutcome out =
      io::run_scenario(s, qtx::core::StageRegistry::global(), nullptr);
  const double t0 = now_seconds();
  std::string json = io::render_result_json(s, out.resolved, out.results);
  render_s = now_seconds() - t0;
  return json;
}

struct LoopResult {
  std::vector<Outcome> outcomes;
  std::map<int, std::string> first_reply;  // deck id -> stripped reply
  std::map<int, std::string> deck_text;
  std::vector<std::string> solved_replies;  // full payloads of misses
  double start = 0.0;
  double end = 0.0;
};

/// One closed-loop pass: each client thread sends its own list in order,
/// waiting for every reply, until \p deadline (time mode) or \p per_client
/// requests (count mode).
LoopResult closed_loop(const std::string& socket,
                       const std::vector<std::vector<Request>>& lists,
                       double seconds, int per_client, bool keep_replies) {
  LoopResult res;
  std::mutex mutex;  // guards res
  res.start = now_seconds();
  const double deadline = res.start + seconds;
  std::vector<std::thread> threads;
  for (const std::vector<Request>& list : lists) {
    threads.emplace_back([&, &list = list] {
      const serve::Client client(socket);
      std::map<int, std::string> seen;
      int sent = 0;
      for (const Request& req : list) {
        if (per_client > 0 ? sent >= per_client : now_seconds() >= deadline)
          break;
        ++sent;
        Outcome o;
        o.client = req.client;
        o.deck_id = req.deck_id;
        o.start = now_seconds();
        serve::Client::Response resp;
        try {
          resp = client.submit(req.text, "explore.ini");
        } catch (const std::exception& e) {
          resp.ok = false;
          resp.error = e.what();
        }
        o.end = now_seconds();
        o.ok = resp.ok;
        if (resp.ok) {
          o.bytes = resp.payload.size();
          o.cache_hit =
              resp.payload.find("\"cache_hit\": true") != std::string::npos;
          o.queue_s = field_after(resp.payload, "queue_seconds");
          o.solve_s = field_after(resp.payload, "solve_seconds");
          o.loop_s = field_after(resp.payload, "total_seconds");
          std::string stripped = serve::strip_volatile_sections(resp.payload);
          const auto it = seen.find(req.deck_id);
          if (it != seen.end()) {
            o.repeat = true;
            o.match = (it->second == stripped);
          } else {
            seen.emplace(req.deck_id, stripped);
          }
        } else {
          std::cerr << "request failed: " << resp.error << "\n";
        }
        std::lock_guard<std::mutex> lock(mutex);
        if (resp.ok && !o.repeat) {
          res.first_reply[req.deck_id] = seen[req.deck_id];
          res.deck_text[req.deck_id] = req.text;
        }
        if (resp.ok && keep_replies && !o.cache_hit)
          res.solved_replies.push_back(std::move(resp.payload));
        res.outcomes.push_back(o);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  res.end = now_seconds();
  return res;
}

std::string outcomes_json(const LoopResult& res) {
  std::string out;
  for (const Outcome& o : res.outcomes) {
    out += (out.empty() ? "" : ",") +
           JsonOut()
               .num("client", o.client)
               .num("deck", o.deck_id)
               .num("latency_s", o.end - o.start)
               .num("ok", o.ok)
               .num("repeat", o.repeat)
               .num("match", o.match)
               .num("cache_hit", o.cache_hit)
               .num("queue_s", o.queue_s)
               .num("solve_s", o.solve_s)
               .num("loop_s", o.loop_s)
               .num("bytes", static_cast<double>(o.bytes))
               .text();
  }
  return "[" + out + "]";
}

/// Cold-run \p count sampled decks and compare with their served replies.
/// Returns the number of mismatches; \p render_s gets the last cold run's
/// results.json render time.
int check_against_cold(const LoopResult& res, int count, int seed,
                       double& render_s) {
  std::vector<int> ids;
  for (const auto& [id, _] : res.first_reply) ids.push_back(id);
  int mismatches = 0;
  for (int j = 0; j < count && !ids.empty(); ++j) {
    const std::size_t pick =
        static_cast<std::size_t>(seed * 7919 + j * 104729) % ids.size();
    const int id = ids[pick];
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
    const std::string cold =
        serve::strip_volatile_sections(
            cold_reference(res.deck_text.at(id), render_s));
    if (cold != res.first_reply.at(id)) {
      std::cerr << "deck " << id << ": served reply differs from a cold run\n";
      ++mismatches;
    }
  }
  return mismatches;
}

/// Median parse and device-build seconds over the distinct decks.
std::pair<double, double> parse_and_build_seconds(
    const std::vector<std::vector<Request>>& lists) {
  std::vector<double> parse, build;
  std::map<int, bool> done;
  for (const auto& list : lists) {
    for (const Request& r : list) {
      if (done[r.deck_id] || parse.size() >= 16) continue;
      done[r.deck_id] = true;
      const double t0 = now_seconds();
      const io::Scenario s = io::parse_scenario_text(r.text, "explore.ini");
      const double t1 = now_seconds();
      const qtx::device::Structure structure = io::make_structure(s);
      const double t2 = now_seconds();
      parse.push_back(t1 - t0);
      build.push_back(t2 - t1);
    }
  }
  std::sort(parse.begin(), parse.end());
  std::sort(build.begin(), build.end());
  return {parse[parse.size() / 2], build[build.size() / 2]};
}

int cmd_serve(const Args& a) {
  const auto lists = read_decks(a.need("decks"));
  const std::string out = a.need("out");
  const double seconds = a.number("seconds", 0.0);
  const int per_client = static_cast<int>(a.number("per-client", 0));
  const int runs = static_cast<int>(a.number("runs", 1));
  const int check = static_cast<int>(a.number("check", 0));
  const int seed = static_cast<int>(a.number("seed", 0));
  const std::string spans = a.get("spans", "");
  std::filesystem::create_directories(out);
  const bool in_process = a.values.count("workers") > 0;
  const qtx::core::StageRegistry reg = perfbench::make_timed_registry();

  for (int run = 1; run <= runs; ++run) {
    reset_run_state(run);
    JsonOut doc;
    LoopResult res;
    if (in_process) {
      serve::ServerOptions opt;
      opt.socket_path = out + "/s" + std::to_string(run) + ".sock";
      opt.workers = static_cast<int>(a.number("workers", 2));
      serve::Server server(opt, reg);
      server.start();
      perfbench::set_alloc_counting(true);
      res = closed_loop(opt.socket_path, lists, seconds, per_client, true);
      perfbench::set_alloc_counting(false);
      const serve::ServerStats st = server.stats();
      server.stop();
      doc.num("cache_hits", static_cast<double>(st.cache.hits))
          .num("cache_misses", static_cast<double>(st.cache.misses))
          .num("pool_warm", static_cast<double>(st.pool.warm_hits))
          .num("pool_cold", static_cast<double>(st.pool.cold_builds))
          .num("requests_error", static_cast<double>(st.requests_error))
          .raw("spans", span_totals_json())
          .raw("counters", counters_json());
      if (run == 1 && !spans.empty())
        perfbench::SpanLog::write_chrome(spans + ".rank0", 0, 400000, "la.");
      std::string replies;
      for (const std::string& r : res.solved_replies)
        replies += (replies.empty() ? "" : ",") + r;
      write_file(out + "/run" + std::to_string(run) + ".replies.json",
                 "[" + replies + "]");
      const auto [parse_s, build_s] = parse_and_build_seconds(lists);
      doc.num("parse_s", parse_s).num("build_s", build_s);
    } else {
      res = closed_loop(a.need("socket"), lists, seconds, per_client, false);
    }
    double render_s = 0.0;
    const int mismatches = check_against_cold(res, check, seed, render_s);
    std::string digests;
    for (const auto& [id, reply] : res.first_reply) {
      digests += (digests.empty() ? "\"" : ",\"") + std::to_string(id) +
                 "\":\"" + std::to_string(fnv1a(reply)) + "\"";
    }
    doc.num("window_s", res.end - res.start)
        .num("cold_mismatches", mismatches)
        .num("cold_checked", std::min<double>(check, res.first_reply.size()))
        .num("render_s", render_s)
        .raw("digests", "{" + digests + "}")
        .raw("requests", outcomes_json(res));
    write_file(out + "/run" + std::to_string(run) + ".json", doc.text());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.command == "peak") return cmd_peak(a);
    if (a.command == "setup") return cmd_setup(a);
    if (a.command == "run") return cmd_run(a);
    if (a.command == "serve") return cmd_serve(a);
    throw std::runtime_error("unknown command " + a.command);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << "\n";
    return 1;
  }
}
