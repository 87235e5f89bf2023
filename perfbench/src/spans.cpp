#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

struct Record {
  const char* name;
  double start;
  double end;
  int parent;  // index in the same thread's records, -1 for a root
  int run;
};

struct Frame {
  int index;
  double child_s;
};

struct ThreadLog {
  int tid = 0;
  std::vector<Record> records;
  std::vector<Frame> stack;
  std::unordered_map<const char*, SpanTotals> totals;
};

std::mutex g_logs_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mutex
std::atomic<int> g_run{0};

ThreadLog& local_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(g_logs_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    log = g_logs.back().get();
    log->tid = static_cast<int>(g_logs.size());
  }
  return *log;
}

std::atomic<bool> g_count_allocs{false};
std::atomic<std::int64_t> g_alloc_calls{0};
std::atomic<std::int64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(static_cast<std::int64_t>(n),
                            std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::set_run(int run) { g_run.store(run); }

void SpanLog::clear() {
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  for (auto& log : g_logs) {
    log->records.clear();
    log->stack.clear();
    log->totals.clear();
  }
}

std::map<std::string, SpanTotals> SpanLog::totals() {
  std::map<std::string, SpanTotals> out;
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  for (const auto& log : g_logs) {
    for (const auto& [name, t] : log->totals) {
      SpanTotals& o = out[name];
      o.calls += t.calls;
      o.total_s += t.total_s;
      o.self_s += t.self_s;
      if (o.first_start == 0.0 || t.first_start < o.first_start)
        o.first_start = t.first_start;
    }
  }
  return out;
}

void SpanLog::write_chrome(const std::string& path, int pid,
                           std::int64_t max_spans,
                           const std::string& droppable_prefix) {
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  std::int64_t total = 0;
  for (const auto& log : g_logs)
    total += static_cast<std::int64_t>(log->records.size());
  const bool drop = total > max_spans;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::int64_t dropped = 0;
  for (const auto& log : g_logs) {
    std::vector<char> has_child(log->records.size(), 0);
    for (const Record& r : log->records)
      if (r.parent >= 0) has_child[static_cast<std::size_t>(r.parent)] = 1;
    for (std::size_t i = 0; i < log->records.size(); ++i) {
      const Record& r = log->records[i];
      if (drop && !has_child[i] &&
          std::string_view(r.name).starts_with(droppable_prefix)) {
        ++dropped;
        continue;
      }
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"pid\":%d,\"tid\":%d,\"args\":{\"run\":%d,\"span\":%zu,"
                   "\"parent\":%d}}\n",
                   r.name, r.start * 1e6, (r.end - r.start) * 1e6, pid,
                   log->tid, r.run, i, r.parent);
    }
  }
  std::fprintf(f,
               "{\"name\":\"perfbench.dropped_leaf_spans\",\"ph\":\"M\","
               "\"pid\":%d,\"args\":{\"prefix\":\"%s\",\"count\":%lld}}\n",
               pid, droppable_prefix.c_str(), static_cast<long long>(dropped));
  std::fclose(f);
}

Span::Span(const char* name) {
  ThreadLog& log = local_log();
  index_ = static_cast<int>(log.records.size());
  const int parent = log.stack.empty() ? -1 : log.stack.back().index;
  log.records.push_back(
      Record{name, now_seconds(), 0.0, parent, g_run.load()});
  log.stack.push_back(Frame{index_, 0.0});
}

Span::~Span() {
  const double end = now_seconds();
  ThreadLog& log = local_log();
  const Frame frame = log.stack.back();
  log.stack.pop_back();
  Record& r = log.records[static_cast<std::size_t>(frame.index)];
  r.end = end;
  const double dur = end - r.start;
  SpanTotals& t = log.totals[r.name];
  ++t.calls;
  t.total_s += dur;
  t.self_s += dur - frame.child_s;
  if (t.first_start == 0.0 || r.start < t.first_start) t.first_start = r.start;
  if (!log.stack.empty()) log.stack.back().child_s += dur;
}

void set_alloc_counting(bool on) { g_count_allocs.store(on); }

AllocCount alloc_count() {
  return AllocCount{g_alloc_calls.load(), g_alloc_bytes.load()};
}

void reset_alloc_count() {
  g_alloc_calls.store(0);
  g_alloc_bytes.store(0);
}

}  // namespace perfbench

// Counting replacements of the global allocation functions. Only the
// unaligned forms are replaced; the aligned ones keep their library
// definitions and pair with their own deletes.
void* operator new(std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new[](std::size_t n) { return perfbench::counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
