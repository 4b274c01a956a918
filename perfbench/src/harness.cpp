#include "harness.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void Tally::record(const std::string& failure) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (failure.empty()) return;
  failed_.fetch_add(1, std::memory_order_relaxed);
  if (reported_.fetch_add(1) < 10) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
}

void Tally::add(const Tally& other) {
  attempted_.fetch_add(other.attempted(), std::memory_order_relaxed);
  failed_.fetch_add(other.failed(), std::memory_order_relaxed);
}

namespace {

void put_u64(std::string& buf, std::uint64_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Reads a u64 at `*pos` of `buf`; false if the buffer ends first.
bool get_u64(const std::string& buf, std::size_t* pos, std::uint64_t* v) {
  if (buf.size() - *pos < sizeof *v) return false;
  std::memcpy(v, buf.data() + *pos, sizeof *v);
  *pos += sizeof *v;
  return true;
}

std::string encode(const ChildReport& r) {
  std::string buf;
  put_u64(buf, r.verdicts.size());
  for (const std::string& v : r.verdicts) {
    put_u64(buf, v.size());
    buf += v;
  }
  put_u64(buf, r.values.size());
  for (std::uint64_t v : r.values) put_u64(buf, v);
  return buf;
}

bool decode(const std::string& buf, ChildReport* r) {
  std::size_t pos = 0;
  std::uint64_t count = 0;
  if (!get_u64(buf, &pos, &count)) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    if (!get_u64(buf, &pos, &len) || buf.size() - pos < len) return false;
    r->verdicts.push_back(buf.substr(pos, len));
    pos += len;
  }
  if (!get_u64(buf, &pos, &count)) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t v = 0;
    if (!get_u64(buf, &pos, &v)) return false;
    r->values.push_back(v);
  }
  return pos == buf.size();
}

}  // namespace

ChildReport run_in_child(const std::function<void(ChildReport&)>& check) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork() failed");
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string buf;
    try {
      ChildReport report;
      check(report);
      buf = encode(report);
    } catch (...) {
      code = 1;
    }
    for (std::size_t off = 0; off < buf.size();) {
      const ssize_t n = write(fds[1], buf.data() + off, buf.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        code = 1;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    _exit(code);
  }
  close(fds[1]);
  std::string buf;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  pid_t waited = 0;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  ChildReport report;
  if (waited != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !decode(buf, &report)) {
    throw std::runtime_error("a check run in a child process failed");
  }
  return report;
}

void record_all(const ChildReport& report, Tally& tally) {
  for (const std::string& v : report.verdicts) tally.record(v);
}

std::uint64_t state_hash(const std::string& state) {
  return std::hash<std::string_view>{}(state);
}

// ---------------------------------------------------------------- traces --

namespace {

struct OpenSpan {
  std::uint64_t id, trace;
  std::uint32_t weight;
};

struct ThreadSpans {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> done;
  std::vector<OpenSpan> open;
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadSpans>> g_buffers;  // guarded; never shrinks
std::atomic<std::uint64_t> g_next_span{1};

ThreadSpans& local_spans() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadSpans>());
    mine = g_buffers.back().get();
    mine->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
  }
  return *mine;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

void Tracer::enable(bool on) { enabled_.store(on); }

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::record_child(const char* name, std::int64_t start_ns,
                          std::int64_t end_ns) {
  if (!enabled()) return;
  ThreadSpans& t = local_spans();
  SpanRecord rec;
  rec.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  rec.parent = t.open.empty() ? 0 : t.open.back().id;
  rec.trace = t.open.empty() ? rec.id : t.open.back().trace;
  rec.weight = t.open.empty() ? 1 : t.open.back().weight;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  rec.thread = t.thread;
  t.done.push_back(rec);
}

std::vector<SpanRecord> Tracer::collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<SpanRecord> all;
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->done.begin(), b->done.end());
  }
  return all;
}

Span::Span(const char* name, bool sampled, std::uint32_t weight) {
  if (!sampled || !Tracer::enabled()) return;
  active_ = true;
  ThreadSpans& t = local_spans();
  rec_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t.open.empty() ? 0 : t.open.back().id;
  rec_.trace = t.open.empty() ? rec_.id : t.open.back().trace;
  rec_.weight = t.open.empty() ? weight : t.open.back().weight;
  rec_.name = name;
  rec_.thread = t.thread;
  t.open.push_back({rec_.id, rec_.trace, rec_.weight});
  rec_.start_ns = Tracer::now_ns();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_ns = Tracer::now_ns();
  ThreadSpans& t = local_spans();
  t.open.pop_back();
  t.done.push_back(rec_);
}

std::map<std::string, double> layer_self_ms(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    auto it = child_ns.find(s.id);
    const std::int64_t self =
        (s.end_ns - s.start_ns) - (it == child_ns.end() ? 0 : it->second);
    out[layer] += static_cast<double>(self) * s.weight / 1e6;
  }
  return out;
}

bool write_spans(const std::vector<SpanRecord>& spans,
                 const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.trace << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"thread\":" << s.thread << ",\"weight\":" << s.weight
        << "}\n";
  }
  return static_cast<bool>(out);
}

// ----------------------------------------------------------------- world --

bcc::BandwidthClasses class_grid(double c) {
  return bcc::BandwidthClasses::uniform_grid(10.0, 200.0, 10.0, c);
}

bcc::SynthDataset synth_world(std::size_t n, bcc::Rng& rng) {
  bcc::SynthOptions options;
  options.hosts = n;
  return bcc::synthesize_planetlab(options, rng);
}

bcc::QueryRequest cold_query(bcc::Rng& rng, std::size_t n,
                             const bcc::BandwidthClasses& classes,
                             const std::vector<std::size_t>& best) {
  const auto start = static_cast<NodeId>(rng.below(n));
  const double b = rng.uniform(10.0, 100.0);
  const std::size_t cls = *classes.snap_up(b);
  const std::size_t m = std::max<std::size_t>(best[cls], 2);
  // One query in eight asks for more than the largest cluster there is at
  // its class, so routing must answer kNotFound; the rest ask for the
  // small clusters most callers want (found where M(l) >= k).
  const std::size_t k = rng.below(8) == 0 ? m + 1 + rng.below(4)
                                          : 2 + rng.below(15);
  return bcc::QueryRequest::bandwidth(start, k, b);
}

}  // namespace perfbench
