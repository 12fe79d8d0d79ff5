// Metric list, quantiles and the span recorder of the traced run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "bench.hpp"

namespace xdbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double quantile_ms(const xd::QuantileSketch& s, double q) {
  if (s.empty()) return 0.0;
  const double lo = s.quantile(q);
  // The sketch maps exactly the q' in (a, b] to this bucket: a and b are
  // the shares of samples below it and up to its end. Bisect for both.
  auto edge = [&](double inside, double outside) {
    for (int i = 0; i < 60; ++i) {
      const double mid = (inside + outside) / 2;
      (s.quantile(mid) == lo ? inside : outside) = mid;
    }
    return inside;
  };
  const double a = edge(q, 0.0), b = edge(q, 1.0);
  // Bucket width: 16 linear sub-buckets per power of two (stats.hpp).
  int exp = 0;
  std::frexp(lo, &exp);
  const double width = lo > 0 ? std::ldexp(1.0, exp - 5) : 0.0;
  const double frac = b > a ? (q - a) / (b - a) : 0.5;
  return (lo + width * frac) / 1e6;
}

void Measured::merge(const Measured& o) {
  attempted += o.attempted;
  failed += o.failed;
  lat.merge(o.lat);
  if (o.windows.size() > windows.size()) windows.resize(o.windows.size());
  for (std::size_t i = 0; i < o.windows.size(); ++i) windows[i].merge(o.windows[i]);
}

double Measured::windowed_quantile_ms(double q) const {
  const std::size_t complete =
      window_ns ? static_cast<std::size_t>(wall_s * 1e9 / static_cast<double>(window_ns)) : 0;
  std::vector<double> per;
  for (std::size_t i = 0; i < std::min(complete, windows.size()); ++i) {
    if (windows[i].count() > 0) per.push_back(xdbench::quantile_ms(windows[i], q));
  }
  return per.empty() ? quantile_ms(q) : median(std::move(per));
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (auto& m : list_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  list_.push_back({name, value, unit});
}

double Metrics::get(const std::string& name) const {
  for (const auto& m : list_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

// ---- span store ------------------------------------------------------------

namespace {

/// Per-thread span cap: bounds memory whatever the sampling rate.
constexpr std::size_t kMaxSpansPerThread = 200000;

struct ThreadBuffer {
  unsigned tid = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<u64> g_sample_every{1};
std::atomic<u64> g_next_id{1};
std::atomic<u64> g_dropped{0};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_buffers_mu

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (!buf) {
    std::lock_guard lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buf = g_buffers.back().get();
    buf->tid = static_cast<unsigned>(g_buffers.size());
  }
  return *buf;
}

thread_local std::vector<u64> t_parents;

}  // namespace

void Tracer::enable(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }
void Tracer::set_sampling(u64 every) { g_sample_every.store(every ? every : 1); }
bool Tracer::sampled(u64 op) {
  return enabled() && op % g_sample_every.load(std::memory_order_relaxed) == 0;
}
u64 Tracer::next_id() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }
u64 Tracer::dropped() { return g_dropped.load(); }

void Tracer::record(const char* name, u64 id, u64 parent, u64 op, u64 start_ns,
                    u64 end_ns) {
  if (!enabled()) return;
  ThreadBuffer& buf = local_buffer();
  if (buf.spans.size() >= kMaxSpansPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.spans.push_back(Span{name, id, parent, op, start_ns, end_ns, buf.tid});
}

std::vector<Span> Tracer::take() {
  std::lock_guard lock(g_buffers_mu);
  std::vector<Span> all;
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return all;
}

SpanScope::SpanScope(const char* name, u64 op) : name_(name), op_(op) {
  if (!Tracer::enabled()) return;
  id_ = Tracer::next_id();
  parent_ = t_parents.empty() ? 0 : t_parents.back();
  t_parents.push_back(id_);
  start_ = now_ns();
}

SpanScope::~SpanScope() {
  if (id_ == 0) return;
  const u64 end = now_ns();
  t_parents.pop_back();
  Tracer::record(name_, id_, parent_, op_, start_, end);
}

bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const u64 t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu}}",
                 i ? "," : "", s.name, s.tid,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::fflush(f) == 0;
  return std::fclose(f) == 0 && ok;
}

std::vector<SpanSummary> summarize_spans(const std::vector<Span>& spans) {
  // Children per parent, as [start, end) intervals.
  std::unordered_map<u64, std::vector<std::pair<u64, u64>>> kids;
  for (const Span& s : spans) {
    if (s.parent) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  struct Acc {
    u64 count = 0;
    double total = 0, self = 0;
    std::vector<double> durs;
  };
  std::vector<std::string> order;
  std::unordered_map<std::string, Acc> acc;
  for (const Span& s : spans) {
    const u64 dur = s.end_ns - s.start_ns;
    u64 covered = 0;
    if (auto it = kids.find(s.id); it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      u64 cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    auto [it, fresh] = acc.try_emplace(s.name);
    if (fresh) order.push_back(s.name);
    Acc& a = it->second;
    ++a.count;
    a.total += static_cast<double>(dur) / 1e6;
    a.self += static_cast<double>(dur - std::min(dur, covered)) / 1e6;
    a.durs.push_back(static_cast<double>(dur) / 1e6);
  }
  std::vector<SpanSummary> out;
  for (const auto& name : order) {
    Acc& a = acc[name];
    out.push_back({name, a.count, a.total, a.self, median(std::move(a.durs))});
  }
  std::fprintf(stderr, "\n%-28s %10s %12s %12s %10s\n", "span (public call)",
               "count", "total_ms", "self_ms", "p50_ms");
  for (const auto& s : out) {
    std::fprintf(stderr, "%-28s %10llu %12.3f %12.3f %10.4f\n", s.name.c_str(),
                 static_cast<unsigned long long>(s.count), s.total_ms, s.self_ms,
                 s.p50_ms);
  }
  return out;
}

}  // namespace xdbench
