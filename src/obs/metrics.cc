#include "obs/metrics.h"

#include <chrono>
#include <utility>

#include "obs/signal_safe.h"

namespace slicetuner {
namespace obs {

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace internal_obs {

std::atomic<bool> g_enabled{true};

size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kNumShards;
  return shard;
}

}  // namespace internal_obs

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

void Gauge::Add(double delta) {
  if (!internal_obs::Enabled()) return;
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram() : shards_(new Shard[internal_obs::kNumShards]) {
  for (size_t s = 0; s < internal_obs::kNumShards; ++s) {
    // Constructed in place at the final size: the vector never reallocates,
    // so concurrent relaxed accesses to the cells are safe for the
    // histogram's whole lifetime.
    shards_[s].buckets = std::vector<std::atomic<uint64_t>>(kNumBuckets);
  }
}

void Histogram::BucketBounds(size_t index, uint64_t* lo, uint64_t* hi) {
  if (index < kSub) {
    *lo = *hi = static_cast<uint64_t>(index);
    return;
  }
  const size_t shift = index / kSub - 1;
  const uint64_t top = static_cast<uint64_t>(index % kSub) + kSub;
  *lo = top << shift;
  *hi = ((top + 1) << shift) - 1;
}

namespace {

// Quantile by cumulative scan: the estimate interpolates linearly inside
// the first bucket whose cumulative count exceeds the rank, so it always
// lies within the bucket that holds the exact order statistic.
double QuantileFromMerged(const uint64_t* merged, uint64_t count, double q) {
  if (count == 0) return 0.0;
  const double rank = q * static_cast<double>(count - 1);
  uint64_t cum = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    const uint64_t c = merged[i];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) > rank) {
      uint64_t lo = 0;
      uint64_t hi = 0;
      Histogram::BucketBounds(i, &lo, &hi);
      double frac = (rank - static_cast<double>(cum) + 0.5) /
                    static_cast<double>(c);
      if (frac < 0.0) frac = 0.0;
      if (frac > 1.0) frac = 1.0;
      return static_cast<double>(lo) +
             frac * static_cast<double>(hi - lo);
    }
    cum += c;
  }
  return 0.0;  // unreachable: rank < count and the buckets sum to count
}

}  // namespace

HistogramSnapshot Histogram::Snapshot() const {
  // On the stack: the crash handler takes snapshots too (DumpTo).
  uint64_t merged[kNumBuckets] = {};
  HistogramSnapshot snapshot;
  for (size_t s = 0; s < internal_obs::kNumShards; ++s) {
    const Shard& shard = shards_[s];
    for (size_t i = 0; i < kNumBuckets; ++i) {
      merged[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
    snapshot.sum +=
        static_cast<double>(shard.sum.load(std::memory_order_relaxed));
  }
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snapshot.count += merged[i];
    if (merged[i] > 0) {
      uint64_t lo = 0;
      uint64_t hi = 0;
      BucketBounds(i, &lo, &hi);
      snapshot.max = static_cast<double>(hi);
    }
  }
  if (snapshot.count > 0) {
    snapshot.mean = snapshot.sum / static_cast<double>(snapshot.count);
    snapshot.p50 = QuantileFromMerged(merged, snapshot.count, 0.50);
    snapshot.p90 = QuantileFromMerged(merged, snapshot.count, 0.90);
    snapshot.p99 = QuantileFromMerged(merged, snapshot.count, 0.99);
  }
  return snapshot;
}

void Histogram::Reset() {
  for (size_t s = 0; s < internal_obs::kNumShards; ++s) {
    Shard& shard = shards_[s];
    for (size_t i = 0; i < kNumBuckets; ++i) {
      shard.buckets[i].store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked singleton: instrumented code records through cached pointers
  // until process exit, so the registry must never be destroyed.
  static MetricsRegistry& registry = *new MetricsRegistry();
  return registry;
}

void MetricsRegistry::SetEnabled(bool enabled) {
  internal_obs::g_enabled.store(enabled, std::memory_order_relaxed);
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(
    const std::string& name, const std::string& label_key,
    const std::string& label_value, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->name == name && entry->label_key == label_key &&
        entry->label_value == label_value) {
      return entry->kind == kind ? entry.get() : nullptr;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->label_key = label_key;
  entry->label_value = label_value;
  entry->kind = kind;
  switch (kind) {
    case Kind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  Entry* published = entry.get();
  entries_.push_back(std::move(entry));
  if (last_ == nullptr) {
    first_.store(published, std::memory_order_release);
  } else {
    last_->next.store(published, std::memory_order_release);
  }
  last_ = published;
  return published;
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  const std::string& label_key,
                                  const std::string& label_value) {
  Entry* entry = FindOrCreate(name, label_key, label_value, Kind::kCounter);
  return entry != nullptr ? entry->counter.get() : nullptr;
}

Gauge* MetricsRegistry::gauge(const std::string& name,
                              const std::string& label_key,
                              const std::string& label_value) {
  Entry* entry = FindOrCreate(name, label_key, label_value, Kind::kGauge);
  return entry != nullptr ? entry->gauge.get() : nullptr;
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      const std::string& label_key,
                                      const std::string& label_value) {
  Entry* entry = FindOrCreate(name, label_key, label_value, Kind::kHistogram);
  return entry != nullptr ? entry->histogram.get() : nullptr;
}

namespace {

std::string DisplayKey(const std::string& name, const std::string& label_key,
                       const std::string& label_value) {
  if (label_key.empty()) return name;
  return name + "{" + label_key + "=\"" + label_value + "\"}";
}

// Longest exposition line: a name cut at 128 characters, a 6-character
// suffix, a label key and value cut at 64 each, the quantile label, the
// punctuation and a 28-character value all fit.
constexpr size_t kMaxNameLen = 128;
constexpr size_t kMaxLabelLen = 64;
constexpr size_t kMaxLineLen = 384;

// `name<suffix>{key="value",extra} ` (the braces only when there is a
// label); `extra` is an additional label such as the quantile.
size_t AppendSeriesName(char* line, const std::string& name,
                        const char* suffix, const std::string& label_key,
                        const std::string& label_value, const char* extra) {
  using signal_safe::AppendStr;
  size_t n = AppendStr(line, name.c_str(), kMaxNameLen);
  n += AppendStr(line + n, suffix);
  const bool labeled = !label_key.empty();
  if (labeled || extra[0] != '\0') {
    line[n++] = '{';
    if (labeled) {
      n += AppendStr(line + n, label_key.c_str(), kMaxLabelLen);
      n += AppendStr(line + n, "=\"");
      n += AppendStr(line + n, label_value.c_str(), kMaxLabelLen);
      line[n++] = '"';
      if (extra[0] != '\0') line[n++] = ',';
    }
    n += AppendStr(line + n, extra);
    line[n++] = '}';
  }
  line[n++] = ' ';
  return n;
}

size_t AppendValue(char* buf, uint64_t value) {
  return signal_safe::AppendDec(buf, value);
}

size_t AppendValue(char* buf, double value) {
  return signal_safe::AppendDouble(buf, value);
}

}  // namespace

json::Value MetricsRegistry::SnapshotJson(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Value counters = json::Value::Object();
  json::Value gauges = json::Value::Object();
  json::Value histograms = json::Value::Object();
  for (const auto& entry : entries_) {
    if (!prefix.empty() && entry->name.rfind(prefix, 0) != 0) continue;
    const std::string key =
        DisplayKey(entry->name, entry->label_key, entry->label_value);
    switch (entry->kind) {
      case Kind::kCounter:
        counters.Set(key, static_cast<long long>(entry->counter->Value()));
        break;
      case Kind::kGauge:
        gauges.Set(key, entry->gauge->Value());
        break;
      case Kind::kHistogram: {
        const HistogramSnapshot s = entry->histogram->Snapshot();
        json::Value h = json::Value::Object();
        h.Set("count", static_cast<long long>(s.count));
        h.Set("sum", s.sum);
        h.Set("mean", s.mean);
        h.Set("p50", s.p50);
        h.Set("p90", s.p90);
        h.Set("p99", s.p99);
        h.Set("max", s.max);
        histograms.Set(key, std::move(h));
        break;
      }
    }
  }
  json::Value out = json::Value::Object();
  out.Set("counters", std::move(counters));
  out.Set("gauges", std::move(gauges));
  out.Set("histograms", std::move(histograms));
  return out;
}

template <typename Sink>
void MetricsRegistry::RenderExposition(Sink&& sink) const {
  char line[kMaxLineLen];
  for (const Entry* entry = first_.load(std::memory_order_acquire);
       entry != nullptr; entry = entry->next.load(std::memory_order_acquire)) {
    auto emit = [&](const char* suffix, const char* extra, auto value) {
      size_t n = AppendSeriesName(line, entry->name, suffix, entry->label_key,
                                  entry->label_value, extra);
      n += AppendValue(line + n, value);
      line[n++] = '\n';
      sink(line, n);
    };
    switch (entry->kind) {
      case Kind::kCounter:
        emit("", "", entry->counter->Value());
        break;
      case Kind::kGauge:
        emit("", "", entry->gauge->Value());
        break;
      case Kind::kHistogram: {
        const HistogramSnapshot s = entry->histogram->Snapshot();
        emit("", "quantile=\"0.5\"", s.p50);
        emit("", "quantile=\"0.9\"", s.p90);
        emit("", "quantile=\"0.99\"", s.p99);
        emit("_count", "", s.count);
        emit("_sum", "", s.sum);
        break;
      }
    }
  }
}

std::string MetricsRegistry::TextExposition() const {
  std::string out;
  RenderExposition(
      [&out](const char* line, size_t len) { out.append(line, len); });
  return out;
}

size_t MetricsRegistry::DumpTo(int fd) const {
  size_t written = 0;
  bool ok = true;
  RenderExposition([&](const char* line, size_t len) {
    ok = ok && signal_safe::WriteAll(fd, line, len);
    if (ok) ++written;
  });
  return written;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_) {
    switch (entry->kind) {
      case Kind::kCounter:
        entry->counter->Reset();
        break;
      case Kind::kGauge:
        entry->gauge->Reset();
        break;
      case Kind::kHistogram:
        entry->histogram->Reset();
        break;
    }
  }
}

}  // namespace obs
}  // namespace slicetuner
