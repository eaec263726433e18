#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>

namespace tman::obs {

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram() : shards_(new Shard[kShards]) {
  for (int s = 0; s < kShards; s++) {
    for (int b = 0; b < kNumBuckets; b++) {
      shards_[s].buckets[b].store(0, std::memory_order_relaxed);
    }
  }
}

int Histogram::BucketIndex(uint64_t value) {
  if (value < kSub) return static_cast<int>(value);
  const int h = 63 - std::countl_zero(value);  // position of highest set bit
  return (h - kSubBits + 1) * kSub +
         static_cast<int>((value >> (h - kSubBits)) - kSub);
}

uint64_t Histogram::BucketLowerBound(int index) {
  if (index < kSub) return static_cast<uint64_t>(index);
  const int octave = index / kSub;
  const int sub = index % kSub;
  return static_cast<uint64_t>(kSub + sub) << (octave - 1);
}

Histogram::Shard& Histogram::LocalShard() {
  // Threads spread round-robin over the shards; a given thread always
  // records into the same shard, so recorders contend kShards-ways less.
  static std::atomic<unsigned> next_shard{0};
  thread_local unsigned my_shard =
      next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shards_[my_shard];
}

void Histogram::Record(uint64_t value) {
  Shard& shard = LocalShard();
  shard.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  snap.buckets.assign(kNumBuckets, 0);
  for (int s = 0; s < kShards; s++) {
    for (int b = 0; b < kNumBuckets; b++) {
      snap.buckets[b] += shards_[s].buckets[b].load(std::memory_order_relaxed);
    }
    snap.count += shards_[s].count.load(std::memory_order_relaxed);
    snap.sum += shards_[s].sum.load(std::memory_order_relaxed);
  }
  const uint64_t mn = min_.load(std::memory_order_relaxed);
  snap.min = (mn == UINT64_MAX) ? 0 : mn;
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

double Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  if (p <= 0) return static_cast<double>(min);
  if (p >= 100) return static_cast<double>(max);
  const double rank = p / 100.0 * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (int b = 0; b < kNumBuckets; b++) {
    if (buckets[b] == 0) continue;
    const uint64_t next = cumulative + buckets[b];
    if (static_cast<double>(next) >= rank) {
      const double lower = static_cast<double>(BucketLowerBound(b));
      const double upper =
          b + 1 < kNumBuckets ? static_cast<double>(BucketLowerBound(b + 1))
                              : lower + 1;
      const double frac = (rank - static_cast<double>(cumulative)) /
                          static_cast<double>(buckets[b]);
      const double v = lower + frac * (upper - lower);
      return std::clamp(v, static_cast<double>(min), static_cast<double>(max));
    }
    cumulative = next;
  }
  return static_cast<double>(max);
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (int s = 0; s < kShards; s++) {
    total += shards_[s].count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::sum() const {
  uint64_t total = 0;
  for (int s = 0; s < kShards; s++) {
    total += shards_[s].sum.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::min() const {
  const uint64_t mn = min_.load(std::memory_order_relaxed);
  return mn == UINT64_MAX ? 0 : mn;
}

uint64_t Histogram::max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0 : static_cast<double>(sum()) / static_cast<double>(n);
}

double Histogram::Percentile(double p) const {
  return TakeSnapshot().Percentile(p);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

namespace {

void AppendDouble(std::string* out, double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

// "name{quantile=\"0.5\"}" — merging into an existing label set if the
// metric name already carries one ("name{level=\"0\"}").
std::string WithLabel(const std::string& name, const char* label,
                      const char* value) {
  std::string out;
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    out = name + "{" + label + "=\"" + value + "\"}";
  } else {
    out = name.substr(0, name.size() - 1);  // drop trailing '}'
    out += std::string(",") + label + "=\"" + value + "\"}";
  }
  return out;
}

// "name_sum" with the suffix spliced before any label block:
// "name{level=\"0\"}" -> "name_sum{level=\"0\"}".
std::string WithSuffix(const std::string& name, const char* suffix) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) return name + suffix;
  return name.substr(0, brace) + suffix + name.substr(brace);
}

// "tman_x_total" -> "tman_x" so the derived window series does not read as
// a counter ("..._total_window_rate" would); labels stay in place.
std::string StripTotal(const std::string& name) {
  const size_t brace = name.find('{');
  const std::string base =
      brace == std::string::npos ? name : name.substr(0, brace);
  static constexpr char kTotal[] = "_total";
  static constexpr size_t kTotalLen = sizeof(kTotal) - 1;
  if (base.size() > kTotalLen &&
      base.compare(base.size() - kTotalLen, kTotalLen, kTotal) == 0) {
    std::string out = base.substr(0, base.size() - kTotalLen);
    if (brace != std::string::npos) out += name.substr(brace);
    return out;
  }
  return name;
}

}  // namespace

// ---------------------------------------------------------------------------
// Sliding windows

uint64_t MetricsRegistry::NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void MetricsRegistry::EnableWindows(int slots, int slot_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slots < 1) slots = 1;
  if (slot_seconds < 1) slot_seconds = 1;
  if (window_capacity_ != slots || window_slot_seconds_ != slot_seconds) {
    window_slots_.clear();
  }
  window_capacity_ = slots;
  window_slot_seconds_ = slot_seconds;
}

bool MetricsRegistry::windows_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_capacity_ > 0;
}

int MetricsRegistry::window_slot_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_slot_seconds_;
}

void MetricsRegistry::RotateWindow(uint64_t now_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  if (window_capacity_ == 0) return;
  WindowSlot slot;
  slot.ts_micros = now_micros != 0 ? now_micros : NowMicros();
  for (const auto& [name, c] : counters_) slot.counters[name] = c->value();
  for (const auto& [name, h] : histograms_) {
    slot.histograms[name] = h->TakeSnapshot();
  }
  window_slots_.push_back(std::move(slot));
  while (window_slots_.size() > static_cast<size_t>(window_capacity_)) {
    window_slots_.pop_front();
  }
}

MetricsRegistry::WindowRate MetricsRegistry::CounterWindowLocked(
    const std::string& name, uint64_t live, uint64_t now_micros) const {
  WindowRate out;
  if (window_slots_.empty()) return out;
  const WindowSlot& oldest = window_slots_.front();
  uint64_t baseline = 0;
  auto it = oldest.counters.find(name);
  if (it != oldest.counters.end()) baseline = it->second;
  out.valid = true;
  out.delta = live >= baseline ? live - baseline : 0;
  const uint64_t now = now_micros != 0 ? now_micros : NowMicros();
  out.span_seconds = now > oldest.ts_micros
                         ? static_cast<double>(now - oldest.ts_micros) / 1e6
                         : 0;
  out.rate_per_sec = out.span_seconds > 0
                         ? static_cast<double>(out.delta) / out.span_seconds
                         : 0;
  return out;
}

Histogram::Snapshot MetricsRegistry::HistogramWindowLocked(
    const std::string& name, const Histogram::Snapshot& live) const {
  Histogram::Snapshot delta;
  delta.buckets.assign(Histogram::kNumBuckets, 0);
  if (window_slots_.empty()) return delta;
  const WindowSlot& oldest = window_slots_.front();
  const Histogram::Snapshot* base = nullptr;
  auto it = oldest.histograms.find(name);
  if (it != oldest.histograms.end()) base = &it->second;
  int first_nonzero = -1;
  int last_nonzero = -1;
  for (int b = 0; b < Histogram::kNumBuckets; b++) {
    const uint64_t then = base != nullptr ? base->buckets[b] : 0;
    const uint64_t now = live.buckets[b];
    const uint64_t d = now >= then ? now - then : 0;
    delta.buckets[b] = d;
    if (d > 0) {
      if (first_nonzero < 0) first_nonzero = b;
      last_nonzero = b;
    }
    delta.count += d;
  }
  const uint64_t base_sum = base != nullptr ? base->sum : 0;
  delta.sum = live.sum >= base_sum ? live.sum - base_sum : 0;
  // Cumulative min/max do not subtract; derive window bounds from the first
  // and last occupied delta buckets (bucket resolution, <= 6.25% wide) so
  // Snapshot::Percentile's [min, max] clamp stays meaningful.
  if (first_nonzero >= 0) {
    delta.min = Histogram::BucketLowerBound(first_nonzero);
    delta.max = last_nonzero + 1 < Histogram::kNumBuckets
                    ? Histogram::BucketLowerBound(last_nonzero + 1) - 1
                    : live.max;
    if (delta.max < delta.min) delta.max = delta.min;
    if (live.max < delta.max && live.max >= delta.min) delta.max = live.max;
  }
  return delta;
}

MetricsRegistry::WindowRate MetricsRegistry::CounterWindow(
    const std::string& name, uint64_t now_micros) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  const uint64_t live = it != counters_.end() ? it->second->value() : 0;
  return CounterWindowLocked(name, live, now_micros);
}

Histogram::Snapshot MetricsRegistry::HistogramWindow(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  Histogram::Snapshot live;
  live.buckets.assign(Histogram::kNumBuckets, 0);
  if (it != histograms_.end()) live = it->second->TakeSnapshot();
  return HistogramWindowLocked(name, live);
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  const bool windows = window_capacity_ > 0 && !window_slots_.empty();
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += "# TYPE " + name.substr(0, name.find('{')) + " counter\n";
    out += name + " ";
    AppendU64(&out, c->value());
    out += "\n";
    if (windows) {
      const WindowRate w = CounterWindowLocked(name, c->value(), 0);
      const std::string rate_name = WithSuffix(StripTotal(name), "_window_rate");
      out += "# TYPE " + rate_name.substr(0, rate_name.find('{')) + " gauge\n";
      out += rate_name + " ";
      AppendDouble(&out, w.rate_per_sec);
      out += "\n";
      out += WithSuffix(StripTotal(name), "_window_seconds") + " ";
      AppendDouble(&out, w.span_seconds);
      out += "\n";
    }
  }
  for (const auto& [name, g] : gauges_) {
    out += "# TYPE " + name.substr(0, name.find('{')) + " gauge\n";
    out += name + " ";
    AppendDouble(&out, g->value());
    out += "\n";
  }
  static constexpr struct {
    const char* label;
    double p;
  } kQuantiles[] = {{"0.5", 50}, {"0.95", 95}, {"0.99", 99}, {"0.999", 99.9}};
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot snap = h->TakeSnapshot();
    out += "# TYPE " + name.substr(0, name.find('{')) + " summary\n";
    for (const auto& q : kQuantiles) {
      out += WithLabel(name, "quantile", q.label) + " ";
      AppendDouble(&out, snap.Percentile(q.p));
      out += "\n";
    }
    out += WithSuffix(name, "_sum") + " ";
    AppendU64(&out, snap.sum);
    out += "\n";
    out += WithSuffix(name, "_count") + " ";
    AppendU64(&out, snap.count);
    out += "\n";
    out += WithSuffix(name, "_min") + " ";
    AppendU64(&out, snap.min);
    out += "\n";
    out += WithSuffix(name, "_max") + " ";
    AppendU64(&out, snap.max);
    out += "\n";
    if (windows) {
      const Histogram::Snapshot w = HistogramWindowLocked(name, snap);
      const std::string wname = WithSuffix(name, "_window");
      for (const auto& q : kQuantiles) {
        out += WithLabel(wname, "quantile", q.label) + " ";
        AppendDouble(&out, w.Percentile(q.p));
        out += "\n";
      }
      out += WithSuffix(wname, "_count") + " ";
      AppendU64(&out, w.count);
      out += "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const bool windows = window_capacity_ > 0 && !window_slots_.empty();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": ";
    AppendU64(&out, c->value());
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": ";
    AppendDouble(&out, g->value());
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot snap = h->TakeSnapshot();
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"count\": ";
    AppendU64(&out, snap.count);
    out += ", \"sum\": ";
    AppendU64(&out, snap.sum);
    out += ", \"min\": ";
    AppendU64(&out, snap.min);
    out += ", \"p50\": ";
    AppendDouble(&out, snap.Percentile(50));
    out += ", \"p95\": ";
    AppendDouble(&out, snap.Percentile(95));
    out += ", \"p99\": ";
    AppendDouble(&out, snap.Percentile(99));
    out += ", \"p999\": ";
    AppendDouble(&out, snap.Percentile(99.9));
    out += ", \"max\": ";
    AppendU64(&out, snap.max);
    out += "}";
  }
  out += "\n  }";
  if (windows) {
    // Additive section: existing keys keep their shape, machine consumers
    // that predate windows are unaffected.
    out += ",\n  \"window\": {\n    \"slot_seconds\": ";
    AppendU64(&out, static_cast<uint64_t>(window_slot_seconds_));
    out += ",\n    \"slots_retained\": ";
    AppendU64(&out, static_cast<uint64_t>(window_slots_.size()));
    out += ",\n    \"counters\": {";
    bool wfirst = true;
    for (const auto& [name, c] : counters_) {
      const WindowRate w = CounterWindowLocked(name, c->value(), 0);
      out += wfirst ? "\n" : ",\n";
      wfirst = false;
      out += "      \"" + name + "\": {\"delta\": ";
      AppendU64(&out, w.delta);
      out += ", \"rate_per_sec\": ";
      AppendDouble(&out, w.rate_per_sec);
      out += ", \"span_seconds\": ";
      AppendDouble(&out, w.span_seconds);
      out += "}";
    }
    out += "\n    },\n    \"histograms\": {";
    wfirst = true;
    for (const auto& [name, h] : histograms_) {
      const Histogram::Snapshot w =
          HistogramWindowLocked(name, h->TakeSnapshot());
      out += wfirst ? "\n" : ",\n";
      wfirst = false;
      out += "      \"" + name + "\": {\"count\": ";
      AppendU64(&out, w.count);
      out += ", \"sum\": ";
      AppendU64(&out, w.sum);
      out += ", \"p50\": ";
      AppendDouble(&out, w.Percentile(50));
      out += ", \"p99\": ";
      AppendDouble(&out, w.Percentile(99));
      out += "}";
    }
    out += "\n    }\n  }";
  }
  out += "\n}\n";
  return out;
}

MetricsRegistry* MetricsRegistry::Default() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return instance;
}

}  // namespace tman::obs
