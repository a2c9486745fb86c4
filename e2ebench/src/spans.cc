#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "common/json.h"

namespace e2ebench {

using slicetuner::Status;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t Tracer::Begin(const std::string& name, const std::string& trace_id) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = name;
  span.trace_id = trace_id;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); tolerate a mismatch anyway.
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

std::vector<double> Tracer::SelfTimesNs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration_ns();
  }
  // Children of one parent never overlap (one thread, LIFO), so the part
  // of the parent they cover is the sum of their durations.
  for (const Span& span : spans_) {
    if (span.parent != 0) self[span.parent - 1] -= span.duration_ns();
  }
  return self;
}

Status Tracer::CheckNesting() const {
  const std::vector<double> self = SelfTimesNs();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < span.start_ns) {
      return Status::Internal("span " + span.name + " ends before it starts");
    }
    if (self[i] < 0) {
      return Status::Internal("span " + span.name + " has negative self time");
    }
    if (span.parent == 0) continue;
    const Span& parent = spans_[span.parent - 1];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
      return Status::Internal("span " + span.name + " escapes its parent " +
                              parent.name);
    }
    if (span.trace_id != parent.trace_id) {
      return Status::Internal("span " + span.name +
                              " changes trace id under " + parent.name);
    }
  }
  return Status::OK();
}

Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  for (const Span& span : spans_) {
    slicetuner::json::Value v = slicetuner::json::Value::Object();
    v.Set("id", static_cast<long long>(span.id));
    v.Set("parent", static_cast<long long>(span.parent));
    v.Set("name", span.name);
    v.Set("trace_id", span.trace_id);
    v.Set("start_ns", static_cast<long long>(span.start_ns));
    v.Set("end_ns", static_cast<long long>(span.end_ns));
    out << v.Dump() << "\n";
  }
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

}  // namespace e2ebench
