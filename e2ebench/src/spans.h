// In-memory span recorder for the benchmark's traced run. Spans are taken
// around calls into the library's public functions (never inside them), kept
// in memory, and written out once when the run ends.
//
// A span records its name, start, end, parent and trace id. The layer is the
// name's prefix up to the first '.', so "engine.estimate" belongs to
// `engine`. Self time is a span's duration minus the part of it that its
// children cover.

#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace e2ebench {

uint64_t NowNs();

struct Span {
  uint32_t id = 0;      // 1-based; 0 is "no span"
  uint32_t parent = 0;  // 0 for a root
  std::string name;
  std::string trace_id;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;

  double duration_ns() const {
    return static_cast<double>(end_ns - start_ns);
  }
  std::string layer() const { return name.substr(0, name.find('.')); }
};

/// Single-threaded recorder with a current-parent stack. While disabled,
/// Begin/End record nothing (the tracing-overhead baseline).
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span (or as a root).
  uint32_t Begin(const std::string& name, const std::string& trace_id);
  void End(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span (indexed like spans()).
  std::vector<double> SelfTimesNs() const;

  /// Every span nests: children start and end inside their parent, and no
  /// self time is negative. Returns the first violation.
  slicetuner::Status CheckNesting() const;

  /// One JSON object per line.
  slicetuner::Status WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = true;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; a no-op while the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             const std::string& trace_id)
      : tracer_(tracer), id_(tracer->Begin(name, trace_id)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SPANS_H_
