// Thread-local trace context: the one key that joins logs, metrics spans,
// and flight-recorder events for a single request (docs/OBSERVABILITY.md,
// "Request tracing").
//
// A trace id is a non-zero uint64, rendered on the wire and in logs as 16
// lowercase hex digits. The serve path installs a TraceScope around every
// request it handles (worker thread) and around every job it executes
// (admission lane, from the id stored on the session), so any code the
// request reaches — logging, the recorder, store appends — can pick up the
// current id without plumbing it through every signature.
//
// Lives in common/ (not obs/) because common/logging.cc reads it: the JSON
// log sink stamps `trace_id` on lines emitted inside a request context.

#ifndef SLICETUNER_COMMON_TRACE_CONTEXT_H_
#define SLICETUNER_COMMON_TRACE_CONTEXT_H_

#include <cstdint>
#include <string>

namespace slicetuner {
namespace trace {

/// Session names longer than this are truncated in the trace context (and
/// therefore in recorder events). Sized for the repo's naming conventions
/// ("s1", "load-0042", scenario ids).
constexpr size_t kMaxSessionLen = 23;

struct Context {
  uint64_t trace_id = 0;
  char session[kMaxSessionLen + 1] = {0};
};

/// The calling thread's current context. trace_id == 0 means "not inside a
/// request".
const Context& CurrentContext();

uint64_t CurrentTraceId();

/// Mints a fresh process-unique non-zero trace id (mixed from a process
/// seed and an atomic counter, so ids from concurrently started daemons
/// almost never collide).
uint64_t MintTraceId();

/// 16 lowercase hex digits ("00b7dd41c8f02a19"). Zero formats to "".
std::string FormatTraceId(uint64_t id);

/// Inverse of FormatTraceId; returns 0 on empty or malformed input.
uint64_t ParseTraceId(const std::string& text);

/// RAII installer: sets the calling thread's context for the scope's
/// lifetime and restores the previous context on destruction (scopes
/// nest). A null/empty session is recorded as "".
class TraceScope {
 public:
  TraceScope(uint64_t trace_id, const std::string& session);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Context saved_;
};

}  // namespace trace
}  // namespace slicetuner

#endif  // SLICETUNER_COMMON_TRACE_CONTEXT_H_
