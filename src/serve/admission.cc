#include "serve/admission.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/recorder.h"
#include "serve/serve_metrics.h"

namespace slicetuner {
namespace serve {

AdmissionController::AdmissionController(AdmissionOptions options,
                                         Runner runner, size_t max_lanes)
    : options_(std::move(options)),
      runner_(std::move(runner)),
      max_lanes_(max_lanes > 0 ? max_lanes
                               : DefaultThreadPool().num_threads()) {
  if (options_.max_queue_depth == 0) options_.max_queue_depth = 1;
}

AdmissionController::~AdmissionController() { WaitIdle(); }

Status AdmissionController::Reserve() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) {
    return Status::FailedPrecondition("server is shutting down");
  }
  const size_t depth = queue_.size() + reserved_;
  if (depth >= options_.max_queue_depth) {
    ++stats_.shed_queue_full;
    ServeMetrics::Get().shed_queue_full->Add();
    obs::Recorder::Global().RecordHere(obs::EventKind::kShed,
                                       options_.retry_after_ms);
    return Status::ResourceExhausted(StrFormat(
        "admission queue full (%zu/%zu)", depth, options_.max_queue_depth));
  }
  ++reserved_;
  return Status::OK();
}

void AdmissionController::Commit(uint64_t session_id) {
  bool start_lane = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --reserved_;
    queue_.push_back(session_id);
    const size_t depth = queue_.size();
    ++stats_.admitted;
    stats_.max_depth_seen = std::max(stats_.max_depth_seen, depth);
    ServeMetrics::Get().admitted->Add();
    ServeMetrics::Get().queue_depth->Set(static_cast<double>(depth));
    obs::Recorder::Global().RecordHere(obs::EventKind::kAdmit,
                                       static_cast<int64_t>(depth));
    start_lane = runner_ != nullptr && lanes_ < max_lanes_;
    if (start_lane) ++lanes_;
  }
  if (start_lane) DefaultThreadPool().Submit([this] { RunLane(); });
}

void AdmissionController::Release() {
  std::lock_guard<std::mutex> lock(mu_);
  --reserved_;
}

void AdmissionController::RunLane() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!queue_.empty()) {
    const uint64_t session_id = queue_.front();
    queue_.pop_front();
    ServeMetrics::Get().queue_depth->Set(static_cast<double>(queue_.size()));
    const size_t lanes = lanes_;
    lock.unlock();
    runner_(session_id, lanes);
    lock.lock();
  }
  // The empty check and the retirement share one critical section with
  // Commit's push and lane count check: no id can be pushed in between and
  // be left without a lane.
  if (--lanes_ == 0) idle_cv_.notify_all();
}

void AdmissionController::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  stopped_ = true;
}

void AdmissionController::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return lanes_ == 0; });
}

size_t AdmissionController::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

AdmissionStats AdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace serve
}  // namespace slicetuner
