// Flight recorder: the last-N completed operations, kept for post-mortems.
//
// Hardware BLAS boards keep status registers you can read after a hang to
// see what the device was doing; the runtime's equivalent is this bounded
// ring of per-op trace contexts. Every operation the runtime executes —
// synchronous run() calls and pool-worker submit() jobs alike — stamps a
// TraceContext with wall-clock nanoseconds at each lifecycle edge and
// deposits it here on completion, success or failure. The ring is fixed
// capacity, so a long-running process retains the most recent window at
// constant memory, and a crash dump (xdblas_cli --flight-out, or the dump
// printed on ConfigError) shows the ops leading up to the failure.
//
// Thread safety: record() and snapshot() take a private mutex for a short
// critical section copying one record; the recorder is a lock-hierarchy
// leaf — no callback runs and no other lock is taken while it is held, so
// callers may record while holding the Session lock.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "common/util.hpp"

namespace xd::telemetry {

/// Per-op lifecycle record threaded from Runtime::submit/run through plan
/// lookup and engine execution. Timestamps are std::chrono::steady_clock
/// nanoseconds (monotonic, comparable within a process; 0 = edge not
/// reached). Synchronous run() calls have dequeue_ns == submit_ns: they
/// never wait in a queue.
struct TraceContext {
  u64 op_id = 0;            ///< process-unique, monotonic submission order
  const char* kind = "?";   ///< host::op_name() — static storage, never freed
  unsigned lane = 0;        ///< 0 = caller thread, worker w runs on lane w+1
  u64 submit_ns = 0;        ///< entered the runtime (submit()/run() call)
  u64 dequeue_ns = 0;       ///< a worker picked the job up
  u64 plan_ns = 0;          ///< plan resolved (cache hit or build)
  u64 exec_ns = 0;          ///< engine dispatch began
  u64 complete_ns = 0;      ///< outcome ready (or error thrown)
  u64 cycles = 0;           ///< simulated cycles from the op's report
  bool failed = false;
  std::string error;        ///< first line of the failure, empty on success

  u64 queue_wait_ns() const { return dequeue_ns - submit_ns; }
  u64 e2e_ns() const { return complete_ns - submit_ns; }
};

/// Fixed-capacity ring of completed TraceContexts. Oldest records are
/// overwritten once `capacity` ops have landed; total() and errors() keep
/// counting past the window so a snapshot reports how much history was
/// dropped.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 256)
      : capacity_(capacity == 0 ? 1 : capacity) {
    ring_.reserve(capacity_);
  }

  void record(const TraceContext& tc);

  /// Retained records, oldest first.
  std::vector<TraceContext> snapshot() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  u64 total() const;   ///< ops ever recorded (including overwritten)
  u64 errors() const;  ///< failed ops ever recorded
  void clear();

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<TraceContext> ring_;  ///< grows to capacity_, then circular
  std::size_t head_ = 0;            ///< index of the oldest record
  u64 total_ = 0;
  u64 errors_ = 0;
};

}  // namespace xd::telemetry
