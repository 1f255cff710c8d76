// In-memory span recorder for the traced run.
//
// The driver records one span around every public engine call it makes
// (Submit, ApplyUpdates, Compact, FromFile, ...), plus the queue and kernel
// intervals each RunReport states, as children of the request that
// produced it. Spans stay in memory until the run ends and are then
// written out as JSON lines; nothing inside the engine is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace perfbench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  /// Id of the span that caused this one; 0 for a root.
  uint64_t parent = 0;
  /// Request the span belongs to; 0 outside requests (set-up, probes).
  uint64_t request = 0;
  /// Static string naming the layer call, e.g. "api.submit".
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  /// Records a finished span and returns its id. Thread-safe.
  uint64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t parent = 0, uint64_t request = 0);

  std::vector<Span> spans() const;

  /// Writes one JSON object per span; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable sage::Mutex mu_;
  std::vector<Span> spans_ SAGE_GUARDED_BY(mu_);
};

/// Self time of every span, in the order given: its duration minus the
/// part of its interval that the union of its children's intervals covers.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Per span name: count, total and self nanoseconds.
struct LayerTime {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans);

}  // namespace perfbench
