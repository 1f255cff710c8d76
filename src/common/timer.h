// Wall-clock timing helpers used by benchmarks and examples.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>

namespace sage {

/// Monotonic wall-clock timer. Construction starts it.
class Timer {
 public:
  Timer() { Reset(); }

  /// Restarts the timer.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Prints "<label>: <t> s" on destruction; handy in examples.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string label) : label_(std::move(label)) {}
  ~ScopedTimer() {
    std::printf("%-28s %8.4f s\n", label_.c_str(), timer_.Seconds());
  }
  SAGE_DISALLOW_COPY_AND_ASSIGN(ScopedTimer);

 private:
  std::string label_;
  Timer timer_;
};

}  // namespace sage
