// Always-on coarse wall-time measurement.  Scoped timing against a
// registry TimerStat is obs::Span's job (trace.hpp): built with a stat it
// records its duration there when obs::enabled() is on.
#pragma once

#include <chrono>

namespace sks::obs {

// Plain stopwatch for always-on coarse timing (per-fault, per-MC-sample
// wall time) where one clock read per item is negligible by construction.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sks::obs
