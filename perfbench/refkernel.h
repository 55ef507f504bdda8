#pragma once
// Reference kernel and host clocks.
//
// The host this benchmark runs on changes speed from second to second, so
// raw host time is not comparable between runs. A small fixed kernel
// (SHA-256 compressions and scattered loads over a 256 KiB table) runs from
// a SIGPROF handler every few milliseconds of CPU time. Its sample
// duration tracks how fast the machine is right now; dividing the
// simulator's host time by it gives a normalized time that is stable
// across machine states. The kernel's own time is removed from every
// interval measured here. The kernel is frozen: changing it changes every
// normalized metric.

#include <cstdint>

namespace perfbench {

/// Nominal duration of one reference-kernel sample. Normalized time scales
/// each slice of host time by kNominalRefNs / (the sample that ends it),
/// i.e. it is host time on a machine whose kernel sample takes exactly
/// this long.
inline constexpr double kNominalRefNs = 25000.0;

/// Start the sampler (idempotent). The kernel runs once per `interval_us`
/// of process CPU time.
void ref_start(int interval_us);
void ref_stop();

/// A consistent reading of the clocks and the kernel's accumulated time.
struct Stamp {
  std::int64_t cpu_ns = 0;     ///< thread CPU time
  std::int64_t wall_ns = 0;    ///< monotonic time
  std::int64_t kernel_ns = 0;  ///< total time spent in kernel samples
  std::uint64_t samples = 0;   ///< kernel samples taken
  /// Normalized host time: CPU time outside the kernel, each slice between
  /// two samples scaled by kNominalRefNs / (the sample ending it).
  double norm_ns = 0;
};
[[nodiscard]] Stamp stamp();

/// CPU time between two stamps with the kernel's samples removed.
[[nodiscard]] inline std::int64_t host_ns(const Stamp& a, const Stamp& b) {
  return (b.cpu_ns - a.cpu_ns) - (b.kernel_ns - a.kernel_ns);
}

/// Normalized host time between two stamps.
[[nodiscard]] inline double norm_ns(const Stamp& a, const Stamp& b) {
  return b.norm_ns - a.norm_ns;
}

/// Mean sample duration between two stamps (ns); 0 when none ran.
[[nodiscard]] inline double ref_mean_ns(const Stamp& a, const Stamp& b) {
  const std::uint64_t n = b.samples - a.samples;
  return n == 0 ? 0.0 : static_cast<double>(b.kernel_ns - a.kernel_ns) /
                            static_cast<double>(n);
}

/// Monotonic time minus the kernel's samples: the span clock of the
/// traced build.
[[nodiscard]] std::int64_t span_clock_ns();

}  // namespace perfbench
