#include "obs/mem.hpp"

#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace sks::obs {

MemStats sample_mem_stats() {
  MemStats m;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    // ru_maxrss is bytes on Darwin, kilobytes elsewhere.
    m.peak_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss);
#else
    m.peak_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
#endif
    m.major_page_faults = static_cast<std::uint64_t>(ru.ru_majflt);
    m.minor_page_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  }
#endif
  return m;
}

void record_mem_gauges(Registry& reg) {
  const MemStats m = sample_mem_stats();
  reg.gauge("mem.peak_rss_bytes").set(static_cast<double>(m.peak_rss_bytes));
  reg.gauge("mem.major_page_faults")
      .set(static_cast<double>(m.major_page_faults));
  reg.gauge("mem.minor_page_faults")
      .set(static_cast<double>(m.minor_page_faults));

  // Capacity (not fill) of the bounded trace buffers: what a bounded
  // session has committed to retaining.
  std::uint64_t trace_bytes = 0;
  for (const auto& buffer : tracer().buffers()) {
    trace_bytes += static_cast<std::uint64_t>(buffer->capacity()) *
                   sizeof(TraceEvent);
  }
  reg.gauge("mem.trace_buffer_bytes").set(static_cast<double>(trace_bytes));
}

void record_peak_bytes(Gauge& gauge, double bytes) {
  static Counter& updates = registry().counter("obs.mem_gauge_updates");
  if (bytes > gauge.value()) gauge.set(bytes);
  updates.inc();
}

}  // namespace sks::obs
