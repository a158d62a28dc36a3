// Host-side probes for the repository benchmark.
//
// The benchmark measures the Glasswing libraries from outside: it never
// instruments src/. Per-layer host time comes from wrapping the public
// application kernels (AppKernels functors) and the MapEmitter a map
// kernel writes through, plus process-level counters read around each
// phase. The wrappers are pure observers: they forward every call
// unchanged, so every simulated number must stay bit-identical whether or
// not a KernelProbe is attached.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/api.h"

namespace gw::perfbench {

// Monotonic host clock in nanoseconds.
std::int64_t now_ns();

// user + system CPU seconds consumed by this process so far.
double process_cpu_seconds();

// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

// Per-job aggregate of kernel and emitter call timings. Each host thread
// writes only its own slot (no atomics on the hot path); totals are read
// after the simulation has joined every offloaded task.
class KernelProbe {
 public:
  struct Totals {
    std::uint64_t map_calls = 0;
    std::uint64_t emits = 0;
    std::uint64_t split_calls = 0;
    std::uint64_t partition_calls = 0;
    std::uint64_t combine_calls = 0;
    std::uint64_t reduce_calls = 0;
    std::int64_t map_ns = 0;  // whole map calls, emits included
    std::int64_t emit_ns = 0;
    std::int64_t split_ns = 0;
    std::int64_t partition_ns = 0;
    std::int64_t combine_ns = 0;
    std::int64_t reduce_ns = 0;
    // Host-clock window covered by this job's map and reduce calls
    // (first start, last end); 0/0 when no call was made.
    std::int64_t first_ns = 0;
    std::int64_t last_ns = 0;

    Totals& operator+=(const Totals& o);
  };

  struct alignas(64) Slot {
    Totals t;
    void window(std::int64_t start, std::int64_t end) {
      if (t.first_ns == 0 || start < t.first_ns) t.first_ns = start;
      if (end > t.last_ns) t.last_ns = end;
    }
  };

  // The calling thread's slot; aborts if more threads than kMaxThreads
  // ever call into probed kernels.
  Slot& slot();
  Totals totals() const;

  static constexpr int kMaxThreads = 64;

 private:
  std::array<Slot, kMaxThreads> slots_{};
};

// Returns `app` with every functor wrapped so calls are timed into `probe`.
// Absent functors that the runtime defaults (record splitter, partitioner)
// are wrapped around the same defaults the runtime would use; optional
// ones (combine, reduce) stay absent.
core::AppKernels probe_kernels(const core::AppKernels& app, KernelProbe& probe);

}  // namespace gw::perfbench
