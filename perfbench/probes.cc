#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "util/error.h"

namespace gw::perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  // VmHWM is the kernel's high-water mark of resident memory; ru_maxrss
  // (KiB on Linux) is the fallback when /proc is unavailable.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        kib = std::strtol(line + 6, nullptr, 10);
        break;
      }
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

std::atomic<int> next_thread_index{0};

int thread_index() {
  thread_local const int index = next_thread_index.fetch_add(1);
  return index;
}

// Forwards emits to the collector, timing each call.
class TimingEmitter final : public core::MapEmitter {
 public:
  TimingEmitter(core::MapEmitter* inner, KernelProbe::Slot& slot)
      : inner_(inner), slot_(slot) {}
  void emit(std::string_view key, std::string_view value) override {
    const std::int64_t start = now_ns();
    inner_->emit(key, value);
    slot_.t.emit_ns += now_ns() - start;
    ++slot_.t.emits;
  }

 private:
  core::MapEmitter* inner_;
  KernelProbe::Slot& slot_;
};

core::ReduceFn probe_reduce(core::ReduceFn inner, KernelProbe& probe,
                            std::uint64_t KernelProbe::Totals::*calls,
                            std::int64_t KernelProbe::Totals::*ns) {
  return [inner = std::move(inner), &probe, calls, ns](
             std::string_view key, const std::vector<std::string_view>& values,
             core::ReduceContext& ctx) {
    KernelProbe::Slot& s = probe.slot();
    const std::int64_t start = now_ns();
    inner(key, values, ctx);
    const std::int64_t end = now_ns();
    s.t.*ns += end - start;
    ++(s.t.*calls);
    s.window(start, end);
  };
}

}  // namespace

KernelProbe::Slot& KernelProbe::slot() {
  const int index = thread_index();
  GW_CHECK_MSG(index < kMaxThreads, "too many threads for KernelProbe");
  return slots_[static_cast<std::size_t>(index)];
}

KernelProbe::Totals& KernelProbe::Totals::operator+=(const Totals& o) {
  map_calls += o.map_calls;
  emits += o.emits;
  split_calls += o.split_calls;
  partition_calls += o.partition_calls;
  combine_calls += o.combine_calls;
  reduce_calls += o.reduce_calls;
  map_ns += o.map_ns;
  emit_ns += o.emit_ns;
  split_ns += o.split_ns;
  partition_ns += o.partition_ns;
  combine_ns += o.combine_ns;
  reduce_ns += o.reduce_ns;
  if (o.first_ns != 0 && (first_ns == 0 || o.first_ns < first_ns)) {
    first_ns = o.first_ns;
  }
  last_ns = std::max(last_ns, o.last_ns);
  return *this;
}

KernelProbe::Totals KernelProbe::totals() const {
  Totals sum;
  for (const Slot& s : slots_) sum += s.t;
  return sum;
}

core::AppKernels probe_kernels(const core::AppKernels& app,
                               KernelProbe& probe) {
  core::AppKernels out = app;

  out.map = [inner = app.map, &probe](std::string_view record,
                                      core::MapContext& ctx) {
    KernelProbe::Slot& s = probe.slot();
    TimingEmitter emitter(ctx.out, s);
    core::MapContext timed{&emitter, ctx.counters};
    const std::int64_t start = now_ns();
    inner(record, timed);
    const std::int64_t end = now_ns();
    s.t.map_ns += end - start;
    ++s.t.map_calls;
    s.window(start, end);
  };

  // frame_records() is exactly what the runtime calls when an app has no
  // splitter of its own (fixed-size records or newline text).
  out.split_records = [framing = app, &probe](std::string_view chunk) {
    KernelProbe::Slot& s = probe.slot();
    const std::int64_t start = now_ns();
    std::vector<std::uint64_t> offsets = core::frame_records(framing, chunk);
    s.t.split_ns += now_ns() - start;
    ++s.t.split_calls;
    return offsets;
  };

  out.partition = [inner = app.partition ? app.partition
                                         : core::default_hash_partitioner(),
                   &probe](std::string_view key, std::uint32_t total) {
    KernelProbe::Slot& s = probe.slot();
    const std::int64_t start = now_ns();
    const std::uint32_t p = inner(key, total);
    s.t.partition_ns += now_ns() - start;
    ++s.t.partition_calls;
    return p;
  };

  if (app.combine) {
    out.combine = probe_reduce(*app.combine, probe,
                               &KernelProbe::Totals::combine_calls,
                               &KernelProbe::Totals::combine_ns);
  }
  if (app.reduce) {
    out.reduce = probe_reduce(*app.reduce, probe,
                              &KernelProbe::Totals::reduce_calls,
                              &KernelProbe::Totals::reduce_ns);
  }
  return out;
}

}  // namespace gw::perfbench
