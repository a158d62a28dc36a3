// Golden simulated results: fixed end-to-end scenarios whose simulated
// elapsed time (compared bit for bit, as a hex float) and output digest are
// pinned. The simulator is deterministic, so any change to the event order,
// the cost model or the data path shows up here as a changed golden. A
// change that means to alter simulated behaviour re-records the table (the
// failure message prints the new row); a refactor must leave it untouched.
//
// The pinned bits assume the default x86-64 build flags (no -march=native:
// FMA contraction would change the rounding of simulated times).
#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/kmeans.h"
#include "apps/terasort.h"
#include "apps/wordcount.h"
#include "apps/workload.h"
#include "core/dag.h"
#include "core/job.h"
#include "core/sched.h"
#include "gwdfs/fs.h"

namespace gw {
namespace {

// What a scenario pins: the simulated elapsed time of the whole run and an
// FNV-1a digest over everything it wrote (paths and bytes, in path order)
// plus any per-job simulated times it reports.
struct Outcome {
  double elapsed = 0;
  std::uint64_t digest = 0;
};

class Digest {
 public:
  void add(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  void add(const std::string& s) { add(s.data(), s.size() + 1); }
  void add(double v) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    add(&bits, sizeof bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

// Appends every file's path and contents to `d`, in path order. Runs after
// the measured work, so the reads never touch the pinned elapsed time.
void digest_files(cluster::Platform& p, dfs::FileSystem& fs,
                  std::vector<std::string> paths, Digest& d) {
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    util::Bytes bytes;
    p.sim().spawn([](dfs::FileSystem& f, std::string pa,
                     util::Bytes* out) -> sim::Task<> {
      *out = co_await f.read_all(f.block_locations(pa, 0).front(), pa);
    }(fs, path, &bytes));
    p.sim().run();
    d.add(path);
    d.add(bytes.data(), bytes.size());
  }
}

cluster::Platform make_platform(int nodes, net::NetworkProfile network =
                                               net::NetworkProfile::
                                                   qdr_infiniband_ipoib()) {
  return cluster::Platform(cluster::ClusterSpec::homogeneous(
      nodes, cluster::NodeSpec::das4_type1(), std::move(network)));
}

void stage_input(cluster::Platform& p, dfs::Dfs& fs, util::Bytes data) {
  p.sim().spawn([](dfs::Dfs& f, util::Bytes d) -> sim::Task<> {
    co_await f.write_distributed("/in/data", std::move(d));
  }(fs, std::move(data)));
  p.sim().run();
}

core::JobConfig base_config() {
  core::JobConfig cfg;
  cfg.input_paths = {"/in/data"};
  cfg.output_path = "/out";
  return cfg;
}

Outcome run_job(cluster::Platform& p, dfs::Dfs& fs,
                const core::AppKernels& app, const core::JobConfig& cfg) {
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  const core::JobResult r = rt.run(app, cfg);
  Digest d;
  digest_files(p, fs, r.output_files, d);
  return {r.elapsed_seconds, d.value()};
}

// One WordCount job over seeded Wikipedia-like text; `tune` adjusts the
// job config, `network` the interconnect.
Outcome wordcount(int nodes, int mb, std::function<void(core::JobConfig&)> tune,
                  net::NetworkProfile network =
                      net::NetworkProfile::qdr_infiniband_ipoib()) {
  cluster::Platform p = make_platform(nodes, std::move(network));
  dfs::Dfs fs(p, dfs::DfsConfig{});
  stage_input(p, fs,
              apps::generate_wiki_text(static_cast<std::uint64_t>(mb) << 20,
                                       42));
  core::JobConfig cfg = base_config();
  if (tune) tune(cfg);
  return run_job(p, fs, apps::wordcount().kernels, cfg);
}

Outcome wc_8n_16m() { return wordcount(8, 16, nullptr); }

Outcome wc_speculate() {
  return wordcount(4, 4, [](core::JobConfig& cfg) { cfg.speculate = true; });
}

Outcome wc_crash() {
  return wordcount(4, 4, [](core::JobConfig& cfg) {
    cfg.crash_events.push_back({.node = 2, .time = 0.008});
  });
}

Outcome wc_mem_1mib() {
  return wordcount(2, 2, [](core::JobConfig& cfg) {
    cfg.split_size = 64 << 10;
    cfg.partitions_per_node = 2;
    cfg.use_combiner = false;
    cfg.output_mode = core::OutputMode::kSharedPool;
    cfg.node_memory_bytes = 1 << 20;
  });
}

Outcome wc_rack_combine_gbe() {
  net::NetworkProfile gbe = net::NetworkProfile::gigabit_ethernet();
  gbe.bisection_oversubscription = 4;
  gbe.rack_size = 4;
  return wordcount(
      8, 8,
      [](core::JobConfig& cfg) { cfg.combine_mode = core::CombineMode::kRack; },
      std::move(gbe));
}

Outcome terasort_4n() {
  cluster::Platform p = make_platform(4);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  stage_input(p, fs, apps::generate_terasort(100000, 42));
  apps::AppSpec app = apps::terasort();
  p.sim().spawn([](dfs::Dfs& f, core::PartitionFn* out) -> sim::Task<> {
    std::vector<std::string> paths = {"/in/data"};
    *out = co_await apps::sample_range_partitioner(f, 0, std::move(paths),
                                                   2000);
  }(fs, &app.kernels.partition));
  p.sim().run();
  return run_job(p, fs, app.kernels, base_config());
}

Outcome kmeans_dag_4n() {
  cluster::Platform p = make_platform(4);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  apps::KmeansConfig km;
  stage_input(p, fs, apps::generate_points(km, 20000, 43));
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  const core::DagResult dr =
      apps::kmeans_dag(rt, p, fs, km, apps::generate_centers(km, 42),
                       "/in/data", "/out", 3, base_config())
          .dag;
  Digest d;
  for (const auto& round : dr.rounds) d.add(round.job.elapsed_seconds);
  digest_files(p, fs, dr.final_outputs, d);
  return {dr.elapsed_seconds, d.value()};
}

// A seeded mixed wc/pvc/terasort workload under the scheduler; the digest
// covers every job's simulated latency and output.
Outcome scheduled(int nodes, const apps::WorkloadConfig& wl,
                  const core::SchedulerConfig& sc) {
  cluster::Platform p = make_platform(nodes);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  std::vector<core::JobRequest> requests = apps::make_mixed_workload(p, fs, wl);
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  core::Scheduler sched(rt, p, fs, sc);
  for (auto& req : requests) sched.submit(std::move(req));
  const double t0 = p.sim().now();
  sched.run_all();
  const double makespan = p.sim().now() - t0;
  EXPECT_EQ(sched.jobs_failed(), 0);
  Digest d;
  for (const core::ScheduledJob& j : sched.results()) {
    d.add(j.latency_s);
    d.add(static_cast<double>(j.preemptions));
    digest_files(p, fs, j.result.output_files, d);
  }
  return {makespan, d.value()};
}

Outcome sched_fair_12() {
  apps::WorkloadConfig wl;
  wl.jobs = 12;
  wl.tenants = 4;
  wl.arrival_rate_jobs_per_s = 20;
  wl.seed = 7;
  core::SchedulerConfig sc;
  sc.policy = core::SchedPolicy::kFair;
  return scheduled(8, wl, sc);
}

Outcome sched_priority_preempt() {
  apps::WorkloadConfig wl;
  wl.jobs = 8;
  wl.tenants = 4;
  wl.arrival_rate_jobs_per_s = 200;
  wl.seed = 7;
  core::SchedulerConfig sc;
  sc.policy = core::SchedPolicy::kPriority;
  sc.max_resident_jobs = 2;
  sc.preemption = true;
  sc.elastic_slots = true;
  return scheduled(4, wl, sc);
}

struct Golden {
  const char* name;
  Outcome (*run)();
  const char* elapsed_hex;  // printf("%a") of the simulated elapsed time
  std::uint64_t digest;
};

// ctest lists a parameterised test with its printed parameter.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

const Golden kGoldens[] = {
    {"wc_8n_16m", wc_8n_16m, "0x1.5de10b61aae6p-4",
     0xe73fcb3723781caaull},
    {"terasort_4n", terasort_4n, "0x1.643328a031c5cp-3",
     0xfe847fc86b8cbc34ull},
    {"kmeans_dag_4n", kmeans_dag_4n, "0x1.3665dce5e0f4bp-3",
     0x8aeee6d00cb2ca89ull},
    {"wc_rack_combine_gbe", wc_rack_combine_gbe, "0x1.015b2d07cf3d7p-3",
     0xa124581365adeb9dull},
    {"wc_mem_1mib", wc_mem_1mib, "0x1.abdc6cd916737p-5",
     0xb934fad3a161bbfcull},
    {"wc_speculate", wc_speculate, "0x1.c4cfa007e7f76p-5",
     0xd98890a83b606cbeull},
    {"wc_crash", wc_crash, "0x1.15f9494f6f9fcp-4",
     0xd98890a83b606cbeull},
    {"sched_fair_12", sched_fair_12, "0x1.5a0a87e10f18ap-1",
     0x0b0a9e0222180079ull},
    {"sched_priority_preempt", sched_priority_preempt, "0x1.d0990c97b5818p-3",
     0xadf32bafce520934ull},
};

class GoldenSim : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenSim, ElapsedAndOutputPinned) {
  const Golden& g = GetParam();
  const Outcome o = g.run();
  char digest[32];
  std::snprintf(digest, sizeof digest, "0x%016" PRIx64 "ull", o.digest);
  const std::string row = std::string("{\"") + g.name + "\", " + g.name +
                          ", \"" + hex(o.elapsed) + "\", " + digest + "},";
  EXPECT_EQ(hex(o.elapsed), g.elapsed_hex) << "actual row: " << row;
  EXPECT_EQ(o.digest, g.digest) << "actual row: " << row;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, GoldenSim, ::testing::ValuesIn(kGoldens),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace gw
