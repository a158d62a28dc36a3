// Golden job statistics: fixed end-to-end scenarios whose every JobStats
// counter, stage-breakdown column and phase time is pinned. Where
// golden_test.cc pins elapsed time and output bytes, this file pins the
// numbers the reports print (traffic, spills, merges, recovery, kernel op
// counts), so a change to how counters are collected cannot silently change
// what they add up to. Doubles are rendered as hex floats, so they are
// compared bit for bit.
//
// A failure prints the scenario's full rendering and its new digest; a
// refactor must leave the table untouched.
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
#include "core/dag.h"
#include "core/job.h"
#include "core/sched.h"
#include "gwdfs/fs.h"

namespace gw {
namespace {

// Every field of JobStats is rendered below; a new field must be added
// there too (this size check is the reminder).
static_assert(sizeof(core::JobStats) == 31 * 8 + 2 * sizeof(cl::KernelStats),
              "JobStats changed: render the new field in render_stats");

// Accumulates "name=value" lines; the digest pins them, the text explains a
// mismatch.
class Rendering {
 public:
  void field(const char* name, std::uint64_t v) {
    text_ += name;
    text_ += '=' + std::to_string(v) + '\n';
  }
  void field(const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    text_ += name;
    text_ += '=';
    text_ += buf;
    text_ += '\n';
  }
  void section(const std::string& name) { text_ += "[" + name + "]\n"; }
  const std::string& text() const { return text_; }
  std::uint64_t digest() const {
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a
    for (unsigned char c : text_) h = (h ^ c) * 1099511628211ull;
    return h;
  }

 private:
  std::string text_;
};

void render_kernel(Rendering& r, const char* prefix, const cl::KernelStats& k) {
  const std::string p = prefix;
  r.field((p + ".work_items").c_str(), k.work_items);
  r.field((p + ".ops").c_str(), k.ops);
  r.field((p + ".bytes_read").c_str(), k.bytes_read);
  r.field((p + ".bytes_written").c_str(), k.bytes_written);
  r.field((p + ".atomic_ops").c_str(), k.atomic_ops);
  r.field((p + ".hash_probes").c_str(), k.hash_probes);
}

void render_stats(Rendering& r, const core::JobStats& s) {
  r.field("map_task_retries", s.map_task_retries);
  r.field("reduce_task_retries", s.reduce_task_retries);
  r.field("tasks_reexecuted", s.tasks_reexecuted);
  r.field("partitions_reassigned", s.partitions_reassigned);
  r.field("blocks_rereplicated", s.blocks_rereplicated);
  r.field("dfs_replicas_lost", s.dfs_replicas_lost);
  r.field("recovery_rounds", s.recovery_rounds);
  r.field("duplicate_runs_dropped", s.duplicate_runs_dropped);
  r.field("speculative_wins", s.speculative_wins);
  r.field("speculative_losses", s.speculative_losses);
  r.field("input_splits_lost", s.input_splits_lost);
  r.field("input_records", s.input_records);
  r.field("intermediate_pairs", s.intermediate_pairs);
  r.field("intermediate_bytes", s.intermediate_bytes);
  r.field("intermediate_stored", s.intermediate_stored);
  r.field("output_pairs", s.output_pairs);
  r.field("shuffle_bytes_remote", s.shuffle_bytes_remote);
  r.field("net_shuffle_bytes", s.net_shuffle_bytes);
  r.field("net_dfs_bytes", s.net_dfs_bytes);
  r.field("net_control_bytes", s.net_control_bytes);
  r.field("net_rack_agg_bytes", s.net_rack_agg_bytes);
  r.field("combine_in_bytes", s.combine_in_bytes);
  r.field("combine_out_bytes", s.combine_out_bytes);
  r.field("spills", s.spills);
  r.field("merges", s.merges);
  r.field("spill_bytes", s.spill_bytes);
  r.field("merge_levels", s.merge_levels);
  r.field("peak_mem_bytes", s.peak_mem_bytes);
  r.field("mem_stall_seconds", s.mem_stall_seconds);
  r.field("merge_fanin_runs", s.merge_fanin_runs);
  r.field("hash_table_probes", s.hash_table_probes);
  render_kernel(r, "map_kernel", s.map_kernel);
  render_kernel(r, "reduce_kernel", s.reduce_kernel);
}

void render_result(Rendering& r, const core::JobResult& j) {
  r.field("elapsed_seconds", j.elapsed_seconds);
  r.field("map_phase_seconds", j.map_phase_seconds);
  r.field("merge_delay_seconds", j.merge_delay_seconds);
  r.field("reduce_phase_seconds", j.reduce_phase_seconds);
  const core::StageBreakdown& b = j.stages;
  r.field("stages.input", b.input);
  r.field("stages.stage", b.stage);
  r.field("stages.kernel", b.kernel);
  r.field("stages.retrieve", b.retrieve);
  r.field("stages.partition", b.partition);
  r.field("stages.map_elapsed", b.map_elapsed);
  r.field("stages.merge_delay", b.merge_delay);
  r.field("stages.reduce_input", b.reduce_input);
  r.field("stages.reduce_stage", b.reduce_stage);
  r.field("stages.reduce_kernel", b.reduce_kernel);
  r.field("stages.reduce_retrieve", b.reduce_retrieve);
  r.field("stages.reduce_output", b.reduce_output);
  r.field("stages.reduce_elapsed", b.reduce_elapsed);
  r.field("output_files", static_cast<std::uint64_t>(j.output_files.size()));
  render_stats(r, j.stats);
}

cluster::Platform make_platform(int nodes, net::NetworkProfile network =
                                               net::NetworkProfile::
                                                   qdr_infiniband_ipoib()) {
  return cluster::Platform(cluster::ClusterSpec::homogeneous(
      nodes, cluster::NodeSpec::das4_type1(), std::move(network)));
}

void stage_input(cluster::Platform& p, dfs::Dfs& fs, const std::string& path,
                 util::Bytes data) {
  p.sim().spawn([](dfs::Dfs& f, std::string pa, util::Bytes d) -> sim::Task<> {
    co_await f.write_distributed(pa, std::move(d));
  }(fs, path, std::move(data)));
  p.sim().run();
}

core::JobConfig base_config(const std::string& input = "/in/data",
                            const std::string& output = "/out") {
  core::JobConfig cfg;
  cfg.input_paths = {input};
  cfg.output_path = output;
  return cfg;
}

// One WordCount job over seeded Wikipedia-like text.
Rendering wordcount(int nodes, int mb,
                    std::function<void(core::JobConfig&)> tune,
                    net::NetworkProfile network =
                        net::NetworkProfile::qdr_infiniband_ipoib()) {
  cluster::Platform p = make_platform(nodes, std::move(network));
  dfs::Dfs fs(p, dfs::DfsConfig{});
  stage_input(p, fs, "/in/data",
              apps::generate_wiki_text(static_cast<std::uint64_t>(mb) << 20,
                                       42));
  core::JobConfig cfg = base_config();
  if (tune) tune(cfg);
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  Rendering r;
  render_result(r, rt.run(apps::wordcount().kernels, cfg));
  return r;
}

Rendering wc_8n() { return wordcount(8, 16, nullptr); }

// Node 1 dies mid-job and restarts with empty disks; stragglers are cloned.
Rendering wc_crash_restart_speculate() {
  return wordcount(4, 4, [](core::JobConfig& cfg) {
    cfg.speculate = true;
    cfg.crash_events.push_back({.node = 1, .time = 0.008, .restart_time = 0.02});
  });
}

Rendering wc_mem_1mib() {
  return wordcount(2, 2, [](core::JobConfig& cfg) {
    cfg.split_size = 64 << 10;
    cfg.partitions_per_node = 2;
    cfg.use_combiner = false;
    cfg.output_mode = core::OutputMode::kSharedPool;
    cfg.node_memory_bytes = 1 << 20;
  });
}

// Injected task failures on both sides: every 3rd map task and every 5th
// reduce partition fails once and is retried.
Rendering wc_task_retries() {
  return wordcount(4, 4, [](core::JobConfig& cfg) {
    cfg.split_size = 256 << 10;
    cfg.fail_every_nth_map_task = 3;
    cfg.fail_every_nth_reduce_task = 5;
  });
}

// Rack-tier combining on oversubscribed GbE; node 1 (a rack member, not an
// aggregator) dies mid-job.
Rendering wc_rack_combine_gbe_kill() {
  net::NetworkProfile gbe = net::NetworkProfile::gigabit_ethernet();
  gbe.bisection_oversubscription = 4;
  gbe.rack_size = 4;
  return wordcount(
      8, 8,
      [](core::JobConfig& cfg) {
        cfg.combine_mode = core::CombineMode::kRack;
        cfg.crash_events.push_back({.node = 1, .time = 0.03});
      },
      std::move(gbe));
}

Rendering terasort_4n() {
  cluster::Platform p = make_platform(4);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  stage_input(p, fs, "/in/data", apps::generate_terasort(100000, 42));
  apps::AppSpec app = apps::terasort();
  p.sim().spawn([](dfs::Dfs& f, core::PartitionFn* out) -> sim::Task<> {
    std::vector<std::string> paths = {"/in/data"};
    *out = co_await apps::sample_range_partitioner(f, 0, std::move(paths),
                                                   2000);
  }(fs, &app.kernels.partition));
  p.sim().run();
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  Rendering r;
  render_result(r, rt.run(app.kernels, base_config()));
  return r;
}

Rendering kmeans_dag_4n() {
  cluster::Platform p = make_platform(4);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  apps::KmeansConfig km;
  stage_input(p, fs, "/in/data", apps::generate_points(km, 20000, 43));
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  const core::DagResult dr =
      apps::kmeans_dag(rt, p, fs, km, apps::generate_centers(km, 42),
                       "/in/data", "/out", 3, base_config())
          .dag;
  Rendering r;
  for (std::size_t i = 0; i < dr.rounds.size(); ++i) {
    r.section("round " + std::to_string(i));
    render_result(r, dr.rounds[i].job);
  }
  return r;
}

// A class-1 WordCount victim alone under a preempting priority scheduler
// (one residency slot); a class-0 job arriving at 0.4 of the victim's solo
// runtime displaces it. Renders the victim's cumulative result.
Rendering preempted_victim(bool crash) {
  const util::Bytes text = apps::generate_wiki_text(1 << 20, 21);
  double solo_elapsed = 0;
  {
    cluster::Platform p = make_platform(4);
    dfs::Dfs fs(p, dfs::DfsConfig{});
    stage_input(p, fs, "/in/big", text);
    core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
    core::JobConfig cfg = base_config("/in/big", "/out/victim");
    cfg.split_size = 64 << 10;
    solo_elapsed = rt.run(apps::wordcount().kernels, cfg).elapsed_seconds;
  }
  cluster::Platform p = make_platform(4);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  stage_input(p, fs, "/in/big", text);
  stage_input(p, fs, "/in/small", apps::generate_wiki_text(64 << 10, 22));
  core::GlasswingRuntime rt(p, fs, cl::DeviceSpec::cpu_dual_e5620());
  core::SchedulerConfig sc;
  sc.policy = core::SchedPolicy::kPriority;
  sc.max_resident_jobs = 1;
  sc.preemption = true;
  core::Scheduler sched(rt, p, fs, sc);
  core::JobRequest victim;
  victim.name = "victim";
  victim.priority = 1;
  victim.app = apps::wordcount().kernels;
  victim.config = base_config("/in/big", "/out/victim");
  victim.config.split_size = 64 << 10;
  if (crash) {
    // Node 1 dies and restarts before the suspension.
    victim.config.crash_events.push_back(
        {.node = 1, .time = 0.05 * solo_elapsed,
         .restart_time = 0.1 * solo_elapsed});
  }
  const int vid = sched.submit(std::move(victim));
  core::JobRequest urgent;
  urgent.name = "urgent";
  urgent.priority = 0;
  urgent.app = apps::wordcount().kernels;
  urgent.config = base_config("/in/small", "/out/urgent");
  urgent.config.split_size = 64 << 10;
  urgent.arrival_s = 0.4 * solo_elapsed;
  sched.submit(std::move(urgent));
  sched.run_all();
  const core::ScheduledJob& v =
      sched.results()[static_cast<std::size_t>(vid)];
  EXPECT_EQ(sched.jobs_failed(), 0);
  EXPECT_EQ(v.preemptions, 1);
  Rendering r;
  render_result(r, v.result);
  return r;
}

Rendering preempted_victim_clean() { return preempted_victim(false); }
Rendering preempted_victim_crash() { return preempted_victim(true); }

struct Golden {
  const char* name;
  Rendering (*run)();
  std::uint64_t digest;
};

// ctest lists a parameterised test with its printed parameter.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }

const Golden kGoldens[] = {
    {"wc_8n", wc_8n,
     0x036f6862d8cd6c4full},
    {"wc_crash_restart_speculate", wc_crash_restart_speculate,
     0xd3470cfdb8bea4daull},
    {"wc_mem_1mib", wc_mem_1mib,
     0xa3e15e4b5f2e42ddull},
    {"wc_task_retries", wc_task_retries,
     0x1594dbb841ea89e9ull},
    {"wc_rack_combine_gbe_kill", wc_rack_combine_gbe_kill,
     0x4e450e68e2a58aefull},
    {"terasort_4n", terasort_4n,
     0x7b9ce95f6cd9a13cull},
    {"kmeans_dag_4n", kmeans_dag_4n,
     0x09f7d3f76c4e4c85ull},
    {"preempted_victim_clean", preempted_victim_clean,
     0x713badae05171d1dull},
    {"preempted_victim_crash", preempted_victim_crash,
     0x22cb60bebec38741ull},
};

class GoldenStats : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenStats, EveryCounterPinned) {
  const Golden& g = GetParam();
  const Rendering r = g.run();
  char digest[32];
  std::snprintf(digest, sizeof digest, "0x%016" PRIx64 "ull", r.digest());
  EXPECT_EQ(r.digest(), g.digest)
      << "actual row: {\"" << g.name << "\", " << g.name << ", " << digest
      << "},\n"
      << r.text();
}

INSTANTIATE_TEST_SUITE_P(Scenarios, GoldenStats, ::testing::ValuesIn(kGoldens),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace gw
