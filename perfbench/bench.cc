// gwbench: one repetition of one repository-benchmark workload.
//
//   gwbench --workload wc-8n-64m|ts-dag-16n|mt-fair-100 --seed N
//           [--trace 0|1] [--check full|digest] [--setup-budget SECONDS]
//           [--out FILE] [--spans FILE]
//
// Builds the workload's inputs from the seed (setup), runs the timed phase
// once (a job, a DAG or a scheduler run), checks the outputs and writes one
// JSON report: host metrics of the timed phase, every simulated metric
// (bit-exact, for the determinism cross-check), per-layer host metrics and
// the output verdict. --trace 1 attaches KernelProbe wrappers to the app
// kernels and writes spans; simulated numbers must not change. perfbench/
// run.py drives repetitions of this binary and prints the benchmark result.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/pageview.h"
#include "apps/terasort.h"
#include "apps/wordcount.h"
#include "apps/workload.h"
#include "core/dag.h"
#include "core/job.h"
#include "core/pipeline.h"
#include "core/sched.h"
#include "probes.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/thread_pool.h"

using namespace gw;
using perfbench::KernelProbe;
using perfbench::now_ns;

namespace {

constexpr double kMiB = 1048576.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool full_check = true;
  double setup_budget_s = 0;
  std::string out;
  std::string spans;
};

// A span on the host clock (seconds since process start) or the simulated
// clock (seconds since the timed phase began).
struct Span {
  std::string name;
  const char* clock = "host";
  double start = 0;
  double end = 0;
  int parent = -1;
  int job = -1;
  std::vector<std::pair<std::string, double>> attrs;
};

using Metrics = std::vector<std::pair<std::string, double>>;

struct Report {
  double setup_s = 0;
  std::vector<double> setup_samples;
  double gen_s = 0;
  double stage_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  Metrics sim;   // deterministic: compared bit-for-bit across runs
  Metrics host;  // per-layer host metrics
  std::vector<std::string> na;  // per-layer metrics this workload lacks
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;
  std::uint64_t output_digest = 0xcbf29ce484222325ULL;
  std::uint64_t jobs_digest = 0xcbf29ce484222325ULL;
  std::vector<Span> spans;
  std::pair<std::int64_t, std::int64_t> timed_ns;  // timed phase, host clock
};

const std::int64_t g_t0 = now_ns();

double host_s(std::int64_t ns) { return static_cast<double>(ns - g_t0) * 1e-9; }

int add_span(Report& r, Span s) {
  r.spans.push_back(std::move(s));
  return static_cast<int>(r.spans.size()) - 1;
}

void mix(std::uint64_t& digest, const void* data, std::size_t len) {
  digest = util::fnv1a(data, len, digest);
}
void mix(std::uint64_t& digest, double v) { mix(digest, &v, sizeof(v)); }

// The simulated cluster every workload runs on: DAS-4 type-1 nodes with
// dual E5620 CPUs as the compute device, QDR InfiniBand (IPoIB), HDFS-like
// DFS with the default block size and replication.
struct Cluster {
  explicit Cluster(int nodes)
      : platform(cluster::ClusterSpec::homogeneous(
            nodes, cluster::NodeSpec::das4_type1(),
            net::NetworkProfile::qdr_infiniband_ipoib())),
        fs(platform, dfs::DfsConfig{}),
        runtime(platform, fs, cl::DeviceSpec::cpu_dual_e5620()) {}

  void stage(const std::string& path, util::Bytes data) {
    platform.sim().spawn([](dfs::Dfs& f, std::string p,
                            util::Bytes d) -> sim::Task<> {
      co_await f.write_distributed(p, std::move(d));
    }(fs, path, std::move(data)));
    platform.sim().run();
  }

  util::Bytes read(const std::string& path) {
    util::Bytes out;
    platform.sim().spawn([](dfs::Dfs& f, std::string p,
                            util::Bytes* o) -> sim::Task<> {
      *o = co_await f.read_all(f.block_locations(p, 0).front(), p);
    }(fs, path, &out));
    platform.sim().run();
    return out;
  }

  cluster::Platform platform;
  dfs::Dfs fs;
  core::GlasswingRuntime runtime;
};

// Process and library counters read on both sides of the timed phase.
struct Snap {
  std::int64_t t_ns = 0;
  double cpu_s = 0;
  util::ThreadPool::Stats pool;
  double join_block_s = 0;
  std::uint64_t events = 0;
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t core_bytes = 0;
  double sim_now = 0;
};

Snap snap(Cluster& c) {
  Snap s;
  s.pool = util::ThreadPool::global().stats();
  s.join_block_s = c.platform.sim().offload_join_block_seconds();
  s.events = c.platform.sim().events_processed();
  s.local_reads = c.fs.local_reads();
  s.remote_reads = c.fs.remote_reads();
  s.core_bytes = c.platform.fabric().core_bytes();
  s.sim_now = c.platform.sim().now();
  s.cpu_s = perfbench::process_cpu_seconds();
  s.t_ns = now_ns();
  return s;
}

// Nearest-rank quantile: the smallest sample with at least q of the
// samples at or below it.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

// Sums the per-job results a workload produced into the per-layer
// simulated metrics shared by every workload.
void add_job_metrics(Report& r, const std::vector<const core::JobResult*>& jobs) {
  core::StageBreakdown st;
  core::JobStats s;
  double merge_delay = 0;
  double reduce_phase = 0;
  std::uint64_t peak_mem = 0;
  for (const core::JobResult* j : jobs) {
    st.input += j->stages.input;
    st.kernel += j->stages.kernel;
    st.partition += j->stages.partition;
    merge_delay += j->merge_delay_seconds;
    reduce_phase += j->reduce_phase_seconds;
    const core::JobStats& x = j->stats;
    s.hash_table_probes += x.hash_table_probes;
    s.spills += x.spills;
    s.merges += x.merges;
    s.merge_fanin_runs += x.merge_fanin_runs;
    s.intermediate_bytes += x.intermediate_bytes;
    s.intermediate_stored += x.intermediate_stored;
    s.net_shuffle_bytes += x.net_shuffle_bytes;
    s.net_dfs_bytes += x.net_dfs_bytes;
    s.net_control_bytes += x.net_control_bytes;
    s.map_kernel += x.map_kernel;
    peak_mem = std::max(peak_mem, x.peak_mem_bytes);
  }
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  r.sim.insert(r.sim.end(), {
      {"core.collector.hash_probes", d(s.hash_table_probes)},
      {"core.map.input_sim_s", st.input},
      {"core.map.kernel_sim_s", st.kernel},
      {"core.map.partition_sim_s", st.partition},
      {"core.merge_delay_sim_s", merge_delay},
      {"core.reduce_phase_sim_s", reduce_phase},
      {"core.store.spills", d(s.spills)},
      {"core.store.merges", d(s.merges)},
      {"core.store.merge_fanin",
       s.merges > 0 ? d(s.merge_fanin_runs) / d(s.merges) : 0.0},
      {"core.store.compress_ratio",
       s.intermediate_bytes > 0
           ? d(s.intermediate_stored) / d(s.intermediate_bytes)
           : 0.0},
      {"core.store.peak_mem_mb", d(peak_mem) / kMiB},
      {"simnet.shuffle_bytes", d(s.net_shuffle_bytes)},
      {"simnet.dfs_bytes", d(s.net_dfs_bytes)},
      {"simnet.control_bytes", d(s.net_control_bytes)},
      {"gwcl.map_work_items", d(s.map_kernel.work_items)},
      {"gwcl.map_ops", d(s.map_kernel.ops)},
  });
}

// Job-level simulated metrics: sojourn (finish - arrival) quantiles over
// the finished jobs and their throughput over the makespan. A single-job
// workload is a stream of one job that arrives at time 0.
void add_sojourn_metrics(Report& r, const std::vector<double>& sojourn,
                         double makespan) {
  r.sim.insert(r.sim.end(), {
      {"sim_elapsed_s", makespan},
      {"sim_job_p50_s", quantile(sojourn, 0.50)},
      {"sim_job_p90_s", quantile(sojourn, 0.90)},
      {"sim_jobs_per_s",
       makespan > 0 ? static_cast<double>(sojourn.size()) / makespan : 0.0},
      {"sim_job_samples", static_cast<double>(sojourn.size())},
  });
}

void add_dag_metrics(Report& r, const core::DagResult* dag) {
  auto round = [&](std::size_t i) {
    return dag != nullptr && i < dag->rounds.size()
               ? dag->rounds[i].job.elapsed_seconds
               : 0.0;
  };
  r.sim.insert(r.sim.end(), {
      {"dag.round0_sim_s", round(0)},
      {"dag.round1_sim_s", round(1)},
      {"dag.pinned_peak_mb",
       dag ? static_cast<double>(dag->pinned_peak_bytes) / kMiB : 0.0},
      {"dag.cache_hit_mb",
       dag ? static_cast<double>(dag->cache_hit_bytes) / kMiB : 0.0},
  });
  if (dag == nullptr) {
    r.na.insert(r.na.end(), {"dag.round0_sim_s", "dag.round1_sim_s",
                             "dag.pinned_peak_mb", "dag.cache_hit_mb"});
  }
}

void add_sched_metrics(Report& r, const core::Scheduler* sched) {
  std::vector<double> waits;
  if (sched != nullptr) {
    for (const auto& j : sched->results()) {
      if (!j.rejected && !j.failed) waits.push_back(j.queue_wait_s);
    }
  }
  r.sim.insert(r.sim.end(), {
      {"sched.queue_wait_p50_sim_s", quantile(waits, 0.50)},
      {"sched.queue_wait_p90_sim_s", quantile(waits, 0.90)},
      {"sched.queue_peak", sched ? sched->queue_peak() : 0.0},
      {"sched.preempts", sched ? sched->jobs_preempted() : 0.0},
      {"sched.resumes", sched ? sched->jobs_resumed() : 0.0},
  });
  if (sched == nullptr) {
    r.na.insert(r.na.end(),
                {"sched.queue_wait_p50_sim_s", "sched.queue_wait_p90_sim_s",
                 "sched.queue_peak", "sched.preempts", "sched.resumes"});
  }
}

// Host and simulator counters of the timed phase.
void add_phase_metrics(Report& r, Cluster& c, const Snap& a, const Snap& b) {
  r.timed_ns = {a.t_ns, b.t_ns};
  r.wall_s = static_cast<double>(b.t_ns - a.t_ns) * 1e-9;
  r.cpu_s = b.cpu_s - a.cpu_s;
  r.peak_rss_mb = perfbench::peak_rss_mib();
  const double events = static_cast<double>(b.events - a.events);
  const double local = static_cast<double>(b.local_reads - a.local_reads);
  const double remote = static_cast<double>(b.remote_reads - a.remote_reads);
  r.sim.insert(r.sim.end(), {
      {"simnet.core_bytes", static_cast<double>(b.core_bytes - a.core_bytes)},
      {"gwdfs.local_read_frac",
       local + remote > 0 ? local / (local + remote) : 0.0},
      {"sim.events", events},
      {"trace.events_recorded",
       static_cast<double>(c.platform.sim().tracer().recorded())},
  });
  const double join = b.join_block_s - a.join_block_s;
  const double self = r.wall_s - join;
  r.host.insert(r.host.end(), {
      {"util.pool_busy_host_s", b.pool.busy_seconds - a.pool.busy_seconds},
      {"util.pool_tasks",
       static_cast<double>(b.pool.tasks_executed - a.pool.tasks_executed)},
      {"sim.join_wait_host_s", join},
      {"sim.thread_self_host_s", self},
      {"sim.host_us_per_event", events > 0 ? self / events * 1e6 : 0.0},
  });
}

void add_probe_metrics(Report& r, const KernelProbe::Totals* t) {
  auto s = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  if (t == nullptr) {
    r.na.insert(r.na.end(),
                {"apps.map_self_host_s", "apps.map_calls",
                 "apps.combine_host_s", "apps.reduce_host_s",
                 "apps.partition_host_s", "apps.split_host_s",
                 "core.collector.emit_host_s", "core.collector.emits"});
  }
  const KernelProbe::Totals z;
  const KernelProbe::Totals& x = t ? *t : z;
  r.host.insert(r.host.end(), {
      {"apps.map_self_host_s", s(x.map_ns - x.emit_ns)},
      {"apps.map_calls", d(x.map_calls)},
      {"apps.combine_host_s", s(x.combine_ns)},
      {"apps.reduce_host_s", s(x.reduce_ns)},
      {"apps.partition_host_s", s(x.partition_ns)},
      {"apps.split_host_s", s(x.split_ns)},
      {"core.collector.emit_host_s", s(x.emit_ns)},
      {"core.collector.emits", d(x.emits)},
  });
}

Span probe_span(const KernelProbe::Totals& t, int parent, int job) {
  auto s = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };
  Span sp;
  sp.name = "job.kernels";
  sp.start = t.first_ns ? host_s(t.first_ns) : 0;
  sp.end = t.last_ns ? host_s(t.last_ns) : 0;
  sp.parent = parent;
  sp.job = job;
  sp.attrs = {{"map_calls", static_cast<double>(t.map_calls)},
              {"emits", static_cast<double>(t.emits)},
              {"map_self_host_s", s(t.map_ns - t.emit_ns)},
              {"emit_host_s", s(t.emit_ns)},
              {"combine_host_s", s(t.combine_ns)},
              {"reduce_host_s", s(t.reduce_ns)},
              {"partition_host_s", s(t.partition_ns)},
              {"split_host_s", s(t.split_ns)}};
  return sp;
}

// --- output oracles ---------------------------------------------------

using Counts = std::map<std::string, std::uint64_t>;

// A job's output files, read back in partition order.
struct Output {
  std::vector<util::Bytes> files;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
};

// Reads a job's output and folds it, file names included, into the run's
// output digest. Output::digest covers the contents only.
Output read_outputs(Cluster& c, Report& r, std::vector<std::string> files) {
  std::sort(files.begin(), files.end());
  Output out;
  for (const auto& f : files) {
    out.files.push_back(c.read(f));
    mix(out.digest, out.files.back().data(), out.files.back().size());
    mix(r.output_digest, f.data(), f.size());
  }
  mix(r.output_digest, &out.digest, sizeof(out.digest));
  return out;
}

// Compares counting-job output (WordCount, PageviewCount) against its
// reference; returns an empty string when they match.
std::string check_counts(const std::vector<util::Bytes>& files,
                         const Counts& ref) {
  std::vector<std::pair<std::string, std::uint64_t>> got;
  for (const auto& f : files) {
    for (auto& [k, v] : core::read_output_file(f)) {
      got.emplace_back(std::move(k), apps::parse_u64(v));
    }
  }
  std::sort(got.begin(), got.end());
  std::uint64_t missing = 0;
  std::uint64_t wrong = 0;
  std::uint64_t extra = 0;
  auto it = got.begin();
  for (const auto& [k, n] : ref) {
    for (; it != got.end() && it->first < k; ++it) ++extra;
    if (it == got.end() || it->first != k) {
      ++missing;
      continue;
    }
    if (it->second != n) ++wrong;
    ++it;
  }
  extra += static_cast<std::uint64_t>(got.end() - it);
  if (missing + wrong + extra == 0) return {};
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu output keys vs %zu expected: %" PRIu64 " missing, %" PRIu64
                " wrong counts, %" PRIu64 " unexpected or duplicate",
                got.size(), ref.size(), missing, wrong, extra);
  return buf;
}

// TeraSort: globally ordered across partition files, every record kept.
std::string check_sorted(const std::vector<util::Bytes>& files,
                         const util::Bytes& input) {
  std::uint64_t count = 0;
  std::uint64_t checksum = 0;
  std::string prev;
  bool ordered = true;
  for (const auto& f : files) {
    for (const auto& [k, v] : core::read_output_file(f)) {
      if (k < prev) ordered = false;
      prev = k;
      const std::string record = k + v;
      checksum ^= util::fnv1a(record.data(), record.size());
      ++count;
    }
  }
  const std::uint64_t want = input.size() / apps::kTeraRecordSize;
  std::string err;
  if (!ordered) err += "output not globally ordered; ";
  if (count != want) {
    err += "record count " + std::to_string(count) + " != " +
           std::to_string(want) + "; ";
  }
  if (checksum != apps::terasort_checksum(input)) err += "checksum mismatch";
  return err;
}

void record_problem(Report& r, const std::string& what,
                    const std::string& err) {
  if (err.empty()) return;
  ++r.failed;
  r.problems.push_back(what + ": " + err);
}

// --- workloads --------------------------------------------------------

int host_span(Report& r, const char* name, std::int64_t a, std::int64_t b,
              int parent) {
  Span s;
  s.name = name;
  s.start = host_s(a);
  s.end = host_s(b);
  s.parent = parent;
  return add_span(r, std::move(s));
}

// Builds a cluster and stages one generated input as /in/data, timing the
// generator and the DFS staging separately.
template <typename Generate>
std::unique_ptr<Cluster> setup_one_input(Report& r, int nodes,
                                         Generate generate) {
  auto c = std::make_unique<Cluster>(nodes);
  const std::int64_t t0 = now_ns();
  util::Bytes data = generate();
  const std::int64_t t1 = now_ns();
  c->stage("/in/data", std::move(data));
  r.gen_s = static_cast<double>(t1 - t0) * 1e-9;
  r.stage_s = static_cast<double>(now_ns() - t1) * 1e-9;
  return c;
}

// wc-8n-64m: one WordCount job over 64 MiB of Zipf text on 8 nodes.
struct WordCountWorkload {
  static constexpr int kNodes = 8;
  static constexpr std::uint64_t kBytes = 64ull << 20;

  std::unique_ptr<Cluster> setup(Report& r, std::uint64_t seed) {
    return setup_one_input(r, kNodes,
                           [&] { return apps::generate_wiki_text(kBytes, seed); });
  }

  void run(Report& r, Cluster& c, bool traced, bool full_check, int timed) {
    core::JobConfig cfg;
    cfg.input_paths = {"/in/data"};
    cfg.output_path = "/out";
    cfg.split_size = 256ull << 10;
    auto probe = std::make_unique<KernelProbe>();
    const core::AppKernels base = apps::wordcount().kernels;
    const core::AppKernels app =
        traced ? perfbench::probe_kernels(base, *probe) : base;

    const Snap before = snap(c);
    const core::JobResult res = c.runtime.run(app, cfg);
    const Snap after = snap(c);

    add_phase_metrics(r, c, before, after);
    add_sojourn_metrics(r, {res.elapsed_seconds}, res.elapsed_seconds);
    add_job_metrics(r, {&res});
    add_dag_metrics(r, nullptr);
    add_sched_metrics(r, nullptr);
    const KernelProbe::Totals t = probe->totals();
    add_probe_metrics(r, &t);
    if (traced) add_span(r, probe_span(t, timed, 0));

    r.attempted = 1;
    const Output out = read_outputs(c, r, res.output_files);
    if (full_check) {
      record_problem(r, "wc job",
                     check_counts(out.files, apps::wordcount_reference(
                                             c.read("/in/data"))));
    }
  }
};

// ts-dag-16n: two-round TeraSort sample sort of 1 M records on 16 nodes,
// pinned sample edge and pinned input cache.
struct TeraSortWorkload {
  static constexpr int kNodes = 16;
  static constexpr std::uint64_t kRecords = 1000000;

  std::unique_ptr<Cluster> setup(Report& r, std::uint64_t seed) {
    return setup_one_input(
        r, kNodes, [&] { return apps::generate_terasort(kRecords, seed); });
  }

  void run(Report& r, Cluster& c, bool traced, bool full_check, int timed) {
    core::DagConfig dc;
    dc.input_paths = {"/in/data"};
    dc.output_root = "/out";
    dc.base.split_size = 256ull << 10;
    dc.pin_inputs = true;

    const Snap before = snap(c);
    const core::DagResult dag = apps::terasort_dag(
        c.runtime, c.platform, c.fs, std::move(dc), core::EdgeKind::kPinned);
    const Snap after = snap(c);

    add_phase_metrics(r, c, before, after);
    add_sojourn_metrics(r, {dag.elapsed_seconds}, dag.elapsed_seconds);
    std::vector<const core::JobResult*> jobs;
    for (const auto& rr : dag.rounds) jobs.push_back(&rr.job);
    add_job_metrics(r, jobs);
    add_dag_metrics(r, &dag);
    add_sched_metrics(r, nullptr);
    // terasort_dag builds its round kernels internally: nothing to wrap.
    add_probe_metrics(r, nullptr);
    if (traced) {
      double t = 0;
      for (const auto& rr : dag.rounds) {
        Span s;
        s.name = "round." + rr.name;
        s.clock = "sim";
        s.start = t;
        s.end = t + rr.job.elapsed_seconds;
        s.parent = timed;
        s.job = rr.round;
        s.attrs = {{"output_pairs",
                    static_cast<double>(rr.job.stats.output_pairs)}};
        t = s.end;
        add_span(r, std::move(s));
      }
    }

    r.attempted = 1;
    const Output out = read_outputs(c, r, dag.final_outputs);
    if (full_check) {
      record_problem(r, "terasort dag",
                     check_sorted(out.files, c.read("/in/data")));
    }
  }
};

// mt-fair-100: 100 mixed wc/pvc/terasort jobs from 2 tenants, Poisson
// arrivals at 48 jobs/s, fair policy with preemption and elastic slots.
// Inputs are 256 KiB (small) and 2 MiB (large), so one scheduled run takes
// about 4 s of host time and a measurement holds several repetitions; at
// this rate the cluster still keeps up with the offered load (about 45 of
// 48 jobs/s finish), with queueing and preemptions.
struct MultiTenantWorkload {
  static constexpr int kNodes = 8;
  static constexpr std::uint64_t kTraceSeed = 1;

  static apps::WorkloadConfig config(std::uint64_t seed) {
    apps::WorkloadConfig wl;
    wl.jobs = 100;
    wl.tenants = 2;
    wl.arrival_rate_jobs_per_s = 48;
    wl.seed = seed;
    wl.small_bytes = 256ull << 10;
    wl.large_bytes = 2ull << 20;
    return wl;
  }

  std::uint64_t seed = 0;
  std::vector<core::JobRequest> requests;

  std::unique_ptr<Cluster> setup(Report& r, std::uint64_t s) {
    seed = s;
    auto c = std::make_unique<Cluster>(kNodes);
    const std::int64_t t0 = now_ns();
    requests = fixed_trace(
        apps::make_mixed_workload(c->platform, c->fs, config(seed)));
    r.stage_s = static_cast<double>(now_ns() - t0) * 1e-9;
    return c;
  }

  // make_mixed_workload draws the input data, the job mix and the arrival
  // times from one seed. The benchmark keeps the data, and the kernels,
  // partitioners and configs built on it, and re-deals the job sequence the
  // same way from a fixed trace seed: every --seed offers the same traffic
  // (job kinds, tenants, arrival times) over different data. For
  // --seed == kTraceSeed the result is make_mixed_workload's own.
  static std::vector<core::JobRequest> fixed_trace(
      std::vector<core::JobRequest> seeded) {
    const apps::WorkloadConfig wl = config(kTraceSeed);
    std::map<std::string, core::JobRequest> kinds;
    for (auto& req : seeded) kinds.try_emplace(req.name, std::move(req));
    static const char* const kKinds[] = {"wc", "pvc", "tera"};
    core::TrafficGen gen(kTraceSeed, wl.arrival_rate_jobs_per_s);
    std::vector<core::JobRequest> out;
    for (int i = 0; i < wl.jobs; ++i) {
      const int tenant = i % wl.tenants;
      const bool large = tenant == 0;
      const std::string name =
          std::string(kKinds[gen.pick(3)]) + (large ? "-large" : "-small");
      const auto it = kinds.find(name);
      GW_CHECK_MSG(it != kinds.end(), "seeded workload lacks a job kind");
      core::JobRequest req = it->second;
      req.tenant = tenant;
      req.priority = large ? 1 : 0;
      req.arrival_s = gen.next_arrival_s();
      req.config.output_path = "/mt/out/j" + std::to_string(i);
      out.push_back(std::move(req));
    }
    return out;
  }

  // make_mixed_workload generates and stages in one call; the traced run
  // times the generators again, on the same arguments, to split setup.
  double regenerate_seconds() const {
    const apps::WorkloadConfig wl = config(seed);
    const std::int64_t t0 = now_ns();
    apps::generate_wiki_text(wl.small_bytes, wl.seed);
    apps::generate_wiki_text(wl.large_bytes, wl.seed + 1);
    apps::generate_weblog(wl.small_bytes, wl.seed + 2);
    apps::generate_weblog(wl.large_bytes, wl.seed + 3);
    apps::generate_terasort(wl.small_bytes / apps::kTeraRecordSize,
                            wl.seed + 4);
    apps::generate_terasort(wl.large_bytes / apps::kTeraRecordSize,
                            wl.seed + 5);
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  void run(Report& r, Cluster& c, bool traced, bool full_check, int timed) {
    core::SchedulerConfig sc;
    sc.policy = core::SchedPolicy::kFair;
    sc.max_resident_jobs = 2;
    sc.preemption = true;
    sc.elastic_slots = true;
    core::Scheduler sched(c.runtime, c.platform, c.fs, sc);

    std::vector<std::unique_ptr<KernelProbe>> probes;
    std::vector<std::string> inputs;  // by job id
    for (auto& req : requests) {
      inputs.push_back(req.config.input_paths.front());
      probes.push_back(std::make_unique<KernelProbe>());
      if (traced) req.app = perfbench::probe_kernels(req.app, *probes.back());
      sched.submit(std::move(req));
    }
    requests.clear();

    const Snap before = snap(c);
    sched.run_all();
    const Snap after = snap(c);
    const double makespan = after.sim_now - before.sim_now;

    add_phase_metrics(r, c, before, after);
    std::vector<double> sojourn;
    std::vector<const core::JobResult*> jobs;
    for (const auto& j : sched.results()) {
      mix(r.jobs_digest, j.arrival_s);
      mix(r.jobs_digest, j.admit_s);
      mix(r.jobs_digest, j.finish_s);
      if (j.rejected || j.failed) continue;
      sojourn.push_back(j.latency_s);
      jobs.push_back(&j.result);
    }
    add_sojourn_metrics(r, sojourn, makespan);
    add_job_metrics(r, jobs);
    add_dag_metrics(r, nullptr);
    add_sched_metrics(r, &sched);
    KernelProbe::Totals all;
    for (const auto& p : probes) all += p->totals();
    add_probe_metrics(r, &all);

    if (traced) {
      for (const auto& j : sched.results()) {
        Span s;
        s.name = "job." + j.name;
        s.clock = "sim";
        s.start = j.arrival_s;
        s.end = j.finish_s;
        s.parent = timed;
        s.job = j.job_id;
        s.attrs = {{"tenant", static_cast<double>(j.tenant)},
                   {"admit_s", j.admit_s},
                   {"queue_wait_s", j.queue_wait_s},
                   {"preemptions", static_cast<double>(j.preemptions)},
                   {"rejected", j.rejected ? 1.0 : 0.0},
                   {"failed", j.failed ? 1.0 : 0.0}};
        const int parent = add_span(r, std::move(s));
        add_span(r, probe_span(
                        probes[static_cast<std::size_t>(j.job_id)]->totals(),
                        parent, j.job_id));
      }
    }

    // Jobs on the same input must produce the same output. Each distinct
    // output is checked against the reference once; a job whose output is
    // byte-identical to a checked one needs no second check.
    r.attempted = sched.jobs_submitted();
    std::map<std::string, util::Bytes> data;  // input path -> contents
    std::map<std::string, Counts> refs;       // input path -> reference
    std::map<std::string, std::uint64_t> verified;  // input path -> digest
    for (const auto& j : sched.results()) {
      const std::string what = "job " + std::to_string(j.job_id) + " [" +
                               j.name + "]";
      if (j.rejected || j.failed) {
        record_problem(r, what, j.rejected ? "rejected" : "failed");
        continue;
      }
      const std::string& input = inputs[static_cast<std::size_t>(j.job_id)];
      const Output out = read_outputs(c, r, j.result.output_files);
      if (!full_check) continue;
      const auto seen = verified.find(input);
      if (seen != verified.end() && seen->second == out.digest) continue;
      if (!data.count(input)) data[input] = c.read(input);
      std::string err;
      if (j.name.rfind("tera", 0) == 0) {
        err = check_sorted(out.files, data[input]);
      } else {
        if (!refs.count(input)) {
          refs[input] = j.name.rfind("wc", 0) == 0
                            ? apps::wordcount_reference(data[input])
                            : apps::pageview_reference(data[input]);
        }
        err = check_counts(out.files, refs[input]);
      }
      if (err.empty()) verified.emplace(input, out.digest);
      record_problem(r, what, err);
    }

    if (traced) {
      r.gen_s = regenerate_seconds();
      r.stage_s = std::max(0.0, r.setup_s - r.gen_s);
    }
  }
};

// Runs setup, the timed phase and the output check of one workload, then
// repeats setup alone within --setup-budget seconds.
template <typename W>
Report run_workload(const Args& a) {
  Report r;
  W w;
  const std::int64_t s0 = now_ns();
  std::unique_ptr<Cluster> c = w.setup(r, a.seed);
  const std::int64_t s1 = now_ns();
  r.setup_s = static_cast<double>(s1 - s0) * 1e-9;
  r.setup_samples.push_back(r.setup_s);
  const int run = host_span(r, "run", s0, s0, -1);
  host_span(r, "setup", s0, s1, run);
  const int timed = host_span(r, "timed", s1, s1, run);
  w.run(r, *c, a.traced, a.full_check, timed);
  Span& t = r.spans[static_cast<std::size_t>(timed)];
  t.start = host_s(r.timed_ns.first);
  t.end = host_s(r.timed_ns.second);
  host_span(r, "check", r.timed_ns.second, now_ns(), run);
  c.reset();

  // Extra setups for a steadier setup_s median, while they fit in the
  // budget; after the peak-RSS reading so they cannot raise it.
  double spent = 0;
  while (r.setup_samples.size() < 20 &&
         spent + r.setup_samples.back() <= a.setup_budget_s) {
    Report scratch;
    W again;
    const std::int64_t e0 = now_ns();
    std::unique_ptr<Cluster> c2 = again.setup(scratch, a.seed);
    r.setup_samples.push_back(static_cast<double>(now_ns() - e0) * 1e-9);
    spent += r.setup_samples.back();
  }
  r.spans[static_cast<std::size_t>(run)].end = host_s(now_ns());
  r.host.insert(r.host.begin(), {{"apps.gen_host_s", r.gen_s},
                                 {"gwdfs.stage_host_s", r.stage_s}});
  return r;
}

// --- report output ----------------------------------------------------

void put_metrics(std::FILE* f, const char* key, const Metrics& m) {
  std::fprintf(f, "  \"%s\": {", key);
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %.17g", i ? ", " : "", m[i].first.c_str(),
                 m[i].second);
  }
  std::fprintf(f, "}");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(ch);
  }
  return out;
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

void write_report(std::FILE* f, const Args& a, const Report& r) {
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %" PRIu64
                  ",\n  \"traced\": %s,\n",
               a.workload.c_str(), a.seed, a.traced ? "true" : "false");
  const char* threads = std::getenv("GW_THREADS");
  std::fprintf(f,
               "  \"context\": {\"nproc\": %u, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\", \"optimized\": %s, "
               "\"gw_threads\": \"%s\", \"pool_threads\": %zu},\n",
               std::thread::hardware_concurrency(), GW_BENCH_COMPILER,
               GW_BENCH_BUILD_TYPE, optimized_build() ? "true" : "false",
               threads ? threads : "", util::ThreadPool::global().thread_count());
  std::fprintf(f,
               "  \"host\": {\"setup_s\": %.9g, \"wall_s\": %.9g, "
               "\"cpu_s\": %.9g, \"peak_rss_mb\": %.6g},\n",
               r.setup_s, r.wall_s, r.cpu_s, r.peak_rss_mb);
  std::fprintf(f, "  \"setup_samples\": [");
  for (std::size_t i = 0; i < r.setup_samples.size(); ++i) {
    std::fprintf(f, "%s%.9g", i ? ", " : "", r.setup_samples[i]);
  }
  std::fprintf(f, "],\n");
  put_metrics(f, "sim", r.sim);
  std::fprintf(f, ",\n");
  put_metrics(f, "layers", r.host);
  std::fprintf(f, ",\n  \"na\": [");
  for (std::size_t i = 0; i < r.na.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", r.na[i].c_str());
  }
  std::fprintf(f,
               "],\n  \"output_digest\": \"%016" PRIx64
               "\",\n  \"jobs_digest\": \"%016" PRIx64 "\",\n",
               r.output_digest, r.jobs_digest);
  std::fprintf(f, "  \"attempted\": %d,\n  \"failed\": %d,\n  \"problems\": [",
               r.attempted, r.failed);
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                 json_escape(r.problems[i]).c_str());
  }
  std::fprintf(f, "]\n}\n");
}

void write_spans(std::FILE* f, const Report& r) {
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"clock\": \"%s\", "
                 "\"start\": %.9f, \"end\": %.9f, \"parent\": %d, "
                 "\"job\": %d, \"attrs\": {",
                 i, json_escape(s.name).c_str(), s.clock, s.start, s.end,
                 s.parent, s.job);
    for (std::size_t k = 0; k < s.attrs.size(); ++k) {
      std::fprintf(f, "%s\"%s\": %.9g", k ? ", " : "",
                   s.attrs[k].first.c_str(), s.attrs[k].second);
    }
    std::fprintf(f, "}}%s\n", i + 1 < r.spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "gwbench: %s\nusage: gwbench --workload wc-8n-64m|ts-dag-16n|"
               "mt-fair-100 --seed N [--trace 0|1] [--check full|digest] "
               "[--setup-budget SECONDS] [--out FILE] [--spans FILE]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--trace") a.traced = v == "1";
    else if (flag == "--check") a.full_check = v == "full";
    else if (flag == "--setup-budget") a.setup_budget_s = std::atof(v.c_str());
    else if (flag == "--out") a.out = v;
    else if (flag == "--spans") a.spans = v;
    else usage(("unknown flag " + flag).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  Report r;
  if (a.workload == "wc-8n-64m") r = run_workload<WordCountWorkload>(a);
  else if (a.workload == "ts-dag-16n") r = run_workload<TeraSortWorkload>(a);
  else if (a.workload == "mt-fair-100") r = run_workload<MultiTenantWorkload>(a);
  else usage(("unknown workload " + a.workload).c_str());

  std::FILE* out = a.out.empty() ? stdout : std::fopen(a.out.c_str(), "w");
  if (out == nullptr) {
    std::perror(a.out.c_str());
    return 1;
  }
  write_report(out, a, r);
  if (out != stdout) std::fclose(out);
  if (!a.spans.empty()) {
    std::FILE* f = std::fopen(a.spans.c_str(), "w");
    if (f == nullptr) {
      std::perror(a.spans.c_str());
      return 1;
    }
    write_spans(f, r);
    std::fclose(f);
  }
  return r.failed == 0 ? 0 : 1;
}
