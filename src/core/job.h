// Glasswing job runtime: the public entry point of the framework.
//
// A GlasswingRuntime binds a cluster Platform, a FileSystem and a compute
// DeviceSpec, and executes MapReduce jobs: on every node it instantiates the
// map pipeline, the intermediate-data manager with its merger threads and
// shuffle receiver, and — once merging finishes — the reduce pipeline
// (execution model of §III: map and merge run concurrently per node; reduce
// starts after the merge phase completes).
//
// Glasswing is "structured in the form of a light-weight software library"
// (§I): construct a runtime, call run(), read the JobResult.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/api.h"
#include "core/pipeline.h"
#include "gwcl/device.h"
#include "gwdfs/fs.h"

namespace gw::core {

class MemoryGovernor;

// Shared-cluster execution environment a core::Scheduler hands to every
// resident job (run_async): per-node map/reduce slot gates so concurrent
// jobs time-share each node's pipelines, and optionally per-node memory
// governors shared across tenants (one budget per node, not per job).
// Empty vectors mean ungated / per-job governors. Only the scheduler passes
// a JobEnv; its presence marks a shared-cluster job, which leaves the trace
// to its neighbours (never clears it) and may start with nodes already dead.
struct JobEnv {
  std::vector<sim::Resource*> map_slots;     // per node; empty = ungated
  std::vector<sim::Resource*> reduce_slots;  // per node; empty = ungated
  std::vector<MemoryGovernor*> governors;    // per node; empty = per-job
  // Elastic mode: the slot vectors are per-JOB pools the scheduler resizes
  // as residency changes, and slots gate individual tasks (one split / one
  // reduce partition per slot) instead of whole phases.
  bool elastic = false;
  // Non-null = the job is preemptable; also carries resume state when the
  // job was previously suspended (preemptions > 0).
  PreemptControl* preempt = nullptr;
};

class GlasswingRuntime {
 public:
  // One compute device per node, built from `device`; CPU-type devices share
  // the node's host cores (so kernels contend with pipeline host threads).
  GlasswingRuntime(cluster::Platform& platform, dfs::FileSystem& fs,
                   cl::DeviceSpec device);

  // Per-phase device selection ("map and reduce tasks can be executed on
  // CPUs or GPUs", §II): e.g. map on the GPU, reduce on the CPU.
  GlasswingRuntime(cluster::Platform& platform, dfs::FileSystem& fs,
                   cl::DeviceSpec map_device, cl::DeviceSpec reduce_device);

  // Heterogeneous clusters ("some, but not all, nodes have GPUs", §II):
  // one device spec per node; the dynamic split scheduler load-balances,
  // so faster nodes naturally process more splits.
  GlasswingRuntime(cluster::Platform& platform, dfs::FileSystem& fs,
                   std::vector<cl::DeviceSpec> per_node_devices);

  // Runs the job to completion on the platform's simulation and returns the
  // measured result. Output correctness: files under config.output_path,
  // one per non-empty partition, readable with read_output_file().
  //
  // `fs_override` replaces the bound filesystem for this job only; the DAG
  // runtime passes its PinnedFs overlay so rounds read and write through
  // the pinned intermediate store. Null = the constructor-bound fs.
  //
  // A driver of run_async(): it spawns the job, runs the event loop until it
  // drains, and rethrows the job's failure. The job's elapsed time ends when
  // its last node finishes; events after that (a later crash, its detection
  // timer, DFS re-replication) still run but are not charged to it.
  JobResult run(const AppKernels& app, JobConfig config,
                dfs::FileSystem* fs_override = nullptr);

  // The one job execution path, as a coroutine. N concurrent invocations
  // (core::Scheduler) share the platform's simulation, each confined to its
  // own port namespace (config.port_base) and trace scope; teardown and the
  // quiesce assertion cover only that port range. The caller drives the
  // event loop. `env` supplies the scheduler's shared slot gates and
  // governors; null = a job alone on the cluster. The coroutine returns
  // when the job's last node finishes, which ends its elapsed time.
  sim::Task<JobResult> run_async(AppKernels app, JobConfig config,
                                 dfs::FileSystem* fs_override = nullptr,
                                 const JobEnv* env = nullptr);

  cl::Device& device(int node) { return *map_devices_.at(node); }
  cl::Device& reduce_device(int node) { return *reduce_devices_.at(node); }

 private:
  std::vector<std::unique_ptr<cl::Device>> make_devices(
      const cl::DeviceSpec& spec);

  cluster::Platform& platform_;
  dfs::FileSystem& fs_;
  std::vector<std::unique_ptr<cl::Device>> map_devices_;
  std::vector<std::unique_ptr<cl::Device>> reduce_devices_;
};

}  // namespace gw::core
