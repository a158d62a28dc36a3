// The Glasswing 5-stage map and reduce pipelines (paper §III-A, §III-C).
//
// Map:    Input -> Stage -> Kernel -> Retrieve -> Partition
// Reduce: Input(merge) -> Stage -> Kernel -> Retrieve -> Output
//
// Stages are sim coroutines linked by channels. Data buffers come from two
// pools — the input group (Input/Stage/Kernel) and the output group
// (Kernel/Retrieve/Partition|Output) — each sized by the configured
// buffering level, which reproduces the single/double/triple-buffering
// interlocking of §III-D: with one buffer the stages of a group serialize,
// with more they overlap, and the two groups always run concurrently.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/api.h"
#include "core/collector.h"
#include "core/intermediate.h"
#include "gwcl/device.h"
#include "gwdfs/fs.h"
#include "simnet/fabric.h"
#include "simnet/transport.h"

namespace gw::core {

struct InputSplit {
  InputSplit() = default;
  InputSplit(std::string path_in, std::uint64_t offset_in, std::uint64_t len_in)
      : path(std::move(path_in)), offset(offset_in), len(len_in) {}

  std::string path;
  std::uint64_t offset = 0;
  std::uint64_t len = 0;
  std::vector<int> locations;  // nodes hosting the first block
  int index = -1;              // job-wide split number
  int attempt = 0;             // re-execution count (fault tolerance)
};

// Locality-aware dynamic split dispenser (the Glasswing job coordinator
// "considers file affinity in its job allocation", §IV-A). Single shared
// instance; nodes pull splits one at a time, preferring local blocks.
//
// For fault tolerance (§III-E) the scheduler also tracks per-split execution
// state: which node is running a split, which node committed its durable
// map output first, and which splits were lost to a node crash and await
// re-execution. Commit is first-finisher-wins, so speculative clones and
// zombie completions never double-count.
class SplitScheduler {
 public:
  explicit SplitScheduler(std::vector<InputSplit> splits);

  std::optional<InputSplit> next_for(int node);

  std::size_t remaining() const { return remaining_; }
  std::uint64_t local_grabs() const { return local_grabs_; }
  std::uint64_t remote_grabs() const { return remote_grabs_; }

  // --- node-crash recovery & straggler speculation (§III-E) ---
  // Records that `node` made split `index`'s map output durable. The first
  // committer wins; returns false for any later finisher (a speculative
  // loser). Zombie completions on crashed nodes must not commit.
  bool commit(int index, int node);
  // A node died: splits it was running or had committed return to the lost
  // pool for re-execution (their durable output died with it). A split
  // whose live speculative clone is still running is promoted, not lost.
  void on_crash(int node);
  bool has_lost() const { return !lost_.empty(); }
  // Recovery-round handout of a lost split, lowest index first (locality is
  // moot for regenerated work). Bumps the attempt counter.
  std::optional<InputSplit> next_lost(int node);
  // Straggler speculation: clones the lowest-indexed in-flight split that
  // has no clone yet and is not running on `node`. Only meaningful once
  // next_for is exhausted (the caller's idle condition).
  std::optional<InputSplit> next_speculative(int node);
  std::uint64_t reexecutions() const { return reexecutions_; }
  std::uint64_t speculative_wins() const { return spec_wins_; }
  std::uint64_t speculative_losses() const { return spec_losses_; }

  // --- checkpoint-based preemption (core::Scheduler) ---
  // Re-applies a commit recorded by a previous (suspended) residency:
  // marks the split taken and durable on `node` so next_for never hands it
  // out again. Split indices are stable across runs (make_splits is
  // deterministic for a given config).
  void restore_commit(int index, int node);
  // All (index, committer) pairs durable so far, index-ascending — the
  // map-side progress a suspending job checkpoints.
  std::vector<std::pair<int, int>> committed_splits() const;

  // Enumerates block-aligned, record-aligned-later splits of the inputs.
  static std::vector<InputSplit> make_splits(const dfs::FileSystem& fs,
                                             const std::vector<std::string>& paths,
                                             std::uint64_t split_size);

 private:
  // Per-split execution record; indices match splits_.
  struct TaskState {
    int runner = -1;        // node of the latest primary handout
    int clone = -1;         // speculative runner, -1 = none
    int committed_by = -1;  // first committer, -1 = not durable yet
    int attempts = 0;       // handouts beyond the first
  };

  std::vector<InputSplit> splits_;
  std::vector<bool> taken_;
  std::vector<TaskState> state_;
  std::vector<int> lost_;  // split indices awaiting re-execution (sorted)
  std::size_t remaining_ = 0;
  std::uint64_t local_grabs_ = 0;
  std::uint64_t remote_grabs_ = 0;
  std::uint64_t reexecutions_ = 0;
  std::uint64_t spec_wins_ = 0;
  std::uint64_t spec_losses_ = 0;
};

// Host-side record of the map runs a node made durable: for every produced
// run, a copy keyed by global partition and dedup tag. When a reduce
// partition is reassigned off a crashed node, survivors re-send their
// recorded runs for it from local disk instead of re-running the map tasks
// that produced them; a resumed residency replays it the same way. Kept
// only when JobConfig::records_map_outputs(), i.e. when one of those
// readers can exist (the copies cost peak memory).
struct MapOutputLedger {
  std::map<int, std::vector<std::pair<std::uint64_t, Run>>> runs;

  void record(int g, std::uint64_t tag, const Run& run) {
    runs[g].emplace_back(tag, run);
  }
};

// Durable remainder of a suspended (preempted) job, captured at suspension
// and replayed by the next residency. Nothing here is a new persistence
// format: the ledgers are each node's MapOutputLedger (host-side provenance
// of runs whose bytes live on its local disk), committed splits are stable
// job-wide split indices (make_splits is deterministic), and reduced
// partitions are implied by their committed output files on the DFS.
struct ResumeState {
  std::map<int, int> committed_splits;    // split index -> node that holds it
  // Per node; moved into the next residency, which replays it. Empty for
  // a node that crashed (its disk died with it).
  std::vector<MapOutputLedger> ledgers;
  // Per node, Simulation::node_crashes at suspension: a node whose count
  // moved by the resume crashed while the job was suspended, so its
  // ledger and its commits died with its disk.
  std::vector<std::uint64_t> crash_counts;
  // The next residency starts its result from these: counters, output
  // files and elapsed time keep accumulating across residencies.
  std::vector<std::string> output_files;  // partitions reduced pre-suspension
  JobStats stats;                         // counters accumulated pre-suspension
  double elapsed_s = 0;                   // residency time before suspension
};

// Scheduler<->job preemption handshake. The scheduler sets `requested`; the
// running job observes it at task boundaries (split dispatch, per-partition
// reduce), winds down cleanly, captures its ResumeState and sets
// `suspended`. The scheduler then requeues the job and clears the flags
// before the next residency; `preemptions > 0` marks a resumed run.
struct PreemptControl {
  bool requested = false;
  bool suspended = false;
  int preemptions = 0;  // completed suspensions so far
  ResumeState state;    // valid iff preemptions > 0
};

class NodeCombiner;  // hierarchical combining (combine.h)

// Everything a per-node pipeline needs.
struct NodeContext {
  cluster::Platform* platform = nullptr;
  cluster::Node* node = nullptr;
  dfs::FileSystem* fs = nullptr;
  cl::Device* device = nullptr;
  IntermediateStore* store = nullptr;
  // Per-node memory governor; null = ungoverned (buffers are unbounded).
  MemoryGovernor* mem = nullptr;
  const JobConfig* config = nullptr;
  const AppKernels* app = nullptr;
  int node_id = 0;
  int num_nodes = 1;
  int total_partitions = 1;
  // Map-tier hierarchical combiner; null = every remote-destined partition
  // run is sent on its own. When set, those runs route through it instead
  // (local runs still go straight to the store). Always null during
  // recovery rounds: replayed provenance stays uncombined.
  NodeCombiner* combiner = nullptr;
  // The job's counters and committed output files, shared by every node:
  // each pipeline stage adds to them where the event happens.
  JobStats* stats = nullptr;
  std::vector<std::string>* output_files = nullptr;

  // --- multi-tenant slot gates (core::Scheduler) ---
  // Per-node counted slot pools shared by every resident job; node_main
  // acquires one around its map / reduce phase so concurrent jobs time-share
  // the node instead of all running at once. Null = ungated (a solo job:
  // zero extra awaits).
  sim::Resource* map_slot = nullptr;
  sim::Resource* reduce_slot = nullptr;
  // Elastic mode: the slot pools above are per-job and scheduler-resized,
  // and they gate individual tasks (one split / one reduce partition per
  // slot) instead of whole phases.
  bool elastic_slots = false;

  // --- checkpoint-based preemption (core::Scheduler) ---
  // Non-null = the job may be asked to suspend; the map pipeline stops
  // dispensing fresh splits and the reduce loop stops at the next partition
  // boundary once `preempt->requested` is set.
  const PreemptControl* preempt = nullptr;

  bool preempt_requested() const {
    return preempt != nullptr && preempt->requested;
  }

  // --- fault tolerance (§III-E) ---
  // Global partition -> owning node; reassigned away from crashed nodes.
  // JobExec::setup points this and `failed_nodes` at the job's shared state.
  const std::vector<int>* partition_owner = nullptr;
  int shuffle_port = net::kPortShuffle;
  bool recovery = false;  // map pipeline re-executes lost splits this round
  MapOutputLedger* ledger = nullptr;  // non-null iff records_map_outputs()
  // Nodes that ever crashed, even if later restarted. A restarted node is
  // alive again for the Simulation/transport but never rejoins the job, so
  // every "should I keep doing job work / may I commit" check must consult
  // this set and not just Simulation::node_alive (which flips back to true
  // at restart and would resurrect zombie pipelines).
  const std::set<int>* failed_nodes = nullptr;

  int owner_of(int g) const {
    return (*partition_owner)[static_cast<std::size_t>(g)];
  }

  bool self_live() const {
    return sim().node_alive(node_id) && failed_nodes->count(node_id) == 0;
  }

  sim::Simulation& sim() const { return platform->sim(); }
};

// Push-shuffle wire framing of one uncombined run: the u32 global
// partition id, then the serialized run.
util::Bytes encode_run_frame(int g, const Run& run);

// Combined-run wire framing on kPortShuffle / kPortRackAgg when a combine
// mode is active: u32 g | u32 ntags | ntags x u64 tags | serialized run.
// (Recovery ports keep encode_run_frame.)
util::Bytes encode_combined_frame(int g,
                                  const std::vector<std::uint64_t>& tags,
                                  const Run& run);

// Spawnable send that tolerates a node crash racing the transfer: a
// NodeDownError (either endpoint) is swallowed — recovery regenerates the
// data or re-sends it from the map-output ledger.
sim::Task<> send_dropping(NodeContext ctx, int dst, int port,
                          net::TrafficClass tc, util::Bytes wire,
                          std::uint64_t tag);

// Runs the complete map pipeline on one node, feeding the local store and
// pushing remote partitions over the fabric. Completes when every split
// assigned to this node has been partitioned AND all shuffle sends have
// been handed to the network. Counters go to *ctx.stats; stage busy times
// and phase boundaries live in the trace (trace::Tracer::occupancy).
sim::Task<> run_map_phase(NodeContext ctx, SplitScheduler& scheduler);

// Output file for global partition `g` under the job's output path.
std::string partition_output_path(const JobConfig& config, int g);

// Runs the reduce pipeline over the given global partitions (drained
// store). Jobs without a reduce function (TeraSort) merge and write
// directly. In a failure-free job the list is the node's statically owned
// ids; after a crash it is whatever the (reassigned) owner map says.
// Committed files are appended to *ctx.output_files.
sim::Task<> run_reduce_phase(NodeContext ctx, std::vector<int> partitions);

// Output files are uncompressed Runs wrapped with Run::serialize; helper to
// read one back as pairs (used by tests, benches and examples).
std::vector<std::pair<std::string, std::string>> read_output_file(
    const util::Bytes& file_contents);

// Record splitter framing a serialized reduce-output Run into one record
// per encoded pair, so a round's output files can feed the next round's
// map input directly (DAG data edges). Each record is a complete framed
// pair (varint klen, varint vlen, key, value) decodable with
// decode_pair_record. Only valid when every input file is a single split
// — the Run header sits at offset 0 — so rounds consuming reduce output
// must set split_size >= the largest input file.
RecordSplitFn run_output_record_splitter();
std::pair<std::string_view, std::string_view> decode_pair_record(
    std::string_view record);

// Split input helpers shared with the baseline runtimes (identical record
// framing keeps the comparisons apples-to-apples).
//
// Reads a split aligned to record boundaries: fixed-size records round to
// record multiples; text lines belong to the split containing their first
// byte (standard MapReduce semantics).
sim::Task<util::Bytes> read_aligned_split(dfs::FileSystem& fs, int node,
                                          const AppKernels& app,
                                          const InputSplit& split);

// Record start offsets within an aligned chunk.
std::vector<std::uint64_t> frame_records(const AppKernels& app,
                                         std::string_view chunk);

}  // namespace gw::core
