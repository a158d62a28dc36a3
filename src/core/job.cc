#include "core/job.h"

#include <algorithm>
#include <exception>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/combine.h"
#include "core/intermediate.h"
#include "core/memory.h"
#include "gwdfs/pinned.h"
#include "simnet/transport.h"
#include "util/error.h"

namespace gw::core {

namespace {

// Job-wide fault-tolerance state shared by every node's coroutine and the
// crash listener. The simulation is single-threaded, so plain members
// suffice; everything here is host-side bookkeeping that adds no simulated
// events when no crash is scheduled.
struct JobShared {
  std::vector<int> owner;  // global partition -> owning node
  int crash_epoch = 0;     // bumped once per node death
  std::set<int> failed;    // nodes that ever crashed (restarts stay out)

  // One recovery round per crash, keyed by the crash epoch that created it.
  struct Round {
    int crashed_node = -1;          // rack mode: was it an aggregator?
    std::vector<int> participants;  // job-live when the crash happened
    std::vector<int> reassigned;    // partitions moved off the dead node
    // EOS frames initiated on the round's port, recorded synchronously at
    // initiation. A node entering the round late uses this to count frames
    // already on the wire from senders that have died since (a real frame
    // and a compensated one for the same sender would otherwise
    // double-deliver).
    std::set<std::pair<int, int>> eos_sent;  // (src, dst)
    bool entered = false;  // some node has started executing it
  };
  std::map<int, Round> rounds;  // node-stable: entries are held across awaits

  // Who streams to whom on the main shuffle port. Flat (topo.rack_size 0):
  // every node alive at job start streams to every other one. Rack mode: a
  // node hears from its own rack's members plus one aggregator per other
  // rack, and closes only its own rack's streams itself (its aggregator
  // closes the forwarded ones).
  RackTopology topo;
  std::vector<int> start_live;  // nodes alive at job start, ascending
  std::vector<int> shuffle_senders(int dst) const {
    return topo.rack_size > 0 ? topo.shuffle_senders(dst) : start_live;
  }
  std::vector<int> shuffle_destinations(int src) const {
    return topo.rack_size > 0 ? topo.members(topo.rack_of(src)) : start_live;
  }

  // Completion barrier: a finished node parks instead of exiting, because a
  // later crash (e.g. during another node's reduce) can hand it new work.
  std::set<int> done_nodes;
  std::unique_ptr<sim::Event> park;  // replaced on every wake-up
  bool job_complete = false;

  // Preemption: set by any node that skipped remaining reduce work at a
  // task boundary because a suspend was requested. Distinguishes a genuine
  // suspension from a request that raced job completion.
  bool preempt_incomplete = false;

  bool job_live(const sim::Simulation& sim, int n) const {
    return sim.node_alive(n) && failed.count(n) == 0;
  }
};

// Per-node mutable state for one job run.
struct NodeRun {
  std::unique_ptr<MemoryGovernor> governor;  // null = ungoverned
  std::unique_ptr<IntermediateStore> store;
  std::unique_ptr<sim::Event> shuffle_done;
  trace::TrackRef phase_track;
  // Hierarchical combining (combine_mode != kOff): the map-tier combiner,
  // and on rack-aggregator nodes the rack-tier one.
  std::unique_ptr<NodeCombiner> combiner;
  std::unique_ptr<NodeCombiner> rack_combiner;
  MapOutputLedger ledger;  // populated only when cfg.records_map_outputs()
  int handled_epoch = 0;   // recovery rounds this node has executed
  std::set<int> reduced;   // global partitions this node already reduced
};

sim::Task<> shuffle_receiver(NodeContext ctx, int port, int expected,
                             sim::Event& done) {
  // Every expected sender announces end-of-stream with a transport EOS
  // frame; the receiver resolves once all of them arrived and the inbox
  // drained, then the port is released for reuse.
  net::Transport::Receiver rx =
      ctx.platform->transport().receiver(ctx.node_id, port, expected);
  for (;;) {
    auto msg = co_await rx.recv();
    if (!msg) break;
    util::ByteReader r(msg->payload);
    const int g = static_cast<int>(r.get_u32());
    // With a combine mode active, everything on the MAIN shuffle port is
    // combined-framed (encode_combined_frame) — recovery ports keep
    // encode_run_frame, replayed provenance stays uncombined.
    const bool combined =
        ctx.config->combine_mode != CombineMode::kOff &&
        port == ctx.config->port_base + net::kPortShuffle;
    std::vector<std::uint64_t> tags;
    if (combined) {
      tags.resize(r.get_u32());
      for (auto& t : tags) t = r.get_u64();
    }
    // Drain zombie deliveries unread: a dead node's store is never reduced
    // (and feeding it would initiate new cache-flush work on a dead
    // machine). A live node always still owns what was routed to it —
    // ownership only ever moves off dead nodes.
    if (!ctx.self_live()) continue;
    GW_CHECK_MSG(ctx.owner_of(g) == ctx.node_id,
                 "partition routed to wrong node");
    if (combined) {
      co_await ctx.store->add_combined_run(g, Run::deserialize(r),
                                           std::move(tags));
    } else {
      co_await ctx.store->add_run(g, Run::deserialize(r), msg->tag);
    }
  }
  done.set();
}

sim::Task<> broadcast_eos(NodeContext ctx, JobShared& shared, int port,
                          std::vector<int> dsts,
                          std::set<std::pair<int, int>>* sent);

// Rack-tier aggregation (CombineMode::kRack, aggregator nodes only):
// consumes the rack members' combined streams on kPortRackAgg, re-combines
// per partition, and forwards one consolidated stream to the partition
// owners across the core switch. Closes the aggregated stream toward every
// extra-rack node when done (members' streams were closed by their own
// member EOS; a dead aggregator's closures are crash-compensated instead).
sim::Task<> rack_aggregator(NodeContext ctx, JobShared& shared,
                            NodeCombiner& agg) {
  const RackTopology& topo = shared.topo;
  net::Transport::Receiver rx = ctx.platform->transport().receiver(
      ctx.node_id, ctx.config->port_base + net::kPortRackAgg,
      topo.members_of(topo.rack_of(ctx.node_id)));
  for (;;) {
    auto msg = co_await rx.recv();
    if (!msg) break;
    util::ByteReader r(msg->payload);
    const int g = static_cast<int>(r.get_u32());
    std::vector<std::uint64_t> tags(r.get_u32());
    for (auto& t : tags) t = r.get_u64();
    if (!ctx.self_live()) continue;  // zombie: drain the stream only
    co_await agg.add(g, std::move(tags), Run::deserialize(r));
  }
  if (ctx.self_live()) {
    co_await agg.drain();
  } else {
    agg.discard();  // a dead aggregator's staged data died with it
  }
  co_await broadcast_eos(ctx, shared,
                         ctx.config->port_base + net::kPortShuffle,
                         topo.outside_rack(ctx.node_id), nullptr);
}

// EOS broadcast with crash guards. Dead destinations are skipped (crash
// compensation stands in for their frames) and a sender that died stops
// initiating; `sent` (round ports) records each initiation for late round
// entrants. With every node alive it awaits one finish per destination.
sim::Task<> broadcast_eos(NodeContext ctx, JobShared& shared, int port,
                          std::vector<int> dsts,
                          std::set<std::pair<int, int>>* sent) {
  auto& sim = ctx.sim();
  for (int dst : dsts) {
    if (!ctx.self_live()) break;
    if (!shared.job_live(sim, dst)) continue;
    if (sent != nullptr) sent->insert({ctx.node_id, dst});
    co_await ctx.platform->transport().finish(ctx.node_id, dst, port);
  }
}

// Replays this node's map-output ledger for `parts` (ascending partitions
// present in the ledger): one amortized local-disk read of their stored
// runs, then each run re-enters the local store if this node owns its
// partition, or is framed and sent to the owner on ctx.shuffle_port under
// its original dedup tag. Sends join `sends`; returns their wire bytes.
sim::Task<std::uint64_t> replay_ledger(NodeContext ctx,
                                       const MapOutputLedger& ledger,
                                       std::vector<int> parts,
                                       sim::TaskGroup& sends) {
  std::uint64_t bytes = 0;
  for (int g : parts) {
    for (const auto& [tag, run] : ledger.runs.at(g)) bytes += run.stored_bytes();
  }
  if (ctx.self_live() && bytes > 0) {
    co_await ctx.node->disk_stream_read(bytes,
                                        cluster::Node::amortized_seek(bytes));
  }
  std::uint64_t wire_bytes = 0;
  for (int g : parts) {
    if (!ctx.self_live()) break;
    const int dest = ctx.owner_of(g);
    for (const auto& [tag, run] : ledger.runs.at(g)) {
      if (dest == ctx.node_id) {
        co_await ctx.store->add_run(g, run, tag);
      } else {
        util::Bytes wire = encode_run_frame(g, run);
        wire_bytes += wire.size();
        sends.spawn(send_dropping(ctx, dest, ctx.shuffle_port,
                                  net::TrafficClass::kShuffle,
                                  std::move(wire), tag));
      }
    }
  }
  co_return wire_bytes;
}

// Executes every recovery round this node has not handled yet (§III-E).
// Round r (== the r-th crash) re-runs, on the survivors, the map work whose
// durable output died with the crashed node, and re-feeds the partitions
// reassigned off it from the survivors' durable-output ledgers. Each round
// is a miniature map+shuffle+merge on its own port, so its traffic cannot
// be confused with the original shuffle or with other rounds.
sim::Task<> run_recovery_rounds(NodeContext ctx, SplitScheduler& scheduler,
                                NodeRun& state, JobShared& shared,
                                cl::Device* map_device) {
  auto& sim = ctx.sim();
  auto& tr = sim.tracer();
  net::Transport& tp = ctx.platform->transport();
  const JobConfig& cfg = *ctx.config;
  const auto rec_name = tr.intern(cfg.trace_scope + "phase.recovery");

  while (state.handled_epoch < shared.crash_epoch) {
    if (!ctx.self_live()) co_return;
    const int round = ++state.handled_epoch;
    GW_CHECK_MSG(round <= cfg.max_recovery_rounds,
                 "recovery exceeded max_recovery_rounds");
    JobShared::Round& rd = shared.rounds.at(round);
    if (!rd.entered) {
      rd.entered = true;
      ++ctx.stats->recovery_rounds;
    }
    const int port = cfg.port_base + net::kPortRecoveryBase + round;
    const std::vector<int>& participants = rd.participants;
    auto& sent = rd.eos_sent;

    // Expected senders on the round port: peers still in the job (their EOS
    // will arrive, or compensation injects it if they die — we register
    // before any of them can crash again), plus now-dead peers whose EOS to
    // us was already initiated before they died (the frame is on the wire).
    // Peers that died without initiating one are not expected and never
    // registered, so compensation cannot double-inject for them.
    int expected = 0;
    std::vector<int> registry;
    for (int p : participants) {
      if (sent.count({p, ctx.node_id}) > 0) {
        ++expected;
      } else if (shared.job_live(sim, p)) {
        registry.push_back(p);
        ++expected;
      }
    }
    tp.expect_senders(ctx.node_id, port, registry);

    tr.begin(state.phase_track, trace::Kind::kRecovery, rec_name, sim.now(),
             static_cast<std::uint64_t>(round));
    ctx.store->reopen();
    ctx.store->start_mergers();
    sim::Event rx_done(sim);

    NodeContext rctx = ctx;
    rctx.recovery = true;
    rctx.shuffle_port = port;
    rctx.device = map_device;
    // Recovery traffic is never combined: replayed runs travel individually
    // under their original dedup tags so the destinations' tag sets decide
    // exactly which constituents already arrived inside combined runs.
    rctx.combiner = nullptr;
    sim.spawn(shuffle_receiver(rctx, port, expected, rx_done));

    // Re-execute lost splits: regenerates the dead node's contributions to
    // every partition (byte-identical runs under the original dedup tags).
    co_await run_map_phase(rctx, scheduler);

    // Re-feed the reassigned partitions from the durable-output ledger: our
    // own past contributions for every partition moved this round, re-read
    // from local disk and re-sent to the new owner (no map re-execution).
    const std::vector<int>& moved = rd.reassigned;
    std::vector<int> resend;
    for (int g : moved) {
      if (state.ledger.runs.count(g) > 0) resend.push_back(g);
    }
    sim::TaskGroup sends(sim);
    co_await replay_ledger(rctx, state.ledger, resend, sends);

    // Rack mode: if this round's crash took our rack's aggregator, any of
    // our extra-rack contributions still staged in (or in flight to) it
    // died too. Re-send our ledger runs for every partition currently owned
    // outside the rack, individually on the round port — per-tag dedup at
    // the destinations drops whatever the aggregator already forwarded.
    // Partitions reassigned this round were already re-fed above.
    if (cfg.combine_mode == CombineMode::kRack) {
      const RackTopology& topo = shared.topo;
      if (rd.crashed_node == topo.aggregator_of(topo.rack_of(ctx.node_id))) {
        std::vector<int> agg_resend;
        for (const auto& [g, entries] : state.ledger.runs) {
          if (topo.same_rack(rctx.owner_of(g), ctx.node_id)) continue;
          if (std::binary_search(moved.begin(), moved.end(), g)) continue;
          agg_resend.push_back(g);
        }
        co_await replay_ledger(rctx, state.ledger, agg_resend, sends);
      }
    }
    co_await sends.wait();

    co_await broadcast_eos(rctx, shared, port, participants, &sent);
    co_await rx_done.wait();
    co_await ctx.store->drain();
    tr.end(state.phase_track, trace::Kind::kRecovery, rec_name, sim.now(),
           static_cast<std::uint64_t>(round));
  }
}

sim::Task<> node_main(NodeContext ctx, cl::Device* map_device,
                      cl::Device* reduce_device, SplitScheduler& scheduler,
                      NodeRun& state, JobShared& shared) {
  auto& sim = ctx.sim();
  auto& tr = sim.tracer();
  const JobConfig& cfg = *ctx.config;
  const auto t = state.phase_track;
  const auto map_name = tr.intern(cfg.trace_scope + "phase.map");
  const auto merge_name = tr.intern(cfg.trace_scope + "phase.merge");
  const auto reduce_name = tr.intern(cfg.trace_scope + "phase.reduce");
  const int shuffle_port = cfg.port_base + net::kPortShuffle;
  const int rack_agg_port = cfg.port_base + net::kPortRackAgg;
  ctx.store->start_mergers();

  // One EOS per sender streaming to this node (JobShared::shuffle_senders).
  const int expected =
      static_cast<int>(shared.shuffle_senders(ctx.node_id).size());
  sim.spawn(
      shuffle_receiver(ctx, shuffle_port, expected, *state.shuffle_done));
  if (state.rack_combiner != nullptr) {
    sim.spawn(rack_aggregator(ctx, shared, *state.rack_combiner));
  }

  // Multi-tenant slot gate: at most `capacity` resident jobs run their map
  // phase on this node at once (FIFO, deterministic). Held through the EOS
  // broadcast — the phase's sends are on the wire by then — and released
  // BEFORE the merge wait, which depends on OTHER nodes' map phases and
  // must not hold a slot while it blocks (deadlock-free by construction:
  // receivers and mergers are never slot-gated).
  sim::Resource::Hold map_slot;
  if (ctx.map_slot != nullptr && !ctx.elastic_slots) {
    // Elastic mode skips the phase-wide hold: the pipeline acquires one
    // slot per split instead, so the scheduler can grow/shrink the job's
    // share at task boundaries mid-phase.
    map_slot = co_await ctx.map_slot->acquire();
  }

  tr.begin(t, trace::Kind::kPhase, map_name, sim.now());
  if (!state.ledger.runs.empty()) {
    // Resumed residency (checkpoint-based preemption): the ledger carried
    // over from the suspended residency is replayed over the main shuffle
    // port before fresh map work, so the merged stores end up holding the
    // union of replayed and freshly mapped runs. Fresh runs append to the
    // same ledger, which keeps full provenance for a crash or a second
    // suspension.
    std::vector<int> parts;
    for (const auto& [g, entries] : state.ledger.runs) parts.push_back(g);
    sim::TaskGroup sends(sim);
    ctx.stats->shuffle_bytes_remote +=
        co_await replay_ledger(ctx, state.ledger, parts, sends);
    co_await sends.wait();
  }
  ctx.combiner = state.combiner.get();
  co_await run_map_phase(ctx, scheduler);
  ctx.combiner = nullptr;
  tr.end(t, trace::Kind::kPhase, map_name, sim.now());
  tr.begin(t, trace::Kind::kPhase, merge_name, sim.now());

  // Map phase done on this node: tell every destination we stream to
  // directly that no more intermediate data will arrive from here. Rack
  // mode also closes the member stream to the own-rack aggregator on the
  // rack-agg port (the aggregator closes the extra-rack streams itself once
  // all member EOS arrived and its consolidated output is flushed).
  co_await broadcast_eos(ctx, shared, shuffle_port,
                         shared.shuffle_destinations(ctx.node_id), nullptr);
  if (shared.topo.rack_size > 0) {
    const std::vector<int> agg(
        1, shared.topo.aggregator_of(shared.topo.rack_of(ctx.node_id)));
    co_await broadcast_eos(ctx, shared, rack_agg_port, agg, nullptr);
  }
  map_slot.release();

  // Merge phase: continues until all remote data arrived and the merger
  // threads consolidated every partition (§III: "After the merge phase
  // completes, the reduce phase is started"). A dead node's receiver is
  // resolved by crash compensation, so even a zombie drains and exits.
  co_await state.shuffle_done->wait();
  co_await ctx.store->drain();
  tr.end(t, trace::Kind::kPhase, merge_name, sim.now());

  // Recover-then-reduce until the job is globally complete. Each pass runs
  // any recovery rounds a crash created, then reduces the owned partitions
  // that have no output yet; a crash during anyone's reduce re-enters the
  // loop.
  for (;;) {
    if (!ctx.self_live()) co_return;
    co_await run_recovery_rounds(ctx, scheduler, state, shared, map_device);
    if (!ctx.self_live()) co_return;
    std::vector<int> todo;
    for (int g = 0; g < ctx.total_partitions; ++g) {
      if (shared.owner[static_cast<std::size_t>(g)] != ctx.node_id) continue;
      if (state.reduced.count(g) > 0) continue;
      // A partition whose file was committed before its owner died needs no
      // re-reduction: DFS output survives crashes via replication.
      if (ctx.fs->exists(partition_output_path(cfg, g))) continue;
      todo.push_back(g);
    }
    if (!todo.empty()) {
      ctx.device = reduce_device;
      const bool task_gated = ctx.elastic_slots && ctx.reduce_slot != nullptr;
      sim::Resource::Hold reduce_slot;
      if (ctx.reduce_slot != nullptr && !task_gated) {
        reduce_slot = co_await ctx.reduce_slot->acquire();
      }
      tr.begin(t, trace::Kind::kPhase, reduce_name, sim.now());
      if (ctx.preempt != nullptr || task_gated) {
        // Task-granularity reduce: one partition per pass, so a preemption
        // request takes effect at the next partition boundary and elastic
        // slots gate individual reduce tasks. Per-partition output bytes
        // depend only on that partition's runs, so splitting the batch
        // never changes what is written.
        for (std::size_t i = 0; i < todo.size(); ++i) {
          if (ctx.preempt_requested()) {
            shared.preempt_incomplete = true;
            break;
          }
          sim::Resource::Hold task_slot;
          if (task_gated) task_slot = co_await ctx.reduce_slot->acquire();
          std::vector<int> one(1, todo[i]);
          co_await run_reduce_phase(ctx, one);
          state.reduced.insert(todo[i]);
        }
      } else {
        co_await run_reduce_phase(ctx, todo);
        for (int g : todo) state.reduced.insert(g);
      }
      tr.end(t, trace::Kind::kPhase, reduce_name, sim.now());
    }
    if (state.handled_epoch < shared.crash_epoch) continue;

    // Done for now — but a later crash can reassign partitions to this
    // node, so park on the completion barrier instead of exiting. The last
    // node to finish releases everyone; a crash wakes everyone back up.
    shared.done_nodes.insert(ctx.node_id);
    int live = 0;
    for (int n = 0; n < ctx.num_nodes; ++n) {
      if (shared.job_live(sim, n)) ++live;
    }
    if (static_cast<int>(shared.done_nodes.size()) >= live) {
      shared.job_complete = true;
      shared.park->set();
      co_return;
    }
    co_await shared.park->wait();
    if (shared.job_complete) co_return;
    shared.done_nodes.erase(ctx.node_id);  // woken by a crash: back to work
  }
}

// Everything one job execution owns: run_async keeps one in its frame and
// drives it through setup, the wait on every node, the closing trace marks
// and result assembly.
struct JobExec {
  cluster::Platform& platform;
  dfs::FileSystem& fs;
  std::vector<std::unique_ptr<cl::Device>>& map_devices;
  std::vector<std::unique_ptr<cl::Device>>& reduce_devices;
  AppKernels app;     // normalized copy (partitioner default, combine gating)
  JobConfig config;   // normalized copy
  const JobEnv* env;  // shared slots/governors; non-null iff scheduled
  sim::Simulation& sim;
  net::Transport& tp;

  dfs::FileSystem* base_fs = nullptr;
  dfs::Dfs* hdfs = nullptr;
  int num_nodes = 0;
  int total_partitions = 0;
  double start = 0;
  bool degraded = false;
  std::uint64_t net_shuffle0 = 0;
  std::uint64_t net_dfs0 = 0;
  std::uint64_t net_control0 = 0;
  std::uint64_t net_rack_agg0 = 0;
  std::uint64_t dfs_lost0 = 0;
  std::uint64_t dfs_rerep0 = 0;
  std::optional<SplitScheduler> scheduler;
  JobShared shared;
  PreemptControl* preempt = nullptr;  // from env; null = not preemptable
  bool resuming = false;              // previous residency was suspended
  bool combine_degraded = false;      // requested combining forced weaker
  int listener_id = -1;
  trace::TrackRef job_track;
  std::int32_t job_name = -1;
  std::int32_t round_name = -1;
  std::vector<NodeRun> nodes;
  sim::TaskGroup all;
  // The job's result, built up where things happen: pipelines add to
  // result.stats and result.output_files through their NodeContext, and a
  // resumed residency starts from the suspended one's totals.
  JobResult result;

  JobExec(cluster::Platform& platform_in, dfs::FileSystem& fs_in,
          std::vector<std::unique_ptr<cl::Device>>& map_devices_in,
          std::vector<std::unique_ptr<cl::Device>>& reduce_devices_in,
          const AppKernels& app_in, JobConfig config_in, const JobEnv* env_in)
      : platform(platform_in), fs(fs_in), map_devices(map_devices_in),
        reduce_devices(reduce_devices_in), app(app_in),
        config(std::move(config_in)), env(env_in), sim(platform_in.sim()),
        tp(platform_in.transport()), all(platform_in.sim()) {}

  // The job's private port for a well-known service.
  int port(int p) const { return config.port_base + p; }
  // Job-scoped trace name ("phase.map" -> "j3.phase.map" under a scope).
  std::string scoped(const char* name) const {
    return config.trace_scope + name;
  }

  void setup();
  void finish_marks();
  void finalize();
  // True when a preemption request left work behind: undispensed splits,
  // splits awaiting re-execution, or reduce partitions skipped at a task
  // boundary. Distinguishes a suspension from a request racing completion.
  bool incomplete() const {
    return scheduler->remaining() > 0 || scheduler->has_lost() ||
           shared.preempt_incomplete;
  }
  // Resumed residency: true when node `n` is up and has not crashed since
  // the suspension. A crash while suspended (even one followed by a
  // restart) took the node's disk, and with it its ledger and the map
  // output of the splits it committed.
  bool kept_disk_while_suspended(int n) const {
    return sim.node_alive(n) &&
           sim.node_crashes(n) ==
               preempt->state.crash_counts[static_cast<std::size_t>(n)];
  }
  void capture_suspension();
};

void JobExec::setup() {
  GW_CHECK_MSG(static_cast<bool>(app.map), "job needs a map function");
  GW_CHECK_MSG(!config.input_paths.empty(), "job needs input paths");
  GW_CHECK_MSG(!config.output_path.empty(), "job needs an output path");

  if (!app.partition) {
    app.partition = default_hash_partitioner();
  }
  // The combiner is only available with the hash-table collector (§III-F).
  if (config.output_mode != OutputMode::kHashTable ||
      !app.combine.has_value()) {
    config.use_combiner = false;
  }
  // Hierarchical combining needs an app combiner with the declared
  // associativity contract. Speculation is incompatible: a straggler clone
  // regenerates a tagged run on a different node, whose combiner may group
  // it with different partners — the destination would see a partial
  // overlap with an already-stored combined run.
  if (config.combine_mode != CombineMode::kOff &&
      (!app.combine.has_value() || !app.combine_associative ||
       config.speculate)) {
    config.combine_mode = CombineMode::kOff;
  }
  // Environment-forced combine degradations below are SURFACED via
  // JobResult::combine_degraded (and from there the scheduler's per-job
  // record + sched: line): the job asked for a combine tier its execution
  // environment cannot honour. The capability gates above are not
  // degradations — the request itself was unsatisfiable by the app.
  const CombineMode requested_combine = config.combine_mode;
  // Rack aggregation needs rack structure to exploit; otherwise degrade to
  // the node tier, which is the same data path minus the aggregator hop.
  const int rack_size = platform.fabric().profile().rack_size;
  if (config.combine_mode == CombineMode::kRack &&
      (rack_size <= 0 || platform.num_nodes() <= rack_size)) {
    config.combine_mode = CombineMode::kNode;
  }
  // Scheduler-shared governors carve no combine pool (their budget split is
  // fixed before the tenant mix is known), so combining degrades off rather
  // than drawing from a pool that was never funded.
  if (env != nullptr && !env->governors.empty()) {
    config.combine_mode = CombineMode::kOff;
  }
  // Preemptable jobs shuffle with the raw framing only: resumed residencies
  // re-feed ledger runs individually on the main port, which combined
  // framing at the receivers would misparse.
  if (config.preemptable) {
    config.combine_mode = CombineMode::kOff;
  }
  if (config.combine_mode != requested_combine &&
      requested_combine != CombineMode::kOff) {
    combine_degraded = true;
  }

  // Checkpoint-based preemption handshake (core::Scheduler).
  if (env != nullptr && env->preempt != nullptr) {
    GW_CHECK_MSG(config.preemptable,
                 "JobEnv carries a PreemptControl but the config is not "
                 "marked preemptable");
    preempt = env->preempt;
    resuming = preempt->preemptions > 0;
  }
  if (resuming) {
    // Counters, committed output files and elapsed time carry over from
    // the suspended residencies. The occupancy-derived stage breakdown
    // needs no carrying: scheduled jobs never clear the tracer, so scoped
    // accumulators already span every residency.
    result.stats = preempt->state.stats;
    result.output_files = preempt->state.output_files;
    result.elapsed_seconds = preempt->state.elapsed_s;
  }

  // Governed/replication controls reach through the PinnedFs overlay to
  // the real DFS underneath; stats deltas are measured there too.
  base_fs = &fs;
  if (auto* pf = dynamic_cast<dfs::PinnedFs*>(base_fs)) {
    base_fs = &pf->base();
  }
  if (config.output_replication > 0) {
    if (auto* dfs_base = dynamic_cast<dfs::Dfs*>(base_fs)) {
      dfs_base->set_replication(config.output_replication);
    }
  }

  if (env != nullptr) {
    // Concurrent jobs share one trace: nothing global to clear, and the
    // job's occupancy accumulators are already private via trace_scope.
  } else if (config.dag_round < 0) {
    sim.tracer().clear();  // one job per trace
  } else {
    // DAG round: the trace spans the whole DAG, but per-round stage
    // breakdowns must not accumulate across rounds.
    sim.tracer().reset_occupancy();
  }
  num_nodes = platform.num_nodes();
  total_partitions = num_nodes * config.partitions_per_node;
  start = sim.now();

  // Nodes already dead when the job starts (between DAG rounds, or a job
  // admitted to a shared cluster after another tenant's crash) take no
  // part: their partitions move to the survivors up front, no pipelines
  // are spawned for them, and shuffle streams expect only live senders.
  // With every node alive this block changes nothing.
  std::vector<int>& start_live = shared.start_live;
  for (int n = 0; n < num_nodes; ++n) {
    if (sim.node_alive(n)) start_live.push_back(n);
  }
  GW_CHECK_MSG(!start_live.empty(), "every node is dead at job start");
  degraded = static_cast<int>(start_live.size()) < num_nodes;
  if (degraded) {
    GW_CHECK_MSG(config.dag_round >= 0 || env != nullptr,
                 "node dead at job start outside a DAG round or scheduler");
    // The combine tiers assume full-mesh membership; a shrunken cluster
    // falls back to the plain shuffle path.
    if (config.combine_mode != CombineMode::kOff) combine_degraded = true;
    config.combine_mode = CombineMode::kOff;
  }

  // Transport counters are cumulative per platform (input staging and
  // concurrent tenants count too); snapshot so the report covers exactly
  // this job. NOTE: under multi-tenancy the network-class deltas cover the
  // job's residency window including neighbours' traffic — per-job wire
  // attribution would need per-port accounting, which port namespacing
  // makes possible (port_bytes) but the per-class totals do not expose.
  net_shuffle0 = tp.total_bytes(net::TrafficClass::kShuffle);
  net_dfs0 = tp.total_bytes(net::TrafficClass::kDfs);
  net_control0 = tp.total_bytes(net::TrafficClass::kControl);
  net_rack_agg0 = tp.total_bytes(net::TrafficClass::kRackAgg);
  hdfs = dynamic_cast<dfs::Dfs*>(base_fs);
  dfs_lost0 = hdfs ? hdfs->replicas_lost() : 0;
  dfs_rerep0 = hdfs ? hdfs->blocks_rereplicated() : 0;

  scheduler.emplace(
      SplitScheduler::make_splits(fs, config.input_paths, config.split_size));
  if (resuming) {
    // Replay map-side progress from the suspended residency: committed
    // splits are never re-dispensed (their output re-enters via the ledger
    // re-feed). A committer that crashed in between (even if it restarted)
    // lost its disk and cannot re-feed, so its splits stay fresh and are
    // simply mapped again — the original dedup tags make any overlap
    // harmless.
    for (const auto& [idx, node] : preempt->state.committed_splits) {
      if (!kept_disk_while_suspended(node)) continue;
      scheduler->restore_commit(idx, node);
    }
  }

  shared.owner.resize(static_cast<std::size_t>(total_partitions));
  for (int g = 0; g < total_partitions; ++g) {
    shared.owner[static_cast<std::size_t>(g)] =
        g / config.partitions_per_node;
  }
  if (degraded) {
    // Start-dead nodes never produce or reduce; round-robin their
    // partitions over the live nodes (ascending ids: deterministic), the
    // same policy the crash listener applies mid-job.
    std::size_t rr = 0;
    for (int g = 0; g < total_partitions; ++g) {
      int& owner = shared.owner[static_cast<std::size_t>(g)];
      if (sim.node_alive(owner)) continue;
      owner = start_live[rr++ % start_live.size()];
    }
    for (int n = 0; n < num_nodes; ++n) {
      if (!sim.node_alive(n)) shared.failed.insert(n);
    }
  }
  shared.park = std::make_unique<sim::Event>(sim);

  // JobTracker bookkeeping: who is expected on every shuffle stream (for
  // crash compensation), the crash listener that reassigns work, and the
  // scheduled crash events themselves. Only nodes alive at job start ever
  // open a stream; dead-at-start nodes are neither senders nor receivers.
  // In rack mode an aggregator also hears its members on the rack-agg port.
  if (config.combine_mode == CombineMode::kRack) {
    shared.topo = RackTopology{rack_size, num_nodes};
    for (int r = 0; r < shared.topo.num_racks(); ++r) {
      tp.expect_senders(shared.topo.aggregator_of(r), port(net::kPortRackAgg),
                        shared.topo.members(r));
    }
  }
  for (int dst : start_live) {
    tp.expect_senders(dst, port(net::kPortShuffle),
                      shared.shuffle_senders(dst));
  }
  listener_id = sim.add_crash_listener([this](int node, bool alive) {
    if (alive) return;  // a restarted node only serves as a DFS target
    if (shared.failed.count(node) > 0) return;
    // Recovery re-feeds the dead node's partitions from the survivors'
    // ledgers; a job that recorded none would silently lose their runs.
    GW_CHECK_MSG(config.records_map_outputs(),
                 "node crashed under a job that records no map outputs");
    shared.failed.insert(node);
    shared.crash_epoch++;
    const int round = shared.crash_epoch;
    std::vector<int> participants;
    for (int n = 0; n < num_nodes; ++n) {
      if (shared.job_live(sim, n)) participants.push_back(n);
    }
    GW_CHECK_MSG(!participants.empty(), "every node crashed; job is lost");
    // Reassign the dead node's reduce partitions round-robin over the
    // survivors (ascending ids: deterministic).
    JobShared::Round& rd = shared.rounds[round];
    rd.crashed_node = node;
    std::size_t rr = 0;
    for (int g = 0; g < total_partitions; ++g) {
      if (shared.owner[static_cast<std::size_t>(g)] != node) continue;
      shared.owner[static_cast<std::size_t>(g)] =
          participants[rr++ % participants.size()];
      rd.reassigned.push_back(g);
    }
    result.stats.partitions_reassigned += rd.reassigned.size();
    rd.participants = std::move(participants);
    // Splits the dead node ran or had committed go back for re-execution.
    scheduler->on_crash(node);
    // Failure detection: inject the dead node's missing EOS frames after
    // the detection timeout, once its in-flight wire traffic drained.
    sim.spawn([](sim::Simulation& s, net::Transport& t, int dead,
                 double delay) -> sim::Task<> {
      co_await s.delay(delay);
      co_await t.compensate_crash(dead);
    }(sim, tp, node, config.crash_detection_delay_s));
    // Wake parked finishers: the crash may have handed them new work.
    auto old_park = std::move(shared.park);
    shared.park = std::make_unique<sim::Event>(sim);
    old_park->set();  // waiters already rescheduled; safe to destroy
  });
  // Crash events fire once per job, timed from its first residency: a
  // resumed residency does not schedule them again.
  if (!resuming) {
    for (const auto& e : config.crash_events) {
      GW_CHECK_MSG(e.node >= 0 && e.node < num_nodes,
                   "crash event names an unknown node");
      sim.schedule_node_crash(e.node, e.time, e.restart_time);
    }
  }

  // Job-wide span: the root every recovery event must nest inside. DAG
  // rounds additionally open a kRound span just inside it, so a DAG trace
  // shows one round span per executed job, each nested in its job span.
  // Scheduled jobs put their span on a tenant-labelled track of their own,
  // so concurrent job spans land on distinct tracks and nest cleanly.
  // A resumed (preempted) residency re-registers the same scoped label and
  // must reopen its span on the SAME track, so the timeline shows one row
  // per job across suspensions.
  job_track = sim.tracer().track(0, scoped("job"), /*reuse=*/true);
  job_name = sim.tracer().intern("job");
  round_name = sim.tracer().intern("round");
  sim.tracer().begin(job_track, trace::Kind::kPhase, job_name, sim.now());
  if (config.dag_round >= 0) {
    sim.tracer().begin(job_track, trace::Kind::kRound, round_name, sim.now(),
                       static_cast<std::uint64_t>(config.dag_round));
  }

  nodes.resize(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    NodeRun& state = nodes[static_cast<std::size_t>(n)];
    MemoryGovernor* gov = nullptr;
    if (env != nullptr && !env->governors.empty()) {
      // Shared-cluster budget: one governor per node across all resident
      // jobs; the per-job governor stays null (no per-job mem marks).
      gov = env->governors[static_cast<std::size_t>(n)];
    } else if (config.governed()) {
      state.governor = std::make_unique<MemoryGovernor>(
          sim, config.node_memory_bytes,
          /*with_combine_pool=*/config.combine_mode != CombineMode::kOff);
      gov = state.governor.get();
    }
    state.store = std::make_unique<IntermediateStore>(platform.node(n), sim,
                                                      config, gov);
    state.shuffle_done = std::make_unique<sim::Event>(sim);
    state.phase_track = sim.tracer().track(n, scoped("phase"), /*reuse=*/true);

    // Dead-at-start nodes get their bookkeeping state (the stats loop
    // below walks every node) but no pipelines.
    if (!sim.node_alive(n)) continue;

    NodeContext ctx;
    ctx.platform = &platform;
    ctx.node = &platform.node(n);
    ctx.fs = &fs;
    ctx.device = map_devices[static_cast<std::size_t>(n)].get();
    ctx.store = state.store.get();
    ctx.mem = gov;
    ctx.config = &config;
    ctx.app = &app;
    ctx.node_id = n;
    ctx.num_nodes = num_nodes;
    ctx.total_partitions = total_partitions;
    ctx.partition_owner = &shared.owner;
    ctx.shuffle_port = port(net::kPortShuffle);
    ctx.ledger = config.records_map_outputs() ? &state.ledger : nullptr;
    ctx.failed_nodes = &shared.failed;
    ctx.stats = &result.stats;
    ctx.output_files = &result.output_files;
    if (env != nullptr && !env->map_slots.empty()) {
      ctx.map_slot = env->map_slots[static_cast<std::size_t>(n)];
    }
    if (env != nullptr && !env->reduce_slots.empty()) {
      ctx.reduce_slot = env->reduce_slots[static_cast<std::size_t>(n)];
    }
    ctx.elastic_slots = env != nullptr && env->elastic;
    ctx.preempt = preempt;
    if (resuming && kept_disk_while_suspended(n)) {
      // node_main replays the carried-over ledger before fresh map work.
      state.ledger =
          std::move(preempt->state.ledgers[static_cast<std::size_t>(n)]);
    }
    if (config.combine_mode != CombineMode::kOff) {
      // shared.topo.rack_size 0 (node mode) routes straight to the owner.
      state.combiner = std::make_unique<NodeCombiner>(
          ctx, NodeCombiner::Tier::kMap, shared.topo);
      if (shared.topo.rack_size > 0 && shared.topo.is_aggregator(n)) {
        state.rack_combiner = std::make_unique<NodeCombiner>(
            ctx, NodeCombiner::Tier::kRackAgg, shared.topo);
      }
    }
    all.spawn(node_main(ctx, map_devices[static_cast<std::size_t>(n)].get(),
                        reduce_devices[static_cast<std::size_t>(n)].get(),
                        *scheduler, state, shared));
  }
}

void JobExec::finish_marks() {
  if (config.governed()) {
    // Per-node budget/peak instants (arg = bytes) inside the job span, so
    // trace validators can check budget-respecting peak occupancy. Emitted
    // only for governed runs: default traces stay byte-identical.
    const std::int32_t budget_name = sim.tracer().intern("mem.budget");
    const std::int32_t peak_name = sim.tracer().intern("mem.peak");
    for (int n = 0; n < num_nodes; ++n) {
      const NodeRun& s = nodes[static_cast<std::size_t>(n)];
      if (s.governor == nullptr) continue;
      sim.tracer().instant(s.phase_track, trace::Kind::kMark, budget_name,
                           sim.now(), s.governor->budget_bytes());
      sim.tracer().instant(s.phase_track, trace::Kind::kMark, peak_name,
                           sim.now(), s.governor->peak_bytes());
    }
  }
  if (config.combine_mode != CombineMode::kOff) {
    // Per-node combine-volume instants (arg = bytes) inside the job span,
    // mirroring the governed mem.* marks, so trace validators can check the
    // tiers actually reduced traffic (combine.out <= combine.in).
    const std::int32_t in_name = sim.tracer().intern("combine.in");
    const std::int32_t out_name = sim.tracer().intern("combine.out");
    for (int n = 0; n < num_nodes; ++n) {
      const NodeRun& s = nodes[static_cast<std::size_t>(n)];
      if (s.combiner == nullptr) continue;
      std::uint64_t in = s.combiner->metrics().in_bytes;
      std::uint64_t out = s.combiner->metrics().out_bytes;
      if (s.rack_combiner != nullptr) {
        in += s.rack_combiner->metrics().in_bytes;
        out += s.rack_combiner->metrics().out_bytes;
      }
      sim.tracer().instant(s.phase_track, trace::Kind::kMark, in_name,
                           sim.now(), in);
      sim.tracer().instant(s.phase_track, trace::Kind::kMark, out_name,
                           sim.now(), out);
    }
  }
  if (config.dag_round >= 0) {
    sim.tracer().end(job_track, trace::Kind::kRound, round_name, sim.now(),
                     static_cast<std::uint64_t>(config.dag_round));
  }
  sim.tracer().end(job_track, trace::Kind::kPhase, job_name, sim.now());
}

void JobExec::finalize() {
  result.elapsed_seconds += sim.now() - start;
  // Stage breakdown reduces from the trace: each column is the max over
  // nodes of that span's busy occupancy (partition: max over its worker
  // tracks, the paper's Fig 4(a) metric). Names are job-scoped, so a
  // tenant only ever reads its own accumulators.
  const trace::Tracer& tr = sim.tracer();
  StageBreakdown& b = result.stages;
  JobStats& stats = result.stats;
  double map_end = start, merge_delay = 0, reduce_elapsed = 0;
  double mem_stall = 0;
  for (int n = 0; n < num_nodes; ++n) {
    const NodeRun& s = nodes[static_cast<std::size_t>(n)];
    const trace::Occupancy phase_map = tr.occupancy(n, scoped("phase.map"));
    const trace::Occupancy phase_merge =
        tr.occupancy(n, scoped("phase.merge"));
    const trace::Occupancy phase_reduce =
        tr.occupancy(n, scoped("phase.reduce"));
    map_end = std::max(map_end, phase_map.last_end);
    merge_delay = std::max(merge_delay, phase_merge.busy);
    reduce_elapsed = std::max(reduce_elapsed, phase_reduce.busy);

    const auto busy = [&](const char* name) {
      return tr.occupancy(n, scoped(name)).busy;
    };
    b.input = std::max(b.input, busy("map.input"));
    b.stage = std::max(b.stage, busy("map.stage"));
    b.kernel = std::max(b.kernel, busy("map.kernel"));
    b.retrieve = std::max(b.retrieve, busy("map.retrieve"));
    b.partition = std::max(
        b.partition, tr.occupancy(n, scoped("map.partition")).max_track_busy);
    b.map_elapsed = std::max(b.map_elapsed, phase_map.busy);
    b.merge_delay = std::max(b.merge_delay, phase_merge.busy);
    b.reduce_input = std::max(b.reduce_input, busy("reduce.input"));
    b.reduce_stage = std::max(b.reduce_stage, busy("reduce.stage"));
    b.reduce_kernel = std::max(b.reduce_kernel, busy("reduce.kernel"));
    b.reduce_retrieve = std::max(b.reduce_retrieve, busy("reduce.retrieve"));
    b.reduce_output = std::max(b.reduce_output, busy("reduce.output"));
    b.reduce_elapsed = std::max(b.reduce_elapsed, phase_reduce.busy);

    // Per-node objects whose own accessors have other readers (store
    // tests, the mem.* and combine.* trace marks) fold in once, here.
    stats.spills += s.store->spills();
    stats.merges += s.store->merges();
    stats.merge_fanin_runs += s.store->merge_fanin_runs();
    stats.spill_bytes += s.store->spill_bytes();
    stats.merge_levels = std::max(stats.merge_levels, s.store->merge_levels());
    stats.duplicate_runs_dropped += s.store->duplicate_runs_dropped();
    if (s.governor != nullptr) {
      stats.peak_mem_bytes =
          std::max(stats.peak_mem_bytes, s.governor->peak_bytes());
      mem_stall += s.governor->stall_seconds();
    }
    for (const NodeCombiner* c : {s.combiner.get(), s.rack_combiner.get()}) {
      if (c == nullptr) continue;
      stats.combine_in_bytes += c->metrics().in_bytes;
      stats.combine_out_bytes += c->metrics().out_bytes;
    }
  }
  // This residency's stall total joins the carried one in a single add
  // (the sum order of the double stays fixed).
  stats.mem_stall_seconds += mem_stall;
  result.map_phase_seconds = map_end - start;
  result.merge_delay_seconds = merge_delay;
  result.reduce_phase_seconds = reduce_elapsed;
  stats.tasks_reexecuted += scheduler->reexecutions();
  stats.speculative_wins += scheduler->speculative_wins();
  stats.speculative_losses += scheduler->speculative_losses();
  if (hdfs != nullptr) {
    stats.dfs_replicas_lost += hdfs->replicas_lost() - dfs_lost0;
    stats.blocks_rereplicated += hdfs->blocks_rereplicated() - dfs_rerep0;
  }
  stats.net_shuffle_bytes +=
      tp.total_bytes(net::TrafficClass::kShuffle) - net_shuffle0;
  stats.net_dfs_bytes += tp.total_bytes(net::TrafficClass::kDfs) - net_dfs0;
  stats.net_control_bytes +=
      tp.total_bytes(net::TrafficClass::kControl) - net_control0;
  stats.net_rack_agg_bytes +=
      tp.total_bytes(net::TrafficClass::kRackAgg) - net_rack_agg0;
  result.combine_degraded = combine_degraded;
  std::sort(result.output_files.begin(), result.output_files.end());
}

void JobExec::capture_suspension() {
  PreemptControl& pc = *preempt;
  ResumeState& rs = pc.state;
  // `result` already carries every earlier residency, so the checkpoint
  // is a plain snapshot of the cumulative totals.
  rs.committed_splits.clear();
  for (const auto& [idx, node] : scheduler->committed_splits()) {
    rs.committed_splits[idx] = node;
  }
  // Each node's ledger holds the carried-over history plus fresh runs;
  // moving it out makes the checkpoint cumulative across any number of
  // suspensions. A node that crashed lost its disk (a restart comes back
  // empty), so its ledger is dropped, not replayed.
  rs.ledgers.assign(static_cast<std::size_t>(num_nodes), MapOutputLedger());
  rs.crash_counts.assign(static_cast<std::size_t>(num_nodes), 0);
  for (int n = 0; n < num_nodes; ++n) {
    rs.crash_counts[static_cast<std::size_t>(n)] = sim.node_crashes(n);
    if (shared.failed.count(n) > 0) continue;
    rs.ledgers[static_cast<std::size_t>(n)] =
        std::move(nodes[static_cast<std::size_t>(n)].ledger);
  }
  rs.output_files = result.output_files;
  rs.stats = result.stats;
  rs.elapsed_s = result.elapsed_seconds;
  pc.suspended = true;
  ++pc.preemptions;
  result.suspended = true;
}

}  // namespace

std::vector<std::unique_ptr<cl::Device>> GlasswingRuntime::make_devices(
    const cl::DeviceSpec& spec) {
  std::vector<std::unique_ptr<cl::Device>> devices;
  for (int n = 0; n < platform_.num_nodes(); ++n) {
    sim::Resource* cores = spec.type == cl::DeviceType::kCpu
                               ? &platform_.node(n).host_cores()
                               : nullptr;
    devices.push_back(
        std::make_unique<cl::Device>(platform_.sim(), spec, cores, n));
  }
  return devices;
}

GlasswingRuntime::GlasswingRuntime(cluster::Platform& platform,
                                   dfs::FileSystem& fs, cl::DeviceSpec device)
    : platform_(platform), fs_(fs) {
  map_devices_ = make_devices(device);
  reduce_devices_ = make_devices(device);
}

GlasswingRuntime::GlasswingRuntime(cluster::Platform& platform,
                                   dfs::FileSystem& fs,
                                   cl::DeviceSpec map_device,
                                   cl::DeviceSpec reduce_device)
    : platform_(platform), fs_(fs) {
  map_devices_ = make_devices(map_device);
  reduce_devices_ = make_devices(reduce_device);
}

GlasswingRuntime::GlasswingRuntime(cluster::Platform& platform,
                                   dfs::FileSystem& fs,
                                   std::vector<cl::DeviceSpec> per_node_devices)
    : platform_(platform), fs_(fs) {
  GW_CHECK_MSG(static_cast<int>(per_node_devices.size()) ==
                   platform_.num_nodes(),
               "one device spec per node required");
  for (int n = 0; n < platform_.num_nodes(); ++n) {
    const cl::DeviceSpec& spec = per_node_devices[static_cast<std::size_t>(n)];
    sim::Resource* cores = spec.type == cl::DeviceType::kCpu
                               ? &platform_.node(n).host_cores()
                               : nullptr;
    map_devices_.push_back(
        std::make_unique<cl::Device>(platform_.sim(), spec, cores, n));
    reduce_devices_.push_back(
        std::make_unique<cl::Device>(platform_.sim(), spec, cores, n));
  }
}

JobResult GlasswingRuntime::run(const AppKernels& app, JobConfig config,
                                dfs::FileSystem* fs_override) {
  std::optional<JobResult> result;
  std::exception_ptr error;
  auto& sim = platform_.sim();
  sim.spawn([](sim::Task<JobResult> job, std::optional<JobResult>* out,
               std::exception_ptr* err) -> sim::Task<> {
    try {
      *out = co_await std::move(job);
    } catch (...) {
      *err = std::current_exception();
    }
  }(run_async(app, std::move(config), fs_override), &result, &error));
  sim.run();
  if (error) std::rethrow_exception(error);
  // The event queue draining without run_async returning means a node
  // coroutine is parked forever — a protocol deadlock, not a slow job.
  GW_CHECK_MSG(result.has_value(),
               "job hung: event queue drained with nodes parked");
  return std::move(*result);
}

sim::Task<JobResult> GlasswingRuntime::run_async(AppKernels app,
                                                 JobConfig config,
                                                 dfs::FileSystem* fs_override,
                                                 const JobEnv* env) {
  dfs::FileSystem& fs = fs_override != nullptr ? *fs_override : fs_;
  JobExec ex(platform_, fs, map_devices_, reduce_devices_, app,
             std::move(config), env);
  ex.setup();
  bool failed = false;
  std::string failure;
  try {
    co_await ex.all.wait();
  } catch (const std::exception& e) {
    failed = true;
    failure = e.what();
  }
  ex.finish_marks();
  // Teardown covers only the job's own port namespace, so resident
  // neighbours keep their traffic and expected-sender records. Data in
  // flight to a machine when it died vanishes with it: inboxes addressed to
  // a crashed node are dropped. The purge can wake a zombie receiver still
  // parked on a dropped inbox; one zero-delay tick lets it unwind before
  // this frame (the NodeRun state it touches) is destroyed.
  const int lo = ex.config.port_base;
  const int hi = lo + net::kPortJobStride;
  for (int n : ex.shared.failed) platform_.fabric().purge_node(n, lo, hi);
  ex.tp.clear_expected(lo, hi);
  co_await ex.sim.delay(0);
  ex.sim.remove_crash_listener(ex.listener_id);
  if (failed) util::throw_error("job failed: " + failure);
  platform_.fabric().check_quiesced(lo, hi);
  ex.finalize();
  if (ex.preempt != nullptr && ex.preempt->requested && ex.incomplete()) {
    ex.capture_suspension();
  }
  co_return std::move(ex.result);
}

}  // namespace gw::core
