// Focused unit tests for core components: output collectors, the
// intermediate-data store, and the split scheduler.
#include <cstdio>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/collector.h"
#include "core/intermediate.h"
#include "core/pipeline.h"
#include "gwdfs/fs.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gw::core {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Platform;

Platform make_platform(int nodes = 1) {
  return Platform(ClusterSpec::homogeneous(
      nodes, NodeSpec::das4_type1(), net::NetworkProfile::qdr_infiniband_ipoib()));
}

// ---------- collectors ----------

cl::KernelStats emit_through(MapOutputCollector& col, cl::Device& dev,
                             std::size_t items,
                             const std::function<std::pair<std::string, std::string>(
                                 std::size_t)>& pair_for,
                             sim::Simulation& sim) {
  cl::KernelStats out;
  sim.spawn([](MapOutputCollector& c, cl::Device& d, std::size_t n,
               const std::function<std::pair<std::string, std::string>(std::size_t)>& pf,
               cl::KernelStats* stats) -> sim::Task<> {
    *stats = co_await d.run_kernel_grouped(
        n, c.groups(), [&](std::size_t i, std::size_t g, cl::KernelCounters& kc) {
          auto [k, v] = pf(i);
          c.emit(g, k, v, kc);
        });
  }(col, dev, items, pair_for, &out));
  sim.run();
  return out;
}

MapChunkOutput finalize_now(MapOutputCollector& col, cl::Device& dev,
                            const std::optional<CombineFn>& combine,
                            sim::Simulation& sim) {
  MapChunkOutput out;
  sim.spawn([](MapOutputCollector& c, cl::Device& d,
               std::optional<CombineFn> comb, MapChunkOutput* o) -> sim::Task<> {
    *o = co_await c.finalize(d, comb, {});
  }(col, dev, combine, &out));
  sim.run();
  return out;
}

TEST(SharedPoolCollector, OneAtomicPerEmit) {
  sim::Simulation sim;
  cl::Device dev(sim, cl::DeviceSpec::cpu_dual_e5620());
  SharedPoolCollector col(8);
  auto stats = emit_through(col, dev, 1000,
                            [](std::size_t i) {
                              return std::make_pair(
                                  std::string("k").append(std::to_string(i % 10)),
                                  "v");
                            },
                            sim);
  EXPECT_EQ(stats.atomic_ops, 1000u);
  EXPECT_EQ(stats.hash_probes, 0u);
  auto out = finalize_now(col, dev, std::nullopt, sim);
  EXPECT_EQ(out.pairs.size(), 1000u);
  EXPECT_FALSE(out.grouped);
}

TEST(HashTableCollector, ProbesAndGrouping) {
  sim::Simulation sim;
  cl::Device dev(sim, cl::DeviceSpec::cpu_dual_e5620());
  HashTableCollector col(4);
  auto stats = emit_through(col, dev, 2000,
                            [](std::size_t i) {
                              return std::make_pair("key" + std::to_string(i % 50),
                                                    std::to_string(i));
                            },
                            sim);
  EXPECT_GE(stats.hash_probes, 2000u);  // at least one probe per emit
  EXPECT_GE(stats.atomic_ops, 2000u);   // value-append atomics
  auto out = finalize_now(col, dev, std::nullopt, sim);
  // Compaction keeps every pair but groups keys contiguously.
  EXPECT_EQ(out.pairs.size(), 2000u);
  EXPECT_TRUE(out.grouped);
  EXPECT_EQ(out.distinct_keys, 50u);
  std::set<std::string> seen;
  std::string current;
  for (std::size_t i = 0; i < out.pairs.size(); ++i) {
    const std::string key(out.pairs.get(i).key);
    if (key != current) {
      EXPECT_TRUE(seen.insert(key).second) << "key not contiguous: " << key;
      current = key;
    }
  }
}

TEST(HashTableCollector, CombinerCollapsesDuplicates) {
  sim::Simulation sim;
  cl::Device dev(sim, cl::DeviceSpec::cpu_dual_e5620());
  HashTableCollector col(4);
  emit_through(col, dev, 3000,
               [](std::size_t i) {
                 return std::make_pair(
                     std::string("w").append(std::to_string(i % 20)), "1");
               },
               sim);
  CombineFn sum = [](std::string_view key,
                     const std::vector<std::string_view>& values,
                     ReduceContext& ctx) {
    ctx.emit(key, std::to_string(values.size()));
  };
  auto out = finalize_now(col, dev, sum, sim);
  EXPECT_EQ(out.pairs.size(), 20u);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < out.pairs.size(); ++i) {
    total += std::stoull(std::string(out.pairs.get(i).value));
  }
  EXPECT_EQ(total, 3000u);
}

TEST(HashTableCollector, ProbeCountGrowsWithKeyCardinality) {
  // More distinct keys -> fuller tables -> more probes per emit on average.
  auto probes_for = [](int distinct) {
    sim::Simulation sim;
    cl::Device dev(sim, cl::DeviceSpec::cpu_dual_e5620());
    HashTableCollector col(1);
    auto stats = emit_through(col, dev, 20000,
                              [distinct](std::size_t i) {
                                return std::make_pair(
                                    "key" + std::to_string(i % distinct), "1");
                              },
                              sim);
    return stats.hash_probes;
  };
  EXPECT_GT(probes_for(15000), probes_for(50));
}

// Golden: everything finalize hands on (pairs in order, distinct keys,
// probes, the post-processing kernel's charges and the simulated time they
// cost) for two consecutive chunks through one 64-group collector. Keys
// repeat within and across groups, and every table holds more than
// 0.7 * kInitialSlots keys, so each chunk grows its tables from the reset
// size. Doubles are rendered as hex floats.
void render_kernel(std::string& text, const char* name,
                   const cl::KernelStats& k) {
  text += name;
  for (std::uint64_t v : {k.work_items, k.ops, k.bytes_read, k.bytes_written,
                          k.atomic_ops, k.hash_probes}) {
    text += ' ' + std::to_string(v);
  }
  text += '\n';
}

std::string render_collector_chunks(bool with_combiner) {
  constexpr std::size_t kGroups = 64;
  struct Chunk {
    std::size_t per_group, cold_keys, stride, hot_keys;
  };
  // Per group: two cold items in three (distinct keys, > 717 of them) and
  // one hot item in three (long value chains).
  const Chunk chunks[] = {{1800, 2500, 419, 37}, {1200, 1700, 31, 11}};
  // Order-sensitive combiner: the joined values pin their order, and hot
  // keys emit a second pair.
  const CombineFn join = [](std::string_view key,
                            const std::vector<std::string_view>& values,
                            ReduceContext& ctx) {
    std::string all;
    for (auto v : values) (all += v) += ',';
    ctx.charge_ops(values.size());
    ctx.emit(key, all);
    if (key[0] == 'h') ctx.emit(key, std::to_string(values.size()));
  };
  sim::Simulation sim;
  cl::Device dev(sim, cl::DeviceSpec::cpu_dual_e5620());
  HashTableCollector col(kGroups);
  std::string text;
  for (const Chunk& ch : chunks) {
    const cl::KernelStats emitted = emit_through(
        col, dev, kGroups * ch.per_group,
        [&ch](std::size_t i) {
          const std::string key =
              i % 3 == 0 ? "h" + std::to_string(i / 3 % ch.hot_keys)
                         : "k" + std::to_string(i * ch.stride % ch.cold_keys);
          return std::make_pair(key, std::to_string(i));
        },
        sim);
    const MapChunkOutput out = finalize_now(
        col, dev, with_combiner ? std::optional<CombineFn>(join) : std::nullopt,
        sim);
    render_kernel(text, "emit", emitted);
    render_kernel(text, "post", out.post_stats);
    text += "distinct_keys " + std::to_string(out.distinct_keys) + "\n";
    text += "hash_probes " + std::to_string(out.hash_probes) + "\n";
    text += "grouped " + std::to_string(out.grouped) + "\n";
    char now[64];
    std::snprintf(now, sizeof now, "now %a\n", sim.now());
    text += now;
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a over key/value
    for (std::size_t i = 0; i < out.pairs.size(); ++i) {
      const KV kv = out.pairs.get(i);
      for (std::string_view s : {kv.key, std::string_view("\0", 1), kv.value,
                                 std::string_view("\0", 1)}) {
        for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
      }
    }
    text += "pairs " + std::to_string(out.pairs.size()) + " " +
            std::to_string(h) + "\n";
  }
  return text;
}

std::uint64_t fnv_text(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : text) h = (h ^ c) * 1099511628211ull;
  return h;
}

TEST(HashTableCollector, FinalizeGolden) {
  const std::size_t threads = util::ThreadPool::global().thread_count();
  for (std::size_t t : {1, 4}) {
    SCOPED_TRACE("GW_THREADS=" + std::to_string(t));
    util::ThreadPool::reset_global(t);
    const std::string combined = render_collector_chunks(true);
    EXPECT_EQ(fnv_text(combined), 11163688588707374448ull) << combined;
    const std::string compacted = render_collector_chunks(false);
    EXPECT_EQ(fnv_text(compacted), 3804450930126087309ull) << compacted;
  }
  util::ThreadPool::reset_global(threads);
}

// A chunk's tables are reset after finalize: one that grew goes back to the
// initial size, one that did not is reused. Either way the next chunk must
// see what a fresh collector sees. A sparse chunk (about 20 keys per group)
// follows a dense chunk (every table grows) and a sparse chunk (no table
// grows), and each result, emit charges included, must equal that of a
// fresh collector on the same chunk. Item i emits key (i / 2) scrambled, so
// a group of n items holds about n / 2 keys with two values each.
std::string render_chunk(HashTableCollector& col, std::size_t per_group,
                         std::size_t keys, std::uint64_t salt) {
  sim::Simulation sim;
  cl::Device dev(sim, cl::DeviceSpec::cpu_dual_e5620());
  const auto pair_for = [=](std::size_t i) {
    const std::uint64_t k = (i / 2 * 2654435761u + salt) % keys;
    return std::make_pair(std::string("k").append(std::to_string(k)),
                          std::to_string(i));
  };
  const CombineFn join = [](std::string_view key,
                            const std::vector<std::string_view>& values,
                            ReduceContext& ctx) {
    std::string all;
    for (auto v : values) (all += v) += ',';
    ctx.emit(key, all);
  };
  std::string text;
  // The chunk goes through twice: once combined, once compacted.
  for (bool combine : {true, false}) {
    const cl::KernelStats emitted =
        emit_through(col, dev, col.groups() * per_group, pair_for, sim);
    const MapChunkOutput out = finalize_now(
        col, dev, combine ? std::optional<CombineFn>(join) : std::nullopt, sim);
    render_kernel(text, "emit", emitted);
    render_kernel(text, "post", out.post_stats);
    text += "distinct_keys " + std::to_string(out.distinct_keys) + "\n";
    text += "hash_probes " + std::to_string(out.hash_probes) + "\n";
    for (std::size_t i = 0; i < out.pairs.size(); ++i) {
      const KV kv = out.pairs.get(i);
      ((text += kv.key) += '=') += kv.value;
      text += '\n';
    }
  }
  return text;
}

TEST(HashTableCollector, ResetPathsMatchFreshCollector) {
  constexpr std::size_t kGroups = 64;
  const std::size_t threads = util::ThreadPool::global().thread_count();
  for (std::size_t t : {1, 4}) {
    SCOPED_TRACE("GW_THREADS=" + std::to_string(t));
    util::ThreadPool::reset_global(t);
    HashTableCollector fresh_a(kGroups), fresh_b(kGroups);
    const std::string want_a = render_chunk(fresh_a, 40, 20 * kGroups, 3);
    const std::string want_b = render_chunk(fresh_b, 30, 1200, 5);

    HashTableCollector after_grow(kGroups);
    render_chunk(after_grow, 1600, 1000 * kGroups, 1);
    EXPECT_EQ(render_chunk(after_grow, 40, 20 * kGroups, 3), want_a);

    HashTableCollector after_sparse(kGroups);
    render_chunk(after_sparse, 40, 20 * kGroups, 3);
    EXPECT_EQ(render_chunk(after_sparse, 30, 1200, 5), want_b);
    EXPECT_EQ(render_chunk(after_sparse, 40, 20 * kGroups, 3), want_a);
  }
  util::ThreadPool::reset_global(threads);
}

// ---------- intermediate store ----------

gw::core::Run make_run(const std::string& prefix, int pairs) {
  RunBuilder rb;
  for (int i = 0; i < pairs; ++i) {
    const std::string n = std::to_string(i);
    rb.add(prefix + n, "v" + n);
  }
  return rb.finish(true);
}

JobConfig store_config() {
  JobConfig cfg;
  cfg.partitions_per_node = 4;
  cfg.cache_threshold_bytes = 4 << 10;
  cfg.max_disk_runs = 3;
  return cfg;
}

TEST(IntermediateStore, RoundTripsAllData) {
  Platform p = make_platform();
  JobConfig cfg = store_config();
  IntermediateStore store(p.node(0), p.sim(), cfg);
  store.start_mergers();
  for (int r = 0; r < 20; ++r) {
    const std::string prefix =
        std::string("a").append(std::to_string(r)).append("-");
    p.sim().spawn(store.add_run(r % 4, make_run(prefix, 50)));
  }
  p.sim().spawn([](IntermediateStore& s) -> sim::Task<> {
    co_await s.drain();
  }(store));
  p.sim().run();

  std::uint64_t pairs = 0;
  for (int part = 0; part < 4; ++part) {
    std::uint64_t disk_bytes = 0;
    for (gw::core::Run& r : store.take_partition(part, &disk_bytes)) {
      pairs += r.pairs;
    }
  }
  EXPECT_EQ(pairs, 20u * 50u);
  EXPECT_GT(store.spills(), 0u);  // threshold was tiny: spills happened
}

TEST(IntermediateStore, DrainConsolidatesRunCount) {
  Platform p = make_platform();
  JobConfig cfg = store_config();
  cfg.cache_threshold_bytes = 1 << 30;  // never spill
  IntermediateStore store(p.node(0), p.sim(), cfg);
  store.start_mergers();
  for (int r = 0; r < 32; ++r) p.sim().spawn(store.add_run(0, make_run("x", 10)));
  p.sim().spawn([](IntermediateStore& s) -> sim::Task<> {
    co_await s.drain();
  }(store));
  p.sim().run();
  std::uint64_t disk_bytes = 0;
  auto runs = store.take_partition(0, &disk_bytes);
  EXPECT_EQ(runs.size(), 1u);  // consolidated to a single cached run
  EXPECT_EQ(disk_bytes, 0u);   // nothing spilled
  EXPECT_EQ(runs[0].pairs, 320u);
}

TEST(IntermediateStore, MergedRunsStaySorted) {
  Platform p = make_platform();
  JobConfig cfg = store_config();
  IntermediateStore store(p.node(0), p.sim(), cfg);
  store.start_mergers();
  util::Rng rng(31);
  std::uint64_t expected = 0;
  for (int r = 0; r < 12; ++r) {
    RunBuilder rb;
    std::vector<std::string> keys;
    for (int i = 0; i < 100; ++i) {
      keys.push_back(std::string("k").append(std::to_string(rng.below(1000))));
    }
    std::sort(keys.begin(), keys.end());
    for (auto& k : keys) rb.add(k, "v");
    expected += 100;
    p.sim().spawn(store.add_run(1, rb.finish(true)));
  }
  p.sim().spawn([](IntermediateStore& s) -> sim::Task<> {
    co_await s.drain();
  }(store));
  p.sim().run();
  std::uint64_t disk_bytes = 0;
  auto runs = store.take_partition(1, &disk_bytes);
  std::uint64_t total = 0;
  for (const gw::core::Run& run : runs) {
    RunReader reader(run);
    KV kv;
    std::string prev;
    while (reader.next(&kv)) {
      EXPECT_GE(std::string(kv.key), prev);
      prev = std::string(kv.key);
      ++total;
    }
  }
  EXPECT_EQ(total, expected);
}

// ---------- split scheduler ----------

TEST(SplitScheduler, PrefersLocalSplits) {
  std::vector<InputSplit> splits;
  for (int i = 0; i < 8; ++i) {
    InputSplit s("/f", i * 100, 100);
    s.locations = {i % 4};
    splits.push_back(s);
  }
  SplitScheduler sched(std::move(splits));
  // Node 2 should receive its two local splits first.
  auto a = sched.next_for(2);
  auto b = sched.next_for(2);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->offset / 100 % 4, 2u);
  EXPECT_EQ(b->offset / 100 % 4, 2u);
  EXPECT_EQ(sched.local_grabs(), 2u);
  // Third grab falls back to a remote split.
  auto c = sched.next_for(2);
  ASSERT_TRUE(c);
  EXPECT_EQ(sched.remote_grabs(), 1u);
}

TEST(SplitScheduler, HandsOutEverySplitExactlyOnce) {
  std::vector<InputSplit> splits;
  for (int i = 0; i < 20; ++i) {
    InputSplit s("/f", i * 10, 10);
    s.locations = {0};
    splits.push_back(s);
  }
  SplitScheduler sched(std::move(splits));
  std::set<std::uint64_t> offsets;
  for (int node = 0; node < 4; ++node) {
    while (auto s = sched.next_for(node)) offsets.insert(s->offset);
  }
  EXPECT_EQ(offsets.size(), 20u);
  EXPECT_FALSE(sched.next_for(0).has_value());
}

TEST(SplitScheduler, LocalAndRemoteGrabCountsPartitionTheTotal) {
  std::vector<InputSplit> splits;
  for (int i = 0; i < 12; ++i) {
    InputSplit s("/f", i * 100, 100);
    s.locations = {i % 3};  // nodes 0..2 host 4 splits each; node 3 none
    splits.push_back(s);
  }
  SplitScheduler sched(std::move(splits));
  // Nodes 0-2 each pull their own 4 splits: all grabs are local.
  std::uint64_t handed = 0;
  for (int node = 0; node < 3; ++node) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(sched.next_for(node).has_value());
      ++handed;
    }
  }
  EXPECT_EQ(handed, 12u);
  EXPECT_EQ(sched.local_grabs(), 12u);
  EXPECT_EQ(sched.remote_grabs(), 0u);
  EXPECT_EQ(sched.local_grabs() + sched.remote_grabs(), handed);
  // Node 3 hosts no blocks and everything is taken: nothing left, and a
  // node with no local blocks never inflates the locality counters.
  EXPECT_FALSE(sched.next_for(3).has_value());
  EXPECT_EQ(sched.local_grabs() + sched.remote_grabs(), 12u);
}

TEST(SplitScheduler, MakeSplitsCoversFilesExactly) {
  Platform p = make_platform(2);
  dfs::Dfs fs(p, dfs::DfsConfig{});
  p.sim().spawn([](dfs::Dfs& f) -> sim::Task<> {
    co_await f.write(0, "/a", util::Bytes(1000));
    co_await f.write(0, "/b", util::Bytes(2500));
  }(fs));
  p.sim().run();
  auto splits = SplitScheduler::make_splits(fs, {"/a", "/b"}, 1000);
  std::uint64_t total = 0;
  for (auto& s : splits) total += s.len;
  EXPECT_EQ(total, 3500u);
  EXPECT_EQ(splits.size(), 4u);  // 1 + 3
  for (auto& s : splits) EXPECT_FALSE(s.locations.empty());
}

}  // namespace
}  // namespace gw::core
