// Host-path throughput microbenchmarks (REAL wall-clock time, not simulated
// seconds).
//
// Every simulated-seconds result in bench/fig* and bench/table* is computed
// by *really* sorting, merging and compressing intermediate data on the
// host, so the wall-clock cost of the repo is dominated by these primitives.
// This binary tracks their throughput directly:
//
//   * sort:       PairList::sort_by_key vs the decode-per-comparison
//                 reference implementation
//   * merge:      N-way merge_runs (N in {2, 8, 64}) vs the priority-queue
//                 reference implementation
//   * compress:   lz_compress + lz_decompress roundtrip, and lz_compress
//                 over small TeraSort-shaped runs (per-call fixed cost)
//   * collector:  HashTableCollector emits under Zipf key skew, the
//                 finalize gather + combine over one chunk of them, and
//                 finalize on a sparse chunk (about 20 keys per group)
//   * zipf:       ZipfSampler draws (every generated text input)
//
// Run via bench/run_host_path.sh to record BENCH_hostpath.json; CI smokes it
// with --benchmark_min_time so regressions in the host path are visible
// without a profiler.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "apps/common.h"
#include "core/collector.h"
#include "core/kv.h"
#include "core/kv_reference.h"
#include "util/compress.h"
#include "util/rng.h"

namespace {

using namespace gw;

// Deterministic skewed word list: Zipf-ranked vocabulary with mixed key
// lengths (3..24 bytes), the shape WordCount/PageviewCount feed the sort
// and merge paths.
std::vector<std::string> make_vocabulary(std::size_t n) {
  std::vector<std::string> words;
  words.reserve(n);
  util::Rng rng(2014);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = 3 + rng.below(22);
    std::string w;
    w.reserve(len);
    for (std::size_t j = 0; j < len; ++j) {
      w.push_back(static_cast<char>('a' + rng.below(26)));
    }
    w += std::to_string(i);  // distinct ranks stay distinct keys
    words.push_back(std::move(w));
  }
  return words;
}

core::PairList make_pairs(std::size_t pairs, std::uint64_t seed) {
  static const std::vector<std::string> vocab = make_vocabulary(30000);
  static const util::ZipfSampler zipf(vocab.size(), 1.1);
  util::Rng rng(seed);
  core::PairList pl;
  for (std::size_t i = 0; i < pairs; ++i) {
    pl.add(vocab[zipf.sample(rng)], "1");
  }
  return pl;
}

// N key-sorted runs with `total_pairs` pairs spread evenly across them.
std::vector<core::Run> make_runs(std::size_t n, std::size_t total_pairs,
                                 bool compress) {
  std::vector<core::Run> runs;
  runs.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    core::PairList pl = make_pairs(total_pairs / n, 1000 + r);
    pl.sort_by_key();
    core::RunBuilder rb;
    for (std::size_t i = 0; i < pl.size(); ++i) {
      const core::KV kv = pl.get(i);
      rb.add(kv.key, kv.value);
    }
    runs.push_back(rb.finish(compress));
  }
  return runs;
}

util::Bytes make_text(std::size_t bytes) {
  static const std::vector<std::string> vocab = make_vocabulary(30000);
  static const util::ZipfSampler zipf(vocab.size(), 1.1);
  util::Rng rng(7);
  util::Bytes text;
  text.reserve(bytes + 32);
  while (text.size() < bytes) {
    const std::string& w = vocab[zipf.sample(rng)];
    text.insert(text.end(), w.begin(), w.end());
    text.push_back(' ');
  }
  return text;
}

// ---- sort ----

constexpr std::size_t kSortPairs = 200000;

void BM_SortByKey(benchmark::State& state) {
  const core::PairList base = make_pairs(kSortPairs, 42);
  for (auto _ : state) {
    state.PauseTiming();
    core::PairList pl = base;
    state.ResumeTiming();
    pl.sort_by_key();
    benchmark::DoNotOptimize(pl);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(base.blob_bytes()));
}
BENCHMARK(BM_SortByKey);

void BM_SortByKeyReference(benchmark::State& state) {
  const core::PairList base = make_pairs(kSortPairs, 42);
  for (auto _ : state) {
    core::PairList sorted = core::reference::sorted_by_key(base);
    benchmark::DoNotOptimize(sorted);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(base.blob_bytes()));
}
BENCHMARK(BM_SortByKeyReference);

// ---- merge ----

constexpr std::size_t kMergePairs = 128000;

void BM_MergeRuns(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<core::Run> runs = make_runs(n, kMergePairs, false);
  std::uint64_t raw = 0;
  for (const auto& r : runs) raw += r.raw_bytes;
  for (auto _ : state) {
    core::Run merged = core::merge_runs(runs, false);
    benchmark::DoNotOptimize(merged);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw));
}
BENCHMARK(BM_MergeRuns)->Arg(2)->Arg(8)->Arg(64);

void BM_MergeRunsReference(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<core::Run> runs = make_runs(n, kMergePairs, false);
  std::uint64_t raw = 0;
  for (const auto& r : runs) raw += r.raw_bytes;
  for (auto _ : state) {
    core::Run merged = core::reference::merge_runs(runs, false);
    benchmark::DoNotOptimize(merged);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw));
}
BENCHMARK(BM_MergeRunsReference)->Arg(2)->Arg(8)->Arg(64);

// Compressed inputs: adds the per-run decompression (pooled scratch path).
void BM_MergeCompressedRuns(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<core::Run> runs = make_runs(n, kMergePairs, true);
  std::uint64_t raw = 0;
  for (const auto& r : runs) raw += r.raw_bytes;
  for (auto _ : state) {
    core::Run merged = core::merge_runs(runs, false);
    benchmark::DoNotOptimize(merged);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw));
}
BENCHMARK(BM_MergeCompressedRuns)->Arg(8);

// ---- compression ----

constexpr std::size_t kTextBytes = 4 << 20;

void BM_CompressRoundtrip(benchmark::State& state) {
  const util::Bytes text = make_text(kTextBytes);
  for (auto _ : state) {
    util::Bytes packed = util::lz_compress(text);
    util::Bytes back = util::lz_decompress(packed);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_CompressRoundtrip);

void BM_Decompress(benchmark::State& state) {
  const util::Bytes text = make_text(kTextBytes);
  const util::Bytes packed = util::lz_compress(text);
  for (auto _ : state) {
    util::Bytes back = util::lz_decompress(packed);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_Decompress);

// Spilled and shuffled TeraSort runs are small: the fixed per-call cost of
// lz_compress weighs as much as the bytes. 64 key-sorted runs of 20
// TeraSort-shaped pairs (10-byte key, 90-byte payload), about 2 KiB each.
std::vector<util::Bytes> make_terasort_runs() {
  util::Rng rng(1979);
  std::vector<util::Bytes> runs;
  for (int r = 0; r < 64; ++r) {
    std::vector<std::string> keys(20);
    for (auto& k : keys) {
      for (int i = 0; i < 10; ++i) {
        k.push_back(static_cast<char>(' ' + rng.below(95)));
      }
    }
    std::sort(keys.begin(), keys.end());
    core::RunBuilder rb;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      std::string payload = std::to_string(r * 20 + i);
      payload.resize(90, 'x');
      rb.add(keys[i], payload);
    }
    runs.push_back(rb.finish(false).data);
  }
  return runs;
}

void BM_LzCompressSmallRuns(benchmark::State& state) {
  const std::vector<util::Bytes> runs = make_terasort_runs();
  std::int64_t bytes = 0;
  for (const auto& r : runs) bytes += static_cast<std::int64_t>(r.size());
  for (auto _ : state) {
    for (const auto& r : runs) {
      util::Bytes packed = util::lz_compress(r);
      benchmark::DoNotOptimize(packed);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bytes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(runs.size()));
}
BENCHMARK(BM_LzCompressSmallRuns);

// ---- hash-table collector under Zipf skew ----

constexpr std::size_t kInsertPairs = 100000;
constexpr std::size_t kCollectorGroups = 64;

// Pre-sampled (group, rank) emit stream, so only collector work is timed.
struct EmitStream {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> emits;
  std::uint64_t bytes = 0;
};

const std::vector<std::string>& collector_vocab() {
  static const std::vector<std::string> vocab = make_vocabulary(30000);
  return vocab;
}

EmitStream make_emit_stream() {
  static const util::ZipfSampler zipf(collector_vocab().size(), 1.1);
  util::Rng rng(99);
  EmitStream s;
  s.emits.reserve(kInsertPairs);
  for (std::size_t i = 0; i < kInsertPairs; ++i) {
    const std::uint32_t rank = static_cast<std::uint32_t>(zipf.sample(rng));
    s.emits.emplace_back(
        static_cast<std::uint32_t>(rng.below(kCollectorGroups)), rank);
    s.bytes += collector_vocab()[rank].size() + 1;
  }
  return s;
}

void emit_all(core::HashTableCollector& collector, const EmitStream& s) {
  cl::KernelCounters counters;
  for (const auto& [group, rank] : s.emits) {
    collector.emit(group, collector_vocab()[rank], "1", counters);
  }
  benchmark::DoNotOptimize(counters);
}

void BM_HashCollectorInsert(benchmark::State& state) {
  const EmitStream stream = make_emit_stream();
  for (auto _ : state) {
    state.PauseTiming();
    core::HashTableCollector collector(kCollectorGroups);
    state.ResumeTiming();
    emit_all(collector, stream);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.bytes));
}
BENCHMARK(BM_HashCollectorInsert);

// The sparse shape of a TeraSort map chunk: 20 keys per group, each
// emitted twice, in every one of the 64 groups.
EmitStream make_sparse_emit_stream() {
  EmitStream s;
  for (std::uint32_t g = 0; g < kCollectorGroups; ++g) {
    for (std::uint32_t i = 0; i < 40; ++i) {
      const std::uint32_t rank = g * 20 + i % 20;
      s.emits.emplace_back(g, rank);
      s.bytes += collector_vocab()[rank].size() + 1;
    }
  }
  return s;
}

sim::Task<> finalize_into(core::HashTableCollector& collector,
                          cl::Device& device,
                          const std::optional<core::CombineFn>& combine,
                          core::MapChunkOutput* out) {
  *out = co_await collector.finalize(device, combine, {});
}

// Times finalize over `stream`, refilling the collector untimed before
// each iteration. The post-processing kernel runs on the global pool
// (GW_THREADS).
void time_finalize(benchmark::State& state, const EmitStream& stream,
                   const std::optional<core::CombineFn>& combine) {
  sim::Simulation sim;
  cl::Device device(sim, cl::DeviceSpec::cpu_dual_e5620());
  core::HashTableCollector collector(kCollectorGroups);
  core::MapChunkOutput out;
  for (auto _ : state) {
    state.PauseTiming();
    emit_all(collector, stream);
    state.ResumeTiming();
    sim.spawn(finalize_into(collector, device, combine, &out));
    sim.run();
    benchmark::DoNotOptimize(out);
  }
  state.counters["distinct_keys"] = static_cast<double>(out.distinct_keys);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.bytes));
}

// One chunk's finalize: the key gather plus a WordCount-style sum combiner
// over the emit stream above.
void BM_CollectorFinalize(benchmark::State& state) {
  const core::CombineFn sum = [](std::string_view key,
                                 const std::vector<std::string_view>& values,
                                 core::ReduceContext& ctx) {
    std::uint64_t total = 0;
    for (auto v : values) total += apps::parse_u64(v);
    ctx.emit(key, std::to_string(total));
  };
  time_finalize(state, make_emit_stream(), sum);
}
BENCHMARK(BM_CollectorFinalize);

// The same on a sparse chunk with compaction, as TeraSort runs it: what is
// timed is the per-chunk fixed cost of the gather and the table reset, not
// the values.
void BM_CollectorFinalizeSparse(benchmark::State& state) {
  time_finalize(state, make_sparse_emit_stream(), std::nullopt);
}
BENCHMARK(BM_CollectorFinalizeSparse);

// ---- Zipf sampling ----

void BM_ZipfSample(benchmark::State& state) {
  const util::ZipfSampler zipf(static_cast<std::size_t>(state.range(0)), 1.05);
  util::Rng rng(2014);
  for (auto _ : state) {
    std::size_t acc = 0;
    for (int i = 0; i < 1000; ++i) acc += zipf.sample(rng);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_ZipfSample)->Arg(2000)->Arg(20000);

}  // namespace

BENCHMARK_MAIN();
