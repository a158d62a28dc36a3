#include "core/collector.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <mutex>
#include <span>

#include "util/error.h"
#include "util/hash.h"

namespace gw::core {

namespace {

// ReduceEmitter writing into a per-group PairList, charging device-memory
// writes for emitted bytes.
class PairListEmitter : public ReduceEmitter {
 public:
  PairListEmitter(PairList* out, cl::KernelCounters* c) : out_(out), c_(c) {}
  void emit(std::string_view key, std::string_view value) override {
    out_->add(key, value);
    c_->charge_write(key.size() + value.size());
  }

 private:
  PairList* out_;
  cl::KernelCounters* c_;
};

// Calls f(i) for every set bit i of `bits`, in ascending order.
template <typename F>
void for_each_set_bit(const std::vector<std::uint64_t>& bits, F&& f) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      f(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
}

}  // namespace

std::unique_ptr<MapOutputCollector> make_collector(OutputMode mode,
                                                   std::size_t groups) {
  if (mode == OutputMode::kSharedPool) {
    return std::make_unique<SharedPoolCollector>(groups);
  }
  return std::make_unique<HashTableCollector>(groups);
}

SharedPoolCollector::SharedPoolCollector(std::size_t groups)
    : MapOutputCollector(groups), per_group_(groups) {}

void SharedPoolCollector::emit(std::size_t group, std::string_view key,
                               std::string_view value, cl::KernelCounters& c) {
  // One atomic bump allocation, then the stores.
  c.charge_atomic(1);
  c.charge_write(key.size() + value.size());
  per_group_[group].add(key, value);
}

sim::Task<MapChunkOutput> SharedPoolCollector::finalize(
    cl::Device& /*device*/, const std::optional<CombineFn>& combine,
    cl::LaunchConfig /*launch*/) {
  GW_CHECK_MSG(!combine.has_value(),
               "combiner requires the hash-table collector (as in the paper)");
  MapChunkOutput out;
  for (auto& pl : per_group_) {
    out.pairs.append(pl);
    pl.clear();
  }
  out.grouped = false;
  out.distinct_keys = 0;  // unknown without grouping
  co_return std::move(out);
}

HashTableCollector::Table::Table()
    : slots(kInitialSlots), occupied(kInitialSlots / 64) {}

void HashTableCollector::Table::reset() {
  blob.clear();
  values.clear();
  if (grew) {
    slots.assign(kInitialSlots, Slot{});
    occupied.assign(kInitialSlots / 64, 0);
    grew = false;
  } else {
    for_each_set_bit(occupied, [&](std::size_t idx) { slots[idx] = Slot{}; });
    std::fill(occupied.begin(), occupied.end(), 0);
  }
  used = 0;
  probes = 0;
}

void HashTableCollector::Table::grow() {
  const std::vector<Slot> old = std::move(slots);
  const std::vector<std::uint64_t> old_occupied = std::move(occupied);
  slots.assign(old.size() * 2, Slot{});
  occupied.assign(slots.size() / 64, 0);
  grew = true;
  const std::uint64_t mask = slots.size() - 1;
  for_each_set_bit(old_occupied, [&](std::size_t old_idx) {
    const Slot& s = old[old_idx];
    std::uint64_t idx = s.hash & mask;
    while (slots[idx].key_off != kEmpty) idx = (idx + 1) & mask;
    slots[idx] = s;
    occupied[idx / 64] |= std::uint64_t{1} << (idx % 64);
  });
}

void HashTableCollector::Table::insert(std::string_view key,
                                       std::string_view value,
                                       cl::KernelCounters& c) {
  if (used * 10 >= slots.size() * 7) {
    grow();
    c.charge_ops(used * 4);  // rehash cost
  }
  const std::uint64_t h = util::fnv1a(key);
  c.charge_ops(key.size());  // hashing the key
  const std::uint64_t mask = slots.size() - 1;
  std::uint64_t idx = h & mask;
  for (;;) {
    Slot& s = slots[idx];
    c.charge_hash_probe(1);
    ++probes;
    if (s.key_off == kEmpty) {
      // Claim the slot (CAS) and store the key once.
      c.charge_atomic(1);
      c.charge_write(key.size());
      s.hash = h;
      s.key_off = blob.size();
      s.key_len = static_cast<std::uint32_t>(key.size());
      s.ord = static_cast<std::uint32_t>(used);
      blob.insert(blob.end(), key.begin(), key.end());
      occupied[idx / 64] |= std::uint64_t{1} << (idx % 64);
      ++used;
      break;
    }
    if (s.hash == h && view(s.key_off, s.key_len) == key) break;
    idx = (idx + 1) & mask;
  }
  // Append the value to the key's list. The charge is that of a chain
  // append on the device, one atomic head swap plus stores; the host keeps
  // values in emit order tagged with the key's ordinal instead.
  Slot& s = slots[idx];
  c.charge_atomic(1);
  c.charge_write(value.size());
  const std::uint64_t voff = blob.size();
  blob.insert(blob.end(), value.begin(), value.end());
  values.push_back(
      ValueNode{voff, static_cast<std::uint32_t>(value.size()), s.ord});
  s.num_values++;
}

HashTableCollector::HashTableCollector(std::size_t groups)
    : MapOutputCollector(groups), tables_(groups) {}

void HashTableCollector::emit(std::size_t group, std::string_view key,
                              std::string_view value, cl::KernelCounters& c) {
  tables_[group].insert(key, value, c);
}

std::uint64_t HashTableCollector::total_probes() const {
  std::uint64_t total = 0;
  for (const auto& t : tables_) total += t.probes;
  return total;
}

// Merges the per-group tables into one key list in first-seen order (over
// groups, then slots) with each key's values in emit order, in two passes.
// Pass 1 visits the occupied slots of each table and maps each to a key id
// through an open-addressed index keyed by the hash the slot already
// stores, sums the value counts per key, and records the key id of every
// (table, claim ordinal). Pass 2 walks each table's values in emit order
// and appends each to its key's range of one arena. Nothing is allocated
// once the buffers are warm.
struct HashTableCollector::Gather {
  // A distinct key; its values are arena[begin, begin + count).
  struct KeyEntry {
    std::string_view key;
    std::uint64_t hash;
    std::uint32_t begin;
    std::uint32_t count;
  };
  static constexpr std::uint32_t kNoKey = ~0u;
  // Fibonacci hashing: the index takes the top bits of the product, not
  // the low bits that placed the key in its group's table.
  static constexpr std::uint64_t kFibonacci = 0x9e3779b97f4a7c15ull;
  static constexpr std::size_t kMinIndex = 1024;

  std::vector<std::uint32_t> index;  // key ids, kNoKey when free
  unsigned shift = 0;                // 64 - log2(index.size())
  std::vector<KeyEntry> keys;
  // Key id per claim ordinal, the tables' ordinals laid end to end.
  std::vector<std::uint32_t> ord_keys;
  std::vector<std::string_view> arena;
  // Per work-group: the value list handed to the combiner and the output
  // pairs. A group's items run on one thread, so each has one writer.
  std::vector<std::vector<std::string_view>> scratch;
  std::vector<PairList> out;

  std::size_t home(std::uint64_t hash) const {
    return (hash * kFibonacci) >> shift;
  }

  void resize_index(std::size_t size) {
    index.assign(size, kNoKey);
    shift = 64 - static_cast<unsigned>(std::countr_zero(size));
    const std::size_t mask = size - 1;
    for (std::uint32_t id = 0; id < keys.size(); ++id) {
      std::size_t idx = home(keys[id].hash);
      while (index[idx] != kNoKey) idx = (idx + 1) & mask;
      index[idx] = id;
    }
  }

  // The id of the key in slot s of table t, added if new.
  std::uint32_t key_id(const Table& t, const Table::Slot& s) {
    const std::string_view key = t.view(s.key_off, s.key_len);
    const std::size_t mask = index.size() - 1;
    for (std::size_t idx = home(s.hash);; idx = (idx + 1) & mask) {
      const std::uint32_t id = index[idx];
      if (id == kNoKey) {
        const auto added = static_cast<std::uint32_t>(keys.size());
        index[idx] = added;
        keys.push_back(KeyEntry{key, s.hash, 0, 0});
        if (keys.size() * 2 > index.size()) resize_index(index.size() * 2);
        return added;
      }
      if (keys[id].hash == s.hash && keys[id].key == key) return id;
    }
  }

  void run(const std::vector<Table>& tables) {
    keys.clear();
    ord_keys.clear();
    if (index.empty()) {
      resize_index(kMinIndex);
    } else {
      std::fill(index.begin(), index.end(), kNoKey);
    }
    for (const Table& t : tables) {
      const std::size_t first = ord_keys.size();
      ord_keys.resize(first + t.used);
      for_each_set_bit(t.occupied, [&](std::size_t idx) {
        const Table::Slot& s = t.slots[idx];
        const std::uint32_t id = key_id(t, s);
        keys[id].count += s.num_values;
        ord_keys[first + s.ord] = id;
      });
    }
    std::uint64_t total = 0;
    for (KeyEntry& e : keys) {
      e.begin = static_cast<std::uint32_t>(total);
      total += e.count;
      GW_CHECK(total < kNoKey);
    }
    arena.resize(total);
    // Groups in order, each group's values in emit order: every key's
    // range fills front to back in group order, then emit order. `begin`
    // is the fill cursor and is moved back to the range's start after.
    const std::uint32_t* table_keys = ord_keys.data();
    for (const Table& t : tables) {
      for (const Table::ValueNode& v : t.values) {
        arena[keys[table_keys[v.ord]].begin++] = t.view(v.off, v.len);
      }
      table_keys += t.used;
    }
    for (KeyEntry& e : keys) e.begin -= e.count;
    if (scratch.size() < tables.size()) {
      scratch.resize(tables.size());
      out.resize(tables.size());
    }
  }

  std::span<const std::string_view> values(const KeyEntry& e) const {
    return {arena.data() + e.begin, e.count};
  }

  // The free list shared by all collectors.
  static std::unique_ptr<Gather> take() {
    std::lock_guard<std::mutex> lock(free_mutex);
    if (free_list.empty()) return std::make_unique<Gather>();
    std::unique_ptr<Gather> g = std::move(free_list.back());
    free_list.pop_back();
    return g;
  }
  static void give_back(std::unique_ptr<Gather> g) {
    std::lock_guard<std::mutex> lock(free_mutex);
    free_list.push_back(std::move(g));
  }
  inline static std::mutex free_mutex;
  inline static std::vector<std::unique_ptr<Gather>> free_list;
};

sim::Task<MapChunkOutput> HashTableCollector::finalize(
    cl::Device& device, const std::optional<CombineFn>& combine,
    cl::LaunchConfig launch) {
  // The gather is real host work with no charge of its own, so it is folded
  // into the kernel job below and runs on the pool together with the
  // post-processing kernel over keys: combine, or compaction when no
  // combiner is configured (the paper always runs one of the two after
  // map() in hash-table mode, §IV-B1).
  const std::size_t groups = tables_.size();
  const CombineFn* combine_fn = combine.has_value() ? &*combine : nullptr;
  MapChunkOutput out;
  // Named local, not a temporary in the co_await full-expression (see the
  // payload rule in sim/sim.h).
  cl::Device::KernelJobFn job = [this, groups, combine_fn, &out] {
    std::unique_ptr<Gather> gather = Gather::take();
    gather->run(tables_);
    out.distinct_keys = gather->keys.size();
    const cl::KernelStats stats = cl::Device::execute_grouped(
        gather->keys.size(), groups,
        [&](std::size_t i, std::size_t g, cl::KernelCounters& c) {
          const Gather::KeyEntry& e = gather->keys[i];
          const std::span<const std::string_view> values = gather->values(e);
          std::uint64_t bytes = e.key.size();
          for (auto v : values) bytes += v.size();
          c.charge_read(bytes);
          PairList& pairs = gather->out[g];
          if (combine_fn != nullptr) {
            std::vector<std::string_view>& scratch = gather->scratch[g];
            scratch.assign(values.begin(), values.end());
            PairListEmitter emitter(&pairs, &c);
            ReduceContext ctx{&emitter, &c};
            (*combine_fn)(e.key, scratch, ctx);
          } else {
            // Compaction: place each key's values contiguously.
            c.charge_write(bytes);
            for (auto v : values) pairs.add(e.key, v);
          }
        });
    for (std::size_t g = 0; g < groups; ++g) {
      out.pairs.append(gather->out[g]);
      gather->out[g].clear();
    }
    Gather::give_back(std::move(gather));
    return stats;
  };
  const cl::KernelStats post =
      co_await device.run_kernel_job(std::move(job), launch);

  out.grouped = true;
  out.post_stats = post;
  for (auto& t : tables_) {
    out.hash_probes += t.probes;
    t.reset();  // keeps blob/values capacity for the next chunk
  }
  co_return std::move(out);
}

}  // namespace gw::core
