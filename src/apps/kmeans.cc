#include "apps/kmeans.h"

#include <cmath>
#include <memory>
#include <string>

#include "util/error.h"
#include "util/rng.h"

namespace gw::apps {

namespace {

int nearest_center(const float* point, const std::vector<float>& centers,
                   int k, int d) {
  int best = 0;
  float best_dist = 0;
  for (int c = 0; c < k; ++c) {
    float dist = 0;
    for (int j = 0; j < d; ++j) {
      const float delta = point[j] - centers[static_cast<std::size_t>(c) * d + j];
      dist += delta * delta;
    }
    if (c == 0 || dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  return best;
}

// Value payload: d float sums + u32 count.
std::string encode_partial(const float* sums, int d, std::uint32_t count) {
  std::string out;
  out.reserve(static_cast<std::size_t>(d) * 4 + 4);
  for (int j = 0; j < d; ++j) append_f32(out, sums[j]);
  put_be32(out, count);
  return out;
}

}  // namespace

AppSpec kmeans(KmeansConfig config, std::vector<float> centers) {
  GW_CHECK(static_cast<int>(centers.size()) == config.k * config.dims);
  const int k = config.k;
  const int d = config.dims;
  auto shared_centers = std::make_shared<std::vector<float>>(std::move(centers));

  AppSpec spec;
  spec.kernels.name = "kmeans";
  spec.kernels.fixed_record_size = static_cast<std::uint64_t>(d) * 4;

  spec.kernels.map = [k, d, shared_centers](std::string_view record,
                                            core::MapContext& ctx) {
    GW_CHECK(record.size() == static_cast<std::size_t>(d) * 4);
    float point[16] = {};
    GW_CHECK(d <= 16);
    for (int j = 0; j < d; ++j) point[j] = read_f32(record.data() + 4 * j);
    // k*d multiply-add-compare distance evaluations plus fixed per-point
    // work-item overhead (point load, index math, argmin bookkeeping) —
    // which dominates for small center counts, as the paper's 16-center
    // configuration shows (§IV-A2).
    ctx.charge_ops(static_cast<std::uint64_t>(3 * k) * d + 800);
    const int best = nearest_center(point, *shared_centers, k, d);
    std::string key;
    put_be32(key, static_cast<std::uint32_t>(best));
    ctx.emit(key, encode_partial(point, d, 1));
  };

  auto aggregate = [d](std::string_view /*key*/,
                       const std::vector<std::string_view>& values,
                       float* sums, std::uint64_t* count) {
    for (int j = 0; j < d; ++j) sums[j] = 0;
    *count = 0;
    for (auto v : values) {
      GW_CHECK(v.size() == static_cast<std::size_t>(d) * 4 + 4);
      for (int j = 0; j < d; ++j) sums[j] += read_f32(v.data() + 4 * j);
      *count += get_be32(v.substr(static_cast<std::size_t>(d) * 4));
    }
  };

  spec.kernels.combine = [d, aggregate](
                             std::string_view key,
                             const std::vector<std::string_view>& values,
                             core::ReduceContext& ctx) {
    float sums[16];
    std::uint64_t count = 0;
    aggregate(key, values, sums, &count);
    ctx.charge_ops(static_cast<std::uint64_t>(values.size()) * (d + 1));
    ctx.emit(key, encode_partial(sums, d, static_cast<std::uint32_t>(count)));
  };
  // Float accumulation is order-sensitive; hierarchical combining regroups
  // partials, so byte-identical output across modes is NOT guaranteed.
  // Left unset: combine_mode degrades to kOff for this app.
  spec.kernels.combine_associative = false;

  spec.kernels.reduce = [d, aggregate](
                            std::string_view key,
                            const std::vector<std::string_view>& values,
                            core::ReduceContext& ctx) {
    float sums[16];
    std::uint64_t count = 0;
    aggregate(key, values, sums, &count);
    ctx.charge_ops(static_cast<std::uint64_t>(values.size()) * (d + 1));
    float means[16];
    for (int j = 0; j < d; ++j) {
      means[j] = count > 0 ? sums[j] / static_cast<float>(count) : 0.0f;
    }
    ctx.emit(key, encode_partial(means, d, static_cast<std::uint32_t>(count)));
  };

  return spec;
}

std::vector<float> generate_centers(const KmeansConfig& config,
                                    std::uint64_t seed) {
  util::Rng rng(seed ^ 0xc0ffee);
  std::vector<float> centers(static_cast<std::size_t>(config.k) * config.dims);
  for (auto& c : centers) {
    c = static_cast<float>(rng.uniform(0.0, 100.0));
  }
  return centers;
}

util::Bytes generate_points(const KmeansConfig& config, std::uint64_t points,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  util::Bytes data;
  data.reserve(points * config.dims * 4);
  for (std::uint64_t p = 0; p < points; ++p) {
    for (int j = 0; j < config.dims; ++j) {
      const float v = static_cast<float>(rng.uniform(0.0, 100.0));
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(&v);
      data.insert(data.end(), bytes, bytes + 4);
    }
  }
  return data;
}

KmeansReference kmeans_reference(const KmeansConfig& config,
                                 const std::vector<float>& centers,
                                 const util::Bytes& points) {
  const int k = config.k;
  const int d = config.dims;
  KmeansReference ref;
  ref.counts.assign(k, 0);
  std::vector<double> sums(static_cast<std::size_t>(k) * d, 0.0);
  const std::size_t record = static_cast<std::size_t>(d) * 4;
  for (std::size_t off = 0; off + record <= points.size(); off += record) {
    float point[16] = {};
    for (int j = 0; j < d; ++j) {
      point[j] = read_f32(reinterpret_cast<const char*>(points.data()) + off +
                          4 * j);
    }
    const int best = nearest_center(point, centers, k, d);
    ref.counts[best]++;
    for (int j = 0; j < d; ++j) {
      sums[static_cast<std::size_t>(best) * d + j] += point[j];
    }
  }
  ref.means.assign(static_cast<std::size_t>(k) * d, 0.0f);
  for (int c = 0; c < k; ++c) {
    if (ref.counts[c] == 0) continue;
    for (int j = 0; j < d; ++j) {
      ref.means[static_cast<std::size_t>(c) * d + j] = static_cast<float>(
          sums[static_cast<std::size_t>(c) * d + j] /
          static_cast<double>(ref.counts[c]));
    }
  }
  return ref;
}

util::Bytes encode_kmeans_state(const std::vector<float>& centers,
                                const std::vector<std::uint64_t>& counts) {
  std::string out;
  out.reserve(centers.size() * 4 + counts.size() * 8);
  for (float c : centers) append_f32(out, c);
  for (std::uint64_t n : counts) put_be64(out, n);
  return util::Bytes(out.begin(), out.end());
}

void decode_kmeans_state(const KmeansConfig& config, const util::Bytes& state,
                         std::vector<float>* centers,
                         std::vector<std::uint64_t>* counts) {
  const std::size_t k = static_cast<std::size_t>(config.k);
  const std::size_t kd = k * static_cast<std::size_t>(config.dims);
  GW_CHECK_MSG(state.size() == kd * 4 + k * 8, "bad kmeans broadcast payload");
  const std::string_view view(reinterpret_cast<const char*>(state.data()),
                              state.size());
  centers->resize(kd);
  for (std::size_t i = 0; i < kd; ++i) {
    (*centers)[i] = read_f32(view.data() + i * 4);
  }
  counts->resize(k);
  for (std::size_t c = 0; c < k; ++c) {
    (*counts)[c] = get_be64(view.substr(kd * 4 + c * 8));
  }
}

KmeansDagResult kmeans_dag(core::GlasswingRuntime& runtime,
                           cluster::Platform& platform, dfs::FileSystem& fs,
                           KmeansConfig config,
                           std::vector<float> initial_centers,
                           const std::string& points_path,
                           const std::string& output_prefix, int iterations,
                           core::JobConfig base, core::EdgeKind edge,
                           bool pin_inputs, std::uint64_t pin_budget_bytes) {
  GW_CHECK(iterations >= 1);
  const int k = config.k;
  const int d = config.dims;

  core::DagConfig dc;
  dc.input_paths = {points_path};
  dc.output_root = output_prefix;
  dc.base = std::move(base);
  dc.pin_inputs = pin_inputs;
  dc.pin_budget_bytes = pin_budget_bytes;
  dc.initial_broadcast = encode_kmeans_state(
      initial_centers, std::vector<std::uint64_t>(static_cast<std::size_t>(k)));

  core::JobDag dag(runtime, platform, fs, dc);
  core::RoundSpec round;
  round.name = "kmeans";
  round.edge = edge;
  round.app = [config](const core::DagRoundState& st) {
    std::vector<float> centers;
    std::vector<std::uint64_t> counts;
    decode_kmeans_state(config, st.broadcast, &centers, &counts);
    return kmeans(config, std::move(centers)).kernels;
  };
  // Every iteration re-reads the full point set (the pinned input cache, if
  // enabled, absorbs the repeats).
  round.inputs = [points_path](const core::DagRoundState&) {
    return std::vector<std::string>{points_path};
  };
  round.tune = [output_prefix](core::JobConfig& cfg,
                               const core::DagRoundState& st) {
    cfg.output_path = output_prefix + "/iter-" + std::to_string(st.round);
  };
  // The re-broadcast step: fold the round's (center-id -> means, count)
  // pairs into the carried state. Centers with no members keep their old
  // position, exactly like the legacy hand-rolled loop.
  round.broadcast = [config, k, d](const core::DagRoundState& st,
                                   const core::RoundPairs& pairs) {
    std::vector<float> centers;
    std::vector<std::uint64_t> counts;
    decode_kmeans_state(config, st.broadcast, &centers, &counts);
    counts.assign(static_cast<std::size_t>(k), 0);
    for (const auto& [key, value] : pairs) {
      const std::uint32_t cid = get_be32(key);
      GW_CHECK(cid < static_cast<std::uint32_t>(k));
      counts[cid] = get_be32(
          std::string_view(value).substr(static_cast<std::size_t>(d) * 4));
      if (counts[cid] > 0) {
        for (int j = 0; j < d; ++j) {
          centers[static_cast<std::size_t>(cid) * d + j] =
              read_f32(value.data() + 4 * j);
        }
      }
    }
    return encode_kmeans_state(centers, counts);
  };
  dag.add_round(std::move(round));
  dag.until(nullptr, iterations);

  KmeansDagResult out;
  out.dag = dag.run();
  decode_kmeans_state(config, out.dag.final_broadcast,
                      &out.iterations.centers, &out.iterations.counts);
  out.iterations.iterations = out.dag.iterations;
  for (const auto& r : out.dag.rounds) {
    out.iterations.total_elapsed_seconds += r.job.elapsed_seconds;
  }
  return out;
}

}  // namespace gw::apps
