#include "apps/wordcount.h"

#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace gw::apps {

namespace {

bool is_word_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

void wc_map(std::string_view record, core::MapContext& ctx) {
  // Scan cost: classify every byte; hash/emit cost charged by the collector.
  ctx.charge_ops(2 * record.size());
  std::size_t i = 0;
  while (i < record.size()) {
    while (i < record.size() && !is_word_char(record[i])) ++i;
    const std::size_t start = i;
    while (i < record.size() && is_word_char(record[i])) ++i;
    if (i > start) ctx.emit(record.substr(start, i - start), "1");
  }
}

void wc_sum(std::string_view key,
            const std::vector<std::string_view>& values,
            core::ReduceContext& ctx) {
  std::uint64_t total = 0;
  for (auto v : values) total += parse_u64(v);
  ctx.charge_ops(3 * values.size());
  ctx.emit(key, std::to_string(total));
}

// Core vocabulary: frequency-ranked pseudo-words; rank 0 is "the"-like.
std::string vocab_word(std::size_t rank) {
  static const char* kCommon[] = {"the", "of",  "and", "in", "to",
                                  "a",   "is",  "was", "as", "for"};
  if (rank < 10) return kCommon[rank];
  std::string w;
  std::size_t r = rank;
  do {
    w.push_back(static_cast<char>('a' + r % 26));
    r /= 26;
  } while (r > 0);
  w.push_back(static_cast<char>('a' + rank % 23));
  return w;
}

}  // namespace

AppSpec wordcount() {
  AppSpec spec;
  spec.kernels.name = "wordcount";
  spec.kernels.map = wc_map;
  spec.kernels.combine = wc_sum;
  // Integer addition: reducing combined partials is byte-identical to
  // reducing the raw counts under any grouping.
  spec.kernels.combine_associative = true;
  spec.kernels.reduce = wc_sum;
  spec.cpu_launch.threads = 0;   // all hardware lanes
  spec.gpu_launch.threads = 0;
  return spec;
}

util::Bytes generate_wiki_text(std::uint64_t bytes, std::uint64_t seed) {
  constexpr std::size_t kVocab = 20000;
  static const std::vector<std::string> vocab = [] {
    std::vector<std::string> words(kVocab);
    for (std::size_t r = 0; r < kVocab; ++r) words[r] = vocab_word(r);
    return words;
  }();
  util::Rng rng(seed);
  util::ZipfSampler zipf(kVocab, 1.05);
  util::Bytes text;
  text.reserve(bytes + 64);
  const auto append = [&text](std::string_view w) {
    text.insert(text.end(), w.begin(), w.end());
  };
  std::uint64_t sparse_id = 0;
  int words_in_line = 0;
  char tail[16];
  while (text.size() < bytes) {
    // ~3% sparse tail words (unique), matching the "large number of sparse
    // words" the paper describes.
    if (rng.below(100) < 3) {
      // Letters only (the map kernel tokenizes on alphabetic runs).
      std::uint64_t id = sparse_id++;
      std::size_t len = 0;
      tail[len++] = 'x';
      tail[len++] = 'q';
      do {
        tail[len++] = static_cast<char>('a' + id % 26);
        id /= 26;
      } while (id > 0);
      append(std::string_view(tail, len));
    } else {
      append(vocab[zipf.sample(rng)]);
    }
    if (++words_in_line >= 12) {
      text.push_back('\n');
      words_in_line = 0;
    } else {
      text.push_back(' ');
    }
  }
  if (text.empty() || text.back() != '\n') text.push_back('\n');
  return text;
}

std::map<std::string, std::uint64_t> wordcount_reference(
    const util::Bytes& text) {
  std::map<std::string, std::uint64_t> counts;
  std::string word;
  for (std::uint8_t b : text) {
    const char c = static_cast<char>(b);
    if (is_word_char(c)) {
      word += c;
    } else if (!word.empty()) {
      counts[word]++;
      word.clear();
    }
  }
  if (!word.empty()) counts[word]++;
  return counts;
}

}  // namespace gw::apps
