#include "util/compress.h"

#include <bit>
#include <cstring>
#include <vector>

#include "util/error.h"

namespace gw::util {

namespace {

// Format: varint uncompressed_size, then a token stream.
//   token = varint literal_len, literal bytes,
//           varint match_len (0 terminates after literals),
//           varint match_distance (present iff match_len > 0).
// Minimum match length 4; greedy matcher over a 64Ki-entry hash of 4-byte
// prefixes with a 64KB window.
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kWindow = 64 * 1024;
constexpr std::size_t kHashBits = 16;

inline std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of a and b, at most `limit`, compared eight
// bytes at a time.
inline std::size_t common_prefix(const std::uint8_t* a, const std::uint8_t* b,
                                 std::size_t limit) {
  std::size_t n = 0;
  for (; n + 8 <= limit; n += 8) {
    std::uint64_t x, y;
    std::memcpy(&x, a + n, 8);
    std::memcpy(&y, b + n, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return n + static_cast<std::size_t>(std::countr_zero(diff)) / 8;
      } else {
        return n + static_cast<std::size_t>(std::countl_zero(diff)) / 8;
      }
    }
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

// The matcher's hash table, one per thread and reused by every call on it.
// An entry holds base + pos, where each call takes a base above every entry
// written before it, so an entry below the current base is empty: no call
// clears the table, and 64-bit entries cannot wrap.
struct MatchTable {
  std::vector<std::uint64_t> slots =
      std::vector<std::uint64_t>(std::size_t{1} << kHashBits, 0);
  std::uint64_t next_base = 1;
};

}  // namespace

Bytes lz_compress(const void* input, std::size_t len) {
  const auto* src = static_cast<const std::uint8_t*>(input);
  ByteWriter out;
  out.put_varint(len);
  if (len == 0) return out.take();

  thread_local MatchTable matcher;
  std::uint64_t* const table = matcher.slots.data();
  const std::uint64_t base = matcher.next_base;
  matcher.next_base += len + 1;

  std::size_t pos = 0;
  std::size_t literal_start = 0;

  auto flush = [&](std::size_t match_len, std::size_t distance) {
    out.put_varint(pos - literal_start);
    out.put_bytes(src + literal_start, pos - literal_start);
    out.put_varint(match_len);
    if (match_len > 0) out.put_varint(distance);
  };

  while (pos + kMinMatch <= len) {
    const std::uint32_t h = hash4(src + pos);
    const std::uint64_t entry = table[h];
    table[h] = base + pos;
    const std::size_t cand = entry - base;  // meaningful iff entry >= base

    std::size_t match_len = 0;
    if (entry >= base && pos - cand <= kWindow &&
        std::memcmp(src + cand, src + pos, kMinMatch) == 0) {
      match_len = kMinMatch + common_prefix(src + cand + kMinMatch,
                                            src + pos + kMinMatch,
                                            len - pos - kMinMatch);
    }

    if (match_len >= kMinMatch) {
      flush(match_len, pos - cand);
      // Index a few positions inside the match so later data can refer back.
      const std::size_t end = pos + match_len;
      for (std::size_t i = pos + 1; i + kMinMatch <= end && i + 4 <= len; i += 3) {
        table[hash4(src + i)] = base + i;
      }
      pos = end;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  pos = len;
  if (literal_start < pos || len == 0) {
    flush(0, 0);
  } else {
    // Ended exactly on a match boundary: emit empty terminator token.
    out.put_varint(0);
    out.put_varint(0);
  }
  return out.take();
}

Bytes lz_decompress(const void* input, std::size_t len) {
  Bytes out;
  lz_decompress_into(input, len, out);
  return out;
}

void lz_decompress_into(const void* input, std::size_t len, Bytes& out) {
  ByteReader in(input, len);
  const std::uint64_t total = in.get_varint();
  out.clear();
  out.resize(total);
  std::uint8_t* const dst = out.data();
  std::size_t size = 0;  // bytes written so far
  const auto* src = static_cast<const std::uint8_t*>(input);
  while (size < total) {
    const std::uint64_t lit = in.get_varint();
    if (lit > 0) {
      if (in.remaining() < lit) throw_error("lz: truncated literal run");
      if (lit > total - size) throw_error("lz: literal overruns output");
      std::memcpy(dst + size, src + in.position(), lit);
      size += lit;
      in.skip(lit);
    }
    const std::uint64_t match = in.get_varint();
    if (match == 0) {
      if (size < total && in.done()) throw_error("lz: stream ended early");
      continue;
    }
    const std::uint64_t dist = in.get_varint();
    if (dist == 0 || dist > size) throw_error("lz: bad match distance");
    if (size + match > total) throw_error("lz: match overruns output");
    const std::uint8_t* from = dst + size - dist;
    std::uint8_t* to = dst + size;
    if (dist >= match) {
      std::memcpy(to, from, match);
    } else {
      // Overlapping match (RLE-style): must copy byte-by-byte forward.
      for (std::uint64_t i = 0; i < match; ++i) to[i] = from[i];
    }
    size += match;
  }
  if (size != total) throw_error("lz: size mismatch");
}

}  // namespace gw::util
