// Seeded byte mutations for the reader fuzz slices.
//
// Every reader that takes bytes from outside the process (update payloads,
// protocol messages, frame streams, checkpoint files, scenario JSON) is
// fuzzed by mutating a corpus of valid encodings with mutate_bytes: bit
// flips, truncation, extension, a splice with another corpus entry, and
// varint lies. Each mutation must be rejected with the reader's own error
// or read back into something well-formed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/rng.hpp"
#include "wire/writer.hpp"

namespace fedbiad::support {

/// Re-encodes one varint of the varint run starting at byte `from` — for a
/// payload (from 0) the entry count or one of the delta-varint gaps after
/// it, as the varint-led kinds lay them out — with `value`, keeping every
/// other byte as it was.
inline void rewrite_leading_varint(std::vector<std::uint8_t>& bytes,
                                   std::size_t from, std::size_t which,
                                   std::uint64_t value) {
  std::size_t begin = from;
  std::size_t end = from;
  for (std::size_t v = 0; v <= which && end < bytes.size(); ++v) {
    begin = end;
    while (end < bytes.size() && (bytes[end] & 0x80U) != 0) ++end;
    if (end < bytes.size()) ++end;
  }
  wire::Writer w;
  w.varint(value);
  const std::vector<std::uint8_t> lie = std::move(w).take();
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(begin),
              bytes.begin() + static_cast<std::ptrdiff_t>(end));
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(begin),
               lie.begin(), lie.end());
}

/// A varint value worth lying with: small, near the layout size, or huge —
/// including gaps that wrap a position past 2^64 back into [0, n).
inline std::uint64_t lying_varint(tensor::Rng& rng, std::size_t n) {
  switch (rng.uniform_index(4)) {
    case 0:
      return rng.uniform_index(8);
    case 1:
      return n - 1 + rng.uniform_index(3);
    case 2:
      return ~std::uint64_t{0} - rng.uniform_index(n);
    default:
      return rng.next_u64();
  }
}

/// Applies one seeded mutation to `b`: bit flips, truncation, extension, a
/// splice with the tail of `pick_other()`'s bytes, a lie in the varint run
/// starting at byte `varint_at`, or a varint planted mid-stream. `n` scales
/// the lies (see lying_varint).
template <typename PickOther>
void mutate_bytes(std::vector<std::uint8_t>& b, PickOther pick_other,
                  std::size_t varint_at, std::size_t n, tensor::Rng& rng) {
  switch (rng.uniform_index(6)) {
    case 0: {  // bit flips
      if (b.empty()) break;
      const std::size_t flips = 1 + rng.uniform_index(4);
      for (std::size_t f = 0; f < flips; ++f) {
        b[rng.uniform_index(b.size())] ^=
            static_cast<std::uint8_t>(1U << rng.uniform_index(8));
      }
      break;
    }
    case 1:  // truncation
      b.resize(b.empty() ? 0 : rng.uniform_index(b.size()));
      break;
    case 2: {  // extension
      const std::size_t extra = 1 + rng.uniform_index(8);
      for (std::size_t e = 0; e < extra; ++e) {
        b.push_back(static_cast<std::uint8_t>(rng.uniform_index(256)));
      }
      break;
    }
    case 3: {  // splice: this buffer's head, another buffer's tail
      const std::vector<std::uint8_t>& other = pick_other();
      const std::size_t cut = rng.uniform_index(b.size() + 1);
      const std::size_t from = rng.uniform_index(other.size() + 1);
      b.resize(cut);
      b.insert(b.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
               other.end());
      break;
    }
    case 4:  // a count, gap or length varint lies
      rewrite_leading_varint(b, varint_at, rng.uniform_index(4),
                             lying_varint(rng, n));
      break;
    default: {  // a varint (gap, count) planted mid-stream
      wire::Writer w;
      w.varint(lying_varint(rng, n));
      const std::vector<std::uint8_t> lie = std::move(w).take();
      const std::size_t at = rng.uniform_index(b.size() + 1);
      const std::size_t span = std::min(lie.size(), b.size() - at);
      b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
              b.begin() + static_cast<std::ptrdiff_t>(at + span));
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), lie.begin(),
               lie.end());
      break;
    }
  }
}

}  // namespace fedbiad::support
