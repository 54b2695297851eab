// Bounds-checked decoding of the wire/writer.hpp format.
//
// Every read validates the remaining length first and throws DecodeError on
// overrun, varint overflow, a non-minimal varint, or (through callers)
// malformed structure — a truncated or corrupted buffer must be rejected,
// never walked past the end.
// DecodeError is distinct from CheckError on purpose: a failed decode is a
// bad *input* (hostile client, bit-flipped buffer), not a programming error.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>

namespace fedbiad::wire {

/// Thrown when a payload cannot be decoded (truncation, overflow, or a
/// structurally invalid encoding).
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return buf_.size() - pos_;
  }

  [[nodiscard]] bool done() const noexcept { return pos_ == buf_.size(); }

  /// A well-formed payload is consumed exactly; trailing bytes mean the
  /// framing (and therefore everything decoded from it) is suspect.
  void expect_done() const {
    if (!done()) throw DecodeError("trailing bytes after payload");
  }

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }

  std::uint16_t u16() {
    need(2);
    std::uint16_t v = 0;
    for (int s = 0; s < 16; s += 8) {
      v = static_cast<std::uint16_t>(v | buf_[pos_++] << s);
    }
    return v;
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int s = 0; s < 32; s += 8) {
      v |= static_cast<std::uint32_t>(buf_[pos_++]) << s;
    }
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int s = 0; s < 64; s += 8) {
      v |= static_cast<std::uint64_t>(buf_[pos_++]) << s;
    }
    return v;
  }

  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      need(1);
      const std::uint8_t byte = buf_[pos_++];
      const std::uint64_t low = byte & 0x7FU;
      if (shift == 63 && low > 1) throw DecodeError("varint overflows 64 bits");
      v |= low << shift;
      if ((byte & 0x80U) == 0) {
        // A zero final byte after the first is a second encoding of the
        // value, one the writer never produces.
        if (byte == 0 && shift != 0) {
          throw DecodeError("varint is not minimally encoded");
        }
        return v;
      }
    }
    throw DecodeError("varint longer than 10 bytes");
  }

  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    auto out = buf_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Bulk little-endian f32 run into `out`.
  void f32_run(std::span<float> out) {
    if (out.empty()) return;  // empty spans may carry a null data()
    if constexpr (std::endian::native == std::endian::little) {
      need(out.size() * sizeof(float));
      std::memcpy(out.data(), buf_.data() + pos_, out.size() * sizeof(float));
      pos_ += out.size() * sizeof(float);
    } else {
      for (float& v : out) v = f32();
    }
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw DecodeError("payload truncated");
  }

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Sub-byte reads mirroring BitWriter (LSB-first). The caller is responsible
/// for consuming whole encoded runs; any partial final byte's padding bits
/// can be checked with expect_padding_zero().
class BitReader {
 public:
  explicit BitReader(Reader& r) : r_(r) {}

  std::uint64_t bits(unsigned n) {
    std::uint64_t v = 0;
    unsigned got = 0;
    while (got < n) {
      if (fill_ == 0) {
        acc_ = r_.u8();
        fill_ = 8;
      }
      const unsigned take = n - got < fill_ ? n - got : fill_;
      v |= static_cast<std::uint64_t>(acc_ & ((1U << take) - 1U)) << got;
      acc_ >>= take;
      fill_ -= take;
      got += take;
    }
    return v;
  }

  bool bit() { return bits(1) != 0; }

  /// Rejects nonzero padding in the final partial byte — zero-padding is part
  /// of the format, so stray set bits indicate corruption.
  void expect_padding_zero() const {
    if (acc_ != 0) throw DecodeError("nonzero bit padding");
  }

 private:
  Reader& r_;
  std::uint32_t acc_ = 0;
  unsigned fill_ = 0;
};

}  // namespace fedbiad::wire
