// Bounds-checked big-endian byte readers/writers: the one coder of every
// bgpcc binary format — the BGP and MRT wire codecs, the spill runs and
// the state files (core/codec.h). All multi-byte integers on the wire
// are network byte order.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netbase/error.h"

namespace bgpcc {

/// Sequential reader over an immutable byte buffer.
///
/// Every read checks the remaining length and throws DecodeError on
/// underrun, so callers can parse untrusted input without manual bounds
/// arithmetic. The reader does not own the buffer; the caller must keep it
/// alive for the reader's lifetime.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }
  /// Absolute offset of the next byte to be read.
  [[nodiscard]] std::size_t position() const { return pos_; }

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();

  /// Consumes `n` bytes and returns a view into the underlying buffer.
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n);

  /// Returns a sub-reader over the next `n` bytes and consumes them.
  /// Useful for length-prefixed substructures (e.g. the path attribute
  /// block of a BGP UPDATE).
  [[nodiscard]] ByteReader sub(std::size_t n);

  /// Skips `n` bytes (throws if fewer remain).
  void skip(std::size_t n);

  /// Copies the next `n` bytes into `out` (throws if fewer remain).
  void raw(void* out, std::size_t n) {
    std::span<const std::uint8_t> view = bytes(n);
    std::copy(view.begin(), view.end(), static_cast<std::uint8_t*>(out));
  }

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Append-only big-endian byte buffer builder.
///
/// Length fields that are only known after the payload is serialized are
/// handled with placeholder<T>()/patch().
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> data);
  /// Appends `n` raw bytes (the pointer form of bytes()).
  void raw(const void* data, std::size_t n) {
    bytes({static_cast<const std::uint8_t*>(data), n});
  }

  /// Reserves a sizeof(T)-byte slot (written as zero) and returns its
  /// offset for a later patch() once the enclosed payload length is known.
  template <std::unsigned_integral T>
  [[nodiscard]] std::size_t placeholder() {
    std::size_t offset = buf_.size();
    buf_.resize(offset + sizeof(T));
    return offset;
  }
  /// Writes `v` big-endian over the slot placeholder<T>() returned.
  template <std::unsigned_integral T>
  void patch(std::size_t offset, T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.at(offset + i) =
          static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)));
    }
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  /// Empties the buffer, keeping its capacity for reuse.
  void clear() { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Renders bytes as lowercase hex, e.g. {0xde,0xad} -> "dead". Debug aid.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> data);

}  // namespace bgpcc
