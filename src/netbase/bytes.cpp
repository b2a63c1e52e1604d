#include "netbase/bytes.h"

namespace bgpcc {

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw DecodeError("buffer underrun: need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()));
  }
}

std::uint8_t ByteReader::u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  require(2);
  std::uint16_t v = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  require(4);
  std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                    (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                    (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                    static_cast<std::uint32_t>(data_[pos_ + 3]);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  std::uint64_t hi = u32();
  std::uint64_t lo = u32();
  return (hi << 32) | lo;
}

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n) {
  require(n);
  auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

ByteReader ByteReader::sub(std::size_t n) { return ByteReader(bytes(n)); }

void ByteReader::skip(std::size_t n) {
  require(n);
  pos_ += n;
}

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void ByteWriter::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  buf_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v & 0xffffffff));
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::string to_hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

}  // namespace bgpcc
