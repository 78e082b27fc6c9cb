#include "wire/wire.h"

namespace seemore {

void Encoder::PutVarint(uint64_t v) {
  uint8_t encoded[kMaxVarintSize];
  PutRaw(encoded, WriteVarint(encoded, v));
}

void Encoder::PutBytes(const uint8_t* data, size_t len) {
  PutVarint(len);
  Append(data, len);
}

bool Decoder::Require(size_t n) {
  if (!status_.ok()) return false;
  if (len_ - pos_ < n) {
    Fail("truncated input");
    return false;
  }
  return true;
}

void Decoder::Fail(const char* what) {
  if (status_.ok()) status_ = Status::Corruption(what);
}

uint8_t Decoder::GetU8() {
  if (!Require(1)) return 0;
  return data_[pos_++];
}

uint16_t Decoder::GetU16() {
  if (!Require(2)) return 0;
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

uint32_t Decoder::GetU32() {
  if (!Require(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

uint64_t Decoder::GetU64() {
  if (!Require(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

uint64_t Decoder::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (!Require(1)) return 0;
    uint8_t byte = data_[pos_++];
    if (shift == 63 && (byte & 0xfe) != 0) {
      Fail("varint overflow");
      return 0;
    }
    // Canonical form only: a zero final group after the first byte is a
    // padded encoding (0x80 0x00 for 0). Accepting it would let a peer send
    // bytes that decode to a value whose re-encoding differs, so a digest
    // over the received bytes would not be the digest of what was decoded.
    if (byte == 0 && shift > 0) {
      Fail("non-canonical varint");
      return 0;
    }
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) {
      Fail("varint too long");
      return 0;
    }
  }
}

const uint8_t* Decoder::TakePrefixed(size_t* len) {
  const size_t start = pos_;
  const uint64_t n = GetVarint();
  if (!status_.ok()) return nullptr;
  if (n > remaining()) {
    pos_ = start;
    Fail("bytes length exceeds input");
    return nullptr;
  }
  const uint8_t* field = data_ + pos_;
  pos_ += n;
  *len = n;
  return field;
}

Bytes Decoder::GetBytes() {
  size_t len = 0;
  const uint8_t* field = TakePrefixed(&len);
  if (field == nullptr) return {};
  return Bytes(field, field + len);
}

std::string Decoder::GetString() {
  size_t len = 0;
  const uint8_t* field = TakePrefixed(&len);
  if (field == nullptr) return {};
  return std::string(reinterpret_cast<const char*>(field), len);
}

Bytes Decoder::GetRaw(size_t len) {
  if (!Require(len)) return {};
  Bytes out(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return out;
}

bool Decoder::Skip(size_t len) {
  if (!Require(len)) return false;
  pos_ += len;
  return true;
}

bool Decoder::GetRawInto(uint8_t* out, size_t len) {
  if (!Require(len)) return false;
  std::memcpy(out, data_ + pos_, len);
  pos_ += len;
  return true;
}

Status Decoder::Finish() {
  if (!status_.ok()) return status_;
  if (pos_ != len_) {
    status_ = Status::Corruption("trailing bytes after message");
  }
  return status_;
}

}  // namespace seemore
