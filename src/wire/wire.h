// Binary wire format for all protocol messages.
//
// Encoding rules (little-endian throughout):
//   - u8 / u16 / u32 / u64: fixed width
//   - varint: LEB128, for sequence numbers and lengths; the decoder accepts
//     only the minimal (canonical) encoding, so an accepted batch re-encodes
//     to exactly the bytes it was decoded from (and digested over)
//   - bytes:  varint length prefix + raw bytes
//   - string: same as bytes
// The Decoder is bounds-checked and returns Status on any truncated or
// malformed input: Byzantine replicas may send arbitrary bytes, so a decode
// failure must never crash a correct replica.

#ifndef SEEMORE_WIRE_WIRE_H_
#define SEEMORE_WIRE_WIRE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace seemore {

using Bytes = std::vector<uint8_t>;

/// Encoded length of PutVarint(v), for exact Encoder::Reserve hints.
constexpr size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Longest LEB128 encoding of a uint64_t.
inline constexpr size_t kMaxVarintSize = 10;

/// Write the canonical (minimal) LEB128 encoding of `v` to `out`, which must
/// hold kMaxVarintSize bytes; returns the encoded length (== VarintSize(v)).
inline size_t WriteVarint(uint8_t* out, uint64_t v) {
  size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<uint8_t>(v);
  return n;
}

/// Appends primitive values to a growing byte buffer.
class Encoder {
 public:
  Encoder() = default;

  /// An encoder that stores nothing and only counts: size() is the exact
  /// length the same Put* sequence appends to a real Encoder. EncodeExact
  /// runs an encode through one of these to size its buffer.
  static Encoder Measuring() {
    Encoder enc;
    enc.measuring_ = true;
    return enc;
  }

  /// Pre-size the buffer for `n` further bytes, so one allocation replaces
  /// the doubling growth of piecewise appends.
  void Reserve(size_t n) {
    if (!measuring_) buf_.reserve(buf_.size() + n);
  }

  void PutU8(uint8_t v) {
    if (measuring_) {
      ++measured_;
      return;
    }
    buf_.push_back(v);
  }
  void PutU16(uint16_t v) { PutLittleEndian(v, 2); }
  void PutU32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutU64(uint64_t v) { PutLittleEndian(v, 8); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutVarint(uint64_t v);
  void PutBytes(const uint8_t* data, size_t len);
  void PutBytes(const Bytes& data) { PutBytes(data.data(), data.size()); }
  void PutString(const std::string& s) {
    PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  /// Raw append with no length prefix (for fixed-size fields like digests).
  void PutRaw(const uint8_t* data, size_t len) { Append(data, len); }
  void PutRaw(const Bytes& data) { PutRaw(data.data(), data.size()); }

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return measuring_ ? measured_ : buf_.size(); }

 private:
  void Append(const uint8_t* data, size_t len) {
    if (measuring_) {
      measured_ += len;
      return;
    }
    // Grow here rather than inside insert: GCC 12 takes insert's own
    // regrowth of an empty buffer for an overflow (-Wstringop-overflow).
    if (buf_.capacity() - buf_.size() < len) {
      buf_.reserve(std::max(2 * buf_.capacity(), buf_.size() + len));
    }
    buf_.insert(buf_.end(), data, data + len);
  }
  /// The low `width` bytes of `v`, least significant first, in one append.
  void PutLittleEndian(uint64_t v, int width) {
    uint8_t bytes[8];
    for (int i = 0; i < width; ++i) {
      bytes[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Append(bytes, static_cast<size_t>(width));
  }

  Bytes buf_;
  bool measuring_ = false;
  size_t measured_ = 0;
};

/// Runs `encode(Encoder&)` twice: once measuring, once into a buffer
/// reserved at exactly that size. The result is one allocation whose
/// capacity() equals its size(); the bytes are those of a single pass.
template <typename F>
Bytes EncodeExact(F&& encode) {
  Encoder sizer = Encoder::Measuring();
  encode(sizer);
  Encoder enc;
  enc.Reserve(sizer.size());
  encode(enc);
  return enc.Take();
}

/// Fixed-capacity encoder on the stack for the short signed headers fed to
/// a MAC (Signer::Sign / KeyStore::Verify): Encoder's byte layout with no
/// heap allocation. `N` must cover every Put of the caller's fixed field
/// layout, kMaxVarintSize per varint.
template <size_t N>
class StackEncoder {
 public:
  void PutU8(uint8_t v) { PutLittleEndian(v, 1); }
  void PutU32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutU64(uint64_t v) { PutLittleEndian(v, 8); }
  void PutVarint(uint64_t v) { len_ += WriteVarint(buf_ + len_, v); }
  void PutRaw(const uint8_t* data, size_t len) {
    std::memcpy(buf_ + len_, data, len);
    len_ += len;
  }

  const uint8_t* data() const { return buf_; }
  size_t size() const { return len_; }

 private:
  void PutLittleEndian(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      buf_[len_++] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  uint8_t buf_[N];
  size_t len_ = 0;
};

/// Bounds-checked reader over a byte span. All getters fail with
/// kCorruption once the input is exhausted or malformed; after a failure
/// every subsequent getter also fails (sticky error), so callers may batch
/// reads and check `status()` once.
class Decoder {
 public:
  Decoder(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit Decoder(const Bytes& data) : Decoder(data.data(), data.size()) {}
  /// Decoder over a shared immutable buffer (wire/payload.h): `buffer_id`
  /// is the buffer's process-unique identity.
  Decoder(const uint8_t* data, size_t len, uint64_t buffer_id)
      : data_(data), len_(len), buffer_id_(buffer_id) {}

  uint8_t GetU8();
  uint16_t GetU16();
  uint32_t GetU32();
  uint64_t GetU64();
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  uint64_t GetVarint();
  Bytes GetBytes();
  std::string GetString();
  /// Read exactly `len` raw bytes (no length prefix).
  Bytes GetRaw(size_t len);
  /// Copy exactly `len` raw bytes into `out`.
  bool GetRawInto(uint8_t* out, size_t len);
  /// Step over exactly `len` raw bytes without copying them (discarded
  /// payload). Fails, without advancing, when fewer than `len` remain.
  bool Skip(size_t len);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return len_ - pos_; }
  /// Current read offset from the start of the input. A field decoded by
  /// the immediately preceding getter occupies [pos() - field_size, pos()).
  size_t pos() const { return pos_; }
  /// Identity of the underlying shared buffer, or 0 when decoding plain
  /// bytes (see the buffer_id constructor).
  uint64_t buffer_id() const { return buffer_id_; }
  /// True if the whole input has been consumed and no error occurred.
  bool AtEnd() const { return ok() && pos_ == len_; }
  /// Fails the decoder unless the input was fully consumed.
  Status Finish();

 private:
  bool Require(size_t n);
  void Fail(const char* what);
  /// The next length-prefixed field in place: returns its first byte and
  /// sets `*len`, advancing past it. On a length past the end it fails and
  /// leaves pos() where it was before the prefix.
  const uint8_t* TakePrefixed(size_t* len);

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  uint64_t buffer_id_ = 0;
  Status status_;
};

}  // namespace seemore

#endif  // SEEMORE_WIRE_WIRE_H_
