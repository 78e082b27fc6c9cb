// Refcounted immutable message payload.
//
// A Payload wraps an encoded frame in shared, write-protected storage so a
// multicast of one message to n receivers costs one encode and one
// allocation: every copy of the Payload (per-receiver delivery closures,
// CPU-queue entries, duplicated deliveries) is a refcount bump, never a byte
// copy. Immutability is what makes the sharing safe — a Byzantine receiver
// that wants to mutate "its" message must copy the bytes out first
// (ToBytes), so it can never corrupt the other receivers' view of the frame
// (tests/payload_test.cc pins this down).
//
// A Payload either owns its bytes outright or is a *view* into a shared
// immutable block (Payload::View): the rt receive path parses frames in
// place inside pooled read blocks and hands each body to the handler as a
// view, so a received message costs zero copies. The aliased range
// [offset, offset+len) is never mutated for the life of the block; bytes
// of the block outside the view's range carry no such promise.
//
// Every distinct buffer gets a process-unique id; (id, offset, length)
// names an immutable byte range for the lifetime of the process, which is
// what lets the digest/verify memo (crypto/memo.h) skip recomputing real
// SHA-256/HMAC work that another receiver of the same frame already paid
// for. Id 0 is reserved for the empty payload and means "not memoizable".

#ifndef SEEMORE_WIRE_PAYLOAD_H_
#define SEEMORE_WIRE_PAYLOAD_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "wire/wire.h"

namespace seemore {

class Payload {
 public:
  Payload() = default;

  /// Wraps `bytes` into shared immutable storage (the one allocation a
  /// send/multicast pays). Implicit so existing `Send(..., encoder.Take())`
  /// call sites keep reading naturally.
  Payload(Bytes bytes);  // NOLINT(google-explicit-constructor)

  /// A payload aliasing [offset, offset+len) of a shared immutable block —
  /// the block stays alive (and that range stays unmodified) for as long
  /// as any view of it does. Gets its own fresh buffer id: views into the
  /// same block are distinct identities, because the surrounding block
  /// bytes differ even when the ranges happen to coincide.
  static Payload View(std::shared_ptr<const Bytes> block, size_t offset,
                      size_t len);

  /// The underlying bytes (nullptr/0 for a default Payload).
  const uint8_t* data() const { return rep_ ? rep_->data : nullptr; }
  size_t size() const { return rep_ ? rep_->size : 0; }
  bool empty() const { return size() == 0; }

  /// An owned, mutable copy of the bytes — the only mutable view a
  /// receiver can ever get.
  Bytes ToBytes() const { return Bytes(data(), data() + size()); }

  /// Process-unique identity of the underlying buffer; equal ids imply
  /// identical bytes forever. 0 for the empty payload.
  uint64_t id() const { return rep_ ? rep_->id : 0; }

  /// True if both payloads share one storage rep (not a content
  /// comparison).
  bool SharesBufferWith(const Payload& other) const {
    return rep_ != nullptr && rep_ == other.rep_;
  }

 private:
  struct Rep {
    explicit Rep(Bytes b);
    Rep(std::shared_ptr<const Bytes> block_in, size_t offset, size_t len);
    const Bytes storage;  // owned bytes (empty for views)
    const std::shared_ptr<const Bytes> block;  // view backing (null if owned)
    const uint8_t* const data;
    const size_t size;
    const uint64_t id;
  };

  explicit Payload(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}

  std::shared_ptr<const Rep> rep_;
};

/// Decoder over a payload, carrying the buffer identity.
inline Decoder MakeDecoder(const Payload& payload) {
  return Decoder(payload.data(), payload.size(), payload.id());
}

}  // namespace seemore

#endif  // SEEMORE_WIRE_PAYLOAD_H_
