// TCP frame codec for the real transport.
//
// A stream between two processes carries length-prefixed, checksummed
// frames; each frame body is exactly one wire message (the same encoded
// bytes SimNetwork would have delivered as a Payload). Two layouts, all
// integers little-endian like the rest of the wire layer:
//
//   untagged: u32 body length            | u32 CRC32C(body)       | body
//   tagged:   u32 body length | 1u << 31 | u32 CRC32C(tag ‖ body) | u32 tag | body
//
// A connection is HELLO'd by one principal at each end (see below). A
// process hosting several non-replica principals (the launcher's clients
// and fault controller) shares one connection per replica among them, and
// a frame for any principal other than the connection's HELLO identity at
// that end names it in the tag: its source on the way to the replica, its
// destination on the way back. Replica<->replica frames never carry a tag,
// so their bytes are the untagged layout, unchanged. The top bit of the
// length word is the tag flag; the other 31 bits are the body length (tag
// excluded), so a stray high bit reads as a length past the cap and is
// refused by the same max-frame check as any garbage prefix. A tag must be
// a principal id (top bit clear); who may be named is the transport's rule
// (rt/tcp_transport.h).
//
// The CRC (storage/crc32c.h — the same runtime-dispatched kernel the WAL
// uses) is not a security boundary (signatures inside the body are); it
// catches framing bugs and TCP-level corruption early, turning "garbage
// seeped into the protocol" into a typed kCorruption at the boundary.
//
// The first frame on every freshly-established connection must be an
// untagged HELLO (EncodeHello) announcing the sender's principal id — the
// pairwise authentication hook the paper's model assumes (§3.1): on
// localhost the announcement is trusted; a deployment would bind it to a
// TLS identity.
//
// Buffer lifecycle (DESIGN.md §12): the send side never copies a body —
// FrameBuffer pairs an inline 8- or 12-byte header with a refcounted
// Payload, so a multicast builds one FrameBuffer (one CRC pass) and every
// peer's write queue shares it. The receive side reads straight into
// pooled refcounted blocks and FrameReader parses frames in place, handing
// each complete body out (with its tag) as a Payload view of the block;
// only a frame that straddles a block boundary is copied (FrameReadStats
// keeps the honest tally).
//
// FrameReader is a pure incremental parser over arbitrary byte chunks: no
// sockets, no allocation proportional to chunk count, and every malformed
// input (oversized/garbage length, negative tag, CRC mismatch, mid-frame
// EOF) surfaces as a typed error — never a crash, never an unbounded
// buffer (tests/rt_frame_test.cc drives it at every byte boundary).

#ifndef SEEMORE_RT_FRAME_H_
#define SEEMORE_RT_FRAME_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "crypto/keystore.h"
#include "util/status.h"
#include "wire/payload.h"
#include "wire/wire.h"

namespace seemore {
namespace rt {

/// Untagged frame header: body length + CRC32C, 8 bytes.
inline constexpr size_t kFrameHeaderBytes = 8;
/// Tagged frame header: the untagged header plus the u32 tag.
inline constexpr size_t kTaggedFrameHeaderBytes = kFrameHeaderBytes + 4;
/// Set in the length word of a tagged frame.
inline constexpr uint32_t kFrameTagFlag = 1u << 31;
/// The tag of an untagged frame: the principal is the HELLO identity.
inline constexpr PrincipalId kNoTag = -1;

/// Upper bound on a frame body. Far above any real message (batches are
/// bounded by batch_max * request size); its job is rejecting garbage
/// length prefixes before they turn into a giant allocation.
inline constexpr size_t kMaxFrameBytes = 16u << 20;

/// Receive-block granularity: one kernel read lands in one pooled block.
inline constexpr size_t kReadBlockBytes = 64u * 1024;

/// Wrap one message body into a contiguous wire frame (header + body),
/// tagged when `tag` is not kNoTag. This is the copying form — tests and
/// the HELLO codec use it; the transport's hot path uses FrameBuffer, which
/// never copies the body.
Bytes EncodeFrame(const uint8_t* body, size_t len, PrincipalId tag = kNoTag);
inline Bytes EncodeFrame(const Bytes& body, PrincipalId tag = kNoTag) {
  return EncodeFrame(body.data(), body.size(), tag);
}

/// A framed message ready for transmission: the 8- or 12-byte header
/// inline, the body as a refcounted Payload. Encoded once per send/
/// multicast — every peer write queue that carries this frame shares one
/// instance (and the body shares the sender's original encode), so fan-out
/// is refcount bumps and the CRC is computed exactly once.
class FrameBuffer {
 public:
  /// Builds the header (length + CRC, and the tag unless kNoTag) over
  /// `body`. The body bytes are aliased, never copied.
  static std::shared_ptr<const FrameBuffer> Wrap(Payload body,
                                                 PrincipalId tag = kNoTag);

  const uint8_t* header() const { return header_.data(); }
  size_t header_size() const {
    return tag_ == kNoTag ? kFrameHeaderBytes : kTaggedFrameHeaderBytes;
  }
  PrincipalId tag() const { return tag_; }
  const Payload& body() const { return body_; }
  /// Total on-the-wire size: header + body.
  size_t size() const { return header_size() + body_.size(); }

 private:
  FrameBuffer(Payload body, PrincipalId tag);

  std::array<uint8_t, kTaggedFrameHeaderBytes> header_;
  PrincipalId tag_;
  Payload body_;
};

/// The connection-opening announcement. `fingerprint` ties the connection
/// to one cluster instance (the launcher uses the spec seed): a stray
/// process from another run is refused at the handshake.
struct Hello {
  PrincipalId sender = 0;
  uint64_t fingerprint = 0;
};

/// HELLO body bytes (magic/version/sender/fingerprint), unframed — the
/// transport wraps them in a FrameBuffer like any other message.
Bytes EncodeHelloBody(const Hello& hello);
/// HELLO as a ready-to-send contiguous frame (EncodeFrame applied).
Bytes EncodeHello(const Hello& hello);
/// Decode a received frame *body* as a HELLO.
Result<Hello> DecodeHello(const uint8_t* data, size_t len);
inline Result<Hello> DecodeHello(const Bytes& body) {
  return DecodeHello(body.data(), body.size());
}

/// Typed fault commands for the runtime fault plane (DESIGN.md §12). The
/// launcher registers a control principal with the cluster and sends these
/// as ordinary frames down its HELLO-authenticated connections; a node
/// recognizes the control principal and decodes every frame from it as a
/// FaultCommand instead of handing it to the replica.
enum class ControlKind : uint8_t {
  kCutLink = 1,      // drop frames on the directed link from -> to
  kRestoreLink = 2,  // undo kCutLink for from -> to
  kPartition = 3,    // cut every private<->public replica pair, both ways
  kHeal = 4,         // undo kPartition only (cut/shaped links stay); a real
                     // heal also resets dial backoff
  kSetByzantine = 5, // replica applies byz_flags via ReplicaBase::SetByzantine
  kSwitchMode = 6,   // mode-switch request: the switch authority acts on it
  kQueryPrimary = 7, // ask a node who it believes is primary
  kPrimaryReply = 8, // node -> launcher answer to kQueryPrimary (value = id)
  kShapeLink = 9,    // per-link delay/jitter/drop on the directed from -> to
  kReady = 10,       // node -> launcher: HELLO'd links to all n-1 peers are up
};

/// One control-channel command. The layout is fixed across kinds (unused
/// fields ride along as zeros) so the codec stays a single strict
/// encode/decode pair: magic, version, kind, from, to, replica, byz_flags,
/// mode, delay_us, jitter_us, drop_ppm, value.
struct FaultCommand {
  ControlKind kind = ControlKind::kHeal;
  int32_t from = -1;         // directed-link source (kCutLink/kRestoreLink/kShapeLink)
  int32_t to = -1;           // directed-link destination
  int32_t replica = -1;      // target replica (kSetByzantine)
  uint32_t byz_flags = 0;    // kSetByzantine payload
  uint8_t mode = 0;          // kSwitchMode target (SeeMoReMode numeric value)
  uint64_t delay_us = 0;     // kShapeLink: fixed extra delay
  uint64_t jitter_us = 0;    // kShapeLink: uniform extra jitter bound
  uint32_t drop_ppm = 0;     // kShapeLink: drop probability, parts-per-million
  uint32_t value = 0;  // kPrimaryReply: primary id + 1 (0 = unknown);
                       // kSwitchMode: crashed-replica bits (ids >= 32 live)
};

/// CONTROL body bytes, unframed — sent through the transport like any other
/// message body.
Bytes EncodeFaultCommandBody(const FaultCommand& command);
/// Decode a received frame *body* as a FaultCommand. Any trailing or
/// missing byte, wrong magic or unknown kind is a typed Corruption /
/// InvalidArgument — exactly the HELLO codec's contract.
Result<FaultCommand> DecodeFaultCommand(const uint8_t* data, size_t len);
inline Result<FaultCommand> DecodeFaultCommand(const Bytes& body) {
  return DecodeFaultCommand(body.data(), body.size());
}

/// Pool of fixed-size receive blocks shared by every connection of a
/// transport. A block handed out by Acquire is exclusively the reader's to
/// fill; once the reader rolls past it the block comes back via Recycle,
/// but it is only re-issued after every Payload view into it has died
/// (use_count tells us — no registry, no epochs).
class BlockPool {
 public:
  explicit BlockPool(size_t block_bytes = kReadBlockBytes,
                     size_t max_cached = 32)
      : block_bytes_(block_bytes), max_cached_(max_cached) {}

  std::shared_ptr<Bytes> Acquire();
  void Recycle(std::shared_ptr<Bytes> block);

  size_t block_bytes() const { return block_bytes_; }
  uint64_t blocks_allocated() const { return blocks_allocated_; }
  uint64_t blocks_reused() const { return blocks_reused_; }

 private:
  const size_t block_bytes_;
  const size_t max_cached_;
  std::vector<std::shared_ptr<Bytes>> cache_;
  uint64_t blocks_allocated_ = 0;
  uint64_t blocks_reused_ = 0;
};

/// Receive-path accounting: how many frame bodies were handed out as
/// zero-copy views of a read block vs copied (block-straddling frames).
struct FrameReadStats {
  uint64_t frames_aliased = 0;
  uint64_t frames_copied = 0;
  uint64_t bytes_aliased = 0;
  uint64_t bytes_copied = 0;
};

/// Incremental frame parser over pooled read blocks. The socket reads
/// straight into the reader's current block (WriteHead/Commit — no staging
/// buffer), complete in-block frames come out of Next() as (tag, Payload
/// view of that block), and only a frame that straddles a block boundary
/// is copied into owned bytes. Feed() is the copying convenience for callers
/// without an fd (tests). After any error the reader is poisoned: Feed and
/// Commit keep returning the same typed failure and Next returns nothing,
/// so a connection that produced garbage can only be torn down.
class FrameReader {
 public:
  explicit FrameReader(size_t max_frame = kMaxFrameBytes,
                       BlockPool* pool = nullptr,
                       FrameReadStats* stats = nullptr)
      : max_frame_(max_frame),
        pool_(pool),
        block_bytes_(pool != nullptr ? pool->block_bytes() : kReadBlockBytes),
        stats_(stats) {}

  /// Writable tail of the current block (rolling to a fresh block when the
  /// current one is full); `*capacity` receives how many bytes fit. Read
  /// the socket straight into this, then Commit what arrived.
  uint8_t* WriteHead(size_t* capacity);

  /// Absorb `n` bytes just written at WriteHead, parsing as many complete
  /// frames as they finish. Typed failures: kCorruption for an oversized
  /// length prefix, a negative tag or a CRC mismatch.
  Status Commit(size_t n);

  /// Copying convenience: WriteHead/memcpy/Commit in a loop.
  Status Feed(const uint8_t* data, size_t len);

  /// Pop the next complete frame body, and its tag (kNoTag when untagged)
  /// into `*tag` when given. False when none is pending.
  bool Next(Payload* body, PrincipalId* tag = nullptr);

  /// What a clean peer close means right now: Ok on a frame boundary,
  /// kCorruption when the stream died mid-frame (torn frame).
  Status OnPeerClose() const;

  /// Bytes buffered toward the next (incomplete) frame.
  size_t buffered() const {
    return spill_header_fill_ + spill_body_.size() + (write_pos_ - parse_pos_);
  }
  bool failed() const { return !status_.ok(); }
  uint64_t frames_decoded() const { return frames_decoded_; }

 private:
  Status Fail(Status status);
  /// Parse committed bytes of the current block: emit views for complete
  /// in-block frames, divert block-straddling tails into the spill.
  Status Parse();
  /// Retire the current block (unparsed tail → spill) and start a new one.
  void RollBlock();
  /// Append stream bytes to the partial cross-block frame; emits an owned
  /// (copied) payload when the frame completes. Returns bytes consumed.
  size_t AbsorbIntoSpill(const uint8_t* data, size_t len);

  size_t max_frame_ = kMaxFrameBytes;  // assignable so readers can be reset
  BlockPool* pool_ = nullptr;
  size_t block_bytes_ = kReadBlockBytes;
  FrameReadStats* stats_ = nullptr;

  std::shared_ptr<Bytes> block_;  // current receive block
  size_t write_pos_ = 0;          // committed bytes in block_
  size_t parse_pos_ = 0;          // parsed prefix of the committed bytes

  /// A frame whose bytes straddle blocks, being reassembled by copy. The
  /// header is complete at spill_header_need_ bytes: 8 until the length
  /// word shows a tag, then 12.
  bool spill_active_ = false;
  std::array<uint8_t, kTaggedFrameHeaderBytes> spill_header_{};
  size_t spill_header_fill_ = 0;
  size_t spill_header_need_ = kFrameHeaderBytes;
  size_t spill_body_len_ = 0;
  uint32_t spill_crc_ = 0;
  PrincipalId spill_tag_ = kNoTag;
  Bytes spill_body_;

  struct Frame {
    Payload body;
    PrincipalId tag;
  };
  std::deque<Frame> ready_;
  Status status_;
  uint64_t frames_decoded_ = 0;
};

}  // namespace rt
}  // namespace seemore

#endif  // SEEMORE_RT_FRAME_H_
