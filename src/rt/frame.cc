#include "rt/frame.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "storage/crc32c.h"

namespace seemore {
namespace rt {
namespace {

/// HELLO body: magic + version + sender + fingerprint. The magic doubles as
/// a cheap wrong-protocol detector (someone pointing a browser at a node
/// port fails the handshake with a typed error, not undefined behaviour).
constexpr uint32_t kHelloMagic = 0x544d5253;  // "SMRT"
constexpr uint8_t kHelloVersion = 1;

/// CONTROL body: a distinct magic so a data frame mis-routed onto the
/// control path (or vice versa) dies with a typed error at the decoder.
constexpr uint32_t kControlMagic = 0x544c5443;  // "CTLT"
constexpr uint8_t kControlVersion = 1;

/// Hardware CRC paths may prefetch; never hand them a null pointer.
const uint8_t* NonNull(const uint8_t* data, size_t len) {
  static const uint8_t kZero = 0;
  return len != 0 ? data : &kZero;
}

/// CRC32C of the tag bytes (when tagged) followed by the body.
uint32_t FrameCrc(PrincipalId tag, const uint8_t* body, size_t len) {
  if (tag == kNoTag) return storage::Crc32c(NonNull(body, len), len);
  uint8_t tag_bytes[4];
  std::memcpy(tag_bytes, &tag, 4);  // little-endian hosts (x86/arm)
  return storage::Crc32cExtend(storage::Crc32c(tag_bytes, 4),
                               NonNull(body, len), len);
}

/// Writes the 8- or 12-byte header of a frame; returns its size.
size_t PutHeader(uint8_t* out, PrincipalId tag, const uint8_t* body,
                 size_t len) {
  const uint32_t word =
      static_cast<uint32_t>(len) | (tag == kNoTag ? 0 : kFrameTagFlag);
  const uint32_t crc = FrameCrc(tag, body, len);
  std::memcpy(out, &word, 4);  // little-endian hosts (x86/arm)
  std::memcpy(out + 4, &crc, 4);
  if (tag == kNoTag) return kFrameHeaderBytes;
  std::memcpy(out + 8, &tag, 4);
  return kTaggedFrameHeaderBytes;
}

/// What the length word of a header says: body length and header size.
/// Refuses a body past `max_frame` (which also catches any high bit but the
/// tag flag).
Status ReadLengthWord(const uint8_t* head, size_t max_frame,
                      size_t* body_len, size_t* header_bytes) {
  uint32_t word = 0;
  std::memcpy(&word, head, 4);
  const uint32_t len = word & ~kFrameTagFlag;
  if (len > max_frame) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "frame length %u exceeds cap %zu (garbage prefix?)", len,
                  max_frame);
    return Status::Corruption(msg);
  }
  *body_len = len;
  *header_bytes =
      (word & kFrameTagFlag) != 0 ? kTaggedFrameHeaderBytes : kFrameHeaderBytes;
  return Status::Ok();
}

/// The tag of a complete 12-byte header; Corruption unless it could be a
/// principal id.
Status ReadTag(const uint8_t* head, PrincipalId* tag) {
  std::memcpy(tag, head + kFrameHeaderBytes, 4);
  if (*tag < 0) return Status::Corruption("frame tag is not a principal id");
  return Status::Ok();
}

}  // namespace

Bytes EncodeFrame(const uint8_t* body, size_t len, PrincipalId tag) {
  Bytes frame(kTaggedFrameHeaderBytes + len);
  const size_t header = PutHeader(frame.data(), tag, body, len);
  if (len != 0) std::memcpy(frame.data() + header, body, len);
  frame.resize(header + len);
  return frame;
}

FrameBuffer::FrameBuffer(Payload body, PrincipalId tag)
    : tag_(tag), body_(std::move(body)) {
  PutHeader(header_.data(), tag_, body_.data(), body_.size());
}

std::shared_ptr<const FrameBuffer> FrameBuffer::Wrap(Payload body,
                                                     PrincipalId tag) {
  return std::shared_ptr<const FrameBuffer>(
      new FrameBuffer(std::move(body), tag));
}

Bytes EncodeHelloBody(const Hello& hello) {
  Encoder enc;
  enc.PutU32(kHelloMagic);
  enc.PutU8(kHelloVersion);
  enc.PutU32(static_cast<uint32_t>(hello.sender));
  enc.PutU64(hello.fingerprint);
  return enc.Take();
}

Bytes EncodeHello(const Hello& hello) {
  const Bytes body = EncodeHelloBody(hello);
  return EncodeFrame(body);
}

Result<Hello> DecodeHello(const uint8_t* data, size_t len) {
  Decoder dec(data, len);
  const uint32_t magic = dec.GetU32();
  const uint8_t version = dec.GetU8();
  Hello hello;
  hello.sender = static_cast<PrincipalId>(dec.GetU32());
  hello.fingerprint = dec.GetU64();
  if (!dec.ok() || !dec.AtEnd()) {
    return Status::Corruption("malformed HELLO frame");
  }
  if (magic != kHelloMagic) {
    return Status::Corruption("HELLO magic mismatch (not a seemore peer)");
  }
  if (version != kHelloVersion) {
    return Status::InvalidArgument("unsupported transport version");
  }
  return hello;
}

Bytes EncodeFaultCommandBody(const FaultCommand& command) {
  Encoder enc;
  enc.PutU32(kControlMagic);
  enc.PutU8(kControlVersion);
  enc.PutU8(static_cast<uint8_t>(command.kind));
  enc.PutU32(static_cast<uint32_t>(command.from));
  enc.PutU32(static_cast<uint32_t>(command.to));
  enc.PutU32(static_cast<uint32_t>(command.replica));
  enc.PutU32(command.byz_flags);
  enc.PutU8(command.mode);
  enc.PutU64(command.delay_us);
  enc.PutU64(command.jitter_us);
  enc.PutU32(command.drop_ppm);
  enc.PutU32(command.value);
  return enc.Take();
}

Result<FaultCommand> DecodeFaultCommand(const uint8_t* data, size_t len) {
  Decoder dec(data, len);
  const uint32_t magic = dec.GetU32();
  const uint8_t version = dec.GetU8();
  const uint8_t kind = dec.GetU8();
  FaultCommand command;
  command.from = static_cast<int32_t>(dec.GetU32());
  command.to = static_cast<int32_t>(dec.GetU32());
  command.replica = static_cast<int32_t>(dec.GetU32());
  command.byz_flags = dec.GetU32();
  command.mode = dec.GetU8();
  command.delay_us = dec.GetU64();
  command.jitter_us = dec.GetU64();
  command.drop_ppm = dec.GetU32();
  command.value = dec.GetU32();
  if (!dec.ok() || !dec.AtEnd()) {
    return Status::Corruption("malformed CONTROL frame");
  }
  if (magic != kControlMagic) {
    return Status::Corruption("CONTROL magic mismatch (not a fault command)");
  }
  if (version != kControlVersion) {
    return Status::InvalidArgument("unsupported control version");
  }
  if (kind < static_cast<uint8_t>(ControlKind::kCutLink) ||
      kind > static_cast<uint8_t>(ControlKind::kReady)) {
    return Status::Corruption("unknown control command kind");
  }
  command.kind = static_cast<ControlKind>(kind);
  return command;
}

std::shared_ptr<Bytes> BlockPool::Acquire() {
  // A cached block is reusable only once every Payload view into it has
  // died — i.e. when the cache holds the sole reference.
  for (size_t i = 0; i < cache_.size(); ++i) {
    if (cache_[i].use_count() == 1) {
      std::shared_ptr<Bytes> block = std::move(cache_[i]);
      cache_[i] = std::move(cache_.back());
      cache_.pop_back();
      ++blocks_reused_;
      return block;
    }
  }
  ++blocks_allocated_;
  return std::make_shared<Bytes>(block_bytes_);
}

void BlockPool::Recycle(std::shared_ptr<Bytes> block) {
  if (block == nullptr || block->size() != block_bytes_) return;
  if (cache_.size() >= max_cached_) return;  // let it die with its views
  cache_.push_back(std::move(block));
}

Status FrameReader::Fail(Status status) {
  status_ = status;
  // Poisoned: drop all buffered state so a broken connection cannot keep
  // memory pinned while it waits to be torn down.
  block_.reset();
  write_pos_ = 0;
  parse_pos_ = 0;
  spill_active_ = false;
  spill_header_fill_ = 0;
  spill_header_need_ = kFrameHeaderBytes;
  spill_body_len_ = 0;
  spill_body_.clear();
  spill_body_.shrink_to_fit();
  ready_.clear();
  return status_;
}

uint8_t* FrameReader::WriteHead(size_t* capacity) {
  if (block_ == nullptr || write_pos_ == block_->size()) {
    RollBlock();
  }
  *capacity = block_->size() - write_pos_;
  return block_->data() + write_pos_;
}

void FrameReader::RollBlock() {
  if (block_ != nullptr) {
    // Any unparsed tail is a partial frame *header* (< 8 bytes): a frame
    // with a decoded length that could not fit in the block was already
    // diverted to the spill by Parse(). Carry the tail into the spill so
    // the new block starts on a parse boundary.
    const size_t tail = write_pos_ - parse_pos_;
    if (tail != 0) {
      spill_active_ = true;
      const size_t consumed =
          AbsorbIntoSpill(block_->data() + parse_pos_, tail);
      (void)consumed;  // tail < 8 is always consumed whole into the header
    }
    if (pool_ != nullptr) pool_->Recycle(std::move(block_));
  }
  block_ = pool_ != nullptr ? pool_->Acquire()
                            : std::make_shared<Bytes>(block_bytes_);
  write_pos_ = 0;
  parse_pos_ = 0;
}

Status FrameReader::Commit(size_t n) {
  if (!status_.ok()) return status_;
  if (n == 0) return Status::Ok();
  write_pos_ += n;
  return Parse();
}

Status FrameReader::Feed(const uint8_t* data, size_t len) {
  if (!status_.ok()) return status_;
  size_t off = 0;
  while (off < len) {
    size_t cap = 0;
    uint8_t* head = WriteHead(&cap);
    const size_t take = std::min(cap, len - off);
    std::memcpy(head, data + off, take);
    off += take;
    const Status st = Commit(take);
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

size_t FrameReader::AbsorbIntoSpill(const uint8_t* data, size_t len) {
  size_t consumed = 0;
  while (consumed < len || (spill_header_fill_ == spill_header_need_ &&
                            spill_body_.size() == spill_body_len_)) {
    if (spill_header_fill_ < spill_header_need_) {
      const size_t take =
          std::min(spill_header_need_ - spill_header_fill_, len - consumed);
      std::memcpy(spill_header_.data() + spill_header_fill_, data + consumed,
                  take);
      spill_header_fill_ += take;
      consumed += take;
      if (spill_header_fill_ < spill_header_need_) break;
      if (spill_header_need_ == kFrameHeaderBytes) {
        size_t body_len = 0;
        size_t header_bytes = 0;
        const Status length = ReadLengthWord(
            spill_header_.data(), max_frame_, &body_len, &header_bytes);
        if (!length.ok()) {
          Fail(length);
          return consumed;
        }
        std::memcpy(&spill_crc_, spill_header_.data() + 4, 4);
        spill_body_len_ = body_len;
        spill_header_need_ = header_bytes;
        if (header_bytes != kFrameHeaderBytes) continue;  // the tag is next
        spill_tag_ = kNoTag;
      } else {
        const Status tag = ReadTag(spill_header_.data(), &spill_tag_);
        if (!tag.ok()) {
          Fail(tag);
          return consumed;
        }
      }
      spill_body_.clear();
      spill_body_.reserve(spill_body_len_);
      continue;
    }
    const size_t need = spill_body_len_ - spill_body_.size();
    const size_t take = std::min(need, len - consumed);
    spill_body_.insert(spill_body_.end(), data + consumed,
                       data + consumed + take);
    consumed += take;
    if (spill_body_.size() == spill_body_len_) {
      if (FrameCrc(spill_tag_, spill_body_.data(), spill_body_.size()) !=
          spill_crc_) {
        Fail(Status::Corruption("frame CRC mismatch"));
        return consumed;
      }
      if (stats_ != nullptr) {
        ++stats_->frames_copied;
        stats_->bytes_copied += spill_body_.size();
      }
      ready_.push_back(Frame{Payload(std::move(spill_body_)), spill_tag_});
      ++frames_decoded_;
      spill_body_ = Bytes();
      spill_header_fill_ = 0;
      spill_header_need_ = kFrameHeaderBytes;
      spill_body_len_ = 0;
      spill_active_ = false;
      return consumed;
    }
  }
  return consumed;
}

Status FrameReader::Parse() {
  if (spill_active_) {
    // Finish (or keep filling) the cross-block frame before any in-block
    // parsing: its remaining bytes are the committed prefix.
    const size_t consumed =
        AbsorbIntoSpill(block_->data() + parse_pos_, write_pos_ - parse_pos_);
    if (!status_.ok()) return status_;
    parse_pos_ += consumed;
  }

  while (!spill_active_) {
    const size_t avail = write_pos_ - parse_pos_;
    if (avail < kFrameHeaderBytes) break;
    const uint8_t* head = block_->data() + parse_pos_;
    size_t body_len = 0;
    size_t header_bytes = 0;
    const Status length =
        ReadLengthWord(head, max_frame_, &body_len, &header_bytes);
    if (!length.ok()) return Fail(length);
    const size_t total = header_bytes + body_len;
    if (parse_pos_ + total > block_->size()) {
      // The frame can never complete inside this block: reassemble it by
      // copy in the spill. Everything committed so far is part of it.
      spill_active_ = true;
      const size_t consumed = AbsorbIntoSpill(head, avail);
      if (!status_.ok()) return status_;
      parse_pos_ += consumed;
      break;
    }
    if (avail < total) break;  // fits in-block; wait for the rest
    PrincipalId tag = kNoTag;
    if (header_bytes != kFrameHeaderBytes) {
      const Status tagged = ReadTag(head, &tag);
      if (!tagged.ok()) return Fail(tagged);
    }
    uint32_t crc = 0;
    std::memcpy(&crc, head + 4, 4);
    if (FrameCrc(tag, head + header_bytes, body_len) != crc) {
      return Fail(Status::Corruption("frame CRC mismatch"));
    }
    ready_.push_back(Frame{
        Payload::View(block_, parse_pos_ + header_bytes, body_len), tag});
    if (stats_ != nullptr) {
      ++stats_->frames_aliased;
      stats_->bytes_aliased += body_len;
    }
    ++frames_decoded_;
    parse_pos_ += total;
  }
  return Status::Ok();
}

bool FrameReader::Next(Payload* body, PrincipalId* tag) {
  if (ready_.empty()) return false;
  Frame& front = ready_.front();
  *body = std::move(front.body);
  if (tag != nullptr) *tag = front.tag;
  ready_.pop_front();
  return true;
}

Status FrameReader::OnPeerClose() const {
  if (!status_.ok()) return status_;
  if (buffered() != 0) {
    char msg[64];
    std::snprintf(msg, sizeof(msg),
                  "peer closed mid-frame (%zu bytes torn)", buffered());
    return Status::Corruption(msg);
  }
  return Status::Ok();
}

}  // namespace rt
}  // namespace seemore
