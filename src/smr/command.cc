#include "smr/command.h"

namespace seemore {

namespace {

/// The signed fields ahead of the op (client, timestamp, op length), laid
/// out as Request::EncodeTo writes them; the op bytes follow in the MAC.
class SignedHeader {
 public:
  explicit SignedHeader(const Request& request) {
    PutLe(static_cast<uint32_t>(request.client), 4);
    PutLe(request.timestamp, 8);
    len_ += WriteVarint(buf_ + len_, request.op.size());
  }

  const uint8_t* data() const { return buf_; }
  size_t size() const { return len_; }

 private:
  void PutLe(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      buf_[len_++] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  uint8_t buf_[4 + 8 + kMaxVarintSize];
  size_t len_ = 0;
};

}  // namespace

void Request::Sign(const Signer& signer) {
  const SignedHeader header(*this);
  sig = signer.Sign(header.data(), header.size(), op.data(), op.size());
}

bool Request::VerifySignature(const KeyStore& keystore) const {
  const SignedHeader header(*this);
  return keystore.Verify(client, header.data(), header.size(), op.data(),
                         op.size(), sig);
}

void Request::EncodeTo(Encoder& enc) const {
  enc.PutU32(static_cast<uint32_t>(client));
  enc.PutU64(timestamp);
  enc.PutBytes(op);
  sig.EncodeTo(enc);
}

size_t Request::EncodedSize() const {
  return 4 + 8 + VarintSize(op.size()) + op.size() + Signature::kSize;
}

Result<Request> Request::DecodeFrom(Decoder& dec) {
  Request req;
  req.client = static_cast<PrincipalId>(dec.GetU32());
  req.timestamp = dec.GetU64();
  req.op = dec.GetBytes();
  req.sig = Signature::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return req;
}

Bytes Request::ToMessage() const {
  Encoder enc;
  enc.Reserve(1 + EncodedSize());
  enc.PutU8(kMsgRequest);
  EncodeTo(enc);
  return enc.Take();
}

Bytes Reply::SignedPayload() const {
  Encoder enc;
  enc.PutU8(mode);
  enc.PutU64(view);
  enc.PutU64(timestamp);
  enc.PutU32(static_cast<uint32_t>(replica));
  enc.PutBytes(result);
  return enc.Take();
}

void Reply::Sign(const Signer& signer) { sig = signer.Sign(SignedPayload()); }

bool Reply::VerifySignature(const KeyStore& keystore) const {
  return keystore.Verify(replica, SignedPayload(), sig);
}

void Reply::EncodeTo(Encoder& enc) const {
  enc.PutU8(mode);
  enc.PutU64(view);
  enc.PutU64(timestamp);
  enc.PutU32(static_cast<uint32_t>(replica));
  enc.PutBytes(result);
  sig.EncodeTo(enc);
}

Result<Reply> Reply::DecodeFrom(Decoder& dec) {
  Reply rep;
  rep.mode = dec.GetU8();
  rep.view = dec.GetU64();
  rep.timestamp = dec.GetU64();
  rep.replica = static_cast<PrincipalId>(dec.GetU32());
  rep.result = dec.GetBytes();
  rep.sig = Signature::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return rep;
}

Bytes Reply::ToMessage() const {
  Encoder enc;
  enc.PutU8(kMsgReply);
  EncodeTo(enc);
  return enc.Take();
}

}  // namespace seemore
