#include "smr/command.h"

namespace seemore {

namespace {

/// The signed fields ahead of the op (client, timestamp, op length), laid
/// out as Request::EncodeTo writes them; the op bytes follow in the MAC.
StackEncoder<4 + 8 + kMaxVarintSize> RequestSignedHeader(
    const Request& request) {
  StackEncoder<4 + 8 + kMaxVarintSize> header;
  header.PutU32(static_cast<uint32_t>(request.client));
  header.PutU64(request.timestamp);
  header.PutVarint(request.op.size());
  return header;
}

/// The signed fields ahead of the result (mode, view, timestamp, replica,
/// result length), laid out as Reply::EncodeTo writes them; the result
/// bytes follow in the MAC.
StackEncoder<1 + 8 + 8 + 4 + kMaxVarintSize> ReplySignedHeader(
    const Reply& reply) {
  StackEncoder<1 + 8 + 8 + 4 + kMaxVarintSize> header;
  header.PutU8(reply.mode);
  header.PutU64(reply.view);
  header.PutU64(reply.timestamp);
  header.PutU32(static_cast<uint32_t>(reply.replica));
  header.PutVarint(reply.result.size());
  return header;
}

}  // namespace

void Request::Sign(const Signer& signer) {
  const auto header = RequestSignedHeader(*this);
  sig = signer.Sign(header.data(), header.size(), op.data(), op.size());
}

bool Request::VerifySignature(const KeyStore& keystore) const {
  const auto header = RequestSignedHeader(*this);
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

void Reply::Sign(const Signer& signer) {
  const auto header = ReplySignedHeader(*this);
  sig = signer.Sign(header.data(), header.size(), result.data(),
                    result.size());
}

bool Reply::VerifySignature(const KeyStore& keystore) const {
  const auto header = ReplySignedHeader(*this);
  return keystore.Verify(replica, header.data(), header.size(),
                         result.data(), result.size(), sig);
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
  return EncodeExact([this](Encoder& enc) {
    enc.PutU8(kMsgReply);
    EncodeTo(enc);
  });
}

}  // namespace seemore
