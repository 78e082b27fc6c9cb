#include "consensus/checkpoint.h"

#include <set>

namespace seemore {

namespace {

// Domain-separation tag so a checkpoint signature can never be confused
// with any other signed payload.
constexpr uint8_t kCheckpointDomain = 0xC4;

/// The signed bytes: the domain tag, then seq, state digest and replica as
/// EncodeTo lays them out. Fixed size, so it lives on the stack.
StackEncoder<1 + 8 + Digest::kSize + 4> SignedHeader(
    const CheckpointMsg& msg) {
  StackEncoder<1 + 8 + Digest::kSize + 4> header;
  header.PutU8(kCheckpointDomain);
  header.PutU64(msg.seq);
  header.PutRaw(msg.state_digest.data(), Digest::kSize);
  header.PutU32(static_cast<uint32_t>(msg.replica));
  return header;
}

}  // namespace

void CheckpointMsg::Sign(const Signer& signer) {
  sig = signer.Sign(SignedHeader(*this));
}

bool CheckpointMsg::Verify(const KeyStore& keystore) const {
  return keystore.Verify(replica, SignedHeader(*this), sig);
}

void CheckpointMsg::EncodeTo(Encoder& enc) const {
  enc.PutU64(seq);
  state_digest.EncodeTo(enc);
  enc.PutU32(static_cast<uint32_t>(replica));
  sig.EncodeTo(enc);
}

Result<CheckpointMsg> CheckpointMsg::DecodeFrom(Decoder& dec) {
  CheckpointMsg msg;
  msg.seq = dec.GetU64();
  msg.state_digest = Digest::DecodeFrom(dec);
  msg.replica = static_cast<PrincipalId>(dec.GetU32());
  msg.sig = Signature::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return msg;
}

bool CheckpointCert::Verify(
    const KeyStore& keystore, size_t required,
    const std::function<bool(PrincipalId)>& authorized) const {
  if (msgs_.empty()) return true;  // genesis
  const uint64_t seq0 = msgs_.front().seq;
  const Digest digest0 = msgs_.front().state_digest;
  std::set<PrincipalId> signers;
  for (const CheckpointMsg& msg : msgs_) {
    if (msg.seq != seq0 || msg.state_digest != digest0) return false;
    if (!authorized(msg.replica)) return false;
    if (!msg.Verify(keystore)) return false;
    signers.insert(msg.replica);
  }
  return signers.size() >= required;
}

void CheckpointCert::EncodeTo(Encoder& enc) const {
  enc.PutVarint(msgs_.size());
  for (const CheckpointMsg& msg : msgs_) msg.EncodeTo(enc);
}

Result<CheckpointCert> CheckpointCert::DecodeFrom(Decoder& dec) {
  CheckpointCert cert;
  const uint64_t count = dec.GetVarint();
  if (!dec.ok()) return dec.status();
  constexpr uint64_t kMaxMsgs = 4096;
  if (count > kMaxMsgs) return Status::Corruption("oversized checkpoint cert");
  for (uint64_t i = 0; i < count; ++i) {
    SEEMORE_ASSIGN_OR_RETURN(CheckpointMsg msg, CheckpointMsg::DecodeFrom(dec));
    cert.Add(std::move(msg));
  }
  return cert;
}

}  // namespace seemore
