#include "wire/messages.h"

#include <array>

#include "crypto/sha256.h"

namespace seemore {

namespace {

/// Decodes the shared signed-vote body shape into any derived vote type.
template <typename V>
Result<V> DecodeSmVote(Decoder& dec) {
  V msg;
  msg.mode = dec.GetU8();
  msg.view = dec.GetU64();
  msg.seq = dec.GetU64();
  msg.digest = Digest::DecodeFrom(dec);
  msg.voter = static_cast<PrincipalId>(dec.GetU32());
  msg.sig = Signature::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return msg;
}

template <typename V>
Result<V> DecodePbftVote(Decoder& dec) {
  V msg;
  msg.view = dec.GetU64();
  msg.seq = dec.GetU64();
  msg.digest = Digest::DecodeFrom(dec);
  msg.voter = static_cast<PrincipalId>(dec.GetU32());
  msg.sig = Signature::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return msg;
}

/// Frame-relative offset of the field the immediately preceding GetBytes
/// decoded (the decoder's read position minus the field's length).
size_t FieldOffset(const Decoder& dec, const Bytes& field) {
  return dec.pos() - field.size();
}

}  // namespace

// ---------------------------------------------------------------------------
// SeeMoRe
// ---------------------------------------------------------------------------

void SmPrepareMsg::EncodeTo(Encoder& enc) const {
  enc.PutU8(mode);
  enc.PutU64(view);
  enc.PutU64(seq);
  digest.EncodeTo(enc);
  sig.EncodeTo(enc);
  enc.PutBytes(batch);
}

Result<SmPrepareMsg> SmPrepareMsg::DecodeFrom(Decoder& dec) {
  SmPrepareMsg msg;
  msg.mode = dec.GetU8();
  msg.view = dec.GetU64();
  msg.seq = dec.GetU64();
  msg.digest = Digest::DecodeFrom(dec);
  msg.sig = Signature::DecodeFrom(dec);
  msg.batch = dec.GetBytes();
  if (!dec.ok()) return dec.status();
  msg.batch_offset = FieldOffset(dec, msg.batch);
  return msg;
}

void SmAcceptPlainMsg::EncodeTo(Encoder& enc) const {
  enc.PutU8(mode);
  enc.PutU64(view);
  enc.PutU64(seq);
  digest.EncodeTo(enc);
  enc.PutU32(static_cast<uint32_t>(voter));
}

Result<SmAcceptPlainMsg> SmAcceptPlainMsg::DecodeFrom(Decoder& dec) {
  SmAcceptPlainMsg msg;
  msg.mode = dec.GetU8();
  msg.view = dec.GetU64();
  msg.seq = dec.GetU64();
  msg.digest = Digest::DecodeFrom(dec);
  msg.voter = static_cast<PrincipalId>(dec.GetU32());
  if (!dec.ok()) return dec.status();
  return msg;
}

void SmSignedVoteBody::EncodeTo(Encoder& enc) const {
  enc.PutU8(mode);
  enc.PutU64(view);
  enc.PutU64(seq);
  digest.EncodeTo(enc);
  enc.PutU32(static_cast<uint32_t>(voter));
  sig.EncodeTo(enc);
}

Result<SmAcceptSignedMsg> SmAcceptSignedMsg::DecodeFrom(Decoder& dec) {
  return DecodeSmVote<SmAcceptSignedMsg>(dec);
}

Result<SmCommitVoteMsg> SmCommitVoteMsg::DecodeFrom(Decoder& dec) {
  return DecodeSmVote<SmCommitVoteMsg>(dec);
}

Result<SmInformMsg> SmInformMsg::DecodeFrom(Decoder& dec) {
  return DecodeSmVote<SmInformMsg>(dec);
}

void SmCommitPrimaryMsg::EncodeTo(Encoder& enc) const {
  enc.PutU8(mode);
  enc.PutU64(view);
  enc.PutU64(seq);
  digest.EncodeTo(enc);
  sig.EncodeTo(enc);
  enc.PutBytes(batch);
}

Result<SmCommitPrimaryMsg> SmCommitPrimaryMsg::DecodeFrom(Decoder& dec) {
  SmCommitPrimaryMsg msg;
  msg.mode = dec.GetU8();
  msg.view = dec.GetU64();
  msg.seq = dec.GetU64();
  msg.digest = Digest::DecodeFrom(dec);
  msg.sig = Signature::DecodeFrom(dec);
  msg.batch = dec.GetBytes();
  if (!dec.ok()) return dec.status();
  msg.batch_offset = FieldOffset(dec, msg.batch);
  return msg;
}

void SmVcEntry::EncodeTo(Encoder& enc) const {
  enc.PutU8(static_cast<uint8_t>(mode));
  enc.PutU64(view);
  enc.PutU64(seq);
  digest.EncodeTo(enc);
  sig.EncodeTo(enc);
}

Result<SmVcEntry> SmVcEntry::DecodeFrom(Decoder& dec) {
  SmVcEntry entry;
  entry.mode = static_cast<SeeMoReMode>(dec.GetU8());
  entry.view = dec.GetU64();
  entry.seq = dec.GetU64();
  entry.digest = Digest::DecodeFrom(dec);
  entry.sig = Signature::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return entry;
}

void SmViewChangeMsg::EncodeTo(Encoder& enc) const {
  enc.PutU8(mode);
  enc.PutU64(new_view);
  enc.PutU64(stable_seq);
  cert.EncodeTo(enc);
  enc.PutVarint(prepares.size());
  for (const SmVcEntry& entry : prepares) entry.EncodeTo(enc);
  enc.PutVarint(commits.size());
  for (const SmVcEntry& entry : commits) entry.EncodeTo(enc);
  enc.PutVarint(proofs.size());
  for (const PreparedProof& proof : proofs) proof.EncodeTo(enc);
  enc.PutU32(static_cast<uint32_t>(sender));
}

uint64_t SmViewChangeMsg::PeekNewView(Decoder dec) {
  dec.GetU8();  // mode
  const uint64_t new_view = dec.GetU64();
  return dec.ok() ? new_view : 0;
}

Result<SmViewChangeMsg> SmViewChangeMsg::DecodeFrom(Decoder& dec,
                                                    uint64_t max_entries) {
  SmViewChangeMsg msg;
  msg.mode = dec.GetU8();
  msg.new_view = dec.GetU64();
  msg.stable_seq = dec.GetU64();
  SEEMORE_ASSIGN_OR_RETURN(msg.cert, CheckpointCert::DecodeFrom(dec));

  const uint64_t n_prepares = dec.GetVarint();
  if (!dec.ok() || n_prepares > max_entries) {
    return Status::Corruption("bad prepare count");
  }
  msg.prepares.reserve(n_prepares);
  for (uint64_t i = 0; i < n_prepares; ++i) {
    SEEMORE_ASSIGN_OR_RETURN(SmVcEntry entry, SmVcEntry::DecodeFrom(dec));
    msg.prepares.push_back(std::move(entry));
  }

  const uint64_t n_commits = dec.GetVarint();
  if (!dec.ok() || n_commits > max_entries) {
    return Status::Corruption("bad commit count");
  }
  msg.commits.reserve(n_commits);
  for (uint64_t i = 0; i < n_commits; ++i) {
    SEEMORE_ASSIGN_OR_RETURN(SmVcEntry entry, SmVcEntry::DecodeFrom(dec));
    msg.commits.push_back(std::move(entry));
  }

  const uint64_t n_proofs = dec.GetVarint();
  if (!dec.ok() || n_proofs > max_entries) {
    return Status::Corruption("bad proof count");
  }
  msg.proofs.reserve(n_proofs);
  for (uint64_t i = 0; i < n_proofs; ++i) {
    SEEMORE_ASSIGN_OR_RETURN(PreparedProof proof,
                             PreparedProof::DecodeFrom(dec));
    msg.proofs.push_back(std::move(proof));
  }

  msg.sender = static_cast<PrincipalId>(dec.GetU32());
  SEEMORE_RETURN_IF_ERROR(dec.Finish());
  return msg;
}

void SmNewViewEntry::EncodeTo(Encoder& enc) const {
  enc.PutU64(view);
  enc.PutU64(seq);
  digest.EncodeTo(enc);
  sig.EncodeTo(enc);
}

Result<SmNewViewEntry> SmNewViewEntry::DecodeFrom(Decoder& dec) {
  SmNewViewEntry entry;
  entry.view = dec.GetU64();
  entry.seq = dec.GetU64();
  entry.digest = Digest::DecodeFrom(dec);
  entry.sig = Signature::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return entry;
}

Digest SmNewViewMsg::EntrySetDigest() const {
  // Canonical encoding: set sizes, then each entry's (view, seq, digest) in
  // frame order. Batch bytes are bound transitively (a fetched batch is
  // accepted only if it hashes to entry.digest); the per-entry sigs are
  // the authority's own deterministic-domain signatures and add no binding.
  Sha256 hasher;
  const auto put_u64 = [&hasher](uint64_t v) {
    uint8_t buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<uint8_t>(v >> (8 * i));
    hasher.Update(buf, sizeof(buf));
  };
  put_u64(commits.size());
  put_u64(prepares.size());
  const auto put_entry = [&](const SmNewViewEntry& entry) {
    put_u64(entry.view);
    put_u64(entry.seq);
    hasher.Update(entry.digest.data(), Digest::kSize);
  };
  for (const SmNewViewEntry& entry : commits) put_entry(entry);
  for (const SmNewViewEntry& entry : prepares) put_entry(entry);
  std::array<uint8_t, Sha256::kDigestSize> out;
  hasher.Final(out.data());
  return Digest(out);
}

void SmNewViewMsg::EncodeTo(Encoder& enc) const {
  enc.PutU8(mode);
  enc.PutU64(new_view);
  enc.PutU64(low);
  header_sig.EncodeTo(enc);
  enc.PutVarint(commits.size());
  for (const SmNewViewEntry& entry : commits) entry.EncodeTo(enc);
  enc.PutVarint(prepares.size());
  for (const SmNewViewEntry& entry : prepares) entry.EncodeTo(enc);
}

Result<SmNewViewMsg> SmNewViewMsg::DecodeFrom(Decoder& dec,
                                              uint64_t max_entries) {
  SmNewViewMsg msg;
  msg.mode = dec.GetU8();
  msg.new_view = dec.GetU64();
  msg.low = dec.GetU64();
  msg.header_sig = Signature::DecodeFrom(dec);

  const uint64_t n_commits = dec.GetVarint();
  if (!dec.ok() || n_commits > max_entries) {
    return Status::Corruption("bad new-view commit count");
  }
  msg.commits.reserve(n_commits);
  for (uint64_t i = 0; i < n_commits; ++i) {
    SEEMORE_ASSIGN_OR_RETURN(SmNewViewEntry entry,
                             SmNewViewEntry::DecodeFrom(dec));
    msg.commits.push_back(std::move(entry));
  }

  const uint64_t n_prepares = dec.GetVarint();
  if (!dec.ok() || n_prepares > max_entries) {
    return Status::Corruption("bad new-view prepare count");
  }
  msg.prepares.reserve(n_prepares);
  for (uint64_t i = 0; i < n_prepares; ++i) {
    SEEMORE_ASSIGN_OR_RETURN(SmNewViewEntry entry,
                             SmNewViewEntry::DecodeFrom(dec));
    msg.prepares.push_back(std::move(entry));
  }
  SEEMORE_RETURN_IF_ERROR(dec.Finish());
  return msg;
}

void SmModeChangeMsg::EncodeTo(Encoder& enc) const {
  enc.PutU8(mode);
  enc.PutU64(new_view);
  enc.PutU32(static_cast<uint32_t>(sender));
  sig.EncodeTo(enc);
}

Result<SmModeChangeMsg> SmModeChangeMsg::DecodeFrom(Decoder& dec) {
  SmModeChangeMsg msg;
  msg.mode = dec.GetU8();
  msg.new_view = dec.GetU64();
  msg.sender = static_cast<PrincipalId>(dec.GetU32());
  msg.sig = Signature::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return msg;
}

// ---------------------------------------------------------------------------
// State transfer
// ---------------------------------------------------------------------------

void StateRequestMsg::EncodeTo(Encoder& enc) const {
  enc.PutU64(last_executed);
}

Result<StateRequestMsg> StateRequestMsg::DecodeFrom(Decoder& dec) {
  StateRequestMsg msg;
  msg.last_executed = dec.GetU64();
  if (!dec.ok()) return dec.status();
  return msg;
}

void BatchRequestMsg::EncodeTo(Encoder& enc) const {
  enc.PutVarint(wanted.size());
  for (const BatchRef& ref : wanted) {
    enc.PutU64(ref.seq);
    ref.digest.EncodeTo(enc);
  }
}

Result<BatchRequestMsg> BatchRequestMsg::DecodeFrom(Decoder& dec,
                                                    uint64_t max_entries) {
  BatchRequestMsg msg;
  const uint64_t count = dec.GetVarint();
  if (!dec.ok() || count > max_entries) {
    return Status::Corruption("bad batch-request count");
  }
  msg.wanted.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    BatchRef ref;
    ref.seq = dec.GetU64();
    ref.digest = Digest::DecodeFrom(dec);
    if (!dec.ok()) return dec.status();
    msg.wanted.push_back(ref);
  }
  SEEMORE_RETURN_IF_ERROR(dec.Finish());
  return msg;
}

void BatchResponseMsg::EncodeTo(Encoder& enc) const {
  enc.PutVarint(batches.size());
  for (const Entry& entry : batches) {
    enc.PutU64(entry.seq);
    enc.PutBytes(entry.batch);
  }
}

bool BatchResponseMsg::Add(uint64_t seq, Bytes batch) {
  const size_t entry_bytes = 8 + VarintSize(batch.size()) + batch.size();
  // The count's varint may grow by a byte too.
  if (!batches.empty() && EncodedSize() + entry_bytes + 1 > kMaxBytes) {
    return false;
  }
  batches.push_back({seq, std::move(batch)});
  return true;
}

size_t BatchResponseMsg::EncodedSize() const {
  size_t size = VarintSize(batches.size());
  for (const Entry& entry : batches) {
    size += 8 + VarintSize(entry.batch.size()) + entry.batch.size();
  }
  return size;
}

Result<BatchResponseMsg> BatchResponseMsg::DecodeFrom(Decoder& dec,
                                                      uint64_t max_entries) {
  BatchResponseMsg msg;
  const uint64_t count = dec.GetVarint();
  if (!dec.ok() || count > max_entries) {
    return Status::Corruption("bad batch-response count");
  }
  msg.batches.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Entry entry;
    entry.seq = dec.GetU64();
    entry.batch = dec.GetBytes();
    if (!dec.ok()) return dec.status();
    msg.batches.push_back(std::move(entry));
  }
  SEEMORE_RETURN_IF_ERROR(dec.Finish());
  return msg;
}

void NewViewRequestMsg::EncodeTo(Encoder& enc) const {
  enc.PutU64(view);
}

Result<NewViewRequestMsg> NewViewRequestMsg::DecodeFrom(Decoder& dec) {
  NewViewRequestMsg msg;
  msg.view = dec.GetU64();
  if (!dec.ok()) return dec.status();
  return msg;
}

void StateResponseMsg::EncodeTo(Encoder& enc) const {
  cert.EncodeTo(enc);
  enc.PutBytes(snapshot);
}

Result<StateResponseMsg> StateResponseMsg::DecodeFrom(Decoder& dec) {
  StateResponseMsg msg;
  SEEMORE_ASSIGN_OR_RETURN(msg.cert, CheckpointCert::DecodeFrom(dec));
  msg.snapshot = dec.GetBytes();
  if (!dec.ok()) return dec.status();
  return msg;
}

// ---------------------------------------------------------------------------
// PBFT / S-UpRight
// ---------------------------------------------------------------------------

void PbftPrePrepareMsg::EncodeTo(Encoder& enc) const {
  enc.PutU64(view);
  enc.PutU64(seq);
  digest.EncodeTo(enc);
  sig.EncodeTo(enc);
  enc.PutBytes(batch);
}

Result<PbftPrePrepareMsg> PbftPrePrepareMsg::DecodeFrom(Decoder& dec) {
  PbftPrePrepareMsg msg;
  msg.view = dec.GetU64();
  msg.seq = dec.GetU64();
  msg.digest = Digest::DecodeFrom(dec);
  msg.sig = Signature::DecodeFrom(dec);
  msg.batch = dec.GetBytes();
  if (!dec.ok()) return dec.status();
  msg.batch_offset = FieldOffset(dec, msg.batch);
  return msg;
}

void PbftVoteBody::EncodeTo(Encoder& enc) const {
  enc.PutU64(view);
  enc.PutU64(seq);
  digest.EncodeTo(enc);
  enc.PutU32(static_cast<uint32_t>(voter));
  sig.EncodeTo(enc);
}

Result<PbftPrepareMsg> PbftPrepareMsg::DecodeFrom(Decoder& dec) {
  return DecodePbftVote<PbftPrepareMsg>(dec);
}

Result<PbftCommitMsg> PbftCommitMsg::DecodeFrom(Decoder& dec) {
  return DecodePbftVote<PbftCommitMsg>(dec);
}

Bytes PbftViewChangeMsg::Build(uint64_t new_view, uint64_t stable_seq,
                               const CheckpointCert& cert,
                               const std::vector<PreparedProof>& proofs,
                               const Signer& signer) {
  Encoder enc;
  enc.PutU8(kTag);
  enc.PutU64(new_view);
  enc.PutU64(stable_seq);
  cert.EncodeTo(enc);
  enc.PutVarint(proofs.size());
  for (const PreparedProof& proof : proofs) proof.EncodeTo(enc);
  enc.PutU32(static_cast<uint32_t>(signer.id()));
  const Signature sig = signer.Sign(enc.bytes());
  sig.EncodeTo(enc);
  return enc.Take();
}

Result<PbftViewChangeMsg> PbftViewChangeMsg::DecodeFrom(const Bytes& raw,
                                                        uint64_t max_proofs) {
  Decoder dec(raw);
  if (dec.GetU8() != kTag || !dec.ok()) {
    return Status::Corruption("not a PBFT view-change");
  }
  PbftViewChangeMsg msg;
  msg.new_view = dec.GetU64();
  msg.stable_seq = dec.GetU64();
  SEEMORE_ASSIGN_OR_RETURN(msg.cert, CheckpointCert::DecodeFrom(dec));
  const uint64_t proof_count = dec.GetVarint();
  if (!dec.ok() || proof_count > max_proofs) {
    return Status::Corruption("too many proofs");
  }
  msg.proofs.reserve(proof_count);
  for (uint64_t i = 0; i < proof_count; ++i) {
    SEEMORE_ASSIGN_OR_RETURN(PreparedProof proof,
                             PreparedProof::DecodeFrom(dec));
    msg.proofs.push_back(std::move(proof));
  }
  msg.sender = static_cast<PrincipalId>(dec.GetU32());
  if (!dec.ok()) return dec.status();
  msg.signed_len = raw.size() - dec.remaining();
  msg.sig = Signature::DecodeFrom(dec);
  SEEMORE_RETURN_IF_ERROR(dec.Finish());
  return msg;
}

uint64_t PbftViewChangeMsg::PeekNewView(const Bytes& raw) {
  Decoder dec(raw);
  if (dec.GetU8() != kTag) return 0;
  const uint64_t new_view = dec.GetU64();
  return dec.ok() ? new_view : 0;
}

void PbftNewViewEntry::EncodeTo(Encoder& enc) const {
  enc.PutU64(seq);
  digest.EncodeTo(enc);
  sig.EncodeTo(enc);
}

Result<PbftNewViewEntry> PbftNewViewEntry::DecodeFrom(Decoder& dec) {
  PbftNewViewEntry entry;
  entry.seq = dec.GetU64();
  entry.digest = Digest::DecodeFrom(dec);
  entry.sig = Signature::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return entry;
}

void PbftNewViewMsg::EncodeTo(Encoder& enc) const {
  enc.PutU64(new_view);
  enc.PutVarint(view_changes.size());
  for (const Bytes& raw : view_changes) enc.PutBytes(raw);
  enc.PutVarint(entries.size());
  for (const PbftNewViewEntry& entry : entries) entry.EncodeTo(enc);
}

Result<PbftNewViewMsg> PbftNewViewMsg::DecodeFrom(Decoder& dec,
                                                  uint64_t max_vcs,
                                                  uint64_t max_entries) {
  PbftNewViewMsg msg;
  msg.new_view = dec.GetU64();
  const uint64_t vc_count = dec.GetVarint();
  if (!dec.ok() || vc_count > max_vcs) {
    return Status::Corruption("bad view-change count");
  }
  msg.view_changes.reserve(vc_count);
  for (uint64_t i = 0; i < vc_count; ++i) {
    msg.view_changes.push_back(dec.GetBytes());
    if (!dec.ok()) return dec.status();
  }
  const uint64_t entry_count = dec.GetVarint();
  if (!dec.ok() || entry_count > max_entries) {
    return Status::Corruption("bad new-view entry count");
  }
  msg.entries.reserve(entry_count);
  for (uint64_t i = 0; i < entry_count; ++i) {
    SEEMORE_ASSIGN_OR_RETURN(PbftNewViewEntry entry,
                             PbftNewViewEntry::DecodeFrom(dec));
    msg.entries.push_back(std::move(entry));
  }
  SEEMORE_RETURN_IF_ERROR(dec.Finish());
  return msg;
}

// ---------------------------------------------------------------------------
// Paxos
// ---------------------------------------------------------------------------

void PaxosAcceptMsg::EncodeTo(Encoder& enc) const {
  enc.PutU64(view);
  enc.PutU64(seq);
  enc.PutBytes(batch);
}

Result<PaxosAcceptMsg> PaxosAcceptMsg::DecodeFrom(Decoder& dec) {
  PaxosAcceptMsg msg;
  msg.view = dec.GetU64();
  msg.seq = dec.GetU64();
  msg.batch = dec.GetBytes();
  if (!dec.ok()) return dec.status();
  msg.batch_offset = FieldOffset(dec, msg.batch);
  return msg;
}

void PaxosAckMsg::EncodeTo(Encoder& enc) const {
  enc.PutU64(view);
  enc.PutU64(seq);
  digest.EncodeTo(enc);
}

Result<PaxosAckMsg> PaxosAckMsg::DecodeFrom(Decoder& dec) {
  PaxosAckMsg msg;
  msg.view = dec.GetU64();
  msg.seq = dec.GetU64();
  msg.digest = Digest::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return msg;
}

void PaxosCommitMsg::EncodeTo(Encoder& enc) const {
  enc.PutU64(view);
  enc.PutU64(seq);
  digest.EncodeTo(enc);
}

Result<PaxosCommitMsg> PaxosCommitMsg::DecodeFrom(Decoder& dec) {
  PaxosCommitMsg msg;
  msg.view = dec.GetU64();
  msg.seq = dec.GetU64();
  msg.digest = Digest::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return msg;
}

void PaxosCheckpointMsg::EncodeTo(Encoder& enc) const {
  enc.PutU64(seq);
  digest.EncodeTo(enc);
}

Result<PaxosCheckpointMsg> PaxosCheckpointMsg::DecodeFrom(Decoder& dec) {
  PaxosCheckpointMsg msg;
  msg.seq = dec.GetU64();
  msg.digest = Digest::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return msg;
}

void PaxosVcEntry::EncodeTo(Encoder& enc) const {
  enc.PutU64(seq);
  enc.PutU64(view);
  digest.EncodeTo(enc);
}

void PaxosViewChangeMsg::EncodeTo(Encoder& enc) const {
  enc.PutU64(new_view);
  enc.PutU64(stable_seq);
  enc.PutVarint(entries.size());
  for (const PaxosVcEntry& entry : entries) entry.EncodeTo(enc);
}

Result<PaxosViewChangeMsg> PaxosViewChangeMsg::DecodeFrom(Decoder& dec,
                                                          uint64_t window) {
  PaxosViewChangeMsg msg;
  msg.new_view = dec.GetU64();
  msg.stable_seq = dec.GetU64();
  const uint64_t count = dec.GetVarint();
  if (!dec.ok() || count > window + 1) {
    return Status::Corruption("bad view-change entry count");
  }
  msg.entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    PaxosVcEntry entry;
    entry.seq = dec.GetU64();
    entry.view = dec.GetU64();
    entry.digest = Digest::DecodeFrom(dec);
    if (!dec.ok()) return dec.status();
    if (entry.seq <= msg.stable_seq || entry.seq > msg.stable_seq + window) {
      return Status::Corruption("view-change entry outside sanity window");
    }
    msg.entries.push_back(entry);
  }
  SEEMORE_RETURN_IF_ERROR(dec.Finish());
  return msg;
}

void PaxosNewViewEntry::EncodeTo(Encoder& enc) const {
  enc.PutU64(seq);
  digest.EncodeTo(enc);
}

Result<PaxosNewViewEntry> PaxosNewViewEntry::DecodeFrom(Decoder& dec) {
  PaxosNewViewEntry entry;
  entry.seq = dec.GetU64();
  entry.digest = Digest::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return entry;
}

void PaxosNewViewMsg::EncodeTo(Encoder& enc) const {
  enc.PutU64(new_view);
  enc.PutU64(stable_seq);
  enc.PutVarint(entries.size());
  for (const PaxosNewViewEntry& entry : entries) entry.EncodeTo(enc);
}

Result<PaxosNewViewMsg> PaxosNewViewMsg::DecodeFrom(Decoder& dec,
                                                    uint64_t max_entries) {
  PaxosNewViewMsg msg;
  msg.new_view = dec.GetU64();
  msg.stable_seq = dec.GetU64();
  const uint64_t count = dec.GetVarint();
  if (!dec.ok() || count > max_entries) {
    return Status::Corruption("bad new-view entry count");
  }
  msg.entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SEEMORE_ASSIGN_OR_RETURN(PaxosNewViewEntry entry,
                             PaxosNewViewEntry::DecodeFrom(dec));
    msg.entries.push_back(std::move(entry));
  }
  SEEMORE_RETURN_IF_ERROR(dec.Finish());
  return msg;
}

void PaxosStateResponseMsg::EncodeTo(Encoder& enc) const {
  enc.PutU64(seq);
  digest.EncodeTo(enc);
  enc.PutBytes(snapshot);
}

Result<PaxosStateResponseMsg> PaxosStateResponseMsg::DecodeFrom(Decoder& dec) {
  PaxosStateResponseMsg msg;
  msg.seq = dec.GetU64();
  msg.digest = Digest::DecodeFrom(dec);
  msg.snapshot = dec.GetBytes();
  if (!dec.ok()) return dec.status();
  return msg;
}

}  // namespace seemore
