// Encoder/Decoder round trips, bounds checking, and malformed-input safety
// (a Byzantine peer can send arbitrary bytes; decoding must fail cleanly).
// The second half covers the typed message codecs of wire/messages.h: every
// protocol message round-trips, and truncated or corrupted frames are
// rejected without crashing, and every frame is exactly sized and
// byte-identical to the encoding pinned before framing measured sizes.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <vector>

#include "crypto/keystore.h"
#include "util/rng.h"
#include "wire/messages.h"
#include "wire/wire.h"

namespace seemore {
namespace {

TEST(WireTest, PrimitiveRoundTrip) {
  Encoder enc;
  enc.PutU8(0xab);
  enc.PutU16(0xbeef);
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefULL);
  enc.PutI64(-42);

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.GetU8(), 0xab);
  EXPECT_EQ(dec.GetU16(), 0xbeef);
  EXPECT_EQ(dec.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(dec.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(dec.GetI64(), -42);
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_TRUE(dec.Finish().ok());
}

TEST(WireTest, VarintRoundTrip) {
  const uint64_t values[] = {0,     1,       127,        128,
                             16383, 16384,   (1ULL << 32),
                             (1ULL << 63),   UINT64_MAX};
  Encoder enc;
  for (uint64_t v : values) enc.PutVarint(v);
  Decoder dec(enc.bytes());
  for (uint64_t v : values) EXPECT_EQ(dec.GetVarint(), v);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(WireTest, BytesAndStrings) {
  Encoder enc;
  enc.PutBytes(Bytes{});
  enc.PutBytes(Bytes{1, 2, 3});
  enc.PutString("hello");
  std::string big(100000, 'x');
  enc.PutString(big);

  Decoder dec(enc.bytes());
  EXPECT_TRUE(dec.GetBytes().empty());
  EXPECT_EQ(dec.GetBytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(dec.GetString(), "hello");
  EXPECT_EQ(dec.GetString(), big);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(WireTest, TruncatedInputFailsSticky) {
  Encoder enc;
  enc.PutU64(7);
  Bytes data = enc.Take();
  data.resize(4);  // truncate mid-field
  Decoder dec(data);
  dec.GetU64();
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.status().code(), StatusCode::kCorruption);
  // Sticky: everything after the failure also fails.
  EXPECT_EQ(dec.GetU8(), 0);
  EXPECT_FALSE(dec.ok());
}

TEST(WireTest, BytesLengthExceedingInputFails) {
  Encoder enc;
  enc.PutVarint(1000);  // claims 1000 bytes follow
  enc.PutU8(1);
  Decoder dec(enc.bytes());
  EXPECT_TRUE(dec.GetBytes().empty());
  EXPECT_FALSE(dec.ok());
}

TEST(WireTest, VarintOverflowFails) {
  // 11 continuation bytes exceed a u64.
  Bytes data(11, 0xff);
  Decoder dec(data);
  dec.GetVarint();
  EXPECT_FALSE(dec.ok());
}

TEST(WireTest, VarintRejectsNonCanonicalEncodings) {
  // Only the minimal encoding is accepted: a padded one (a zero final group
  // after the first byte) decodes to a value whose re-encoding differs.
  const Bytes padded[] = {
      {0x80, 0x00},                    // 0
      {0x81, 0x00},                    // 1
      {0xff, 0x80, 0x00},              // 127
      {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
  };
  for (const Bytes& bytes : padded) {
    Decoder dec(bytes);
    EXPECT_EQ(dec.GetVarint(), 0u);
    EXPECT_EQ(dec.status().code(), StatusCode::kCorruption)
        << "accepted a " << bytes.size() << "-byte padded varint";
  }
  // A zero group in the middle is canonical (128 = 0x80 0x01; 2^14 =
  // 0x80 0x80 0x01), as is a lone zero byte.
  const std::pair<Bytes, uint64_t> canonical[] = {
      {{0x00}, 0}, {{0x80, 0x01}, 128}, {{0x80, 0x80, 0x01}, 1u << 14}};
  for (const auto& [bytes, value] : canonical) {
    Decoder dec(bytes);
    EXPECT_EQ(dec.GetVarint(), value);
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(WireTest, AcceptedVarintsReEncodeToTheBytesDecoded) {
  // decode -> encode is the identity on every accepted input, so a digest
  // over received bytes is the digest of what was decoded. Bytes are drawn
  // mostly from continuation/zero patterns to hit padded encodings often.
  const uint8_t kPool[] = {0x00, 0x01, 0x7f, 0x80, 0x81, 0xff};
  uint64_t state = 0x5eed;
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    Bytes input;
    const int len = 1 + static_cast<int>(SplitMix64(state) % 11);
    for (int i = 0; i < len; ++i) {
      const uint64_t r = SplitMix64(state);
      input.push_back(r % 4 == 0 ? static_cast<uint8_t>(r >> 8)
                                 : kPool[(r >> 8) % sizeof(kPool)]);
    }
    Decoder dec(input);
    const uint64_t value = dec.GetVarint();
    if (!dec.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    Encoder enc;
    enc.PutVarint(value);
    EXPECT_EQ(enc.bytes(), Bytes(input.begin(), input.begin() + dec.pos()))
        << "round " << round;
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

TEST(WireTest, GetStringAndSkipPastTheEndFailWithoutAdvancing) {
  Encoder enc;
  enc.PutU8(7);
  enc.PutVarint(1000);  // a string that claims 1000 bytes follow
  enc.PutU8(1);
  {
    Decoder dec(enc.bytes());
    dec.GetU8();
    EXPECT_TRUE(dec.GetString().empty());
    EXPECT_EQ(dec.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(dec.pos(), 1u);
  }
  {
    Decoder dec(enc.bytes());
    dec.GetU8();
    EXPECT_FALSE(dec.Skip(enc.size()));
    EXPECT_EQ(dec.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(dec.pos(), 1u);
  }
  {
    // In bounds: Skip steps over exactly `len` bytes.
    Decoder dec(enc.bytes());
    EXPECT_TRUE(dec.Skip(1));
    EXPECT_EQ(dec.GetVarint(), 1000u);
    EXPECT_TRUE(dec.Skip(1));
    EXPECT_TRUE(dec.AtEnd());
    EXPECT_FALSE(dec.Skip(1));
  }
}

TEST(WireTest, TrailingBytesDetectedByFinish) {
  Encoder enc;
  enc.PutU8(1);
  enc.PutU8(2);
  Decoder dec(enc.bytes());
  dec.GetU8();
  EXPECT_FALSE(dec.Finish().ok());
}

TEST(WireTest, RawFields) {
  Encoder enc;
  uint8_t raw[5] = {9, 8, 7, 6, 5};
  enc.PutRaw(raw, sizeof(raw));
  Decoder dec(enc.bytes());
  Bytes out = dec.GetRaw(5);
  EXPECT_EQ(out, (Bytes{9, 8, 7, 6, 5}));
  EXPECT_TRUE(dec.AtEnd());

  Decoder dec2(enc.bytes());
  uint8_t into[5];
  EXPECT_TRUE(dec2.GetRawInto(into, 5));
  EXPECT_EQ(0, memcmp(into, raw, 5));
  EXPECT_FALSE(dec2.GetRawInto(into, 1));  // exhausted
}

TEST(WireTest, RandomGarbageNeverCrashes) {
  // Fuzz-ish: decode random byte strings with every getter; must fail or
  // succeed without UB (run under the normal test harness).
  uint64_t state = 12345;
  for (int round = 0; round < 200; ++round) {
    Bytes garbage;
    const int len = static_cast<int>(SplitMix64(state) % 64);
    for (int i = 0; i < len; ++i) {
      garbage.push_back(static_cast<uint8_t>(SplitMix64(state)));
    }
    Decoder dec(garbage);
    dec.GetVarint();
    dec.GetBytes();
    dec.GetU32();
    dec.GetString();
    (void)dec.ok();
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Typed message codecs (wire/messages.h)
// ---------------------------------------------------------------------------

/// Fixtures shared by the typed-message tests.
class MessagesTest : public ::testing::Test {
 protected:
  MessagesTest() : keystore_(42), signer_(1, keystore_) {}

  Batch SampleBatch() const {
    Signer client_signer(kClientIdBase, keystore_);
    Batch batch;
    Request request;
    request.client = kClientIdBase;
    request.timestamp = 7;
    request.op = Bytes{10, 20, 30, 40};
    request.Sign(client_signer);
    batch.requests.push_back(std::move(request));
    return batch;
  }

  Digest FillDigest(uint8_t fill) const {
    std::array<uint8_t, Digest::kSize> bytes;
    bytes.fill(fill);
    return Digest(bytes);
  }

  /// Every strict prefix of a message body must be rejected: the decoders
  /// consume a fixed field sequence, so truncation anywhere is corruption.
  void ExpectPrefixesRejected(
      const Bytes& body,
      const std::function<bool(Decoder&)>& decode_ok) const {
    for (size_t len = 0; len < body.size(); ++len) {
      Decoder dec(body.data(), len);
      EXPECT_FALSE(decode_ok(dec)) << "prefix of length " << len
                                   << "/" << body.size() << " decoded";
    }
  }

  /// Every single-byte mutation of a body is visible: it is either rejected
  /// or decodes to a message whose re-encoding is exactly the mutated bytes.
  /// No byte is ignored or normalised away, so what a receiver acts on is
  /// what was sent (and what any signature over those bytes covers).
  void ExpectMutationsVisible(
      const Bytes& body,
      const std::function<bool(Decoder&, Bytes*)>& decode_reencode) const {
    for (size_t pos = 0; pos < body.size(); ++pos) {
      for (int delta = 1; delta < 256; ++delta) {
        Bytes mutated = body;
        mutated[pos] = static_cast<uint8_t>(mutated[pos] + delta);
        Decoder dec(mutated);
        Bytes reencoded;
        if (decode_reencode(dec, &reencoded)) {
          EXPECT_EQ(reencoded, mutated) << "mutation at byte " << pos;
        }
      }
    }
  }

  /// Strips the tag byte off a framed message and checks it.
  static Bytes Body(const Bytes& frame, uint8_t expected_tag) {
    EXPECT_FALSE(frame.empty());
    EXPECT_EQ(frame[0], expected_tag);
    return Bytes(frame.begin() + 1, frame.end());
  }

  KeyStore keystore_;
  Signer signer_;
};

/// One framed sample of every message type ToMessage() encodes, beside the
/// same message encoded in a single pass into a growing Encoder (how every
/// frame was built before framing measured its exact size).
struct FramedSample {
  const char* name;
  Bytes framed;
  Bytes single_pass;
};

template <typename M>
FramedSample Sample(const char* name, uint8_t tag, const M& msg,
                    Bytes framed) {
  Encoder enc;
  enc.PutU8(tag);
  msg.EncodeTo(enc);
  return FramedSample{name, std::move(framed), enc.Take()};
}

std::vector<FramedSample> AllFramedSamples(const KeyStore& keystore) {
  const Signer signer(1, keystore);
  const Signer client(kClientIdBase, keystore);
  Request request;
  request.client = kClientIdBase;
  request.timestamp = 300;  // multi-byte varints throughout
  request.op = Bytes(200, 0x5a);
  request.Sign(client);
  Batch batch;
  batch.requests = {request, request};
  const Bytes batch_bytes = batch.Encode();
  const Digest digest = Digest::Of(batch_bytes);
  const Signature sig = signer.Sign(batch_bytes);
  CheckpointMsg checkpoint;
  checkpoint.seq = 1 << 20;
  checkpoint.state_digest = digest;
  checkpoint.replica = 2;
  checkpoint.Sign(signer);
  CheckpointCert cert;
  cert.Add(checkpoint);
  cert.Add(checkpoint);
  PreparedProof proof;
  proof.mode = 2;
  proof.view = 1 << 16;
  proof.seq = 1 << 14;
  proof.digest = digest;
  proof.primary_sig = sig;
  proof.prepares = {{1, sig}, {3, sig}};

  std::vector<FramedSample> out;
  out.push_back(Sample("Request", kMsgRequest, request, request.ToMessage()));
  Reply reply;
  reply.mode = 1;
  reply.view = 1 << 21;
  reply.timestamp = 300;
  reply.replica = 4;
  reply.result = Bytes(130, 0x11);
  reply.Sign(signer);
  out.push_back(Sample("Reply", kMsgReply, reply, reply.ToMessage()));
  out.push_back(Sample("Checkpoint", kSmCheckpoint, checkpoint,
                       FrameMessage(kSmCheckpoint, checkpoint)));

  SmPrepareMsg prepare;
  prepare.mode = 1;
  prepare.view = 1 << 30;
  prepare.seq = 129;
  prepare.digest = digest;
  prepare.sig = sig;
  prepare.batch = batch_bytes;
  out.push_back(Sample("SmPrepare", SmPrepareMsg::kTag, prepare,
                       prepare.ToMessage()));
  SmAcceptPlainMsg accept;
  accept.mode = 0;
  accept.view = 7;
  accept.seq = 129;
  accept.digest = digest;
  accept.voter = 3;
  out.push_back(Sample("SmAcceptPlain", SmAcceptPlainMsg::kTag, accept,
                       accept.ToMessage()));
  SmAcceptSignedMsg accept_signed;
  accept_signed.mode = 1;
  accept_signed.view = 7;
  accept_signed.seq = 129;
  accept_signed.digest = digest;
  accept_signed.voter = 3;
  accept_signed.sig = sig;
  out.push_back(Sample("SmAcceptSigned", SmAcceptSignedMsg::kTag,
                       accept_signed, accept_signed.ToMessage()));
  SmCommitVoteMsg commit_vote;
  static_cast<SmSignedVoteBody&>(commit_vote) = accept_signed;
  out.push_back(Sample("SmCommitVote", SmCommitVoteMsg::kTag, commit_vote,
                       commit_vote.ToMessage()));
  SmInformMsg inform;
  static_cast<SmSignedVoteBody&>(inform) = accept_signed;
  out.push_back(
      Sample("SmInform", SmInformMsg::kTag, inform, inform.ToMessage()));
  SmCommitPrimaryMsg commit_primary;
  commit_primary.mode = 0;
  commit_primary.view = 7;
  commit_primary.seq = 129;
  commit_primary.digest = digest;
  commit_primary.sig = sig;
  commit_primary.batch = batch_bytes;
  out.push_back(Sample("SmCommitPrimary", SmCommitPrimaryMsg::kTag,
                       commit_primary, commit_primary.ToMessage()));
  SmViewChangeMsg view_change;
  view_change.mode = 2;
  view_change.new_view = 8;
  view_change.stable_seq = 1 << 20;
  view_change.cert = cert;
  SmVcEntry entry;
  entry.mode = SeeMoReMode::kDog;
  entry.view = 7;
  entry.seq = (1 << 20) + 1;
  entry.digest = digest;
  entry.sig = sig;
  view_change.prepares = {entry, entry};
  view_change.commits = {entry};
  view_change.proofs = {proof};
  view_change.sender = 5;
  out.push_back(Sample("SmViewChange", SmViewChangeMsg::kTag, view_change,
                       view_change.ToMessage()));
  SmNewViewMsg new_view;
  new_view.mode = 1;
  new_view.new_view = 8;
  new_view.low = 1 << 20;
  new_view.header_sig = sig;
  SmNewViewEntry nv_entry;
  nv_entry.view = 8;
  nv_entry.seq = (1 << 20) + 1;
  nv_entry.digest = digest;
  nv_entry.sig = sig;
  new_view.commits = {nv_entry};
  new_view.prepares = {nv_entry, nv_entry};
  out.push_back(Sample("SmNewView", SmNewViewMsg::kTag, new_view,
                       new_view.ToMessage()));
  SmModeChangeMsg mode_change;
  mode_change.mode = 2;
  mode_change.new_view = 1 << 9;
  mode_change.sender = 0;
  mode_change.sig = sig;
  out.push_back(Sample("SmModeChange", SmModeChangeMsg::kTag, mode_change,
                       mode_change.ToMessage()));
  StateRequestMsg state_request;
  state_request.last_executed = 1 << 25;
  out.push_back(Sample("StateRequest", kSmStateRequest, state_request,
                       state_request.ToMessage(kSmStateRequest)));
  StateResponseMsg state_response;
  state_response.cert = cert;
  state_response.snapshot = Bytes(1000, 0x77);
  out.push_back(Sample("StateResponse", kPbftStateResponse, state_response,
                       state_response.ToMessage(kPbftStateResponse)));
  NewViewRequestMsg new_view_request;
  new_view_request.view = 1 << 12;
  out.push_back(Sample("NewViewRequest", NewViewRequestMsg::kTag,
                       new_view_request, new_view_request.ToMessage()));
  BatchRequestMsg batch_request;
  batch_request.wanted = {{(1 << 20) + 1, digest}, {(1 << 20) + 2, digest}};
  out.push_back(Sample("BatchRequest", kSmBatchRequest, batch_request,
                       batch_request.ToMessage(kSmBatchRequest)));
  BatchResponseMsg batch_response;
  batch_response.batches = {{(1 << 20) + 1, batch_bytes}};
  out.push_back(Sample("BatchResponse", kPbftBatchResponse, batch_response,
                       batch_response.ToMessage(kPbftBatchResponse)));

  PbftPrePrepareMsg pre_prepare;
  pre_prepare.view = 3;
  pre_prepare.seq = 1 << 15;
  pre_prepare.digest = digest;
  pre_prepare.sig = sig;
  pre_prepare.batch = batch_bytes;
  out.push_back(Sample("PbftPrePrepare", PbftPrePrepareMsg::kTag,
                       pre_prepare, pre_prepare.ToMessage()));
  PbftPrepareMsg pbft_prepare;
  pbft_prepare.view = 3;
  pbft_prepare.seq = 1 << 15;
  pbft_prepare.digest = digest;
  pbft_prepare.voter = 2;
  pbft_prepare.sig = sig;
  out.push_back(Sample("PbftPrepare", PbftPrepareMsg::kTag, pbft_prepare,
                       pbft_prepare.ToMessage()));
  PbftCommitMsg pbft_commit;
  static_cast<PbftVoteBody&>(pbft_commit) = pbft_prepare;
  out.push_back(Sample("PbftCommit", PbftCommitMsg::kTag, pbft_commit,
                       pbft_commit.ToMessage()));
  PbftNewViewMsg pbft_new_view;
  pbft_new_view.new_view = 4;
  pbft_new_view.view_changes = {
      PbftViewChangeMsg::Build(4, 1 << 20, cert, {proof}, signer),
      Bytes(3, 0x01)};
  PbftNewViewEntry pbft_entry;
  pbft_entry.seq = (1 << 20) + 1;
  pbft_entry.digest = digest;
  pbft_entry.sig = sig;
  pbft_new_view.entries = {pbft_entry, pbft_entry};
  out.push_back(Sample("PbftNewView", PbftNewViewMsg::kTag, pbft_new_view,
                       pbft_new_view.ToMessage()));

  PaxosAcceptMsg paxos_accept;
  paxos_accept.view = 2;
  paxos_accept.seq = 1 << 15;
  paxos_accept.batch = batch_bytes;
  out.push_back(Sample("PaxosAccept", PaxosAcceptMsg::kTag, paxos_accept,
                       paxos_accept.ToMessage()));
  PaxosAckMsg paxos_ack;
  paxos_ack.view = 2;
  paxos_ack.seq = 1 << 15;
  paxos_ack.digest = digest;
  out.push_back(Sample("PaxosAck", PaxosAckMsg::kTag, paxos_ack,
                       paxos_ack.ToMessage()));
  PaxosCommitMsg paxos_commit;
  paxos_commit.view = 2;
  paxos_commit.seq = 1 << 15;
  paxos_commit.digest = digest;
  out.push_back(Sample("PaxosCommit", PaxosCommitMsg::kTag, paxos_commit,
                       paxos_commit.ToMessage()));
  PaxosCheckpointMsg paxos_checkpoint;
  paxos_checkpoint.seq = 1 << 20;
  paxos_checkpoint.digest = digest;
  out.push_back(Sample("PaxosCheckpoint", PaxosCheckpointMsg::kTag,
                       paxos_checkpoint, paxos_checkpoint.ToMessage()));
  PaxosViewChangeMsg paxos_view_change;
  paxos_view_change.new_view = 3;
  paxos_view_change.stable_seq = 1 << 20;
  PaxosVcEntry paxos_vc_entry;
  paxos_vc_entry.seq = (1 << 20) + 1;
  paxos_vc_entry.view = 2;
  paxos_vc_entry.digest = digest;
  paxos_view_change.entries = {paxos_vc_entry, paxos_vc_entry};
  out.push_back(Sample("PaxosViewChange", PaxosViewChangeMsg::kTag,
                       paxos_view_change, paxos_view_change.ToMessage()));
  PaxosNewViewMsg paxos_new_view;
  paxos_new_view.new_view = 3;
  paxos_new_view.stable_seq = 1 << 20;
  PaxosNewViewEntry paxos_nv_entry;
  paxos_nv_entry.seq = (1 << 20) + 1;
  paxos_nv_entry.digest = digest;
  paxos_new_view.entries = {paxos_nv_entry};
  out.push_back(Sample("PaxosNewView", PaxosNewViewMsg::kTag, paxos_new_view,
                       paxos_new_view.ToMessage()));
  PaxosStateResponseMsg paxos_state;
  paxos_state.seq = 1 << 20;
  paxos_state.digest = digest;
  paxos_state.snapshot = Bytes(1000, 0x66);
  out.push_back(Sample("PaxosStateResponse", PaxosStateResponseMsg::kTag,
                       paxos_state, paxos_state.ToMessage()));
  return out;
}

/// The samples whose frames name batches by digest: the view-change
/// messages and the batch fetch pair.
bool IsViewChangeSample(const std::string& name) {
  return name == "SmViewChange" || name == "SmNewView" ||
         name == "PbftNewView" || name == "PaxosViewChange" ||
         name == "PaxosNewView" || name == "BatchRequest" ||
         name == "BatchResponse";
}

TEST(FramingTest, EveryToMessageIsExactlySizedAndByteIdentical) {
  const KeyStore keystore(42);
  Bytes normal;
  Bytes view_change;
  for (const FramedSample& sample : AllFramedSamples(keystore)) {
    // One allocation of exactly the frame's size...
    EXPECT_EQ(sample.framed.capacity(), sample.framed.size()) << sample.name;
    // ...holding the bytes a single growing pass writes.
    EXPECT_EQ(sample.framed, sample.single_pass) << sample.name;
    Bytes& all = IsViewChangeSample(sample.name) ? view_change : normal;
    all.insert(all.end(), sample.framed.begin(), sample.framed.end());
  }
  // Every normal-case sample's bytes as framed before frames were exactly
  // sized and before view changes named batches by digest (captured from
  // those encoders), so no normal-case wire byte or signature moved.
  EXPECT_EQ(normal.size(), 5636u);
  EXPECT_EQ(Digest::Of(normal).ToHex(),
            "2ccd8ceabaec5818b06258f89c9d4bc320b573907a3cc457d0a98c2c26e44c38");
  // The digest-only view-change frames, pinned as first framed.
  EXPECT_EQ(view_change.size(), 2148u);
  EXPECT_EQ(Digest::Of(view_change).ToHex(),
            "e7ee1c81a27053d41e336043b99006a17790c954e95d1ad24d968eaca36d71ca");
}

TEST(FramingTest, MeasuringEncoderCountsWhatARealOneWrites) {
  const auto encode = [](Encoder& enc) {
    enc.PutU8(1);
    enc.PutU16(0x1234);
    enc.PutU32(0xdeadbeef);
    enc.PutU64(1ull << 63);
    enc.PutVarint(300);
    enc.PutBytes(Bytes(129, 7));
    enc.PutString("seemore");
    enc.PutRaw(Bytes(5, 9));
  };
  Encoder measuring = Encoder::Measuring();
  encode(measuring);
  EXPECT_TRUE(measuring.bytes().empty());
  Encoder real;
  encode(real);
  EXPECT_EQ(measuring.size(), real.size());
  const Bytes exact = EncodeExact(encode);
  EXPECT_EQ(exact, real.bytes());
  EXPECT_EQ(exact.capacity(), exact.size());
}

TEST_F(MessagesTest, BatchWithPaddedLengthFieldIsRejected) {
  // A Byzantine primary could digest and sign batch bytes that use a padded
  // varint; Batch::Decode must refuse them, so every accepted batch
  // re-encodes to the digested bytes.
  const Bytes canonical = SampleBatch().Encode();
  ASSERT_TRUE(Batch::Decode(canonical).ok());
  ASSERT_EQ(canonical[0], 0x01);  // request count
  Bytes padded_count = canonical;
  padded_count[0] = 0x81;
  padded_count.insert(padded_count.begin() + 1, 0x00);
  EXPECT_EQ(Batch::Decode(padded_count).status().code(),
            StatusCode::kCorruption);
  constexpr size_t kOpLength = 1 + 4 + 8;  // count, client, timestamp
  ASSERT_EQ(canonical[kOpLength], 0x04);
  Bytes padded_op = canonical;
  padded_op[kOpLength] = 0x84;
  padded_op.insert(padded_op.begin() + kOpLength + 1, 0x00);
  EXPECT_EQ(Batch::Decode(padded_op).status().code(),
            StatusCode::kCorruption);
}

TEST_F(MessagesTest, SmPrepareRoundTripAndSignature) {
  SmPrepareMsg msg;
  msg.mode = 2;
  msg.view = 5;
  msg.seq = 99;
  msg.batch = SampleBatch().Encode();
  msg.digest = Digest::Of(msg.batch);
  msg.sig = signer_.Sign(msg.Header());

  const Bytes body = Body(msg.ToMessage(), kSmPrepare);
  Decoder dec(body);
  Result<SmPrepareMsg> out = SmPrepareMsg::DecodeFrom(dec);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().mode, msg.mode);
  EXPECT_EQ(out.value().view, msg.view);
  EXPECT_EQ(out.value().seq, msg.seq);
  EXPECT_EQ(out.value().digest, msg.digest);
  EXPECT_EQ(out.value().batch, msg.batch);
  EXPECT_TRUE(out.value().VerifySignature(keystore_, 1));
  EXPECT_FALSE(out.value().VerifySignature(keystore_, 2));  // wrong signer

  ExpectPrefixesRejected(body, [](Decoder& d) {
    return SmPrepareMsg::DecodeFrom(d).ok();
  });
}

TEST_F(MessagesTest, SmVotesRoundTripAndDomainSeparation) {
  SmAcceptSignedMsg accept;
  accept.mode = 3;
  accept.view = 2;
  accept.seq = 11;
  accept.digest = FillDigest(0xaa);
  accept.voter = 1;
  accept.sig = signer_.Sign(accept.Header(SmAcceptSignedMsg::kDomain));

  const Bytes body = Body(accept.ToMessage(), kSmAcceptSigned);
  Decoder dec(body);
  Result<SmAcceptSignedMsg> out = SmAcceptSignedMsg::DecodeFrom(dec);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().Verify(keystore_));
  // The same bytes must NOT verify under the commit-vote domain: signature
  // domains separate the phases.
  SmCommitVoteMsg cross;
  static_cast<SmSignedVoteBody&>(cross) = out.value();
  EXPECT_FALSE(cross.Verify(keystore_));

  // Corrupted signature must fail verification (but still decode).
  Bytes corrupted = body;
  corrupted.back() ^= 0xff;
  Decoder dec2(corrupted);
  Result<SmAcceptSignedMsg> bad = SmAcceptSignedMsg::DecodeFrom(dec2);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.value().Verify(keystore_));

  ExpectPrefixesRejected(body, [](Decoder& d) {
    return SmAcceptSignedMsg::DecodeFrom(d).ok();
  });

  SmInformMsg inform;
  inform.mode = 2;
  inform.view = 1;
  inform.seq = 4;
  inform.digest = FillDigest(0x11);
  inform.voter = 1;
  inform.sig = signer_.Sign(inform.Header(SmInformMsg::kDomain));
  const Bytes inform_body = Body(inform.ToMessage(), kSmInform);
  Decoder dec3(inform_body);
  Result<SmInformMsg> inform_out = SmInformMsg::DecodeFrom(dec3);
  ASSERT_TRUE(inform_out.ok());
  EXPECT_TRUE(inform_out.value().Verify(keystore_));
}

TEST_F(MessagesTest, SmAcceptPlainAndCommitPrimaryRoundTrip) {
  SmAcceptPlainMsg plain{1, 3, 7, FillDigest(0x5e), 4};
  const Bytes plain_body = Body(plain.ToMessage(), kSmAcceptPlain);
  Decoder dec(plain_body);
  Result<SmAcceptPlainMsg> plain_out = SmAcceptPlainMsg::DecodeFrom(dec);
  ASSERT_TRUE(plain_out.ok());
  EXPECT_EQ(plain_out.value().voter, 4);
  EXPECT_EQ(plain_out.value().digest, plain.digest);

  SmCommitPrimaryMsg commit;
  commit.mode = 1;
  commit.view = 0;
  commit.seq = 12;
  commit.batch = SampleBatch().Encode();
  commit.digest = Digest::Of(commit.batch);
  commit.sig = signer_.Sign(commit.Header());
  const Bytes body = Body(commit.ToMessage(), kSmCommitPrimary);
  Decoder dec2(body);
  Result<SmCommitPrimaryMsg> commit_out = SmCommitPrimaryMsg::DecodeFrom(dec2);
  ASSERT_TRUE(commit_out.ok());
  EXPECT_TRUE(commit_out.value().VerifySignature(keystore_, 1));
  ExpectPrefixesRejected(body, [](Decoder& d) {
    return SmCommitPrimaryMsg::DecodeFrom(d).ok();
  });
}

TEST_F(MessagesTest, SmViewChangeRoundTripTruncationAndMutation) {
  const Batch batch = SampleBatch();
  SmViewChangeMsg msg;
  msg.mode = 1;
  msg.new_view = 9;
  msg.stable_seq = 3;
  msg.cert = CheckpointCert::Genesis();
  SmVcEntry prepare;
  prepare.mode = SeeMoReMode::kLion;
  prepare.view = 8;
  prepare.seq = 4;
  prepare.digest = Digest::Of(batch.Encode());
  prepare.sig = signer_.Sign(Bytes{1});
  msg.prepares.push_back(prepare);
  SmVcEntry commit = prepare;
  commit.seq = 5;
  msg.commits.push_back(commit);
  PreparedProof proof;
  proof.mode = 2;
  proof.view = 8;
  proof.seq = 6;
  proof.digest = prepare.digest;
  proof.primary_sig = signer_.Sign(Bytes{2});
  proof.prepares = {{2, signer_.Sign(Bytes{3})}, {3, signer_.Sign(Bytes{4})}};
  msg.proofs.push_back(proof);
  msg.sender = 1;

  const Bytes body = Body(msg.ToMessage(), kSmViewChange);
  {
    Decoder dec(body);
    Result<SmViewChangeMsg> out = SmViewChangeMsg::DecodeFrom(dec, 100);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value().new_view, 9u);
    ASSERT_EQ(out.value().prepares.size(), 1u);
    EXPECT_EQ(out.value().prepares[0].seq, 4u);
    EXPECT_EQ(out.value().prepares[0].digest, prepare.digest);
    EXPECT_EQ(out.value().prepares[0].sig, prepare.sig);
    ASSERT_EQ(out.value().commits.size(), 1u);
    ASSERT_EQ(out.value().proofs.size(), 1u);
    EXPECT_EQ(out.value().proofs[0].prepares, proof.prepares);
  }
  // Entry-count bound: a window of 0 entries rejects the message.
  {
    Decoder dec(body);
    EXPECT_FALSE(SmViewChangeMsg::DecodeFrom(dec, 0).ok());
  }
  // Trailing garbage violates the Finish() requirement.
  {
    Bytes padded = body;
    padded.push_back(0x00);
    Decoder dec(padded);
    EXPECT_FALSE(SmViewChangeMsg::DecodeFrom(dec, 100).ok());
  }
  ExpectPrefixesRejected(body, [](Decoder& d) {
    return SmViewChangeMsg::DecodeFrom(d, 100).ok();
  });
  ExpectMutationsVisible(body, [](Decoder& d, Bytes* out) {
    Result<SmViewChangeMsg> decoded = SmViewChangeMsg::DecodeFrom(d, 100);
    if (decoded.ok()) *out = Body(decoded->ToMessage(), kSmViewChange);
    return decoded.ok();
  });
}

TEST_F(MessagesTest, SmNewViewAndModeChangeRoundTrip) {
  SmNewViewMsg msg;
  msg.mode = 2;
  msg.new_view = 4;
  msg.low = 1;
  SmNewViewEntry entry;
  entry.view = 4;
  entry.seq = 2;
  entry.digest = Digest::Of(SampleBatch().Encode());
  entry.sig = signer_.Sign(Bytes{2});
  msg.prepares.push_back(entry);
  SmNewViewEntry commit = entry;
  commit.seq = 1;
  msg.commits.push_back(commit);
  // Signed last: the header binds the entry sets via EntrySetDigest.
  msg.header_sig = signer_.Sign(msg.Header());

  const Bytes body = Body(msg.ToMessage(), kSmNewView);
  Decoder dec(body);
  Result<SmNewViewMsg> out = SmNewViewMsg::DecodeFrom(dec, 10);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().VerifySignature(keystore_, 1));
  ASSERT_EQ(out.value().prepares.size(), 1u);
  EXPECT_EQ(out.value().prepares[0].digest, entry.digest);
  EXPECT_EQ(out.value().prepares[0].sig, entry.sig);
  ASSERT_EQ(out.value().commits.size(), 1u);
  // A relayer that strips, reorders, or retargets entries must break the
  // header signature (NEW-VIEW is relayed by untrusted peers).
  {
    SmNewViewMsg pruned = out.value();
    pruned.prepares.clear();
    EXPECT_FALSE(pruned.VerifySignature(keystore_, 1));
  }
  {
    SmNewViewMsg moved = out.value();
    moved.commits.push_back(moved.prepares[0]);
    moved.prepares.clear();
    EXPECT_FALSE(moved.VerifySignature(keystore_, 1));
  }
  {
    SmNewViewMsg reseq = out.value();
    reseq.prepares[0].seq = 3;
    EXPECT_FALSE(reseq.VerifySignature(keystore_, 1));
  }
  {
    Decoder bounded(body);
    EXPECT_FALSE(SmNewViewMsg::DecodeFrom(bounded, 0).ok());
  }
  ExpectPrefixesRejected(body, [](Decoder& d) {
    return SmNewViewMsg::DecodeFrom(d, 10).ok();
  });
  ExpectMutationsVisible(body, [](Decoder& d, Bytes* out) {
    Result<SmNewViewMsg> decoded = SmNewViewMsg::DecodeFrom(d, 10);
    if (decoded.ok()) *out = Body(decoded->ToMessage(), kSmNewView);
    return decoded.ok();
  });

  SmModeChangeMsg mc;
  mc.mode = 3;
  mc.new_view = 6;
  mc.sender = 1;
  mc.sig = signer_.Sign(mc.Header());
  const Bytes mc_body = Body(mc.ToMessage(), kSmModeChange);
  Decoder dec2(mc_body);
  Result<SmModeChangeMsg> mc_out = SmModeChangeMsg::DecodeFrom(dec2);
  ASSERT_TRUE(mc_out.ok());
  EXPECT_TRUE(mc_out.value().VerifySignature(keystore_));
}

TEST_F(MessagesTest, StateTransferRoundTrip) {
  StateRequestMsg request{77};
  const Bytes request_body =
      Body(request.ToMessage(kSmStateRequest), kSmStateRequest);
  Decoder dec(request_body);
  Result<StateRequestMsg> request_out = StateRequestMsg::DecodeFrom(dec);
  ASSERT_TRUE(request_out.ok());
  EXPECT_EQ(request_out.value().last_executed, 77u);

  StateResponseMsg response;
  response.cert = CheckpointCert::Genesis();
  response.snapshot = Bytes{9, 9, 9};
  const Bytes body = Body(response.ToMessage(kPbftStateResponse),
                          kPbftStateResponse);
  Decoder dec2(body);
  Result<StateResponseMsg> response_out = StateResponseMsg::DecodeFrom(dec2);
  ASSERT_TRUE(response_out.ok());
  EXPECT_EQ(response_out.value().snapshot, response.snapshot);
  ExpectPrefixesRejected(body, [](Decoder& d) {
    return StateResponseMsg::DecodeFrom(d).ok();
  });
}

TEST_F(MessagesTest, CheckpointFrameRoundTrip) {
  CheckpointMsg msg;
  msg.seq = 128;
  msg.state_digest = FillDigest(0xcc);
  msg.replica = 1;
  msg.Sign(signer_);
  const Bytes frame = FrameMessage(kSmCheckpoint, msg);
  const Bytes checkpoint_body = Body(frame, kSmCheckpoint);
  Decoder dec(checkpoint_body);
  Result<CheckpointMsg> out = CheckpointMsg::DecodeFrom(dec);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().seq, 128u);
  EXPECT_TRUE(out.value().Verify(keystore_));
}

TEST_F(MessagesTest, PbftMessagesRoundTrip) {
  PbftPrePrepareMsg pp;
  pp.view = 1;
  pp.seq = 2;
  pp.batch = SampleBatch().Encode();
  pp.digest = Digest::Of(pp.batch);
  pp.sig = signer_.Sign(pp.Header());
  const Bytes body = Body(pp.ToMessage(), kPbftPrePrepare);
  Decoder dec(body);
  Result<PbftPrePrepareMsg> pp_out = PbftPrePrepareMsg::DecodeFrom(dec);
  ASSERT_TRUE(pp_out.ok());
  EXPECT_TRUE(pp_out.value().VerifySignature(keystore_, 1));
  ExpectPrefixesRejected(body, [](Decoder& d) {
    return PbftPrePrepareMsg::DecodeFrom(d).ok();
  });

  PbftPrepareMsg prepare;
  prepare.view = 1;
  prepare.seq = 2;
  prepare.digest = pp.digest;
  prepare.voter = 1;
  prepare.sig = signer_.Sign(prepare.Header(PbftPrepareMsg::kDomain));
  const Bytes prepare_body = Body(prepare.ToMessage(), kPbftPrepare);
  Decoder dec2(prepare_body);
  Result<PbftPrepareMsg> prepare_out = PbftPrepareMsg::DecodeFrom(dec2);
  ASSERT_TRUE(prepare_out.ok());
  EXPECT_TRUE(prepare_out.value().Verify(keystore_));
  // Prepare and commit domains are separated.
  PbftCommitMsg cross;
  static_cast<PbftVoteBody&>(cross) = prepare_out.value();
  EXPECT_FALSE(cross.Verify(keystore_));
}

TEST_F(MessagesTest, PbftViewChangeBuildDecodeVerify) {
  PreparedProof proof;
  proof.view = 5;
  proof.seq = 3;
  proof.digest = FillDigest(0x31);
  proof.primary_sig = signer_.Sign(Bytes{5});
  proof.prepares = {{2, signer_.Sign(Bytes{6})}};
  const Bytes raw = PbftViewChangeMsg::Build(
      /*new_view=*/6, /*stable_seq=*/0, CheckpointCert::Genesis(), {proof},
      signer_);
  EXPECT_EQ(PbftViewChangeMsg::PeekNewView(raw), 6u);

  Result<PbftViewChangeMsg> out = PbftViewChangeMsg::DecodeFrom(raw, 10);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().sender, 1);
  EXPECT_TRUE(out.value().VerifySignature(keystore_, raw));
  ASSERT_EQ(out.value().proofs.size(), 1u);
  EXPECT_EQ(out.value().proofs[0].digest, proof.digest);

  // Any single-byte mutation is refused or breaks the whole-frame
  // signature.
  for (size_t pos = 0; pos < raw.size(); ++pos) {
    for (int delta = 1; delta < 256; ++delta) {
      Bytes mutated = raw;
      mutated[pos] = static_cast<uint8_t>(mutated[pos] + delta);
      Result<PbftViewChangeMsg> bad =
          PbftViewChangeMsg::DecodeFrom(mutated, 10);
      if (bad.ok()) {
        EXPECT_FALSE(bad.value().VerifySignature(keystore_, mutated))
            << "mutation at byte " << pos;
      }
    }
  }

  // Truncations of the whole frame are rejected.
  for (size_t len = 0; len < raw.size(); ++len) {
    Bytes prefix(raw.begin(), raw.begin() + static_cast<long>(len));
    EXPECT_FALSE(PbftViewChangeMsg::DecodeFrom(prefix, 10).ok());
  }
  EXPECT_EQ(PbftViewChangeMsg::PeekNewView(Bytes{}), 0u);
}

TEST_F(MessagesTest, PbftNewViewRoundTripAndBounds) {
  PbftNewViewMsg msg;
  msg.new_view = 3;
  msg.view_changes.push_back(Bytes{1, 2, 3});
  PbftNewViewEntry entry;
  entry.seq = 9;
  entry.digest = FillDigest(0x77);
  entry.sig = signer_.Sign(Bytes{3});
  msg.entries.push_back(entry);

  const Bytes body = Body(msg.ToMessage(), kPbftNewView);
  Decoder dec(body);
  Result<PbftNewViewMsg> out = PbftNewViewMsg::DecodeFrom(dec, 4, 10);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().view_changes.size(), 1u);
  EXPECT_EQ(out.value().view_changes[0], (Bytes{1, 2, 3}));
  ASSERT_EQ(out.value().entries.size(), 1u);
  EXPECT_EQ(out.value().entries[0].seq, 9u);
  {
    Decoder bounded(body);
    EXPECT_FALSE(PbftNewViewMsg::DecodeFrom(bounded, 0, 10).ok());
  }
  {
    Decoder bounded(body);
    EXPECT_FALSE(PbftNewViewMsg::DecodeFrom(bounded, 4, 0).ok());
  }
  ExpectPrefixesRejected(body, [](Decoder& d) {
    return PbftNewViewMsg::DecodeFrom(d, 4, 10).ok();
  });
  ExpectMutationsVisible(body, [](Decoder& d, Bytes* out) {
    Result<PbftNewViewMsg> decoded = PbftNewViewMsg::DecodeFrom(d, 4, 10);
    if (decoded.ok()) *out = Body(decoded->ToMessage(), kPbftNewView);
    return decoded.ok();
  });
}

TEST_F(MessagesTest, PaxosMessagesRoundTrip) {
  PaxosAcceptMsg accept{2, 5, SampleBatch().Encode()};
  const Bytes accept_body = Body(accept.ToMessage(), kPaxAccept);
  Decoder dec(accept_body);
  Result<PaxosAcceptMsg> accept_out = PaxosAcceptMsg::DecodeFrom(dec);
  ASSERT_TRUE(accept_out.ok());
  EXPECT_EQ(accept_out.value().batch, accept.batch);

  PaxosAckMsg ack{2, 5, FillDigest(0x21)};
  const Bytes ack_body = Body(ack.ToMessage(), kPaxAck);
  Decoder dec2(ack_body);
  ASSERT_TRUE(PaxosAckMsg::DecodeFrom(dec2).ok());

  PaxosCommitMsg commit{2, 5, FillDigest(0x22)};
  const Bytes commit_body = Body(commit.ToMessage(), kPaxCommit);
  Decoder dec3(commit_body);
  ASSERT_TRUE(PaxosCommitMsg::DecodeFrom(dec3).ok());

  PaxosCheckpointMsg checkpoint{128, FillDigest(0x23)};
  const Bytes cp_body = Body(checkpoint.ToMessage(), kPaxCheckpoint);
  Decoder dec4(cp_body);
  ASSERT_TRUE(PaxosCheckpointMsg::DecodeFrom(dec4).ok());
  ExpectPrefixesRejected(cp_body, [](Decoder& d) {
    return PaxosCheckpointMsg::DecodeFrom(d).ok();
  });

  PaxosStateResponseMsg response{7, FillDigest(0x24), Bytes{1, 2}};
  const Bytes response_body = Body(response.ToMessage(), kPaxStateResponse);
  Decoder dec5(response_body);
  Result<PaxosStateResponseMsg> response_out =
      PaxosStateResponseMsg::DecodeFrom(dec5);
  ASSERT_TRUE(response_out.ok());
  EXPECT_EQ(response_out.value().snapshot, (Bytes{1, 2}));
}

TEST_F(MessagesTest, PaxosViewChangeWindowEnforced) {
  PaxosViewChangeMsg msg;
  msg.new_view = 2;
  msg.stable_seq = 10;
  PaxosVcEntry entry;
  entry.seq = 12;
  entry.view = 1;
  entry.digest = FillDigest(0x41);
  msg.entries.push_back(entry);

  const Bytes body = Body(msg.ToMessage(), kPaxViewChange);
  {
    Decoder dec(body);
    Result<PaxosViewChangeMsg> out = PaxosViewChangeMsg::DecodeFrom(dec, 16);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.value().entries.size(), 1u);
    EXPECT_EQ(out.value().entries[0].seq, 12u);
    EXPECT_EQ(out.value().entries[0].view, 1u);
    EXPECT_EQ(out.value().entries[0].digest, entry.digest);
  }
  // seq 12 is outside a window of 1 above stable_seq 10.
  {
    Decoder dec(body);
    EXPECT_FALSE(PaxosViewChangeMsg::DecodeFrom(dec, 1).ok());
  }
  ExpectPrefixesRejected(body, [](Decoder& d) {
    return PaxosViewChangeMsg::DecodeFrom(d, 16).ok();
  });
  ExpectMutationsVisible(body, [](Decoder& d, Bytes* out) {
    Result<PaxosViewChangeMsg> decoded = PaxosViewChangeMsg::DecodeFrom(d, 16);
    if (decoded.ok()) *out = Body(decoded->ToMessage(), kPaxViewChange);
    return decoded.ok();
  });

  PaxosNewViewMsg nv;
  nv.new_view = 2;
  nv.stable_seq = 10;
  PaxosNewViewEntry nv_entry;
  nv_entry.seq = 11;
  nv_entry.digest = FillDigest(0x42);
  nv.entries.push_back(nv_entry);
  const Bytes nv_body = Body(nv.ToMessage(), kPaxNewView);
  Decoder dec(nv_body);
  Result<PaxosNewViewMsg> nv_out = PaxosNewViewMsg::DecodeFrom(dec, 16);
  ASSERT_TRUE(nv_out.ok());
  ASSERT_EQ(nv_out.value().entries.size(), 1u);
  EXPECT_EQ(nv_out.value().entries[0].seq, 11u);
  EXPECT_EQ(nv_out.value().entries[0].digest, nv_entry.digest);
  {
    Decoder bounded(nv_body);
    EXPECT_FALSE(PaxosNewViewMsg::DecodeFrom(bounded, 0).ok());
  }
  ExpectPrefixesRejected(nv_body, [](Decoder& d) {
    return PaxosNewViewMsg::DecodeFrom(d, 16).ok();
  });
  ExpectMutationsVisible(nv_body, [](Decoder& d, Bytes* out) {
    Result<PaxosNewViewMsg> decoded = PaxosNewViewMsg::DecodeFrom(d, 16);
    if (decoded.ok()) *out = Body(decoded->ToMessage(), kPaxNewView);
    return decoded.ok();
  });
}

TEST_F(MessagesTest, BatchFetchRoundTripTruncationAndMutation) {
  BatchRequestMsg request;
  request.wanted = {{7, FillDigest(0x51)}, {9, FillDigest(0x52)}};
  const Bytes request_body =
      Body(request.ToMessage(kSmBatchRequest), kSmBatchRequest);
  {
    Decoder dec(request_body);
    Result<BatchRequestMsg> out = BatchRequestMsg::DecodeFrom(dec, 4);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->wanted.size(), 2u);
    EXPECT_EQ(out->wanted[1].seq, 9u);
    EXPECT_EQ(out->wanted[1].digest, FillDigest(0x52));
  }
  {
    Decoder bounded(request_body);
    EXPECT_FALSE(BatchRequestMsg::DecodeFrom(bounded, 1).ok());
  }
  ExpectPrefixesRejected(request_body, [](Decoder& d) {
    return BatchRequestMsg::DecodeFrom(d, 4).ok();
  });
  ExpectMutationsVisible(request_body, [](Decoder& d, Bytes* out) {
    Result<BatchRequestMsg> decoded = BatchRequestMsg::DecodeFrom(d, 4);
    if (decoded.ok()) {
      *out = Body(decoded->ToMessage(kSmBatchRequest), kSmBatchRequest);
    }
    return decoded.ok();
  });

  BatchResponseMsg response;
  response.batches = {{7, SampleBatch().Encode()}, {9, Batch::Noop().Encode()}};
  const Bytes response_body =
      Body(response.ToMessage(kPaxBatchResponse), kPaxBatchResponse);
  {
    Decoder dec(response_body);
    Result<BatchResponseMsg> out = BatchResponseMsg::DecodeFrom(dec, 4);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->batches.size(), 2u);
    EXPECT_EQ(out->batches[0].seq, 7u);
    EXPECT_EQ(out->batches[0].batch, response.batches[0].batch);
  }
  {
    Decoder bounded(response_body);
    EXPECT_FALSE(BatchResponseMsg::DecodeFrom(bounded, 1).ok());
  }
  {
    Bytes padded = response_body;
    padded.push_back(0x00);
    Decoder dec(padded);
    EXPECT_FALSE(BatchResponseMsg::DecodeFrom(dec, 4).ok());
  }
  ExpectPrefixesRejected(response_body, [](Decoder& d) {
    return BatchResponseMsg::DecodeFrom(d, 4).ok();
  });
  ExpectMutationsVisible(response_body, [](Decoder& d, Bytes* out) {
    Result<BatchResponseMsg> decoded = BatchResponseMsg::DecodeFrom(d, 4);
    if (decoded.ok()) {
      *out = Body(decoded->ToMessage(kPaxBatchResponse), kPaxBatchResponse);
    }
    return decoded.ok();
  });
}

TEST_F(MessagesTest, BatchResponseAddStopsAtTheByteBudget) {
  // EncodedSize is the body after the tag, kept exact as batches go in.
  BatchResponseMsg response;
  EXPECT_EQ(response.EncodedSize() + 1,
            response.ToMessage(kSmBatchResponse).size());
  const Bytes small = SampleBatch().Encode();
  ASSERT_TRUE(response.Add(3, small));
  EXPECT_EQ(response.EncodedSize() + 1,
            response.ToMessage(kSmBatchResponse).size());

  // A first batch goes in whatever its size; a later one that would pass
  // the budget does not.
  const Bytes big(BatchResponseMsg::kMaxBytes / 2, 0xab);
  BatchResponseMsg filling;
  ASSERT_TRUE(filling.Add(1, big));
  EXPECT_FALSE(filling.Add(2, big));
  EXPECT_EQ(filling.batches.size(), 1u);
  ASSERT_TRUE(filling.Add(2, small));
  EXPECT_LE(filling.EncodedSize(), BatchResponseMsg::kMaxBytes);
  EXPECT_EQ(filling.EncodedSize() + 1,
            filling.ToMessage(kSmBatchResponse).size());
  BatchResponseMsg oversized;
  EXPECT_TRUE(oversized.Add(1, Bytes(BatchResponseMsg::kMaxBytes + 1, 0)));
}

TEST_F(MessagesTest, ViewChangeEntriesHaveOneSizeWhateverTheBatch) {
  // A one-request batch and a 2000-request batch of 1 KB requests.
  Batch large;
  for (int i = 0; i < 2000; ++i) {
    Request request = SampleBatch().requests[0];
    request.timestamp = static_cast<uint64_t>(i + 1);
    request.op = Bytes(1024, static_cast<uint8_t>(i));
    large.requests.push_back(std::move(request));
  }
  const Digest small_digest = Digest::Of(SampleBatch().Encode());
  const Digest large_digest = Digest::Of(large.Encode());
  const Signature sig = signer_.Sign(Bytes{7});

  const auto sm_vc_entry = [&](const Digest& digest) {
    Encoder enc;
    SmVcEntry{SeeMoReMode::kLion, 3, 40, digest, sig}.EncodeTo(enc);
    return enc.size();
  };
  const auto sm_nv_entry = [&](const Digest& digest) {
    Encoder enc;
    SmNewViewEntry{4, 40, digest, sig}.EncodeTo(enc);
    return enc.size();
  };
  const auto proof = [&](const Digest& digest) {
    PreparedProof p;
    p.view = 3;
    p.seq = 40;
    p.digest = digest;
    p.primary_sig = sig;
    p.prepares = {{1, sig}, {2, sig}};
    Encoder enc;
    p.EncodeTo(enc);
    EXPECT_EQ(enc.size(), p.EncodedSize());
    return enc.size();
  };
  const auto paxos_vc_entry = [&](const Digest& digest) {
    Encoder enc;
    PaxosVcEntry{40, 3, digest}.EncodeTo(enc);
    return enc.size();
  };
  const auto paxos_nv_entry = [&](const Digest& digest) {
    Encoder enc;
    PaxosNewViewEntry{40, digest}.EncodeTo(enc);
    return enc.size();
  };
  // mode, view, seq, digest, sig.
  EXPECT_EQ(sm_vc_entry(small_digest), 1 + 8 + 8 + 32 + 32u);
  EXPECT_EQ(sm_vc_entry(large_digest), sm_vc_entry(small_digest));
  EXPECT_EQ(sm_nv_entry(small_digest), 8 + 8 + 32 + 32u);
  EXPECT_EQ(sm_nv_entry(large_digest), sm_nv_entry(small_digest));
  // ... plus a count and (voter, sig) per prepare.
  EXPECT_EQ(proof(small_digest), 1 + 8 + 8 + 32 + 32 + 1 + 2 * 36u);
  EXPECT_EQ(proof(large_digest), proof(small_digest));
  EXPECT_EQ(paxos_vc_entry(small_digest), 8 + 8 + 32u);
  EXPECT_EQ(paxos_vc_entry(large_digest), paxos_vc_entry(small_digest));
  EXPECT_EQ(paxos_nv_entry(small_digest), 8 + 32u);
  EXPECT_EQ(paxos_nv_entry(large_digest), paxos_nv_entry(small_digest));

  // Whole messages: the same entries naming either batch, the same size.
  const auto sm_view_change_size = [&](const Digest& digest) {
    SmViewChangeMsg msg;
    msg.new_view = 4;
    msg.cert = CheckpointCert::Genesis();
    for (uint64_t seq = 1; seq <= 100; ++seq) {
      msg.prepares.push_back(
          SmVcEntry{SeeMoReMode::kLion, 3, seq, digest, sig});
      msg.commits.push_back(
          SmVcEntry{SeeMoReMode::kLion, 3, seq, digest, sig});
    }
    return msg.ToMessage().size();
  };
  EXPECT_EQ(sm_view_change_size(large_digest),
            sm_view_change_size(small_digest));
  EXPECT_LE(sm_view_change_size(large_digest), 64 + 200 * 81u);
}

TEST_F(MessagesTest, DispatchTypedRoutesAndDropsMalformed) {
  struct Sink {
    std::vector<SmAcceptPlainMsg> got;
    std::vector<PrincipalId> froms;
    void OnAccept(PrincipalId from, SmAcceptPlainMsg msg) {
      froms.push_back(from);
      got.push_back(std::move(msg));
    }
  };
  Sink sink;

  SmAcceptPlainMsg msg{1, 2, 3, FillDigest(0x99), 5};
  const Bytes frame = msg.ToMessage();
  Decoder dec(frame);
  EXPECT_EQ(dec.GetU8(), kSmAcceptPlain);
  DispatchTyped(&sink, 7, dec, &Sink::OnAccept);
  ASSERT_EQ(sink.got.size(), 1u);
  EXPECT_EQ(sink.froms[0], 7);
  EXPECT_EQ(sink.got[0].seq, 3u);

  // Malformed bodies are dropped, not delivered.
  Bytes truncated(frame.begin(), frame.begin() + 4);
  Decoder dec2(truncated);
  dec2.GetU8();
  DispatchTyped(&sink, 7, dec2, &Sink::OnAccept);
  EXPECT_EQ(sink.got.size(), 1u);
}

TEST_F(MessagesTest, TypedMessageFuzzNeverCrashes) {
  // Random bytes through every typed decoder: must fail or succeed without
  // UB, mirroring what a Byzantine peer can inject.
  uint64_t state = 0xfeedface;
  for (int round = 0; round < 200; ++round) {
    Bytes garbage;
    const int len = static_cast<int>(SplitMix64(state) % 200);
    for (int i = 0; i < len; ++i) {
      garbage.push_back(static_cast<uint8_t>(SplitMix64(state)));
    }
    {
      Decoder dec(garbage);
      (void)SmPrepareMsg::DecodeFrom(dec);
    }
    {
      Decoder dec(garbage);
      (void)SmViewChangeMsg::DecodeFrom(dec, 64);
    }
    {
      Decoder dec(garbage);
      (void)SmNewViewMsg::DecodeFrom(dec, 64);
    }
    (void)PbftViewChangeMsg::DecodeFrom(garbage, 64);
    {
      Decoder dec(garbage);
      (void)PbftNewViewMsg::DecodeFrom(dec, 8, 64);
    }
    {
      Decoder dec(garbage);
      (void)PaxosViewChangeMsg::DecodeFrom(dec, 64);
    }
    {
      Decoder dec(garbage);
      (void)PaxosNewViewMsg::DecodeFrom(dec, 64);
    }
    {
      Decoder dec(garbage);
      (void)BatchRequestMsg::DecodeFrom(dec, 64);
    }
    {
      Decoder dec(garbage);
      (void)BatchResponseMsg::DecodeFrom(dec, 64);
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace seemore
