// Consensus toolkit: batches, vote trackers, the instance log, the primary
// pipeline, checkpoint certificates, prepared proofs, cluster-config role
// assignment.

#include <gtest/gtest.h>

#include "consensus/batch.h"
#include "consensus/checkpoint.h"
#include "consensus/config.h"
#include "consensus/instance_log.h"
#include "consensus/primary_pipeline.h"
#include "consensus/proofs.h"
#include "consensus/quorum_tracker.h"
#include "smr/kv_store.h"

namespace seemore {
namespace {

Request TestRequest(uint64_t ts) {
  Request r;
  r.client = kClientIdBase;
  r.timestamp = ts;
  r.op = MakeNoop();
  return r;
}

TEST(BatchTest, EncodeDecodeRoundTrip) {
  Batch batch{{TestRequest(1), TestRequest(2)}};
  Bytes encoded = batch.Encode();
  auto decoded = Batch::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 2u);
  EXPECT_EQ(decoded->ComputeDigest(), batch.ComputeDigest());
}

TEST(BatchTest, NoopIsEmptyAndStable) {
  Batch noop = Batch::Noop();
  EXPECT_TRUE(noop.IsNoop());
  EXPECT_EQ(noop.ComputeDigest(), Batch::Noop().ComputeDigest());
}

TEST(BatchTest, OversizedCountRejected) {
  Encoder enc;
  enc.PutVarint(1 << 20);  // absurd request count
  EXPECT_FALSE(Batch::Decode(enc.bytes()).ok());
}

TEST(VoteTrackerTest, CountsDistinctVoters) {
  VoteTracker votes;
  Digest a = Digest::Of(std::string("a"));
  Digest b = Digest::Of(std::string("b"));
  EXPECT_TRUE(votes.Add(a, 1).counted);
  EXPECT_FALSE(votes.Add(a, 1).counted);  // duplicate voter ignored
  votes.Add(a, 2);
  votes.Add(b, 3);
  EXPECT_EQ(votes.Count(a), 2u);
  EXPECT_EQ(votes.Count(b), 1u);
  EXPECT_TRUE(votes.Reached(a, 2));
  EXPECT_FALSE(votes.Reached(a, 3));
  EXPECT_TRUE(votes.HasVoted(a, 1));
  EXPECT_FALSE(votes.HasVoted(b, 1));
}

TEST(VoteTrackerTest, EquivocationFlaggedOnceAndNeverCounted) {
  VoteTracker votes;
  Digest a = Digest::Of(std::string("a"));
  Digest b = Digest::Of(std::string("b"));
  EXPECT_TRUE(votes.Add(a, 1).counted);
  // Conflicting vote: rejected, flagged exactly once.
  VoteOutcome conflict = votes.Add(b, 1);
  EXPECT_FALSE(conflict.counted);
  EXPECT_TRUE(conflict.equivocation);
  // Repeat: still rejected, but not re-flagged.
  conflict = votes.Add(b, 1);
  EXPECT_FALSE(conflict.counted);
  EXPECT_FALSE(conflict.equivocation);
  EXPECT_EQ(votes.Count(a), 1u);
  EXPECT_EQ(votes.Count(b), 0u);  // never double-counted toward a quorum
  EXPECT_EQ(votes.equivocators(), 1u);
  // Re-affirming the original value stays idempotent, not an equivocation.
  VoteOutcome again = votes.Add(a, 1);
  EXPECT_FALSE(again.counted);
  EXPECT_FALSE(again.equivocation);
}

TEST(QuorumTrackerTest, KeepsSignaturesAndFlagsEquivocators) {
  KeyStore store(1);
  Signer s1(1, store), s2(2, store);
  QuorumTracker votes;
  Digest d = Digest::Of(std::string("x"));
  Digest other = Digest::Of(std::string("y"));
  EXPECT_TRUE(votes.Add(d, 1, s1.Sign(Bytes{1})).counted);
  EXPECT_TRUE(votes.Add(d, 2, s2.Sign(Bytes{2})).counted);
  QuorumTracker::SignatureView sigs = votes.SignaturesFor(d);
  ASSERT_FALSE(sigs.empty());
  EXPECT_EQ(sigs.size(), 2u);
  EXPECT_TRUE(sigs.count(1));
  EXPECT_TRUE(sigs.count(2));
  // Voter 2 equivocates: flagged once, signature not added to `other`.
  EXPECT_TRUE(votes.Add(other, 2, s2.Sign(Bytes{3})).equivocation);
  EXPECT_FALSE(votes.Add(other, 2, s2.Sign(Bytes{3})).equivocation);
  EXPECT_EQ(votes.Count(other), 0u);
  EXPECT_EQ(votes.equivocators(), 1u);
  EXPECT_TRUE(votes.SignaturesFor(other).empty());
}

TEST(QuorumTrackerTest, SignatureViewSurvivesRehash) {
  KeyStore store(1);
  QuorumTracker votes;
  const Digest watched = Digest::Of(std::string("watched"));

  // Collect signatures for one value, then grab a view of them.
  constexpr PrincipalId kVoters = 40;
  std::vector<Signature> expected;
  for (PrincipalId v = 0; v < kVoters; ++v) {
    Signer signer(v, store);
    Signature sig = signer.Sign(Bytes{static_cast<uint8_t>(v)});
    expected.push_back(sig);
    EXPECT_TRUE(votes.Add(watched, v, sig).counted);
  }
  QuorumTracker::SignatureView view = votes.SignaturesFor(watched);
  ASSERT_EQ(view.size(), kVoters);

  // Force the tracker's outer table through several growth rehashes by
  // voting for many other values, and keep growing the watched value's own
  // table too. The previously-taken view must keep seeing every signature.
  Signer late(kVoters, store);
  for (int i = 0; i < 200; ++i) {
    Digest filler = Digest::Of(std::string("filler-") + std::to_string(i));
    votes.Add(filler, 1, late.Sign(Bytes{9}));
  }
  for (PrincipalId v = kVoters; v < kVoters + 100; ++v) {
    Signer signer(v, store);
    Signature sig = signer.Sign(Bytes{static_cast<uint8_t>(v)});
    expected.push_back(sig);
    EXPECT_TRUE(votes.Add(watched, v, sig).counted);
  }

  auto entries = view.SortedEntries();
  ASSERT_EQ(entries.size(), expected.size());  // no signature lost
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].first, static_cast<PrincipalId>(i));  // sorted
    EXPECT_EQ(entries[i].second, expected[i]);
  }
}

TEST(InstanceLogTest, SlabLookupAndGenerationChecks) {
  InstanceLog log(/*window=*/16);
  EXPECT_EQ(log.occupied(), 0u);
  SlotCore& s5 = log.Slot(5);
  log.SetHasBatch(s5, true);
  EXPECT_EQ(log.occupied(), 1u);
  EXPECT_EQ(log.Find(5), &s5);
  EXPECT_EQ(log.Find(6), nullptr);  // never claimed: generation miss
  // Same storage object returned on re-access.
  EXPECT_TRUE(log.Slot(5).has_batch());

  // Reclamation frees slots at or below the floor; lookups miss afterwards.
  log.SetCommitted(log.Slot(7), true);
  log.Reclaim(5);
  EXPECT_EQ(log.Find(5), nullptr);
  ASSERT_NE(log.Find(7), nullptr);
  EXPECT_EQ(log.stable(), 5u);
  EXPECT_EQ(log.occupied(), 1u);

  // A seq that maps to a reclaimed slot's index starts fresh.
  SlotCore& reused = log.Slot(5 + log.slab_capacity());
  EXPECT_FALSE(reused.has_batch());
}

TEST(InstanceLogTest, OverflowSpillAndMigration) {
  InstanceLog log(/*window=*/8);
  const uint64_t far = log.slab_capacity() * 10;
  log.Slot(far).commit_seen = true;  // far beyond the window: side map
  log.SetHasBatch(log.Slot(2), true);
  EXPECT_EQ(log.occupied(), 2u);
  ASSERT_NE(log.Find(far), nullptr);
  EXPECT_TRUE(log.Find(far)->commit_seen);

  // Ascending iteration sees both, in order.
  std::vector<uint64_t> seen;
  log.ForEachAscending(
      [&](uint64_t seq, const SlotCore&) { seen.push_back(seq); });
  EXPECT_EQ(seen, (std::vector<uint64_t>{2, far}));

  // Advancing the floor migrates the side-map entry into the slab.
  log.Reclaim(far - 1);
  ASSERT_NE(log.Find(far), nullptr);
  EXPECT_TRUE(log.Find(far)->commit_seen);
  EXPECT_EQ(log.Find(2), nullptr);
  EXPECT_EQ(log.occupied(), 1u);
}

TEST(InstanceLogTest, UncommittedCountAndEraseUncommitted) {
  InstanceLog log(/*window=*/16);
  log.SetHasBatch(log.Slot(1), true);
  log.SetHasBatch(log.Slot(2), true);
  log.SetCommitted(log.Slot(2), true);
  log.Slot(3).commit_seen = true;  // no batch: not "uncommitted work"
  EXPECT_EQ(log.UncommittedSlots(), 1);
  log.EraseUncommitted();
  EXPECT_EQ(log.Find(1), nullptr);
  ASSERT_NE(log.Find(2), nullptr);  // committed slots survive
  EXPECT_EQ(log.Find(3), nullptr);
  EXPECT_EQ(log.UncommittedSlots(), 0);
}

TEST(PrimaryPipelineTest, PacingAdmissionAndBatching) {
  PrimaryPipeline pipeline(/*batch_max=*/2, /*pipeline_max=*/2);
  Request r1 = TestRequest(1);
  EXPECT_TRUE(pipeline.Admit(r1));
  EXPECT_FALSE(pipeline.Admit(r1));  // duplicate timestamp
  pipeline.Enqueue(r1);
  for (uint64_t ts = 2; ts <= 5; ++ts) {
    Request r = TestRequest(ts);
    ASSERT_TRUE(pipeline.Admit(r));
    pipeline.Enqueue(std::move(r));
  }
  // 5 pending, batch_max 2: opening packs two requests per instance.
  EXPECT_TRUE(pipeline.CanOpen(/*uncommitted=*/0));
  auto [seq1, batch1] = pipeline.Open();
  EXPECT_EQ(seq1, 1u);
  EXPECT_EQ(batch1.size(), 2u);
  // Pacing: at pipeline_max uncommitted instances, no new one may open.
  EXPECT_FALSE(pipeline.CanOpen(/*uncommitted=*/2));
  EXPECT_TRUE(pipeline.CanOpen(/*uncommitted=*/1));
  auto [seq2, batch2] = pipeline.Open();
  EXPECT_EQ(seq2, 2u);
  EXPECT_EQ(batch2.size(), 2u);
  auto [seq3, batch3] = pipeline.Open();
  EXPECT_EQ(seq3, 3u);
  EXPECT_EQ(batch3.size(), 1u);
  EXPECT_FALSE(pipeline.HasPending());

  // View-change reseating.
  pipeline.AdvanceNextSeq(10);
  EXPECT_EQ(pipeline.next_seq(), 10u);
  pipeline.AdvanceNextSeq(4);  // never backwards
  EXPECT_EQ(pipeline.next_seq(), 10u);
  pipeline.OverrideNextSeq(6);
  EXPECT_EQ(pipeline.next_seq(), 6u);
  // ForgetAdmissions: the same timestamp is accepted afresh.
  pipeline.ForgetAdmissions();
  EXPECT_TRUE(pipeline.Admit(r1));
}

TEST(CheckpointCertTest, VerifyQuorumAndTampering) {
  KeyStore store(9);
  const uint64_t seq = 100;
  const Digest digest = Digest::Of(std::string("state"));
  CheckpointCert cert;
  for (PrincipalId r = 0; r < 3; ++r) {
    CheckpointMsg msg;
    msg.seq = seq;
    msg.state_digest = digest;
    msg.replica = r;
    msg.Sign(Signer(r, store));
    EXPECT_TRUE(msg.Verify(store));
    cert.Add(msg);
  }
  auto any = [](PrincipalId) { return true; };
  EXPECT_TRUE(cert.Verify(store, any));
  // The distinct signers a protocol's quorum rule counts (the rules
  // themselves are tested in state_transfer_test).
  EXPECT_EQ(cert.Signers(), (std::vector<PrincipalId>{0, 1, 2}));
  // Authorization predicate filters signers.
  EXPECT_FALSE(cert.Verify(store, [](PrincipalId r) { return r < 2; }));

  // A certificate with a mismatched digest fails.
  CheckpointCert bad = cert;
  CheckpointMsg liar;
  liar.seq = seq;
  liar.state_digest = Digest::Of(std::string("lie"));
  liar.replica = 5;
  liar.Sign(Signer(5, store));
  bad.Add(liar);
  EXPECT_FALSE(bad.Verify(store, any));

  // Encode/decode round trip.
  Encoder enc;
  cert.EncodeTo(enc);
  Decoder dec(enc.bytes());
  auto decoded = CheckpointCert::DecodeFrom(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->Verify(store, any));
  EXPECT_EQ(decoded->seq(), seq);

  EXPECT_TRUE(CheckpointCert::Genesis().Verify(store, any));
}

TEST(CheckpointMsgTest, StreamedSignatureMatchesTheJoinedSignedBytes) {
  // The signature covers the 0xC4 domain tag, seq, state digest and
  // replica. Sign/Verify build those bytes on the stack; the tag must be
  // byte-equal to a MAC over the same fields joined by an Encoder.
  KeyStore store(9);
  const Signer signer(3, store);
  CheckpointMsg msg;
  msg.seq = 0x0102030405060708ULL;
  msg.state_digest = Digest::Of(std::string("state"));
  msg.replica = 3;
  msg.Sign(signer);

  Encoder joined;
  joined.PutU8(0xC4);
  joined.PutU64(msg.seq);
  msg.state_digest.EncodeTo(joined);
  joined.PutU32(static_cast<uint32_t>(msg.replica));
  EXPECT_EQ(msg.sig, signer.Sign(joined.bytes()));
  EXPECT_TRUE(msg.Verify(store));

  CheckpointMsg reseq = msg;
  reseq.seq += 1;
  EXPECT_FALSE(reseq.Verify(store));
  CheckpointMsg redigest = msg;
  redigest.state_digest = Digest::Of(std::string("other"));
  EXPECT_FALSE(redigest.Verify(store));
  CheckpointMsg other_replica = msg;
  other_replica.replica = 4;
  EXPECT_FALSE(other_replica.Verify(store));
}

TEST(PreparedProofTest, VerifyAndReject) {
  KeyStore store(4);
  const PrincipalId primary = 2;
  Batch batch{{TestRequest(1)}};
  PreparedProof proof;
  proof.mode = 3;
  proof.view = 7;
  proof.seq = 21;
  proof.digest = batch.ComputeDigest();
  proof.primary_sig = Signer(primary, store)
                          .Sign(ProposalHeader(kDomainPrePrepare, 3, 7, 21,
                                               proof.digest));
  for (PrincipalId voter : {3, 4, 5}) {
    proof.prepares.emplace_back(
        voter, Signer(voter, store).Sign(
                   VoteHeader(kDomainPrepare, 3, 7, 21, proof.digest, voter)));
  }
  auto any = [](PrincipalId) { return true; };
  EXPECT_TRUE(proof.Verify(store, primary, 3, any));
  EXPECT_FALSE(proof.Verify(store, primary, 4, any));
  EXPECT_FALSE(proof.Verify(store, /*wrong primary=*/1, 3, any));
  // A vote from an unauthorized replica invalidates the proof.
  EXPECT_FALSE(proof.Verify(store, primary, 3,
                            [](PrincipalId r) { return r != 4; }));

  // The certificate binds its digest: another digest breaks every
  // signature in it.
  PreparedProof tampered = proof;
  tampered.digest = Batch::NoopDigest();
  EXPECT_FALSE(tampered.Verify(store, primary, 3, any));

  // Round trip.
  Encoder enc;
  proof.EncodeTo(enc);
  Decoder dec(enc.bytes());
  auto decoded = PreparedProof::DecodeFrom(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->Verify(store, primary, 3, any));
}

TEST(SigDomainTest, HeadersAreDomainSeparated) {
  Digest d = Digest::Of(std::string("v"));
  EXPECT_NE(ProposalHeader(kDomainPrePrepare, 1, 2, 3, d),
            ProposalHeader(kDomainCommit, 1, 2, 3, d));
  EXPECT_NE(ProposalHeader(kDomainPrePrepare, 1, 2, 3, d),
            ProposalHeader(kDomainPrePrepare, 2, 2, 3, d));  // mode differs
  EXPECT_NE(VoteHeader(kDomainPrepare, 1, 2, 3, d, 4),
            VoteHeader(kDomainPrepare, 1, 2, 3, d, 5));  // voter differs
}

TEST(ClusterConfigTest, SizesAndQuorums) {
  ClusterConfig cft;
  cft.kind = ProtocolKind::kCft;
  cft.f = 2;
  EXPECT_EQ(cft.n(), 5);
  EXPECT_EQ(cft.CommitQuorum(SeeMoReMode::kLion), 3);

  ClusterConfig bft;
  bft.kind = ProtocolKind::kBft;
  bft.f = 2;
  EXPECT_EQ(bft.n(), 7);
  EXPECT_EQ(bft.CommitQuorum(SeeMoReMode::kLion), 5);

  ClusterConfig seemore;
  seemore.kind = ProtocolKind::kSeeMoRe;
  seemore.s = 2;
  seemore.p = 4;
  seemore.c = 1;
  seemore.m = 1;
  EXPECT_EQ(seemore.n(), 6);
  EXPECT_EQ(seemore.CommitQuorum(SeeMoReMode::kLion), 4);   // 2m+c+1
  EXPECT_EQ(seemore.CommitQuorum(SeeMoReMode::kDog), 3);    // 2m+1
  EXPECT_EQ(seemore.CommitQuorum(SeeMoReMode::kPeacock), 3);
  EXPECT_TRUE(seemore.Validate().ok());
}

TEST(ClusterConfigTest, RoleAssignment) {
  ClusterConfig config;
  config.kind = ProtocolKind::kSeeMoRe;
  config.s = 2;
  config.p = 6;
  config.c = 1;
  config.m = 1;
  EXPECT_TRUE(config.IsTrusted(0));
  EXPECT_TRUE(config.IsTrusted(1));
  EXPECT_FALSE(config.IsTrusted(2));

  EXPECT_EQ(config.TrustedPrimary(0), 0);
  EXPECT_EQ(config.TrustedPrimary(1), 1);
  EXPECT_EQ(config.TrustedPrimary(2), 0);

  EXPECT_EQ(config.PeacockPrimary(0), 2);
  EXPECT_EQ(config.PeacockPrimary(5), 7);
  EXPECT_EQ(config.PeacockPrimary(6), 2);  // wraps around P

  // 3m+1 = 4 proxies; the window rotates with the view.
  auto proxies0 = config.ProxySet(0);
  EXPECT_EQ(proxies0, (std::vector<PrincipalId>{2, 3, 4, 5}));
  auto proxies5 = config.ProxySet(5);
  EXPECT_EQ(proxies5, (std::vector<PrincipalId>{7, 2, 3, 4}));
  for (PrincipalId r : proxies5) EXPECT_TRUE(config.IsProxy(r, 5));
  EXPECT_FALSE(config.IsProxy(5, 5));
  EXPECT_FALSE(config.IsProxy(0, 5));  // trusted nodes are never proxies
  // The Peacock primary is always a proxy (§5.3).
  for (uint64_t v = 0; v < 20; ++v) {
    EXPECT_TRUE(config.IsProxy(config.PeacockPrimary(v), v)) << "view " << v;
  }
}

TEST(ClusterConfigTest, ValidationRejectsBadTopologies) {
  ClusterConfig config;
  config.kind = ProtocolKind::kSeeMoRe;
  config.s = 1;
  config.c = 1;  // S must be >= c+1
  config.p = 4;
  config.m = 1;
  EXPECT_FALSE(config.Validate().ok());
  config.s = 2;
  config.p = 3;  // P must be >= 3m+1
  EXPECT_FALSE(config.Validate().ok());
  config.p = 4;
  EXPECT_TRUE(config.Validate().ok());
}

}  // namespace
}  // namespace seemore
