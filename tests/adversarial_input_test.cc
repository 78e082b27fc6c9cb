// Adversarial input: replicas must survive arbitrary bytes from clients and
// peers without crashing, leaking resources, or corrupting agreement. This
// drives raw messages straight through the network layer, bypassing the
// well-behaved client library.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::SeeMoReSpec;
using testing::SubmitAndWait;

/// A node that can send arbitrary bytes and keeps what it receives: an
/// attacking or hand-driven "client", a replica forging replies, or a
/// stand-in that records what replicas send to one replica id.
class RawSender : public MessageHandler {
 public:
  RawSender(Cluster& cluster, PrincipalId id)
      : net_(cluster.net()), id_(id), n_(cluster.n()) {
    net_.AddNode(id, Zone::kClient, this, nullptr);
  }
  RawSender(SimNetwork& net, PrincipalId id) : net_(net), id_(id) {
    net_.AddNode(id, Zone::kPrivate, this, nullptr);
  }
  void OnMessage(PrincipalId from, Payload payload) override {
    received.emplace_back(from, payload.ToBytes());
  }
  void Send(PrincipalId to, const Bytes& bytes) { net_.Send(id_, to, bytes); }
  void Blast(const Bytes& bytes) {
    for (PrincipalId r = 0; r < n_; ++r) Send(r, bytes);
  }

  /// Every frame delivered here, with its sender.
  std::vector<std::pair<PrincipalId, Bytes>> received;

 private:
  SimNetwork& net_;
  PrincipalId id_;
  int n_ = 0;
};

/// Completes on two matching senders and records every sender set the
/// client asked it to judge.
class RecordingPolicy : public ReplyPolicy {
 public:
  explicit RecordingPolicy(std::vector<std::vector<PrincipalId>>* judged)
      : judged_(judged) {}
  const std::vector<PrincipalId>& InitialTargets() const override {
    return targets_;
  }
  const std::vector<PrincipalId>& RetransmitTargets() const override {
    return targets_;
  }
  bool Accepted(const std::vector<PrincipalId>& senders,
                bool /*after_retransmit*/) const override {
    judged_->push_back(senders);
    return senders.size() >= 2;
  }

 private:
  std::vector<std::vector<PrincipalId>>* judged_;
  const std::vector<PrincipalId> targets_{0};
};

TEST(ClientReplyTallyTest, LyingRepliesGroupApartAndRepeatsCountOnce) {
  // What a client sees when replicas lie to it (kByzLieToClients): replies
  // whose results differ form separate groups, a sender repeating itself
  // counts once per group, and the policy judges a group's senders in
  // ascending id order.
  Simulator sim;
  NetworkConfig config;
  config.intra_private = {Micros(100), 0};
  config.intra_public = {Micros(100), 0};
  config.cross_cloud = {Micros(200), 0};
  config.client_link = {Micros(300), 0};
  SimNetwork net(&sim, config);
  const KeyStore keystore(11);
  RawSender replicas[] = {{net, 0}, {net, 1}, {net, 2}, {net, 3}};
  std::vector<std::vector<PrincipalId>> judged;
  SimClient client(&net, &sim, &keystore, ClientOptions{},
                   std::make_unique<RecordingPolicy>(&judged));
  Bytes completed;
  int completions = 0;
  client.SubmitOne(MakeGet("k"), [&](const Bytes& result) {
    completed = result;
    ++completions;
  });
  const auto reply_from = [&](PrincipalId replica, const Bytes& result) {
    Reply reply;
    reply.timestamp = 1;
    reply.replica = replica;
    reply.result = result;
    reply.Sign(Signer(replica, keystore));
    replicas[replica].Send(client.id(), reply.ToMessage());
    sim.RunUntil(sim.now() + Millis(5));
  };
  const Bytes truth{1, 2, 3};
  const Bytes lie{6, 6, 6};
  reply_from(3, lie);
  reply_from(3, truth);  // the same sender in a second group
  reply_from(3, truth);  // a repeat counts once
  EXPECT_EQ(completions, 0);
  reply_from(1, lie);    // lie now has {1, 3}: accepted
  EXPECT_EQ(judged, (std::vector<std::vector<PrincipalId>>{
                        {3}, {3}, {3}, {1, 3}}));
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(completed, lie);
  reply_from(2, truth);  // late replies for a completed request are ignored
  EXPECT_EQ(judged.size(), 4u);
}

class AdversarialInputTest : public ::testing::Test {
 protected:
  void RunGarbageCampaign(Cluster& cluster) {
    RawSender attacker(cluster, kClientIdBase + 999);
    Rng rng(0xbad5eed);
    // 1. Pure garbage of many lengths.
    for (int round = 0; round < 50; ++round) {
      Bytes garbage(rng.NextBounded(300), 0);
      for (auto& b : garbage) b = static_cast<uint8_t>(rng.NextU64());
      attacker.Blast(garbage);
    }
    // 2. Valid tags with truncated bodies (every protocol tag).
    for (uint8_t tag = 1; tag < 25; ++tag) {
      for (size_t len : {0u, 1u, 5u, 40u}) {
        Encoder enc;
        enc.PutU8(tag);
        for (size_t i = 0; i < len; ++i) {
          enc.PutU8(static_cast<uint8_t>(rng.NextU64()));
        }
        attacker.Blast(enc.bytes());
      }
    }
    // 3. A REQUEST with a forged signature (must be dropped by verifiers).
    Request forged;
    forged.client = kClientIdBase;  // claims to be the honest client!
    forged.timestamp = 1u << 20;
    forged.op = MakePut("stolen", "key");
    // signature left zeroed: verification must fail
    attacker.Blast(forged.ToMessage());
    // 4. An absurd batch count inside a prepare-shaped message.
    Encoder enc;
    enc.PutU8(10);  // kPrepare
    enc.PutU8(1);   // mode
    enc.PutU64(0);
    enc.PutU64(1);
    for (int i = 0; i < 32; ++i) enc.PutU8(0);  // digest
    for (int i = 0; i < 32; ++i) enc.PutU8(0);  // signature
    enc.PutVarint(1u << 30);                    // "batch length"
    attacker.Blast(enc.bytes());
  }
};

TEST_F(AdversarialInputTest, SeeMoReLionSurvivesGarbage) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  SimClient* client = cluster.AddClient();
  RunGarbageCampaign(cluster);
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"), Seconds(10));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The forged request for key "stolen" must never have executed.
  auto get = SubmitAndWait(cluster, client, MakeGet("stolen"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).status, KvResult::kNotFound);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST_F(AdversarialInputTest, SeeMoRePeacockSurvivesGarbage) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1));
  SimClient* client = cluster.AddClient();
  RunGarbageCampaign(cluster);
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"), Seconds(10));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST_F(AdversarialInputTest, PbftSurvivesGarbage) {
  Cluster cluster(testing::BftSpec(1));
  SimClient* client = cluster.AddClient();
  RunGarbageCampaign(cluster);
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"), Seconds(10));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST_F(AdversarialInputTest, PaxosSurvivesGarbage) {
  Cluster cluster(testing::CftSpec(1));
  SimClient* client = cluster.AddClient();
  RunGarbageCampaign(cluster);
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"), Seconds(10));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST_F(AdversarialInputTest, PeacockRejectsSignedBatchWithPaddedVarint) {
  // A Byzantine Peacock primary digests and signs batch bytes whose request
  // count is a padded varint (0x81 0x00 for 1). Were they accepted, the
  // slot digest would differ from the digest of the batch they decode to,
  // and the honest re-proposal of the same batch would be refused as
  // equivocation. Proxies must reject the padded bytes at decode, then
  // accept, commit and execute the canonical proposal under its digest.
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1));
  const PrincipalId primary = cluster.seemore(0)->current_primary();
  const Signer primary_signer(primary, cluster.keystore());

  const PrincipalId client = kClientIdBase + 42;
  Request request;
  request.client = client;
  request.timestamp = 1;
  request.op = MakePut("k", "v");
  request.Sign(Signer(client, cluster.keystore()));
  const Batch batch{{request}};
  const Bytes canonical = batch.Encode();
  ASSERT_EQ(canonical[0], 0x01);
  Bytes padded = canonical;
  padded[0] = 0x81;
  padded.insert(padded.begin() + 1, 0x00);

  const auto propose = [&](const Bytes& batch_bytes) {
    SmPrepareMsg prepare;
    prepare.mode = static_cast<uint8_t>(SeeMoReMode::kPeacock);
    prepare.view = cluster.seemore(0)->view();
    prepare.seq = 1;
    prepare.batch = batch_bytes;
    prepare.digest = Digest::Of(batch_bytes);
    prepare.sig = primary_signer.Sign(prepare.Header());
    for (PrincipalId r = 0; r < cluster.n(); ++r) {
      if (r != primary) cluster.net().Send(primary, r, prepare.ToMessage());
    }
  };
  propose(padded);
  cluster.sim().RunUntil(cluster.sim().now() + Millis(5));
  for (int i = 0; i < cluster.n(); ++i) {
    cluster.seemore(i)->instance_log().ForEachAscending(
        [&](uint64_t seq, const SlotCore& slot) {
          EXPECT_FALSE(slot.has_batch())
              << "replica " << i << " accepted padded bytes at seq " << seq;
        });
  }

  propose(canonical);
  cluster.sim().RunUntil(cluster.sim().now() + Millis(50));
  int executed = 0;
  for (int i = 0; i < cluster.n(); ++i) {
    const ExecutedDigestLog& log =
        cluster.replica(i)->exec().executed_digests();
    if (log.Find(1) == nullptr) continue;
    EXPECT_EQ(log.at(1), batch.ComputeDigest()) << "replica " << i;
    ++executed;
  }
  EXPECT_GE(executed, 3);
}

TEST_F(AdversarialInputTest, MalformedOpsExecuteSafely) {
  // A *valid, signed* request whose op payload is garbage: the state
  // machine must return kBadRequest deterministically on every replica.
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  SimClient* client = cluster.AddClient();
  auto result =
      SubmitAndWait(cluster, client, Bytes{0xff, 0x00, 0x13, 0x37});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ParseKvReply(*result).status, KvResult::kBadRequest);
  cluster.sim().RunUntil(cluster.sim().now() + Millis(50));
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

// ---------------------------------------------------------------------------
// Equivocating votes: two conflicting signed votes for the same slot/view
// from one replica must be detected exactly once by the slot's QuorumTracker,
// counted in ReplicaStats, and never counted toward a quorum for either
// value. Covered for SeeMoRe (Dog accepts), PBFT (prepares) and Paxos (ACKs).
// ---------------------------------------------------------------------------

TEST_F(AdversarialInputTest, SeeMoReDogEquivocatingAcceptsDetectedOnce) {
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kDog, 1, 1));
  SimClient* client = cluster.AddClient();

  // Proxy 5 equivocates on an in-window, not-yet-proposed slot: two validly
  // signed accepts for conflicting digests, the pair delivered twice.
  const PrincipalId byz = 5;
  ASSERT_TRUE(cluster.config().IsProxy(byz, 0));
  Signer byz_signer(byz, cluster.keystore());
  auto make_accept = [&](const std::string& value) {
    SmAcceptSignedMsg accept;
    accept.mode = static_cast<uint8_t>(SeeMoReMode::kDog);
    accept.view = 0;
    accept.seq = 7;
    accept.digest = Digest::Of(value);
    accept.voter = byz;
    accept.sig = byz_signer.Sign(accept.Header(SmAcceptSignedMsg::kDomain));
    return accept.ToMessage();
  };
  const PrincipalId honest_proxy = 2;
  for (int round = 0; round < 2; ++round) {
    cluster.net().Send(byz, honest_proxy, make_accept("value-a"));
    cluster.net().Send(byz, honest_proxy, make_accept("value-b"));
  }
  cluster.sim().RunUntil(Millis(5));
  EXPECT_EQ(cluster.replica(honest_proxy)->stats().equivocations_detected, 1u);

  // The cluster still makes progress and agrees.
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"), Seconds(10));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST_F(AdversarialInputTest, PbftEquivocatingPreparesDetectedOnce) {
  Cluster cluster(testing::BftSpec(1));
  SimClient* client = cluster.AddClient();

  const PrincipalId byz = 3;
  Signer byz_signer(byz, cluster.keystore());
  auto make_prepare = [&](const std::string& value) {
    PbftPrepareMsg prepare;
    prepare.view = 0;
    prepare.seq = 7;
    prepare.digest = Digest::Of(value);
    prepare.voter = byz;
    prepare.sig = byz_signer.Sign(prepare.Header(PbftPrepareMsg::kDomain));
    return prepare.ToMessage();
  };
  const PrincipalId honest = 1;
  for (int round = 0; round < 2; ++round) {
    cluster.net().Send(byz, honest, make_prepare("value-a"));
    cluster.net().Send(byz, honest, make_prepare("value-b"));
  }
  cluster.sim().RunUntil(Millis(5));
  EXPECT_EQ(cluster.replica(honest)->stats().equivocations_detected, 1u);

  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"), Seconds(10));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST_F(AdversarialInputTest, PaxosEquivocatingAcksDetectedAndNotCounted) {
  Cluster cluster(testing::CftSpec(1));
  SimClient* client = cluster.AddClient();

  // Let the leader propose seq 1, then race a conflicting ACK from replica 2
  // ahead of its honest one. The leader must flag the equivocation once and
  // still commit off the honest quorum (self + replica 1).
  bool done = false;
  Bytes reply;
  client->SubmitOne(MakePut("k", "v"), [&](const Bytes& r) {
    reply = r;
    done = true;
  });
  const SimTime deadline = Seconds(5);
  while (cluster.sim().now() < deadline &&
         cluster.paxos(0)->uncommitted_slots() == 0) {
    ASSERT_TRUE(cluster.sim().Step());
  }
  ASSERT_EQ(cluster.paxos(0)->uncommitted_slots(), 1);

  PaxosAckMsg wrong_a{/*view=*/0, /*seq=*/1, Digest::Of(std::string("evil-a"))};
  PaxosAckMsg wrong_b{/*view=*/0, /*seq=*/1, Digest::Of(std::string("evil-b"))};
  cluster.net().Send(2, 0, wrong_a.ToMessage());
  cluster.net().Send(2, 0, wrong_b.ToMessage());  // conflict: one flag
  cluster.net().Send(2, 0, wrong_b.ToMessage());  // repeat: no second flag

  while (!done && cluster.sim().now() < deadline) {
    if (!cluster.sim().Step()) break;
  }
  ASSERT_TRUE(done);  // the equivocator could not block the honest quorum
  EXPECT_EQ(cluster.replica(0)->stats().equivocations_detected, 1u);
  auto get = SubmitAndWait(cluster, client, MakeGet("k"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "v");
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST_F(AdversarialInputTest, ReplayedRequestExecutesOnce) {
  // Replay a legitimate committed request verbatim from a third party: the
  // exactly-once cache must not re-execute it.
  Cluster cluster(SeeMoReSpec(SeeMoReMode::kLion, 1, 1));
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("ctr", "1")).ok());
  auto cas = SubmitAndWait(cluster, client, MakeCas("ctr", "1", "2"));
  ASSERT_TRUE(cas.ok());
  ASSERT_EQ(ParseKvReply(*cas).status, KvResult::kOk);

  // Rebuild the CAS request exactly as the client sent it and replay it.
  KeyStore replay_keys(cluster.config().n());  // wrong keystore: forged sig
  Request replay;
  replay.client = client->id();
  replay.timestamp = 2;  // the CAS's timestamp
  replay.op = MakeCas("ctr", "1", "2");
  replay.Sign(Signer(client->id(), replay_keys));
  RawSender attacker(cluster, kClientIdBase + 500);
  attacker.Blast(replay.ToMessage());
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));

  auto get = SubmitAndWait(cluster, client, MakeGet("ctr"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "2");  // not re-executed / corrupted
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

// ---------------------------------------------------------------------------
// The request path (consensus/view_changing_replica.h), through the replica,
// for every protocol.
// ---------------------------------------------------------------------------

struct ProtocolCase {
  const char* name;
  scenario::ScenarioSpec spec;
  uint8_t reply_mode;  // the mode byte its replies carry
};

std::vector<ProtocolCase> EveryProtocol() {
  return {
      {"lion", SeeMoReSpec(SeeMoReMode::kLion, 1, 1),
       static_cast<uint8_t>(SeeMoReMode::kLion)},
      {"dog", SeeMoReSpec(SeeMoReMode::kDog, 1, 1),
       static_cast<uint8_t>(SeeMoReMode::kDog)},
      {"peacock", SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1),
       static_cast<uint8_t>(SeeMoReMode::kPeacock)},
      {"pbft", testing::BftSpec(1), 0},
      {"s-upright", testing::SUpRightSpec(1, 1), 0},
      {"paxos", testing::CftSpec(1), 0},
  };
}

/// A request from `client` signed with `keys` (the cluster's keystore, or
/// another one to forge the signature).
Request SignedRequest(PrincipalId client, uint64_t timestamp,
                      const std::string& key, const KeyStore& keys) {
  Request request;
  request.client = client;
  request.timestamp = timestamp;
  request.op = MakePut(key, "v");
  request.Sign(Signer(client, keys));
  return request;
}

uint64_t MostExecuted(Cluster& cluster) {
  uint64_t most = 0;
  for (int r = 0; r < cluster.n(); ++r) {
    most = std::max(most, cluster.replica(r)->stats().requests_executed);
  }
  return most;
}

TEST(RequestPathTest, RequestNamingAnotherClientIsIgnored) {
  for (const ProtocolCase& c : EveryProtocol()) {
    SCOPED_TRACE(c.name);
    Cluster cluster(c.spec);
    // Client B sends a request that names client A, validly signed by A:
    // only the channel tells the replicas that B is not A.
    RawSender b(cluster, kClientIdBase + 500);
    const Request request =
        SignedRequest(kClientIdBase + 600, 1, "imp", cluster.keystore());
    b.Blast(request.ToMessage());
    b.Blast(request.ToMessage());
    cluster.sim().RunUntil(cluster.sim().now() + Millis(200));
    EXPECT_EQ(MostExecuted(cluster), 0u);
    EXPECT_TRUE(b.received.empty());
  }
}

TEST(RequestPathTest, RetransmissionGetsSignedCachedReplyWithModeByte) {
  for (const ProtocolCase& c : EveryProtocol()) {
    SCOPED_TRACE(c.name);
    Cluster cluster(c.spec);
    RawSender client(cluster, kClientIdBase + 600);
    const Request request =
        SignedRequest(kClientIdBase + 600, 1, "k", cluster.keystore());
    client.Blast(request.ToMessage());
    cluster.sim().RunUntil(cluster.sim().now() + Millis(200));
    ASSERT_FALSE(client.received.empty());
    const size_t fresh = client.received.size();

    client.Blast(request.ToMessage());
    cluster.sim().RunUntil(cluster.sim().now() + Millis(200));
    ASSERT_GT(client.received.size(), fresh);
    for (size_t i = fresh; i < client.received.size(); ++i) {
      const auto& [from, frame] = client.received[i];
      Decoder dec(frame);
      ASSERT_EQ(dec.GetU8(), kMsgReply);
      Result<Reply> reply = Reply::DecodeFrom(dec);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_EQ(reply->replica, from);
      EXPECT_EQ(reply->timestamp, 1u);
      EXPECT_EQ(reply->mode, c.reply_mode);
      EXPECT_TRUE(reply->VerifySignature(cluster.keystore()));
    }
  }
}

TEST(RequestPathTest, BadClientSignatureIsCheckedWhereTheProtocolSays) {
  for (const ProtocolCase& c : EveryProtocol()) {
    SCOPED_TRACE(c.name);
    Cluster cluster(c.spec);
    const PrincipalId primary = cluster.replica(0)->current_primary();
    RawSender client(cluster, kClientIdBase + 600);
    const KeyStore wrong_keys(cluster.config().n());
    const Bytes forged =
        SignedRequest(kClientIdBase + 600, 1, "forged", wrong_keys)
            .ToMessage();
    const ProtocolKind kind = c.spec.protocol;
    if (kind == ProtocolKind::kSeeMoRe) {
      // The primary drops it; backups leave the check to the primary.
      client.Send(primary, forged);
      client.Send(primary, forged);
    } else {
      client.Blast(forged);
      client.Blast(forged);  // a retransmission: backups would relay it
    }
    cluster.sim().RunUntil(cluster.sim().now() + Millis(200));
    if (kind == ProtocolKind::kCft) {
      // The crash model trusts its clients: the leader orders it.
      EXPECT_GE(MostExecuted(cluster), 1u);
      continue;
    }
    EXPECT_EQ(MostExecuted(cluster), 0u);
    // PBFT and S-UpRight backups drop it too: none relays it or suspects
    // the primary over it.
    for (int r = 0; r < cluster.n(); ++r) {
      EXPECT_EQ(cluster.replica(r)->stats().view_changes_started, 0u)
          << "replica " << r;
    }
  }
}

TEST(RequestPathTest, BackupRelaysRepeatedTimestampOnceToCurrentPrimary) {
  for (const ProtocolCase& c : EveryProtocol()) {
    SCOPED_TRACE(c.name);
    Cluster cluster(c.spec);
    // Move the primary off replica 0 where it starts there, so a relay to
    // any fixed replica misses it.
    SimClient* warm = cluster.AddClient();
    ASSERT_TRUE(SubmitAndWait(cluster, warm, MakePut("a", "1")).ok());
    cluster.Crash(0);
    ASSERT_TRUE(SubmitAndWait(cluster, warm, MakePut("b", "2")).ok());
    const PrincipalId primary = cluster.replica(1)->current_primary();
    ASSERT_NE(primary, 0);
    PrincipalId backup = 1;
    while (backup == primary) ++backup;
    ASSERT_EQ(cluster.replica(backup)->current_primary(), primary);

    // A stand-in takes the primary's place and records what reaches it.
    cluster.Crash(primary);
    cluster.net().Unregister(primary);
    RawSender stand_in(cluster.net(), primary);
    RawSender client(cluster, kClientIdBase + 600);
    const Request request =
        SignedRequest(kClientIdBase + 600, 1, "k", cluster.keystore());
    client.Send(backup, request.ToMessage());
    client.Send(backup, request.ToMessage());
    // Well inside the view-change timeout.
    cluster.sim().RunUntil(cluster.sim().now() + Millis(5));
    int relays = 0;
    for (const auto& [from, frame] : stand_in.received) {
      if (from == backup && frame[0] == kMsgRequest) {
        ++relays;
        EXPECT_EQ(frame, request.ToMessage());
      }
    }
    EXPECT_EQ(relays, 1);
  }
}

}  // namespace
}  // namespace seemore
