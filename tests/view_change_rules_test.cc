// The view-change rules each protocol plugs into the shared core
// (consensus/view_changing_replica.h, DESIGN.md §8), probed at their
// boundary through a real replica: VIEW-CHANGE frames are signed with the
// cluster's keys and handed to one replica, which must join, or issue the
// NEW-VIEW, at exactly the count its rule names and not one sender sooner.

#include <gtest/gtest.h>

#include <vector>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::BftSpec;
using testing::CftSpec;
using testing::SeeMoReSpec;
using testing::SUpRightSpec;
using testing::ViewOf;

/// A VIEW-CHANGE for `new_view` from `sender` that carries no evidence
/// under the genesis certificate, framed in the protocol's own format.
Bytes EmptyViewChange(const Cluster& cluster, PrincipalId sender,
                      uint64_t new_view) {
  switch (cluster.config().kind) {
    case ProtocolKind::kSeeMoRe: {
      SmViewChangeMsg msg;
      msg.mode = static_cast<uint8_t>(cluster.config().initial_mode);
      msg.new_view = new_view;
      msg.sender = sender;
      return msg.ToMessage();
    }
    case ProtocolKind::kCft: {
      PaxosViewChangeMsg msg;
      msg.new_view = new_view;
      return msg.ToMessage();
    }
    case ProtocolKind::kBft:
    case ProtocolKind::kSUpRight:
      return PbftViewChangeMsg::Build(new_view, 0, CheckpointCert::Genesis(),
                                      {}, Signer(sender, cluster.keystore()));
  }
  return {};
}

bool InViewChange(Cluster& cluster, int i) {
  switch (cluster.config().kind) {
    case ProtocolKind::kSeeMoRe:
      return cluster.seemore(i)->in_view_change();
    case ProtocolKind::kCft:
      return cluster.paxos(i)->in_view_change();
    case ProtocolKind::kBft:
    case ProtocolKind::kSUpRight:
      return cluster.pbft(i)->in_view_change();
  }
  return false;
}

/// One join rule: `target` must stay put through the first `join - 1` of
/// `senders` and join view 1 at the `join`-th (never, when `join` exceeds
/// their number).
struct JoinRow {
  const char* protocol;
  scenario::ScenarioSpec spec;
  int target;
  std::vector<PrincipalId> senders;
  size_t join;
};

TEST(ViewChangeRulesTest, JoinRulesAtTheirBoundary) {
  const std::vector<JoinRow> rows = {
      // f+1 distinct senders; a repeat counts once.
      {"pbft", BftSpec(1), 3, {0, 0, 2}, 3},
      // S-UpRight's join bound is m+1.
      {"supright", SUpRightSpec(1, 1), 3, {0, 4}, 2},
      // One trusted sender suffices...
      {"seemore trusted", SeeMoReSpec(SeeMoReMode::kLion, 1, 1), 5, {0}, 1},
      // ...else m+1 public senders.
      {"seemore public", SeeMoReSpec(SeeMoReMode::kLion, 1, 1), 5, {2, 3}, 2},
      // Only a replica that takes part in agreement, or a trusted one,
      // joins: Dog's trusted new primary does, a passive public node (P = 5
      // leaves replica 6 out of the 3m+1 proxies) never does.
      {"dog trusted", SeeMoReSpec(SeeMoReMode::kDog, 1, 1), 1, {0}, 1},
      {"dog passive",
       testing::TestBuilder(1)
           .SeeMoRe(SeeMoReMode::kDog, 1, 1)
           .CloudSizes(2, 5)
           .spec(),
       6, {0, 2, 3}, 4},
      // Crash model: one sender suffices.
      {"paxos", CftSpec(1), 2, {0}, 1},
  };
  for (const JoinRow& row : rows) {
    SCOPED_TRACE(row.protocol);
    Cluster cluster(row.spec);
    for (size_t k = 0; k < row.senders.size(); ++k) {
      const PrincipalId sender = row.senders[k];
      cluster.replica(row.target)
          ->OnMessage(sender, EmptyViewChange(cluster, sender, 1));
      const bool joined = k + 1 >= row.join;
      EXPECT_EQ(InViewChange(cluster, row.target), joined) << "after " << k + 1;
      EXPECT_EQ(cluster.replica(row.target)->stats().view_changes_started,
                joined ? 1u : 0u);
    }
    EXPECT_EQ(ViewOf(cluster, row.target), 0u);
  }
}

TEST(ViewChangeRulesTest, PaxosJoinsTheViewTheMessageNames) {
  // Replica 2 moves to view 3, hears of view 2 meanwhile, then enters view
  // 1 when its NEW-VIEW arrives late, so the view-2 record stays pending. A
  // VIEW-CHANGE for view 4 must take it to view 4: were it to join the
  // pending view 2 instead, it would lead that view on two records.
  Cluster cluster(CftSpec(1));
  ReplicaBase& replica = *cluster.replica(2);
  replica.OnMessage(0, EmptyViewChange(cluster, 0, 3));
  replica.OnMessage(1, EmptyViewChange(cluster, 1, 2));
  PaxosNewViewMsg new_view;
  new_view.new_view = 1;
  replica.OnMessage(1, new_view.ToMessage());
  ASSERT_EQ(cluster.paxos(2)->view(), 1u);
  ASSERT_FALSE(cluster.paxos(2)->in_view_change());

  replica.OnMessage(0, EmptyViewChange(cluster, 0, 4));
  EXPECT_EQ(cluster.paxos(2)->view(), 1u);
  EXPECT_TRUE(cluster.paxos(2)->in_view_change());
  EXPECT_EQ(replica.stats().view_changes_started, 2u);
}

/// One NEW-VIEW quorum: `authority` (of view 1) is cut off from every
/// replica; with `own_record` it first times out on a request and keeps its
/// own VIEW-CHANGE. It must stay in view 0 until it holds `quorum` records
/// (its own included) of the ones `senders` hand it, and enter view 1 at
/// that one.
struct QuorumRow {
  const char* protocol;
  scenario::ScenarioSpec spec;
  int authority;
  bool own_record;
  std::vector<PrincipalId> senders;
  size_t quorum;
};

TEST(ViewChangeRulesTest, NewViewQuorumsAtTheirBoundary) {
  const std::vector<QuorumRow> rows = {
      // 2f+1 of N = 3f+1.
      {"pbft", BftSpec(1), 1, true, {0, 2}, 3},
      // 2m+c+1 of N = 3m+2c+1.
      {"supright", SUpRightSpec(1, 1), 1, true, {0, 2, 3}, 4},
      // f+1 of N = 2f+1.
      {"paxos", CftSpec(1), 1, true, {0}, 2},
      // Lion: 2m+c+1 of all replicas.
      {"lion", SeeMoReSpec(SeeMoReMode::kLion, 1, 1), 1, true, {0, 2, 3}, 4},
      // Dog and Peacock: the trusted authority sends no VIEW-CHANGE of its
      // own; 2m+1 proxies of the last active view make the quorum, and a
      // trusted sender's record (which makes it join) counts for nothing.
      {"dog", SeeMoReSpec(SeeMoReMode::kDog, 1, 1), 1, false, {0, 2, 3, 4}, 4},
      {"peacock", SeeMoReSpec(SeeMoReMode::kPeacock, 1, 1), 1, false,
       {0, 2, 3, 4}, 4},
  };
  for (const QuorumRow& row : rows) {
    SCOPED_TRACE(row.protocol);
    Cluster cluster(row.spec);
    FaultPlane& faults = cluster.net().faults();
    for (int i = 0; i < cluster.n(); ++i) {
      if (i == row.authority) continue;
      faults.CutLink(row.authority, i);
      faults.CutLink(i, row.authority);
    }
    size_t records = 0;
    if (row.own_record) {
      // The request reaches the authority from the client, the proposal
      // never does: its view timer (20 ms) fires before escalation would.
      cluster.AddClient()->SubmitOne(MakePut("k", "v"), [](const Bytes&) {});
      cluster.sim().RunUntil(cluster.sim().now() + Millis(30));
      ASSERT_TRUE(InViewChange(cluster, row.authority));
      records = 1;
    }
    for (PrincipalId sender : row.senders) {
      EXPECT_EQ(ViewOf(cluster, row.authority), 0u) << records << " records";
      cluster.replica(row.authority)
          ->OnMessage(sender, EmptyViewChange(cluster, sender, 1));
      ++records;
    }
    EXPECT_EQ(records, row.quorum);
    EXPECT_EQ(ViewOf(cluster, row.authority), 1u);
    EXPECT_EQ(cluster.replica(row.authority)->stats().view_changes_completed,
              1u);
  }
}

}  // namespace
}  // namespace seemore
