// Restore hardening: a server's engine snapshot and logic state come back
// from disk, so restore must refuse anything that is not a complete snapshot
// of the same server. Every strict prefix of real snapshots taken at fixed
// points of a seeded session is refused, and so is each targeted hostile
// value: oversized counts, a key count other than N, a peer kind out of
// range, a slot longer than kMaxSlotLength, a pending mailbox frame that is
// not Reliable, and a recent entry that is not a RoundSummary.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/coordinator.h"
#include "src/core/wire.h"

namespace dissent {
namespace {

constexpr size_t kServers = 3;
constexpr size_t kClients = 6;
constexpr size_t kVictim = 1;
constexpr uint64_t kSeed = 1811;

struct Session {
  GroupDef def;
  std::vector<BigInt> server_privs, client_privs;
  ReliabilityConfig rel;
  // Server kVictim's engine snapshot and logic state at each sample point:
  // mid-shuffle, keys installed, mid-round 3 (frames in flight), after 4.
  std::vector<Bytes> snapshots, states;
};

const Session& TheSession() {
  static const Session* session = [] {
    auto* s = new Session;
    SecureRng rng = SecureRng::FromLabel(kSeed);
    s->def = MakeTestGroup(Group::Named(GroupId::kTesting256), kServers, kClients, rng,
                           &s->server_privs, &s->client_privs);
    s->rel.enabled = true;
    Coordinator coord(s->def, s->server_privs, s->client_privs, kSeed);
    coord.EnableReliability(s->rel, 2 * 1000 * 1000);
    auto sample = [&] {
      s->snapshots.push_back(coord.server_engine(kVictim).SerializeSnapshot());
      s->states.push_back(coord.server(kVictim).SerializeState());
    };
    bool mid_shuffle = false, mid_round = false;
    coord.SetMessageFilter([&](const Peer& from, const Peer&, const WireMessage& msg) {
      const auto* rel_frame = std::get_if<wire::Reliable>(&msg);
      if (rel_frame == nullptr || from.kind != Peer::Kind::kServer || from.index != kVictim) {
        return true;
      }
      auto inner = ParseWire(rel_frame->inner);
      const auto* commit = inner.has_value() ? std::get_if<wire::Commit>(&*inner) : nullptr;
      if (!mid_shuffle && inner.has_value() && std::holds_alternative<wire::BlameMix>(*inner)) {
        mid_shuffle = true;
        sample();
      } else if (!mid_round && commit != nullptr && commit->round == 3) {
        mid_round = true;
        sample();
      }
      return true;
    });
    EXPECT_TRUE(coord.RunScheduling());
    sample();
    for (size_t i = 0; i < kClients; ++i) {
      coord.client(i).QueueMessage(Bytes(24, static_cast<uint8_t>(0x40 + i)));
    }
    for (int r = 0; r < 4; ++r) {
      EXPECT_TRUE(coord.RunRound().completed);
    }
    sample();
    EXPECT_TRUE(mid_shuffle && mid_round);
    return s;
  }();
  return *session;
}

// A fresh logic + engine for server kVictim, configured as the Coordinator
// configures it.
struct Fresh {
  explicit Fresh(const Session& s)
      : logic(s.def, kVictim, s.server_privs[kVictim], SecureRng::FromLabel(7)) {
    ServerEngine::Config cfg;
    cfg.window_fraction = s.def.policy.window_fraction;
    cfg.window_multiplier = s.def.policy.window_multiplier;
    cfg.hard_deadline_us = s.def.policy.hard_deadline;
    cfg.reliability = s.rel;
    for (uint32_t i = kVictim; i < kClients; i += kServers) {
      cfg.attached_clients.push_back(i);
    }
    engine = std::make_unique<ServerEngine>(&logic, s.def, cfg, SecureRng::FromLabel(8));
  }
  DissentServer logic;
  std::unique_ptr<ServerEngine> engine;
};

bool EngineRestores(const Bytes& snapshot) {
  Fresh f(TheSession());
  return f.engine->RestoreSnapshot(snapshot, 0).has_value();
}

bool StateRestores(const Bytes& state) {
  const Session& s = TheSession();
  DissentServer logic(s.def, kVictim, s.server_privs[kVictim], SecureRng::FromLabel(9));
  return logic.RestoreState(state);
}

TEST(RestoreHardeningTest, EveryStrictPrefixOfASnapshotIsRefused) {
  const Session& s = TheSession();
  ASSERT_EQ(s.snapshots.size(), 4u);
  for (size_t k = 0; k < s.snapshots.size(); ++k) {
    const Bytes& snap = s.snapshots[k];
    Fresh f(s);
    for (size_t len = 0; len < snap.size(); ++len) {
      ASSERT_FALSE(
          f.engine->RestoreSnapshot(Bytes(snap.begin(), snap.begin() + len), 0).has_value())
          << "sample " << k << ": prefix of " << len << " of " << snap.size() << " bytes";
    }
    // The refusals left nothing behind that stops the full snapshot.
    ASSERT_TRUE(f.engine->RestoreSnapshot(snap, 0).has_value()) << "sample " << k;
    EXPECT_EQ(f.engine->SerializeSnapshot(), snap) << "sample " << k;
  }
}

TEST(RestoreHardeningTest, EveryStrictPrefixOfServerStateIsRefused) {
  const Session& s = TheSession();
  for (size_t k = 0; k < s.states.size(); ++k) {
    const Bytes& state = s.states[k];
    DissentServer logic(s.def, kVictim, s.server_privs[kVictim], SecureRng::FromLabel(9));
    for (size_t len = 0; len < state.size(); ++len) {
      ASSERT_FALSE(logic.RestoreState(Bytes(state.begin(), state.begin() + len)))
          << "sample " << k << ": prefix of " << len << " of " << state.size() << " bytes";
    }
    ASSERT_TRUE(logic.RestoreState(state)) << "sample " << k;
    EXPECT_EQ(logic.SerializeState(), state) << "sample " << k;
  }
}

// Offsets of the fields the hostile cases rewrite, found by walking the
// dissent.engine.snap.v2 layout.
struct SnapshotLayout {
  size_t early_count = 0, recent_count = 0, first_recent = 0;
  size_t link_count = 0, first_link_kind = 0, first_pending_frame = 0;
  size_t cert_count = 0, key_count = 0;
  uint32_t recent_entries = 0;
};

SnapshotLayout Walk(const Bytes& snap) {
  SnapshotLayout at;
  Reader r(snap);
  const auto pos = [&] { return snap.size() - r.remaining(); };
  std::string str;
  Bytes blob;
  uint64_t u64;
  uint32_t u32, n, m;
  uint8_t u8;
  bool flag;
  EXPECT_TRUE(r.Str(&str) && r.Blob(&blob));
  for (int k = 0; k < 6; ++k) {
    r.U64(&u64);
  }
  for (int k = 0; k < 3; ++k) {
    r.U32(&u32);
  }
  r.Bool(&flag);
  r.Bool(&flag);
  r.U64(&u64);
  r.U32(&n);
  for (uint32_t round = 0; round < n; ++round) {
    r.U64(&u64), r.Bool(&flag), r.U64(&u64), r.Bool(&flag), r.Bool(&flag), r.U64(&u64);
    r.U32(&u32), r.Blob(&blob);
    for (int k = 0; k < 4; ++k) {
      r.Bool(&flag);
    }
    for (size_t j = 0; j < kServers; ++j) {  // inventories
      if (r.Bool(&flag) && flag) {
        r.U32(&m);
        for (uint32_t i = 0; i < m; ++i) {
          r.U32(&u32);
        }
      }
    }
    for (size_t j = 0; j < 3 * kServers; ++j) {  // commits, server cts, sigs
      if (r.Bool(&flag) && flag) {
        r.Blob(&blob);
      }
    }
  }
  at.early_count = pos();
  r.U32(&n);
  for (uint32_t k = 0; k < n; ++k) {
    r.U64(&u64), r.U32(&m);
    for (uint32_t i = 0; i < m; ++i) {
      r.U32(&u32), r.Blob(&blob);
    }
  }
  at.recent_count = pos();
  r.U32(&n);
  at.recent_entries = n;
  at.first_recent = pos();
  for (uint32_t k = 0; k < n; ++k) {
    r.Blob(&blob);
  }
  at.link_count = pos();
  r.U32(&n);
  at.first_link_kind = pos();
  for (uint32_t k = 0; k < n; ++k) {
    r.U8(&u8), r.U32(&u32), r.U64(&u64), r.U64(&u64), r.U32(&m);
    for (uint32_t i = 0; i < m; ++i) {
      r.U64(&u64);
    }
    r.U32(&m);
    for (uint32_t i = 0; i < m; ++i) {
      r.U64(&u64);
      if (at.first_pending_frame == 0) {
        at.first_pending_frame = pos();
      }
      r.Blob(&blob);
    }
  }
  at.cert_count = pos();
  r.U32(&n);
  for (uint32_t k = 0; k < n; ++k) {
    r.Blob(&blob);
  }
  r.U32(&n);
  for (uint32_t k = 0; k < n; ++k) {
    r.U64(&u64), r.U32(&m);
    for (uint32_t i = 0; i < m; ++i) {
      r.U32(&u32), r.U64(&u64), r.Blob(&blob);
    }
  }
  EXPECT_TRUE(r.Bool(&flag));
  at.key_count = flag ? pos() : 0;
  return at;
}

Bytes WithU32(Bytes b, size_t at, uint32_t v) {
  for (int k = 0; k < 4; ++k) {
    b[at + k] = static_cast<uint8_t>(v >> (8 * k));
  }
  return b;
}

// Replaces the blob at `at` (length prefix included) with `frame`.
Bytes WithBlob(const Bytes& b, size_t at, const Bytes& frame) {
  Reader r(b);
  Bytes skip, old;
  r.Raw(at, &skip);
  EXPECT_TRUE(r.Blob(&old));
  Writer w;
  w.Raw(skip);
  w.Blob(frame);
  w.Raw(Bytes(b.begin() + static_cast<ptrdiff_t>(at + 4 + old.size()), b.end()));
  return w.Take();
}

TEST(RestoreHardeningTest, HostileCountsAndKindsAreRefused) {
  const Session& s = TheSession();
  const Bytes& mid_round = s.snapshots[2];
  const Bytes& after = s.snapshots[3];
  ASSERT_TRUE(EngineRestores(mid_round));
  ASSERT_TRUE(EngineRestores(after));
  const SnapshotLayout in_flight = Walk(mid_round);
  const SnapshotLayout done = Walk(after);
  ASSERT_NE(in_flight.first_pending_frame, 0u) << "no pending mailbox frame to rewrite";
  ASSERT_NE(done.key_count, 0u) << "keys not live after round 4";
  ASSERT_GT(done.recent_entries, 0u) << "no recent summary to rewrite";
  const uint32_t kHuge = (1u << 16) + 1;
  EXPECT_FALSE(EngineRestores(WithU32(after, done.early_count, kHuge)));
  EXPECT_FALSE(EngineRestores(WithU32(after, done.recent_count, kHuge)));
  EXPECT_FALSE(EngineRestores(WithU32(after, done.cert_count, kHuge)));
  EXPECT_FALSE(EngineRestores(WithU32(after, done.link_count, kHuge)));
  EXPECT_FALSE(EngineRestores(WithU32(after, done.key_count, kClients - 1)));
  EXPECT_FALSE(EngineRestores(WithU32(after, done.key_count, kClients + 1)));
  Bytes bad_kind = mid_round;
  bad_kind[in_flight.first_link_kind] = 3;
  EXPECT_FALSE(EngineRestores(bad_kind));
  // A pending mailbox frame must be a Reliable envelope; a bare inner frame
  // of the same kind is refused.
  const Bytes not_reliable = SerializeWire(wire::RoundAbort{3, 1});
  EXPECT_FALSE(EngineRestores(WithBlob(mid_round, in_flight.first_pending_frame, not_reliable)));
  EXPECT_TRUE(EngineRestores(WithBlob(
      mid_round, in_flight.first_pending_frame,
      SerializeWire(wire::Reliable{1, kVictim, 0, not_reliable}))))
      << "control: a Reliable frame in the same place restores";
  // A recent entry must be a RoundSummary.
  EXPECT_FALSE(EngineRestores(WithBlob(after, done.first_recent, not_reliable)));
  EXPECT_TRUE(EngineRestores(WithBlob(
      after, done.first_recent, SerializeWire(wire::RoundSummary{1, true, {}, {}, 1}))))
      << "control: a RoundSummary in the same place restores";
}

TEST(RestoreHardeningTest, SlotLengthAboveTheClampIsRefused) {
  const Session& s = TheSession();
  const Bytes& state = s.states.back();
  ASSERT_TRUE(StateRestores(state));
  // magic, index, base round, newest round, schedule count, then the first
  // schedule's default length, slot count and first slot length.
  const size_t first_length = 4 + std::string("dissent.server.state.v2").size() + 4 + 8 + 8 + 4 +
                              4 + 4;
  EXPECT_TRUE(StateRestores(WithU32(state, first_length, SlotSchedule::kMaxSlotLength)));
  EXPECT_FALSE(StateRestores(WithU32(state, first_length, SlotSchedule::kMaxSlotLength + 1)));
}

}  // namespace
}  // namespace dissent
