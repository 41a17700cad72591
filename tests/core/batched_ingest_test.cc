// Batched submission ingest: the flat-array/streaming path (server.h ring
// slots + XOR accumulator) must reject late/duplicate/malformed submissions
// exactly as the map-based path did, keep per-round resident ciphertext
// memory at O(L) regardless of client count, and survive the hostile-bytes
// corpus of fuzz_inputs_test.cc when mutants are driven through the engine.
#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/wire.h"
#include "src/crypto/multiexp.h"
#include "src/util/rng.h"
#include "tests/core/park_pool.h"

namespace dissent {
namespace {

struct ServerWorld {
  GroupDef def;
  std::vector<BigInt> server_privs, client_privs;
  std::unique_ptr<DissentServer> logic;
};

ServerWorld MakeServerWorld(size_t servers, size_t clients, uint64_t seed,
                            size_t pipeline_depth = 1) {
  ServerWorld w;
  SecureRng rng = SecureRng::FromLabel(seed);
  w.def = MakeTestGroup(Group::Named(GroupId::kTesting256), servers, clients, rng,
                        &w.server_privs, &w.client_privs);
  w.logic = std::make_unique<DissentServer>(w.def, 0, w.server_privs[0],
                                            SecureRng::FromLabel(seed + 1), pipeline_depth);
  w.logic->BeginSlots(clients);
  return w;
}

TEST(BatchedIngestTest, RejectionSemanticsMatchMapPath) {
  // The exact cases units_test pinned against the map-based implementation,
  // plus the pipelined-round shapes the flat ring adds.
  auto w = MakeServerWorld(2, 8, 8001, /*pipeline_depth=*/2);
  const size_t len = w.logic->ExpectedCiphertextLength(1);
  w.logic->StartRound(1);
  w.logic->StartRound(2);
  EXPECT_TRUE(w.logic->AcceptClientCiphertext(1, 0, Bytes(len, 1)));
  EXPECT_FALSE(w.logic->AcceptClientCiphertext(1, 0, Bytes(len, 2))) << "duplicate";
  EXPECT_FALSE(w.logic->AcceptClientCiphertext(1, 1, Bytes(len + 1, 1))) << "wrong length";
  EXPECT_FALSE(w.logic->AcceptClientCiphertext(1, 1, Bytes(len - 1, 1))) << "wrong length";
  EXPECT_FALSE(w.logic->AcceptClientCiphertext(3, 1, Bytes(len, 1))) << "unopened round";
  EXPECT_FALSE(w.logic->AcceptClientCiphertext(0, 1, Bytes(len, 1))) << "never-opened round";
  EXPECT_FALSE(w.logic->AcceptClientCiphertext(1, 99, Bytes(len, 1))) << "unknown client";
  // Both in-flight rounds accept independently, in either order.
  EXPECT_TRUE(w.logic->AcceptClientCiphertext(2, 3, Bytes(len, 3)));
  EXPECT_TRUE(w.logic->AcceptClientCiphertext(1, 3, Bytes(len, 3)));
  EXPECT_FALSE(w.logic->AcceptClientCiphertext(2, 3, Bytes(len, 4))) << "duplicate in round 2";
  EXPECT_EQ(w.logic->SubmissionCount(1), 2u);
  EXPECT_EQ(w.logic->SubmissionCount(2), 1u);
  // Ring reuse: opening round 3 drops round 1 (depth 2), and a submission
  // for the dropped round is "wrong round", exactly like the map erasure.
  w.logic->StartRound(3);
  EXPECT_FALSE(w.logic->AcceptClientCiphertext(1, 5, Bytes(len, 1))) << "dropped round";
  EXPECT_EQ(w.logic->SubmissionCount(1), 0u);
  EXPECT_EQ(w.logic->SubmissionCount(2), 1u) << "in-flight round must survive ring reuse";
  // Inventory is the canonical sorted set regardless of arrival order.
  EXPECT_TRUE(w.logic->AcceptClientCiphertext(3, 7, Bytes(len, 1)));
  EXPECT_TRUE(w.logic->AcceptClientCiphertext(3, 2, Bytes(len, 1)));
  EXPECT_EQ(w.logic->Inventory(3), (std::vector<uint32_t>{2, 7}));
}

TEST(BatchedIngestTest, EngineRejectsLateAndForgedSubmissions) {
  // Through the ServerEngine: a submission after the window closed and a
  // submission whose transport-level sender does not match the claimed
  // client id are both dropped, as the map-based engine did.
  auto w = MakeServerWorld(2, 4, 8002);
  ServerEngine::Config cfg;
  cfg.attached_clients = {0, 2};
  ServerEngine engine(w.logic.get(), w.def, cfg);
  auto start = engine.StartSession(0);
  ASSERT_FALSE(start.timers.empty());
  const size_t len = w.logic->ExpectedCiphertextLength(1);

  engine.HandleMessage(ClientPeer(0), wire::ClientSubmit{1, 0, Bytes(len, 1)}, 10);
  EXPECT_EQ(w.logic->SubmissionCount(1), 1u);
  // Forged sender: claimed id 2, transport says client 3.
  engine.HandleMessage(ClientPeer(3), wire::ClientSubmit{1, 2, Bytes(len, 1)}, 20);
  EXPECT_EQ(w.logic->SubmissionCount(1), 1u);
  // Close the window via the hard deadline, then submit late.
  engine.HandleTimer(start.timers[0].token, 1000);
  engine.HandleMessage(ClientPeer(2), wire::ClientSubmit{1, 2, Bytes(len, 1)}, 2000);
  EXPECT_EQ(w.logic->SubmissionCount(1), 1u) << "late submission accepted";
}

TEST(BatchedIngestTest, HostileSubmitFramesNeverCorruptIngest) {
  // fuzz_inputs_test.cc's mutation corpus, driven end-to-end: mutate a valid
  // serialized ClientSubmit, parse it with the hardened wire codec, and feed
  // whatever parses into the engine. Nothing may crash, and only frames that
  // are byte-identical to the original (same round/id/length) may land in
  // the accumulator — everything else must bounce off the same guards the
  // map path had.
  auto w = MakeServerWorld(2, 4, 8003);
  ServerEngine::Config cfg;
  cfg.attached_clients = {0, 2};
  ServerEngine engine(w.logic.get(), w.def, cfg);
  engine.StartSession(0);
  const size_t len = w.logic->ExpectedCiphertextLength(1);

  wire::ClientSubmit valid{1, 2, Bytes(len, 0x21)};
  Bytes frame = SerializeWire(valid);
  Rng rng(8003);
  for (int i = 0; i < 600; ++i) {
    Bytes mutated = frame;
    switch (rng.Below(4)) {
      case 0:
        for (int k = 0; k < 3 && !mutated.empty(); ++k) {
          mutated[rng.Below(mutated.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
        }
        break;
      case 1:
        mutated.resize(rng.Below(mutated.size() + 1));
        break;
      case 2:
        for (int k = 0; k < 16; ++k) {
          mutated.push_back(static_cast<uint8_t>(rng.Next()));
        }
        break;
      case 3:
        mutated.assign(rng.Below(200), 0);
        for (auto& b : mutated) {
          b = static_cast<uint8_t>(rng.Next());
        }
        break;
    }
    auto parsed = ParseWire(mutated);
    if (!parsed.has_value()) {
      continue;  // wire layer already rejected it
    }
    const auto* submit = std::get_if<wire::ClientSubmit>(&*parsed);
    Peer from = submit != nullptr ? ClientPeer(submit->client_id) : ClientPeer(0);
    engine.HandleMessage(from, *parsed, 10 + i);
  }
  // At most one submission can have landed for client 2 (first write wins);
  // mutants with a different valid-looking id/round/length were rejected by
  // the length / round / duplicate guards.
  size_t count = w.logic->SubmissionCount(1);
  EXPECT_LE(count, 4u);
  for (uint32_t id : w.logic->Inventory(1)) {
    EXPECT_LT(id, 4u);
  }
  // The engine still runs a clean round afterwards: remaining honest clients
  // can submit (or are flagged duplicate if a mutant already landed as them).
  for (uint32_t i = 0; i < 4; ++i) {
    engine.HandleMessage(ClientPeer(i), wire::ClientSubmit{1, i, Bytes(len, 0x11)}, 5000);
  }
  EXPECT_EQ(w.logic->SubmissionCount(1), 4u);
}

TEST(BatchedIngestTest, RoundCiphertextMemoryIsIndependentOfClientCount) {
  // The O(L) claim: with evidence retention off, a server that ingests N
  // full-length ciphertexts holds the streaming accumulator (and later the
  // built server ciphertext), never N buffered ciphertexts. The map-based
  // path would have held N * L here.
  for (size_t clients : {16u, 128u}) {
    auto w = MakeServerWorld(2, clients, 8004);
    w.logic->SetEvidenceRounds(0);
    w.logic->StartRound(1);
    const size_t len = w.logic->ExpectedCiphertextLength(1);
    std::vector<uint32_t> all;
    for (size_t i = 0; i < clients; ++i) {
      ASSERT_TRUE(w.logic->AcceptClientCiphertext(1, i, Bytes(len, uint8_t(i))));
      all.push_back(static_cast<uint32_t>(i));
    }
    w.logic->BuildServerCiphertext(1, all, all);
    EXPECT_LE(w.logic->peak_round_state_bytes(), 2 * len)
        << clients << " clients: round state scaled with N";
    EXPECT_EQ(w.logic->evidence_bytes(), 0u);
    EXPECT_EQ(w.logic->EvidenceFor(1), nullptr);
  }
}

TEST(BatchedIngestTest, StreamingCombineMatchesManualXor) {
  // The accumulator path is algebraically identical to buffering: XOR of all
  // accepted ciphertexts + pads(composite). Verify against a hand fold.
  auto w = MakeServerWorld(3, 6, 8005);
  w.logic->StartRound(1);
  const size_t len = w.logic->ExpectedCiphertextLength(1);
  Rng rng(8005);
  std::vector<Bytes> cts;
  std::vector<uint32_t> ids{0, 2, 3, 5};
  for (uint32_t i : ids) {
    Bytes ct(len, 0);
    for (auto& b : ct) {
      b = static_cast<uint8_t>(rng.Next());
    }
    cts.push_back(ct);
    ASSERT_TRUE(w.logic->AcceptClientCiphertext(1, i, std::move(ct)));
  }
  const Bytes& got = w.logic->BuildServerCiphertext(1, ids, ids);
  Bytes expect(len, 0);
  for (const Bytes& ct : cts) {
    XorInto(expect, ct);
  }
  for (uint32_t i : ids) {
    XorDcnetPad(w.logic->SharedKeyWith(i), 1, expect);
  }
  EXPECT_EQ(got, expect);
}

TEST(BatchedIngestTest, EvidenceStillServesTracingAfterStreaming) {
  // With retention on, the evidence log (filled at ingest now, not at
  // build) still holds every received ciphertext for §3.9 tracing.
  auto w = MakeServerWorld(2, 4, 8006);
  w.logic->StartRound(1);
  const size_t len = w.logic->ExpectedCiphertextLength(1);
  Bytes ct_a(len, 0xaa), ct_b(len, 0xbb);
  ASSERT_TRUE(w.logic->AcceptClientCiphertext(1, 1, ct_a));
  ASSERT_TRUE(w.logic->AcceptClientCiphertext(1, 3, ct_b));
  w.logic->BuildServerCiphertext(1, {1, 3}, {1, 3});
  const auto* ev = w.logic->EvidenceFor(1);
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->received_cts.at(1), ct_a);
  EXPECT_EQ(ev->received_cts.at(3), ct_b);
  EXPECT_EQ(ev->composite_list, (std::vector<uint32_t>{1, 3}));
  EXPECT_GE(w.logic->evidence_bytes(), 2 * len);
}

TEST(BatchedIngestTest, AdaptiveWindowTracksObservedParticipation) {
  // Round 1 (no observation): the policy timer arms only at the static
  // attached share. After a window closes at lower participation, the next
  // round's threshold follows the observation instead of stalling.
  auto w = MakeServerWorld(1, 8, 8007);
  ServerEngine::Config cfg;
  cfg.attached_clients = {0, 1, 2, 3, 4, 5, 6, 7};
  cfg.window_fraction = 0.95;  // static threshold: 7 of 8
  ServerEngine engine(w.logic.get(), w.def, cfg);
  auto start = engine.StartSession(0);
  ASSERT_EQ(start.timers.size(), 1u);  // hard deadline only
  const size_t len = w.logic->ExpectedCiphertextLength(1);

  // Four clients submit round 1: below the static threshold, no policy
  // timer arms.
  size_t timers_armed = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    auto a = engine.HandleMessage(ClientPeer(i), wire::ClientSubmit{1, i, Bytes(len, 1)},
                                  1000 + i);
    timers_armed += a.timers.size();
  }
  EXPECT_EQ(timers_armed, 0u) << "static share must gate the first window";
  // The hard deadline closes round 1 with 4 submissions observed.
  engine.HandleTimer(start.timers[0].token, 120000000);
  EXPECT_EQ(engine.last_window_observed(), 4u);

  // Round 1 completes (single server: its own gossip suffices), opening
  // round 2. Now 4 submissions arm the policy timer: threshold adapted from
  // the observed 4, not the attached 8. (Round 1's garbage cleartext may
  // have opened slots, so round 2 has its own expected length.)
  const size_t len2 = w.logic->ExpectedCiphertextLength(2);
  timers_armed = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    auto a = engine.HandleMessage(ClientPeer(i), wire::ClientSubmit{2, i, Bytes(len2, 1)},
                                  121000000 + i);
    for (const auto& t : a.timers) {
      timers_armed += ServerEngine::TimerTokenId(t.token) == 2 ? 1 : 0;
    }
  }
  EXPECT_EQ(timers_armed, 1u) << "threshold did not adapt to observed participation";
}

TEST(BatchedIngestTest, StaticWindowConfigKeepsPaperPolicy) {
  // adaptive_window = false reproduces the static attached-share policy
  // bit-for-bit: after a low-participation round, 4 submissions still do not
  // arm the policy timer.
  auto w = MakeServerWorld(1, 8, 8008);
  ServerEngine::Config cfg;
  cfg.attached_clients = {0, 1, 2, 3, 4, 5, 6, 7};
  cfg.adaptive_window = false;
  ServerEngine engine(w.logic.get(), w.def, cfg);
  auto start = engine.StartSession(0);
  const size_t len = w.logic->ExpectedCiphertextLength(1);
  for (uint32_t i = 0; i < 4; ++i) {
    engine.HandleMessage(ClientPeer(i), wire::ClientSubmit{1, i, Bytes(len, 1)}, 1000 + i);
  }
  engine.HandleTimer(start.timers[0].token, 120000000);
  EXPECT_EQ(engine.last_window_observed(), 4u);
  const size_t len2 = w.logic->ExpectedCiphertextLength(2);
  size_t timers_armed = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    auto a = engine.HandleMessage(ClientPeer(i), wire::ClientSubmit{2, i, Bytes(len2, 1)},
                                  121000000 + i);
    for (const auto& t : a.timers) {
      timers_armed += ServerEngine::TimerTokenId(t.token) == 2 ? 1 : 0;
    }
  }
  EXPECT_EQ(timers_armed, 0u) << "static policy must ignore the observation";
}

// --- Background composite pads (server.h step 1/3) ---
//
// Every case runs once on the worker pool and once inline (fast path off:
// nothing is posted, the pad job runs on the caller at the first accept),
// and checks both against the definition of s_j: XOR of the accepted
// ciphertexts of l'_j and PAD(i, j) for every i in the composite list l.

struct PadRound {
  std::vector<uint32_t> submit;      // clients whose ciphertexts this server accepts
  std::vector<uint32_t> composite;   // l (sorted)
  std::vector<uint32_t> expel;       // expelled after the round opened
  size_t reslot_after_open = 0;      // nonzero: BeginSlots(n) after the round opened
};

Bytes ClientCt(uint64_t round, uint32_t client, size_t len) {
  Rng rng(round * 1000003 + client);
  Bytes ct(len);
  for (auto& b : ct) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return ct;
}

Bytes DefinitionCt(const ServerWorld& w, uint64_t round, const PadRound& plan, size_t len) {
  Bytes expect(len, 0);
  for (uint32_t i : plan.submit) {
    XorInto(expect, ClientCt(round, i, len));
  }
  for (uint32_t i : plan.composite) {
    XorDcnetPad(w.logic->SharedKeyWith(i), round, expect);
  }
  return expect;
}

// Runs the rounds on a fresh depth-1 server; returns each round's s_j and
// commit, after checking s_j against its definition.
std::vector<std::pair<Bytes, Bytes>> RunPadRounds(size_t clients, const std::vector<PadRound>& plan,
                                                  bool background) {
  ScopedCryptoFastPath mode(background);
  auto w = MakeServerWorld(2, clients, 8100);
  std::vector<std::pair<Bytes, Bytes>> out;
  for (size_t k = 0; k < plan.size(); ++k) {
    const uint64_t round = k + 1;
    const PadRound& p = plan[k];
    w.logic->StartRound(round);
    for (uint32_t i : p.expel) {
      w.logic->ExpelClient(i);
    }
    if (p.reslot_after_open != 0) {
      w.logic->BeginSlots(p.reslot_after_open);
    }
    const size_t len = w.logic->ExpectedCiphertextLength(round);
    for (uint32_t i : p.submit) {
      EXPECT_TRUE(w.logic->AcceptClientCiphertext(round, i, ClientCt(round, i, len)));
    }
    const Bytes& ct = w.logic->BuildServerCiphertext(round, p.composite, p.submit);
    EXPECT_EQ(ct, DefinitionCt(w, round, p, len)) << "round " << round << " bg=" << background;
    out.emplace_back(ct, w.logic->CommitHash(round));
    w.logic->FinishRound(round, Bytes(len, 0));
  }
  return out;
}

std::vector<uint32_t> Range(uint32_t n, uint32_t skip = UINT32_MAX) {
  std::vector<uint32_t> v;
  for (uint32_t i = 0; i < n; ++i) {
    if (i != skip) {
      v.push_back(i);
    }
  }
  return v;
}

void ExpectPoolMatchesInline(size_t clients, const std::vector<PadRound>& plan) {
  EXPECT_EQ(RunPadRounds(clients, plan, true), RunPadRounds(clients, plan, false));
}

TEST(BackgroundPadTest, FullParticipation) {
  const auto all = Range(70);
  ExpectPoolMatchesInline(70, {{all, all}, {all, all}, {all, all}});
}

TEST(BackgroundPadTest, FullParticipationAboveTheFanOutThreshold) {
  const auto all = Range(kParallelPadKeys + 10);
  ExpectPoolMatchesInline(all.size(), {{all, all}, {all, all}});
}

TEST(BackgroundPadTest, AbsentClients) {
  // E (last composite) strictly contains l: the patch removes pads. Some of
  // the composite went to the other server (l ⊋ l'_j).
  const auto all = Range(70);
  const std::vector<uint32_t> few = {0, 2, 5, 64, 69};
  const std::vector<uint32_t> mine = {2, 64};
  ExpectPoolMatchesInline(70, {{all, all}, {mine, few}, {mine, few}});
}

TEST(BackgroundPadTest, NewClients) {
  // l strictly contains E: the patch adds pads.
  const auto all = Range(70);
  const std::vector<uint32_t> few = {1, 2, 66};
  ExpectPoolMatchesInline(70, {{all, all}, {few, few}, {all, all}});
}

TEST(BackgroundPadTest, ExpulsionBetweenOpenAndClose) {
  // Round 2's job was posted with client 3 expected; the expulsion lands
  // while it is in flight, and round 3's job already leaves it out.
  const auto all = Range(70);
  const auto rest = Range(70, 3);
  ExpectPoolMatchesInline(70, {{all, all}, {rest, rest, {3}}, {rest, rest}});
}

TEST(BackgroundPadTest, LayoutLengthChangeBetweenOpenAndClose) {
  // The job was sized for the old layout; the round expands every pad of l
  // itself instead.
  const auto all = Range(70);
  PadRound reslot{all, all};
  reslot.reslot_after_open = 90;
  ExpectPoolMatchesInline(70, {{all, all}, reslot, {all, all}});
}

TEST(BackgroundPadTest, AbortWithTheJobStillQueued) {
  for (bool background : {true, false}) {
    ScopedCryptoFastPath mode(background);
    auto w = MakeServerWorld(2, 70, 8101);
    const auto all = Range(70);
    {
      ParkedPool parked;
      w.logic->StartRound(1);  // its job stays queued behind the parked workers
      w.logic->AbortRound(1);
    }
    w.logic->StartRound(2);
    const size_t len = w.logic->ExpectedCiphertextLength(2);
    for (uint32_t i : all) {
      ASSERT_TRUE(w.logic->AcceptClientCiphertext(2, i, ClientCt(2, i, len)));
    }
    const Bytes& ct = w.logic->BuildServerCiphertext(2, all, all);
    EXPECT_EQ(ct, DefinitionCt(w, 2, {all, all}, len)) << "bg=" << background;
  }
}

TEST(BackgroundPadTest, ServerDestroyedWhileItsJobIsQueued) {
  // Under ASan: the released workers must not touch the destroyed server.
  ParkedPool parked;
  {
    auto w = MakeServerWorld(2, 70, 8102, /*pipeline_depth=*/2);
    w.logic->StartRound(1);
    w.logic->StartRound(2);
  }
  parked.Release();
  // A job destroyed after a worker took it finishes into its own state.
  auto w = MakeServerWorld(2, 70, 8103);
  w.logic->StartRound(1);
  w.logic.reset();
}

TEST(BackgroundPadTest, SnapshotMidWindowThenRestore) {
  const auto all = Range(70);
  const PadRound plan{all, all};
  for (bool background : {true, false}) {
    ScopedCryptoFastPath mode(background);
    // Snapshot after half the window (the accumulator holds E's pads) and
    // before any accept (no accumulator yet: the restored round expands all
    // of l at close).
    for (size_t before : {35u, 0u}) {
      auto a = MakeServerWorld(2, 70, 8104);
      a.logic->StartRound(1);
      const size_t len = a.logic->ExpectedCiphertextLength(1);
      for (size_t i = 0; i < before; ++i) {
        ASSERT_TRUE(a.logic->AcceptClientCiphertext(1, i, ClientCt(1, i, len)));
      }
      const Bytes state = a.logic->SerializeState();
      auto b = MakeServerWorld(2, 70, 8104);
      ASSERT_TRUE(b.logic->RestoreState(state));
      EXPECT_EQ(b.logic->SerializeState(), state) << "restore is a fixed point";
      for (size_t i = before; i < 70; ++i) {
        ASSERT_TRUE(b.logic->AcceptClientCiphertext(1, i, ClientCt(1, i, len)));
      }
      const Bytes& ct = b.logic->BuildServerCiphertext(1, all, all);
      EXPECT_EQ(ct, DefinitionCt(b, 1, plan, len)) << "bg=" << background << " before=" << before;
    }
  }
}

TEST(BackgroundPadTest, VersionOneStateIsRefused) {
  // A v1 accumulator held the pads of its accepted clients without saying
  // which; patching it as v2 would count pads twice.
  auto a = MakeServerWorld(2, 8, 8105);
  a.logic->StartRound(1);
  const size_t len = a.logic->ExpectedCiphertextLength(1);
  ASSERT_TRUE(a.logic->AcceptClientCiphertext(1, 0, ClientCt(1, 0, len)));
  Bytes state = a.logic->SerializeState();
  const std::string v2 = "dissent.server.state.v2";
  auto at = std::search(state.begin(), state.end(), v2.begin(), v2.end());
  ASSERT_NE(at, state.end());
  *(at + static_cast<ptrdiff_t>(v2.size()) - 1) = '1';
  auto b = MakeServerWorld(2, 8, 8105);
  EXPECT_FALSE(b.logic->RestoreState(state));
}

TEST(BackgroundPadTest, PeakRoundStateCountsThePadJob) {
  // Before the first accept the round holds only the job's accumulator;
  // from then on only the adopted accumulator: one L-byte buffer per round.
  auto w = MakeServerWorld(2, 16, 8106);
  w.logic->SetEvidenceRounds(0);
  w.logic->StartRound(1);
  const size_t len = w.logic->ExpectedCiphertextLength(1);
  EXPECT_EQ(w.logic->peak_round_state_bytes(), len);
  for (uint32_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(w.logic->AcceptClientCiphertext(1, i, ClientCt(1, i, len)));
  }
  w.logic->BuildServerCiphertext(1, Range(16), Range(16));
  EXPECT_EQ(w.logic->peak_round_state_bytes(), len);
}

}  // namespace
}  // namespace dissent
