// Hostile-bytes robustness: every decoder that consumes data from other
// protocol participants must reject malformed input gracefully — never
// crash, never accept garbage. Random mutations + truncations across all
// wire-facing parsers.
#include <gtest/gtest.h>

#include "src/app/tunnel.h"
#include "src/core/accusation_types.h"
#include "src/core/cleartext.h"
#include "src/core/client.h"
#include "src/core/key_shuffle.h"
#include "src/core/server.h"
#include "src/core/wire.h"
#include "src/crypto/chaum_pedersen.h"
#include "src/crypto/schnorr.h"
#include "src/net/framing.h"
#include "src/net/net_wire.h"
#include "src/util/rng.h"
#include "src/util/serialize.h"

namespace dissent {
namespace {

std::shared_ptr<const Group> G() { return Group::Named(GroupId::kTesting256); }

// Applies random byte mutations and truncations to `wire`, feeding each
// variant to `parse`, which must simply not misbehave (death = test failure).
template <typename ParseFn>
void Hammer(const Bytes& wire, Rng& rng, ParseFn parse, int iterations = 300) {
  for (int i = 0; i < iterations; ++i) {
    Bytes mutated = wire;
    switch (rng.Below(4)) {
      case 0:  // flip random bytes
        for (int k = 0; k < 3 && !mutated.empty(); ++k) {
          mutated[rng.Below(mutated.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
        }
        break;
      case 1:  // truncate
        mutated.resize(rng.Below(mutated.size() + 1));
        break;
      case 2:  // extend with garbage
        for (int k = 0; k < 16; ++k) {
          mutated.push_back(static_cast<uint8_t>(rng.Next()));
        }
        break;
      case 3: {  // pure garbage of random size
        mutated.assign(rng.Below(200), 0);
        for (auto& b : mutated) {
          b = static_cast<uint8_t>(rng.Next());
        }
        break;
      }
    }
    parse(mutated);
  }
}

TEST(FuzzTest, SchnorrSignatureParser) {
  auto g = G();
  SecureRng srng = SecureRng::FromLabel(70);
  SchnorrKeyPair kp = SchnorrKeyPair::Generate(*g, srng);
  Bytes msg = BytesOf("m");
  SchnorrSignature sig = SchnorrSign(*g, kp.priv, msg, srng);
  Bytes wire = sig.Serialize(*g);
  Rng rng(70);
  size_t accepted_and_verified = 0;
  Hammer(wire, rng, [&](const Bytes& mutated) {
    auto parsed = SchnorrSignature::Deserialize(*g, mutated);
    if (parsed.has_value() && mutated != wire) {
      // Structurally valid mutants may parse, but must not verify.
      accepted_and_verified += SchnorrVerify(*g, kp.pub, msg, *parsed) ? 1 : 0;
    }
  });
  EXPECT_EQ(accepted_and_verified, 0u);
}

TEST(FuzzTest, DleqProofParser) {
  auto g = G();
  SecureRng srng = SecureRng::FromLabel(71);
  BigInt x = g->RandomScalar(srng);
  BigInt base2 = g->GExp(g->RandomScalar(srng));
  DleqProof proof = DleqProve(*g, g->g(), g->GExp(x), base2, g->Exp(base2, x), x, srng);
  Bytes wire = proof.Serialize(*g);
  Rng rng(71);
  Hammer(wire, rng, [&](const Bytes& mutated) {
    auto parsed = DleqProof::Deserialize(*g, mutated);
    if (parsed.has_value() && mutated != wire) {
      EXPECT_FALSE(DleqVerify(*g, g->g(), g->GExp(x), base2, g->Exp(base2, x), *parsed));
    }
  });
}

TEST(FuzzTest, SignedAccusationParser) {
  auto g = G();
  SecureRng srng = SecureRng::FromLabel(72);
  SchnorrKeyPair pseudonym = SchnorrKeyPair::Generate(*g, srng);
  SignedAccusation acc;
  acc.accusation.round = 5;
  acc.accusation.slot = 1;
  acc.accusation.bit_index = 99;
  acc.signature = SchnorrSign(*g, pseudonym.priv, acc.accusation.Canonical(), srng);
  Bytes wire = acc.Serialize(*g);
  Rng rng(72);
  Hammer(wire, rng, [&](const Bytes& mutated) {
    auto parsed = SignedAccusation::Deserialize(*g, mutated);
    if (parsed.has_value() && mutated != wire) {
      EXPECT_FALSE(SchnorrVerify(*g, pseudonym.pub, parsed->accusation.Canonical(),
                                 parsed->signature));
    }
  });
}

TEST(FuzzTest, TunnelFrameParser) {
  std::vector<TunnelFrame> frames;
  frames.push_back({TunnelFrame::Type::kOpen, 1, "host:80", {}});
  frames.push_back({TunnelFrame::Type::kData, 1, "", Bytes(50, 0x41)});
  Bytes wire = EncodeFrames(frames);
  Rng rng(73);
  Hammer(wire, rng, [&](const Bytes& mutated) {
    auto parsed = DecodeFrames(mutated);  // must not crash or hang
    (void)parsed;
  });
}

TEST(FuzzTest, WireMessageParser) {
  // Every WireMessage type hammered with mutations/truncations/garbage: the
  // parser must never crash, hang, or allocate absurdly — and any mutant
  // that does parse must re-serialize canonically.
  wire::TraceEvidence trace_seed;
  trace_seed.session = 7;
  trace_seed.server_id = 1;
  trace_seed.round = 6;
  trace_seed.bit_index = 1234;
  trace_seed.present = true;
  trace_seed.own_share = {0, 3, 9};
  trace_seed.client_ct_bits = Bytes{0x05};
  trace_seed.server_ct_bit = 1;
  trace_seed.pad_bits = Bytes{0xa5, 0x01};
  std::vector<WireMessage> seeds = {
      wire::ClientSubmit{7, 3, Bytes(64, 0x21)},
      wire::Inventory{7, 1, {0, 2, 5, 11}},
      wire::Commit{7, 0, Bytes(32, 0x9c)},
      wire::ServerCiphertext{7, 2, Bytes(64, 0x6d)},
      wire::SignatureShare{7, 1, Bytes(72, 0x3f)},
      wire::Output{7, Bytes(64, 0x01), {Bytes(72, 2), Bytes(72, 3)}},
      wire::BlameStart{7},
      wire::AccusationSubmit{7, 5, Bytes(160, 0x44), Bytes(72, 0x2d)},
      wire::BlameRoster{7, 2, {{1, Bytes(40, 0x10), Bytes(72, 5)}, {4, Bytes(40, 0x11), Bytes(72, 6)}}},
      wire::BlameMix{7, 0, Bytes(96, 0x2e)},
      trace_seed,
      wire::BlameChallenge{7, 6, 1234, 9, Bytes{0x03}},
      wire::BlameRebuttal{7, 9, Bytes(80, 0x7b), Bytes(72, 0x1c)},
      wire::BlameVerdict{7, 6, wire::BlameVerdict::kClientExpelled, 9},
      // PR 6 reliability/recovery frames.
      wire::Ack{42, 3, 0, Bytes{0x05}},
      wire::Reliable{42, 3, 0, SerializeWire(wire::ClientSubmit{7, 3, Bytes(64, 0x21)})},
      wire::CatchUpRequest{6, 3},
      wire::RoundSummary{7, false, Bytes(64, 0x01), {Bytes(72, 2), Bytes(72, 3)}, 9},
      wire::RoundSummary{8, true, {}, {}, 9},
      wire::VerdictShare{7, 1, 6, wire::BlameVerdict::kClientExpelled, 9, Bytes(72, 0x31)},
      wire::RoundAbort{7, 1},
      // PR 8 abort-agreement / server-catch-up frames.
      wire::AbortPrepare{7, 2, 1, Bytes(72, 0x5e)},
      wire::AbortCommit{7, 2, {0, 2}, {Bytes(72, 0x5f), Bytes(72, 0x60)}},
      wire::ServerCatchUpRequest{6, 1},
      wire::ServerCatchUpBatch{
          1,
          7,
          8,
          {{true, {}, {0, 1}, {Bytes(72, 2), Bytes(72, 3)}},
           {false, Bytes(64, 0x01), {}, {Bytes(72, 4), Bytes(72, 5)}}}},
      // The scheduling shuffle: a signed width-1 row, its roster and mix
      // step under session 0, and the key order it yields.
      wire::AccusationSubmit{wire::kScheduleSession, 5, Bytes(68, 0x44), Bytes(72, 0x2d)},
      wire::BlameRoster{wire::kScheduleSession, 1, {{2, Bytes(68, 0x12), Bytes(72, 7)}}},
      wire::BlameMix{wire::kScheduleSession, 1, Bytes(96, 0x2f)},
      wire::SlotKeys{{Bytes(32, 5), Bytes(32, 6), Bytes(32, 7)}},
  };
  Rng rng(75);
  for (const WireMessage& seed : seeds) {
    Bytes wire_bytes = SerializeWire(seed);
    Hammer(wire_bytes, rng, [&](const Bytes& mutated) {
      auto parsed = ParseWire(mutated);
      if (parsed.has_value()) {
        EXPECT_EQ(SerializeWire(*parsed), mutated)
            << "accepted a non-canonical encoding of " << WireTypeName(*parsed);
      }
    });
  }
}

TEST(FuzzTest, WireHostileCountsDoNotAllocate) {
  // The PR-1 DecodeFrames bad_alloc class: a length/count field promising
  // far more elements than the message carries. Must reject cheaply.
  for (uint32_t hostile : {0x10000u, 0x7fffffffu, 0xffffffffu}) {
    Writer inv;
    inv.U8(2);  // Inventory
    inv.U64(1);
    inv.U32(0);
    inv.U32(hostile);
    EXPECT_FALSE(ParseWire(inv.data()).has_value());

    Writer out;
    out.U8(6);  // Output
    out.U64(1);
    out.Blob(Bytes(8, 0xee));
    out.U32(hostile);
    EXPECT_FALSE(ParseWire(out.data()).has_value());

    Writer sub;
    sub.U8(1);  // ClientSubmit with a blob length promising 4 GiB
    sub.U64(1);
    sub.U32(0);
    sub.U32(hostile);  // raw length prefix, no body
    EXPECT_FALSE(ParseWire(sub.data()).has_value());

    Writer roster;
    roster.U8(10);  // BlameRoster claiming 4 billion entries
    roster.U64(1);
    roster.U32(0);
    roster.U32(hostile);
    EXPECT_FALSE(ParseWire(roster.data()).has_value());

    Writer trace;
    trace.U8(12);  // TraceEvidence claiming a 4-billion-client own share
    trace.U64(1);
    trace.U32(0);
    trace.U64(1);
    trace.U64(0);
    trace.Bool(true);
    trace.U32(hostile);
    EXPECT_FALSE(ParseWire(trace.data()).has_value());

    Writer summary;
    summary.U8(18);  // RoundSummary claiming 4 billion signatures
    summary.U64(1);
    summary.Bool(false);
    summary.Blob(Bytes(8, 0xee));
    summary.U32(hostile);
    EXPECT_FALSE(ParseWire(summary.data()).has_value());

    Writer rel;
    rel.U8(16);  // Reliable with an inner length promising 4 GiB
    rel.U64(1);
    rel.U32(0);
    rel.U32(0);
    rel.U32(hostile);
    EXPECT_FALSE(ParseWire(rel.data()).has_value());

    Writer prep;
    prep.U8(21);  // AbortPrepare whose signature blob promises 4 GiB
    prep.U64(1);
    prep.U64(0);
    prep.U32(0);
    prep.U32(hostile);
    EXPECT_FALSE(ParseWire(prep.data()).has_value());

    Writer cert;
    cert.U8(22);  // AbortCommit claiming 4 billion signer entries
    cert.U64(1);
    cert.U64(0);
    cert.U32(hostile);
    EXPECT_FALSE(ParseWire(cert.data()).has_value());

    Writer keys;
    keys.U8(25);  // SlotKeys claiming 4 billion keys
    keys.U32(hostile);
    EXPECT_FALSE(ParseWire(keys.data()).has_value());

    Writer batch;
    batch.U8(24);  // ServerCatchUpBatch claiming 4 billion summaries
    batch.U32(0);
    batch.U64(1);
    batch.U64(1);
    batch.U32(hostile);
    EXPECT_FALSE(ParseWire(batch.data()).has_value());

    Writer entry_ids;
    entry_ids.U8(24);  // one batch entry claiming 4 billion cert signers
    entry_ids.U32(0);
    entry_ids.U64(1);
    entry_ids.U64(1);
    entry_ids.U32(1);
    entry_ids.Bool(true);
    entry_ids.Blob(Bytes{});
    entry_ids.U32(hostile);
    EXPECT_FALSE(ParseWire(entry_ids.data()).has_value());
  }

  // Reliability-specific rejections: an oversized sack window, a sack with a
  // trailing zero byte (non-canonical), and nested reliability wrappers (a
  // Reliable/Ack inner frame would let one wrapped frame smuggle another
  // sequence number past the dedup window).
  {
    Writer ack;
    ack.U8(15);
    ack.U64(1);
    ack.U32(0);
    ack.U32(0);
    ack.Blob(Bytes(2048, 0xff));  // > the 1024-byte sack cap
    EXPECT_FALSE(ParseWire(ack.data()).has_value());

    Writer ack2;
    ack2.U8(15);
    ack2.U64(1);
    ack2.U32(0);
    ack2.U32(0);
    ack2.Blob(Bytes{0x01, 0x00});  // trailing zero: non-canonical
    EXPECT_FALSE(ParseWire(ack2.data()).has_value());

    for (uint8_t inner_tag : {uint8_t{15}, uint8_t{16}}) {
      Writer nested;
      nested.U8(16);
      nested.U64(1);
      nested.U32(0);
      nested.U32(0);
      nested.Blob(Bytes(16, inner_tag));
      EXPECT_FALSE(ParseWire(nested.data()).has_value());
    }

    Writer empty_inner;
    empty_inner.U8(16);
    empty_inner.U64(1);
    empty_inner.U32(0);
    empty_inner.U32(0);
    empty_inner.Blob(Bytes{});
    EXPECT_FALSE(ParseWire(empty_inner.data()).has_value());
  }
}

TEST(FuzzTest, AbortCertificateParseInvariants) {
  // The AbortCommit certificate is the one frame that can retire a round on
  // its own authority, so the decoder enforces every structural invariant
  // before a single signature is checked: no truncation, no duplicate or
  // reordered signers (quorum padding), no empty quorum, no unsigned member.
  const wire::AbortCommit good{7, 2, {0, 2}, {Bytes(72, 0x5f), Bytes(72, 0x60)}};
  const Bytes wire_bytes = SerializeWire(WireMessage(good));
  ASSERT_TRUE(ParseWire(wire_bytes).has_value());
  // Every strict prefix is a truncated certificate and must be rejected.
  for (size_t cut = 0; cut < wire_bytes.size(); ++cut) {
    Bytes prefix(wire_bytes.begin(), wire_bytes.begin() + cut);
    EXPECT_FALSE(ParseWire(prefix).has_value()) << "truncated cert parsed at " << cut;
  }

  auto raw_cert = [](std::vector<uint32_t> ids, std::vector<Bytes> sigs) {
    Writer w;
    w.U8(22);  // AbortCommit
    w.U64(7);
    w.U64(2);
    w.U32(static_cast<uint32_t>(ids.size()));
    for (uint32_t id : ids) {
      w.U32(id);
    }
    for (const Bytes& s : sigs) {
      w.Blob(s);
    }
    return w.data();
  };
  // Duplicate signer: the same prepare twice can never pad a quorum.
  EXPECT_FALSE(ParseWire(raw_cert({1, 1}, {Bytes(72, 1), Bytes(72, 2)})).has_value());
  // Descending signer order: only one canonical encoding per certificate.
  EXPECT_FALSE(ParseWire(raw_cert({2, 1}, {Bytes(72, 1), Bytes(72, 2)})).has_value());
  // Empty quorum and unsigned member.
  EXPECT_FALSE(ParseWire(raw_cert({}, {})).has_value());
  EXPECT_FALSE(ParseWire(raw_cert({0, 2}, {Bytes(72, 1), Bytes{}})).has_value());

  // Catch-up batch entries reuse the same discipline: an aborted entry is a
  // certificate replay (no cleartext, ids parallel to signatures), a
  // completed entry is a certified output (no signer list, all-fleet sigs).
  auto raw_entry = [](bool aborted, const Bytes& cleartext, std::vector<uint32_t> ids,
                      std::vector<Bytes> sigs) {
    Writer w;
    w.U8(24);  // ServerCatchUpBatch with a single entry
    w.U32(0);
    w.U64(5);
    w.U64(5);
    w.U32(1);
    w.Bool(aborted);
    w.Blob(cleartext);
    w.U32(static_cast<uint32_t>(ids.size()));
    for (uint32_t id : ids) {
      w.U32(id);
    }
    w.U32(static_cast<uint32_t>(sigs.size()));
    for (const Bytes& s : sigs) {
      w.Blob(s);
    }
    return w.data();
  };
  EXPECT_TRUE(ParseWire(raw_entry(true, {}, {0, 1}, {Bytes(72, 1), Bytes(72, 2)})).has_value());
  EXPECT_TRUE(ParseWire(raw_entry(false, Bytes(16, 0xaa), {}, {Bytes(72, 1)})).has_value());
  // Aborted entry smuggling a cleartext, or with ids/sigs out of parallel.
  EXPECT_FALSE(
      ParseWire(raw_entry(true, Bytes(4, 0xaa), {0, 1}, {Bytes(72, 1), Bytes(72, 2)}))
          .has_value());
  EXPECT_FALSE(ParseWire(raw_entry(true, {}, {0, 1}, {Bytes(72, 1)})).has_value());
  EXPECT_FALSE(ParseWire(raw_entry(true, {}, {}, {})).has_value());
  // Completed entry carrying a signer list, or missing its signatures.
  EXPECT_FALSE(ParseWire(raw_entry(false, Bytes(16, 0xaa), {0}, {Bytes(72, 1)})).has_value());
  EXPECT_FALSE(ParseWire(raw_entry(false, Bytes(16, 0xaa), {}, {})).has_value());
}

TEST(FuzzTest, AbortPrepareSignatureBindsRoundEpochAndSigner) {
  // A forged or replayed prepare must never verify: the signature binds the
  // round, the abort epoch (how many aborts preceded the vote), and the
  // signer's index, so votes from divergent histories can never combine
  // into one certificate.
  SecureRng srng = SecureRng::FromLabel(79);
  std::vector<BigInt> sp, cp;
  GroupDef def = MakeTestGroup(G(), 3, 2, srng, &sp, &cp);
  DissentServer s0(def, 0, sp[0], SecureRng::FromLabel(80), 1);
  DissentServer s1(def, 1, sp[1], SecureRng::FromLabel(81), 1);
  Bytes sig = s0.SignAbortPrepare(7, 2);
  EXPECT_TRUE(s1.VerifyAbortPrepare(7, 2, 0, sig));
  EXPECT_FALSE(s1.VerifyAbortPrepare(8, 2, 0, sig)) << "bound to a different round";
  EXPECT_FALSE(s1.VerifyAbortPrepare(7, 3, 0, sig)) << "bound to a different epoch";
  EXPECT_FALSE(s1.VerifyAbortPrepare(7, 2, 1, sig)) << "attributed to another server";
  EXPECT_FALSE(s1.VerifyAbortPrepare(7, 2, 9, sig)) << "signer index out of range";
  Bytes tampered = sig;
  tampered[4] ^= 1;
  EXPECT_FALSE(s1.VerifyAbortPrepare(7, 2, 0, tampered));
}

TEST(FuzzTest, MixStepParser) {
  // The blame cascade's MixStep codec against mutations/truncations/garbage:
  // must reject cleanly, and any mutant that parses must fail VerifyMixStep
  // (the proofs bind every component).
  SecureRng srng = SecureRng::FromLabel(76);
  std::vector<BigInt> sp, cp;
  GroupDef def = MakeTestGroup(G(), 2, 3, srng, &sp, &cp);
  CiphertextMatrix submissions;
  for (int i = 0; i < 3; ++i) {
    SchnorrKeyPair kp = SchnorrKeyPair::Generate(*def.group, srng);
    submissions.push_back(EncryptPseudonymKey(def, kp.pub, srng));
  }
  MixStep step = KeyShuffleMixStep(def, 0, sp[0], submissions, srng);
  Bytes wire_bytes = SerializeMixStep(*def.group, step);
  auto back = ParseMixStep(*def.group, wire_bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(VerifyMixStep(def, 0, submissions, *back));
  EXPECT_EQ(SerializeMixStep(*def.group, *back), wire_bytes) << "codec not canonical";
  Rng rng(76);
  Hammer(wire_bytes, rng, [&](const Bytes& mutated) {
    auto parsed = ParseMixStep(*def.group, mutated);
    if (parsed.has_value() && mutated != wire_bytes) {
      EXPECT_FALSE(VerifyMixStep(def, 0, submissions, *parsed))
          << "tampered mix step verified";
    }
  });
}

TEST(FuzzTest, RebuttalParser) {
  SecureRng srng = SecureRng::FromLabel(77);
  std::vector<BigInt> sp, cp;
  GroupDef def = MakeTestGroup(G(), 2, 2, srng, &sp, &cp);
  DissentClient client(def, 0, cp[0], SecureRng::FromLabel(78));
  Rebuttal rebuttal = client.BuildRebuttal(1);
  Bytes wire_bytes = rebuttal.Serialize(*def.group);
  auto back = Rebuttal::Deserialize(*def.group, wire_bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->server_index, 1u);
  Rng rng(77);
  Hammer(wire_bytes, rng, [&](const Bytes& mutated) {
    auto parsed = Rebuttal::Deserialize(*def.group, mutated);
    if (parsed.has_value() && mutated != wire_bytes) {
      // Structurally valid mutants may parse, but the DLEQ must not verify
      // against the roster statement.
      EXPECT_FALSE(DleqVerify(*def.group, def.group->g(),
                              def.client_pubs[parsed->client_index % def.num_clients()],
                              def.server_pubs[parsed->server_index % def.num_servers()],
                              parsed->shared_element, parsed->proof));
    }
  });
}

TEST(FuzzTest, SlotRegionDecoder) {
  SecureRng srng = SecureRng::FromLabel(74);
  SlotPayload p;
  p.payload = BytesOf("slot content");
  auto region = EncodeSlot(p, 128, srng);
  ASSERT_TRUE(region.has_value());
  Rng rng(74);
  Hammer(*region, rng, [&](const Bytes& mutated) {
    auto parsed = DecodeSlot(mutated);  // must not crash
    (void)parsed;
  });
}

// --- real-socket transport codecs (src/net) ---
// The frame decoder and the net-wire codec sit directly on hostile TCP
// bytes, before any authentication; they get the same hammering as the
// protocol parsers plus stream-split cases no datagram parser faces.

TEST(FuzzTest, FrameDecoderTruncatedPrefixesAndSplits) {
  const Bytes payload = BytesOf("frame-payload-0123456789");
  const Bytes framed = net::EncodeFrame(payload);
  // Every split point of header and body: any prefix yields no frame (and
  // reports the partial bytes); completing the stream yields exactly it.
  for (size_t cut = 0; cut < framed.size(); ++cut) {
    net::FrameDecoder dec;
    ASSERT_TRUE(dec.Feed(framed.data(), cut));
    EXPECT_FALSE(dec.Next().has_value()) << "cut=" << cut;
    EXPECT_EQ(dec.buffered(), cut);  // mid-frame close would report this
    ASSERT_TRUE(dec.Feed(framed.data() + cut, framed.size() - cut));
    auto out = dec.Next();
    ASSERT_TRUE(out.has_value()) << "cut=" << cut;
    EXPECT_EQ(*out, payload);
    EXPECT_FALSE(dec.Next().has_value());
    EXPECT_EQ(dec.buffered(), 0u);
  }
  // Byte-at-a-time delivery of several frames back to back.
  Bytes stream;
  for (int k = 0; k < 5; ++k) {
    net::AppendFrame(Bytes(static_cast<size_t>(k * 7), static_cast<uint8_t>(k)), &stream);
  }
  net::FrameDecoder dec;
  size_t got = 0;
  for (uint8_t b : stream) {
    ASSERT_TRUE(dec.Feed(&b, 1));
    while (auto f = dec.Next()) {
      EXPECT_EQ(f->size(), got * 7);
      EXPECT_TRUE(std::all_of(f->begin(), f->end(),
                              [&](uint8_t c) { return c == got; }));
      ++got;
    }
  }
  EXPECT_EQ(got, 5u);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FuzzTest, FrameDecoderOversizedLengthPoisonsBeforeAllocation) {
  // A hostile length prefix must poison the decoder permanently without
  // allocating the claimed size — 0xffffffff would be a 4 GiB allocation.
  net::FrameDecoder dec(/*max_frame=*/1024);
  Bytes evil = {0xff, 0xff, 0xff, 0xff};
  EXPECT_FALSE(dec.Feed(evil));
  EXPECT_TRUE(dec.error());
  EXPECT_FALSE(dec.Next().has_value());
  // Poisoned for good: even well-formed frames are refused afterwards.
  const Bytes ok = net::EncodeFrame(BytesOf("x"));
  EXPECT_FALSE(dec.Feed(ok));
  EXPECT_FALSE(dec.Next().has_value());
  // Boundary: exactly max_frame passes, max_frame + 1 poisons.
  net::FrameDecoder at_limit(16);
  ASSERT_TRUE(at_limit.Feed(net::EncodeFrame(Bytes(16, 0xaa))));
  EXPECT_TRUE(at_limit.Next().has_value());
  net::FrameDecoder over_limit(16);
  EXPECT_FALSE(over_limit.Feed(net::EncodeFrame(Bytes(17, 0xaa))));
  EXPECT_TRUE(over_limit.error());
}

TEST(FuzzTest, FrameDecoderMidFrameCloseAndGarbage) {
  // A peer dying mid-frame leaves the partial bytes observable (the
  // transport logs them as evidence of an unclean close), never a frame.
  const Bytes framed = net::EncodeFrame(Bytes(100, 0x5a));
  net::FrameDecoder dec;
  ASSERT_TRUE(dec.Feed(framed.data(), framed.size() - 40));
  EXPECT_FALSE(dec.Next().has_value());
  EXPECT_EQ(dec.buffered(), framed.size() - 40);
  // Random garbage streams: the decoder must never crash and must either
  // keep buffering, yield bounded frames, or poison — all safe outcomes.
  Rng rng(0xf7a3e5);
  for (int i = 0; i < 200; ++i) {
    net::FrameDecoder d(4096);
    Bytes junk(rng.Below(600), 0);
    for (auto& b : junk) {
      b = static_cast<uint8_t>(rng.Next());
    }
    size_t fed = 0;
    while (fed < junk.size()) {
      const size_t n = std::min<size_t>(1 + rng.Below(64), junk.size() - fed);
      if (!d.Feed(junk.data() + fed, n)) {
        break;  // poisoned by an oversized prefix: correct rejection
      }
      fed += n;
      while (auto f = d.Next()) {
        EXPECT_LE(f->size(), 4096u);
      }
    }
  }
}

TEST(FuzzTest, NetWireParserHammer) {
  Rng rng(0x9e77a1);
  const Bytes secret = net::SessionSecret(7, BytesOf("group"));
  std::vector<net::NetMessage> msgs;
  msgs.push_back(net::MakeHello(secret, net::Hello::kClientHost, 12, 3, 99));
  msgs.push_back(net::MakeHello(secret, net::Hello::kServer, 2, 1, 7));
  for (const auto& m : msgs) {
    const Bytes wire = net::SerializeNet(m);
    // Round trip sanity first, then the hostile hammer.
    EXPECT_TRUE(net::ParseNet(wire).has_value());
    Hammer(wire, rng, [](const Bytes& mutated) {
      auto parsed = net::ParseNet(mutated);
      (void)parsed;  // must not crash, over-allocate, or accept trailing junk
    });
  }
}

TEST(FuzzTest, HelloMacRejectsEveryBitFlip) {
  const Bytes secret = net::SessionSecret(42, BytesOf("gid"));
  net::Hello hello = net::MakeHello(secret, net::Hello::kServer, 3, 1, 0xabcdef);
  ASSERT_TRUE(net::VerifyHello(secret, hello));
  // Any single-bit corruption of the authenticated fields or the mac
  // itself must fail verification.
  for (int bit = 0; bit < 8; ++bit) {
    net::Hello h = hello;
    h.role ^= static_cast<uint8_t>(1 << bit);
    EXPECT_FALSE(net::VerifyHello(secret, h));
  }
  for (int bit = 0; bit < 32; ++bit) {
    net::Hello h1 = hello, h2 = hello;
    h1.first_id ^= 1u << bit;
    h2.count ^= 1u << bit;
    EXPECT_FALSE(net::VerifyHello(secret, h1));
    EXPECT_FALSE(net::VerifyHello(secret, h2));
  }
  for (size_t i = 0; i < hello.mac.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      net::Hello h = hello;
      h.mac[i] ^= static_cast<uint8_t>(1 << bit);
      EXPECT_FALSE(net::VerifyHello(secret, h));
    }
  }
  // The nonce is authenticated too (replay tagging), and a hello minted
  // under a different session secret never verifies.
  net::Hello h = hello;
  h.nonce ^= 1;
  EXPECT_FALSE(net::VerifyHello(secret, h));
  const Bytes other = net::SessionSecret(43, BytesOf("gid"));
  EXPECT_FALSE(net::VerifyHello(secret, net::MakeHello(other, net::Hello::kServer, 3, 1,
                                                       0xabcdef)));
}

}  // namespace
}  // namespace dissent
