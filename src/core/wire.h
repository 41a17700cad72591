// Typed wire API for the Dissent round protocol (§3.5, Algorithm 2).
//
// `WireMessage` is the canonical tagged variant of every message the
// deployment shape exchanges: clients speak ClientSubmit to one upstream
// server; servers gossip Inventory -> Commit -> ServerCiphertext ->
// SignatureShare among themselves and distribute Output down to their
// attached clients; the blame sub-phase (§3.9) adds the full accusation
// flow — BlameStart, AccusationSubmit (the fixed-width blame-shuffle
// input), BlameRoster, BlameMix (one verified shuffle layer), TraceEvidence
// (pad-bit disclosure), BlameChallenge, BlameRebuttal, and BlameVerdict
// (the outcome every client receives). The §3.10 scheduling shuffle rides
// the same AccusationSubmit/BlameRoster/BlameMix frames under session
// kScheduleSession, and SlotKeys carries its result to the clients.
//
// Serialize/Parse are canonical (exactly one valid encoding per value) and
// defensive: Parse rejects truncation, trailing bytes, unknown tags, and
// hostile length/count fields *before* allocating, so a malicious peer can
// neither crash a node nor smuggle bytes under a valid signature. All
// cryptographic payloads (commitments, Schnorr signatures) travel as opaque
// byte strings; this layer knows nothing about groups, clocks, or sockets —
// it is shared verbatim by the in-process transport (coordinator.h), the
// simulated network transport (net_protocol.h), and any future real-socket
// transport.
#ifndef DISSENT_CORE_WIRE_H_
#define DISSENT_CORE_WIRE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/serialize.h"

namespace dissent {
namespace wire {

// --- round protocol (Algorithm 2) ---

// Client i's DC-net ciphertext for `round`, sent to its upstream server.
struct ClientSubmit {
  uint64_t round = 0;
  uint32_t client_id = 0;
  Bytes ciphertext;
};

// Server -> all other servers: the clients heard from directly this round
// (Algorithm 2 step 2). `clients` must be strictly increasing — inventories
// are sorted sets, and enforcing that here keeps the encoding canonical.
struct Inventory {
  uint64_t round = 0;
  uint32_t server_id = 0;
  std::vector<uint32_t> clients;
};

// Server -> all other servers: HASH(s_j) commitment to its ciphertext
// (Algorithm 2 step 3).
struct Commit {
  uint64_t round = 0;
  uint32_t server_id = 0;
  Bytes commitment;
};

// Server -> all other servers: the ciphertext s_j itself (step 4), revealed
// only after every commitment is in.
struct ServerCiphertext {
  uint64_t round = 0;
  uint32_t server_id = 0;
  Bytes ciphertext;
};

// Server -> all other servers: Schnorr signature share over the combined
// cleartext (step 5). Serialized signature; opaque at this layer.
struct SignatureShare {
  uint64_t round = 0;
  uint32_t server_id = 0;
  Bytes signature;
};

// Server -> its attached clients: the certified round output — cleartext
// plus one signature per server in roster order (step 6).
struct Output {
  uint64_t round = 0;
  Bytes cleartext;
  std::vector<Bytes> signatures;
};

// --- verified shuffles: scheduling (§3.10) and blame (§3.9) ---
//
// Every shuffle is one protocol instance identified by `session`. Session
// kScheduleSession is the key shuffle that assigns slots before round 1:
// each client submits its encrypted pseudonym key (width 1) as an
// AccusationSubmit, the servers gossip BlameRoster and BlameMix frames
// exactly as a blame instance does, and each server sends the resulting
// key order to its attached clients as SlotKeys. Every other session is a
// blame instance, identified by the round number whose certified output
// carried the nonzero shuffle-request field. Blame message flow, driven
// entirely by the engines:
//
//   server -> attached clients   BlameStart          open the blame shuffle
//   client -> upstream server    AccusationSubmit    fixed-width blame row
//   server -> servers            BlameRoster         collected rows, gossiped
//   server -> servers            BlameMix            one verified mix step
//   server -> servers            TraceEvidence       §3.9 pad-bit disclosure
//   server -> accused client     BlameChallenge      published pad bits
//   client -> upstream server    BlameRebuttal       DLEQ reveal (or concede)
//   server -> servers            BlameRebuttal       forwarded verbatim
//   server -> attached clients   BlameVerdict        outcome + expulsion

// Session id of the scheduling shuffle; blame sessions are round numbers,
// so they start at 1.
constexpr uint64_t kScheduleSession = 0;

// Server -> its attached clients (or one client whose scheduling row
// arrived after the session went live): the shuffled pseudonym keys as
// fixed-width group elements in slot order. A client's slot is the position
// of its own pseudonym key.
struct SlotKeys {
  std::vector<Bytes> keys;
};

// Server -> its attached clients: the blame shuffle for `session` is open;
// every online client answers with exactly one AccusationSubmit.
struct BlameStart {
  uint64_t session = 0;
};

// A client's fixed-width submission to the blame shuffle. Every online
// client submits one (victims embed a real SignedAccusation, everyone else
// an all-zero filler of the same width), so accusers are indistinguishable.
// `blame_ciphertext` is a serialized ElGamal row (key_shuffle.h codec) of
// exactly MessageBlockWidth(kAccusationBytes) elements, signed under the
// client's long-term key over (session, client_id, row) — so when rosters
// are gossiped, no server can forge or substitute a row for a client that
// is not attached to it (e.g. to shadow a victim's accusation out of the
// shuffle).
struct AccusationSubmit {
  uint64_t session = 0;
  uint32_t client_id = 0;
  Bytes blame_ciphertext;
  Bytes signature;
};

// One collected blame row, exactly as the client signed it.
struct BlameRosterEntry {
  uint32_t client_id = 0;
  Bytes row;
  Bytes signature;
};

// Server -> all other servers: the blame rows this server collected from its
// attached clients. `entries` must be strictly increasing by client id —
// rosters are sorted sets, which keeps the encoding canonical and makes the
// merged shuffle input matrix identical on every server (entries whose
// client signature does not verify are dropped identically everywhere).
struct BlameRoster {
  uint64_t session = 0;
  uint32_t server_id = 0;
  std::vector<BlameRosterEntry> entries;
};

// Server -> all other servers: this server's verified mix contribution, in
// cascade order. `step` is a serialized MixStep (key_shuffle.h codec).
struct BlameMix {
  uint64_t session = 0;
  uint32_t server_id = 0;
  Bytes step;
};

// Server -> all other servers: the §3.9 trace disclosure for the accused
// (round, bit): which clients this server owned after trimming, their
// ciphertext bits, its own published ciphertext bit, and the pad bits
// s_ij[k] for every client in the composite list (bitmap in composite-list
// order). `present` false means the server's evidence for that round has
// expired (SetEvidenceRounds) — the trace ends inconclusive.
struct TraceEvidence {
  uint64_t session = 0;
  uint32_t server_id = 0;
  uint64_t round = 0;
  uint64_t bit_index = 0;
  bool present = false;
  std::vector<uint32_t> own_share;  // strictly increasing client ids
  Bytes client_ct_bits;             // bitmap, one bit per own_share entry
  uint8_t server_ct_bit = 0;        // 0/1
  Bytes pad_bits;                   // bitmap over the composite list
};

// Upstream server -> the accused client: the pad bits the servers published
// for you at (round, bit_index); rebut by exposing the liar, or concede.
struct BlameChallenge {
  uint64_t session = 0;
  uint64_t round = 0;
  uint64_t bit_index = 0;
  uint32_t client_id = 0;
  Bytes pad_bits;  // bitmap, one bit per server
};

// Accused client -> upstream server (then gossiped among servers verbatim):
// a serialized Rebuttal (accusation_types.h), or empty to concede. Signed
// under the client's long-term key over (session, client_id, rebuttal), so
// a malicious server cannot forge a concession that convicts an honest
// client whose genuine rebuttal would have exposed it.
struct BlameRebuttal {
  uint64_t session = 0;
  uint32_t client_id = 0;
  Bytes rebuttal;
  Bytes signature;
};

// Broadcast outcome of accusation tracing: who (if anyone) was exposed.
struct BlameVerdict {
  enum Kind : uint8_t { kInconclusive = 0, kClientExpelled = 1, kServerExposed = 2 };
  uint64_t session = 0;  // blame instance this verdict closes
  uint64_t round = 0;    // the disrupted round that was traced
  uint8_t kind = kInconclusive;
  uint32_t culprit = 0;  // client index or server index, per `kind`
};

// --- reliability & recovery (hostile-network layer) ---
//
// The frames below exist so the engines can run over transports that lose,
// duplicate, reorder, or corrupt frames and whose nodes crash mid-session.
// They carry no DC-net semantics: Ack/Reliable implement per-directed-link
// sequencing, CatchUpRequest/RoundSummary resynchronize a client that
// missed an Output broadcast, VerdictShare closes the blame-verdict
// agreement race, and RoundAbort votes a wedged round dead.

// Cumulative acknowledgement for a Reliable-wrapped frame. `seq` is the
// highest sequence number below which every frame from the acked peer has
// been received; `sack` bitmap (bit k => seq + 1 + k received) lets the
// sender clear out-of-order arrivals without waiting for the cumulative
// frontier. `from_id`/`to_id` are sender/addressee indices (client or
// server per the link direction) — transport routing aids for nodes that
// multiplex many clients; a real per-connection transport would carry the
// same facts in the connection itself, and the engines never trust them
// beyond what the transport has already authenticated.
struct Ack {
  uint64_t seq = 0;
  uint32_t from_id = 0;
  uint32_t to_id = 0;
  Bytes sack;  // canonical bitmap, may be empty
};

// Reliability envelope: `inner` is one serialized WireMessage (never an Ack
// or another Reliable), `seq` its per-directed-link sequence number. The
// receiver acks every arrival, delivers each seq exactly once, and the
// sender retransmits unacked frames with capped exponential backoff.
// `from_id`/`to_id` as in Ack; any identity claim inside `inner` is still
// verified by the engine against the authenticated sender.
struct Reliable {
  uint64_t seq = 0;
  uint32_t from_id = 0;
  uint32_t to_id = 0;
  Bytes inner;
};

// Client -> upstream server: "I last processed round `have_round`; send me
// everything newer you still remember." Sent on a resync timer when an
// Output broadcast went missing.
struct CatchUpRequest {
  uint64_t have_round = 0;
  uint32_t client_id = 0;
};

// Server -> one lagging client: the certified outcome of a single round the
// client missed — either the full signed output (signatures in roster
// order, verifiable exactly like Output) or an abort marker. `final_round`
// tells the client how far the server has certified so it can tell when it
// has caught up.
struct RoundSummary {
  uint64_t round = 0;
  bool aborted = false;
  Bytes cleartext;               // empty when aborted
  std::vector<Bytes> signatures; // empty when aborted
  uint64_t final_round = 0;      // newest round the server has certified
};

// Server -> all other servers: this server's signed share of a blame
// verdict. No engine acts on an expulsion until it holds a verified share
// from *every* server over the identical (session, round, kind, culprit)
// context — a unilateral or equivocated verdict converts to kInconclusive
// instead of an expulsion.
struct VerdictShare {
  uint64_t session = 0;
  uint32_t server_id = 0;
  uint64_t round = 0;
  uint8_t kind = 0;      // wire::BlameVerdict::Kind
  uint32_t culprit = 0;
  Bytes signature;       // Schnorr over the canonical verdict context
};

// Server -> all other servers: vote to abort `round` (its window has been
// open past the abort deadline with a peer server silent). A round aborts
// only when every *reachable* server has voted, and an aborted round
// advances the slot schedule with an all-zero cleartext on every node.
// Legacy one-shot vote: retained (and byte-identical) when the two-phase
// abort agreement below is disabled.
struct RoundAbort {
  uint64_t round = 0;
  uint32_t server_id = 0;
};

// --- epoch-committed abort agreement & server catch-up ---
//
// The two-phase replacement for RoundAbort voting. `epoch` is the number of
// aborts the voter has already applied, which binds every vote to one abort
// history: prepares from servers whose histories diverge can never be
// combined into a certificate. Prepares are signed, commits are
// certificates carrying every collected prepare signature, and both are
// idempotently re-deliverable — a healing partition converges by replaying
// certificates (and, for deeper lag, ServerCatchUpBatch) instead of
// splitting the fleet's decision.

// Server -> all other servers: signed promise to abort `round` at abort
// epoch `epoch` unless a full output certificate resolves it first. Signed
// over the canonical (round, epoch, server_id) context; re-broadcast on
// every abort-deadline tick while the round stays unresolved.
struct AbortPrepare {
  uint64_t round = 0;
  uint64_t epoch = 0;
  uint32_t server_id = 0;
  Bytes signature;
};

// Server -> all other servers: the abort certificate for `round` at
// `epoch` — one verified AbortPrepare signature per voting server
// (`server_ids` strictly increasing, parallel to `signatures`, at least
// M-1 of M). Self-certifying: any server can apply it at its finish
// frontier without having voted itself, and re-delivering it is harmless.
struct AbortCommit {
  uint64_t round = 0;
  uint64_t epoch = 0;
  std::vector<uint32_t> server_ids;
  std::vector<Bytes> signatures;
};

// Server -> sibling servers: "my finish frontier is `have_round`; replay
// the schedule evolution after it." Sent by a server restored from a stale
// snapshot (and retried on a timer) until its layout frontier matches the
// fleet.
struct ServerCatchUpRequest {
  uint64_t have_round = 0;
  uint32_t server_id = 0;
};

// One replayed round in a ServerCatchUpBatch: either a completed round
// (cleartext + all M output signatures in roster order, `cert_ids` empty)
// or an aborted one (empty cleartext, the abort certificate's prepare
// signatures with `cert_ids` naming the signers, strictly increasing).
struct ServerCatchUpEntry {
  bool aborted = false;
  Bytes cleartext;                 // empty when aborted
  std::vector<uint32_t> cert_ids;  // empty when completed
  std::vector<Bytes> signatures;
};

// Sibling server -> a lagging server: the signed per-round schedule
// evolution for consecutive rounds first_round..first_round+entries-1.
// Every entry is verifiable against long-term server keys, so a lagging
// server advances its layout frontier on cryptographic evidence, never on a
// sibling's say-so. `final_round` advertises the sender's frontier so the
// receiver knows when it has rejoined.
struct ServerCatchUpBatch {
  uint32_t server_id = 0;
  uint64_t first_round = 0;
  uint64_t final_round = 0;
  std::vector<ServerCatchUpEntry> entries;
};

}  // namespace wire

using WireMessage =
    std::variant<wire::ClientSubmit, wire::Inventory, wire::Commit, wire::ServerCiphertext,
                 wire::SignatureShare, wire::Output, wire::BlameStart, wire::AccusationSubmit,
                 wire::BlameRoster, wire::BlameMix, wire::TraceEvidence, wire::BlameChallenge,
                 wire::BlameRebuttal, wire::BlameVerdict, wire::Ack, wire::Reliable,
                 wire::CatchUpRequest, wire::RoundSummary, wire::VerdictShare, wire::RoundAbort,
                 wire::AbortPrepare, wire::AbortCommit, wire::ServerCatchUpRequest,
                 wire::ServerCatchUpBatch, wire::SlotKeys>;

// Canonical encoding: [u8 tag][fixed fields][length-prefixed byte strings].
Bytes SerializeWire(const WireMessage& msg);
// The same bytes, appended to `w` (so a caller can put a header in front
// without copying the body).
void SerializeWireTo(const WireMessage& msg, Writer& w);

// Strict parse: returns nullopt on truncation, trailing bytes, unknown tag,
// non-canonical field values, or count fields larger than the remaining
// input could possibly hold (the hostile-count guard).
std::optional<WireMessage> ParseWire(const Bytes& data);

// Ref-counted variants for broadcast fan-out: one serialized frame (or one
// parsed message) is shared by every destination instead of copied/parsed
// per destination. ParseWireShared returns nullptr on rejection.
std::shared_ptr<const Bytes> SerializeWireShared(const WireMessage& msg);
std::shared_ptr<const WireMessage> ParseWireShared(const Bytes& data);

// Human-readable tag name, for logs and test diagnostics.
const char* WireTypeName(const WireMessage& msg);

// Canonical bitmap rule shared by the codec and the engines: a bitmap over
// `bits` entries must be exactly ceil(bits/8) bytes with no stray bits set
// beyond the last entry, so every value has one encoding.
bool BitmapCanonical(const Bytes& bitmap, size_t bits);

// True for the §3.9 blame sub-phase messages (BlameStart..BlameVerdict plus
// the VerdictShare agreement frame) — index compares, cheap enough for
// per-delivery hot paths. The variant layout this relies on is pinned by
// static_asserts in wire.cc.
inline bool IsBlamePhaseMessage(const WireMessage& msg) {
  return (msg.index() >= 6 && msg.index() <= 13) ||
         std::holds_alternative<wire::VerdictShare>(msg);
}

}  // namespace dissent

#endif  // DISSENT_CORE_WIRE_H_
