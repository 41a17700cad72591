// Transport-control messages for the real-socket transport.
//
// These frames never reach the protocol engines: they carry connection
// identity (the hello handshake), the only thing the transport itself has
// to say — the key shuffle is engine traffic (engine.h). Their tag byte
// lives at 0x80 and above — disjoint from wire.h's protocol tags — so one
// byte of a framed payload routes it to the right codec.
//
// Peer identity (hello): PR 6's delivery-assumptions table requires the
// transport to hand the engines an authenticated `Peer from`. Real
// deployments would terminate TLS with roster-pinned certificates; this
// harness authenticates with an HMAC-SHA256 over the claimed identity under
// a session secret derived from the deployment seed and the group's
// self-certifying id. A connection is unidentified (and mute) until its
// hello verifies; the claimed id range then bounds every later claim the
// connection makes, exactly like NetDissent's machine-hosting check.
#ifndef DISSENT_NET_NET_WIRE_H_
#define DISSENT_NET_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <variant>

#include "src/util/bytes.h"

namespace dissent {
namespace net {

// HMAC-SHA256 (FIPS 198): standard ipad/opad construction over the repo's
// SHA-256. Key may be any length (hashed down if over one block).
Bytes HmacSha256(const Bytes& key, const Bytes& message);

// Session secret shared by every member of a deployment: all parties know
// the seed (it derives every long-term key in this harness), so it doubles
// as the channel-authentication key. group_id binds it to one roster.
Bytes SessionSecret(uint64_t seed, const Bytes& group_id);

struct Hello {
  enum Role : uint8_t { kServer = 0, kClientHost = 1 };
  uint8_t role = kServer;
  // Servers: first_id = server index, count = 1. Client hosts: the hosted
  // client range [first_id, first_id + count).
  uint32_t first_id = 0;
  uint32_t count = 0;
  uint64_t nonce = 0;
  Bytes mac;  // HMAC-SHA256(secret, "dissent-hello" || role || first_id || count || nonce)
};

// Builds a hello with a valid mac / verifies a received one.
Hello MakeHello(const Bytes& secret, uint8_t role, uint32_t first_id, uint32_t count,
                uint64_t nonce);
bool VerifyHello(const Bytes& secret, const Hello& hello);

using NetMessage = std::variant<Hello>;

Bytes SerializeNet(const NetMessage& msg);
// Hostile-hardened: requires a canonical (fully consumed) encoding with a
// full-length mac.
std::optional<NetMessage> ParseNet(const Bytes& data);

// True when a framed payload should be parsed with this codec rather than
// the protocol codec (wire.h).
inline bool IsNetFrame(const Bytes& payload) {
  return !payload.empty() && payload[0] >= 0x80;
}

}  // namespace net
}  // namespace dissent

#endif  // DISSENT_NET_NET_WIRE_H_
