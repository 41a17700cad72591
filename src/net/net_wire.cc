#include "src/net/net_wire.h"

#include <cstring>

#include "src/crypto/sha256.h"
#include "src/util/serialize.h"

namespace dissent {
namespace net {

namespace {

constexpr uint8_t kHelloTag = 0x80;

constexpr size_t kHmacBlock = 64;
constexpr size_t kMacBytes = 32;

Bytes HelloMacInput(uint8_t role, uint32_t first_id, uint32_t count, uint64_t nonce) {
  Writer w;
  w.Str("dissent-hello");
  w.U8(role);
  w.U32(first_id);
  w.U32(count);
  w.U64(nonce);
  return w.Take();
}

bool ConstantTimeEq(const Bytes& a, const Bytes& b) {
  if (a.size() != b.size()) {
    return false;
  }
  uint8_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return diff == 0;
}

}  // namespace

Bytes HmacSha256(const Bytes& key, const Bytes& message) {
  Bytes k = key.size() > kHmacBlock ? Sha256::Hash(key) : key;
  k.resize(kHmacBlock, 0);
  Bytes ipad(kHmacBlock), opad(kHmacBlock);
  for (size_t i = 0; i < kHmacBlock; ++i) {
    ipad[i] = static_cast<uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<uint8_t>(k[i] ^ 0x5c);
  }
  Bytes inner = Sha256().Update(ipad).Update(message).Finish();
  return Sha256().Update(opad).Update(inner).Finish();
}

Bytes SessionSecret(uint64_t seed, const Bytes& group_id) {
  Writer w;
  w.Str("dissent-session-secret");
  w.U64(seed);
  w.Blob(group_id);
  return Sha256::Hash(w.data());
}

Hello MakeHello(const Bytes& secret, uint8_t role, uint32_t first_id, uint32_t count,
                uint64_t nonce) {
  Hello h;
  h.role = role;
  h.first_id = first_id;
  h.count = count;
  h.nonce = nonce;
  h.mac = HmacSha256(secret, HelloMacInput(role, first_id, count, nonce));
  return h;
}

bool VerifyHello(const Bytes& secret, const Hello& hello) {
  if (hello.role > Hello::kClientHost || hello.count == 0) {
    return false;
  }
  const Bytes expect =
      HmacSha256(secret, HelloMacInput(hello.role, hello.first_id, hello.count, hello.nonce));
  return ConstantTimeEq(expect, hello.mac);
}

// The hello frame's one field list, tag byte included.
template <class Io>
bool Fields(Io& io, Hello& m) {
  uint8_t tag = kHelloTag;
  return io.U8(tag) && io.Check(tag == kHelloTag) && io.U8(m.role) && io.U32(m.first_id) &&
         io.U32(m.count) && io.U64(m.nonce) && io.Blob(m.mac) &&
         io.Check(m.mac.size() == kMacBytes);
}

Bytes SerializeNet(const NetMessage& msg) { return Encode(std::get<Hello>(msg)); }

std::optional<NetMessage> ParseNet(const Bytes& data) {
  auto hello = Decode<Hello>(data);
  if (!hello.has_value()) {
    return std::nullopt;
  }
  return NetMessage{std::move(*hello)};
}

}  // namespace net
}  // namespace dissent
