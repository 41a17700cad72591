// Length-prefixed framing for the real-socket transport.
//
// Every frame on a dissent TCP link is a u32 little-endian payload length
// followed by that many payload bytes. The payload is either a typed
// protocol message (wire.h, tag byte < 0x80) or a transport-control message
// (net_wire.h, tag byte >= 0x80); the framing layer does not care which.
//
// FrameDecoder is incremental: TCP delivers an arbitrary byte stream, so
// the decoder accepts any split — a length prefix arriving one byte at a
// time, a frame spanning many reads, many frames in one read — and yields
// complete payloads in order. It is hostile-input hardened: a length prefix
// above `max_frame` poisons the decoder permanently (the peer is speaking a
// different protocol or attacking allocation; the connection must be
// dropped) *before* any allocation of the claimed size happens.
#ifndef DISSENT_NET_FRAMING_H_
#define DISSENT_NET_FRAMING_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "src/core/wire.h"
#include "src/util/bytes.h"

namespace dissent {
namespace net {

inline constexpr size_t kFrameHeaderBytes = 4;
// Largest payload a peer may send. The biggest honest frame is a blame-mix
// step at paper scale (a few MiB); 64 MiB leaves headroom without letting a
// hostile prefix allocate unbounded memory.
inline constexpr size_t kDefaultMaxFrameBytes = 64u << 20;

// Appends the framed encoding of `payload` (header + bytes) to `out`.
void AppendFrame(const Bytes& payload, Bytes* out);
Bytes EncodeFrame(const Bytes& payload);
// EncodeFrame(SerializeWire(msg)), built in one buffer: the length prefix is
// reserved up front and patched once the body is written.
std::shared_ptr<const Bytes> FrameWire(const WireMessage& msg);

class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame = kDefaultMaxFrameBytes)
      : max_frame_(max_frame) {}

  // Feeds raw stream bytes. Returns false (and enters the error state) when
  // a length prefix exceeds max_frame; no bytes are consumed after that.
  bool Feed(const uint8_t* data, size_t len);
  bool Feed(const Bytes& data) { return Feed(data.data(), data.size()); }

  // Next complete payload, oldest first; nullopt when none is buffered.
  std::optional<Bytes> Next();

  bool error() const { return error_; }
  // Bytes held that do not yet form a complete frame — nonzero after a
  // mid-frame connection close means the peer died with a frame in flight.
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  size_t max_frame_;
  Bytes buf_;        // unconsumed stream bytes (compacted between feeds)
  size_t pos_ = 0;   // consumed prefix of buf_
  bool error_ = false;
};

}  // namespace net
}  // namespace dissent

#endif  // DISSENT_NET_FRAMING_H_
