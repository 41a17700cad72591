#include "src/net/framing.h"

#include <cstring>

namespace dissent {
namespace net {

void AppendFrame(const Bytes& payload, Bytes* out) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  out->push_back(static_cast<uint8_t>(len));
  out->push_back(static_cast<uint8_t>(len >> 8));
  out->push_back(static_cast<uint8_t>(len >> 16));
  out->push_back(static_cast<uint8_t>(len >> 24));
  out->insert(out->end(), payload.begin(), payload.end());
}

Bytes EncodeFrame(const Bytes& payload) {
  Bytes out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(payload, &out);
  return out;
}

std::shared_ptr<const Bytes> FrameWire(const WireMessage& msg) {
  Writer w;
  w.U32(0);  // length prefix, patched below
  SerializeWireTo(msg, w);
  Bytes out = w.Take();
  const uint32_t len = static_cast<uint32_t>(out.size() - kFrameHeaderBytes);
  for (size_t i = 0; i < kFrameHeaderBytes; ++i) {
    out[i] = static_cast<uint8_t>(len >> (8 * i));
  }
  return std::make_shared<const Bytes>(std::move(out));
}

bool FrameDecoder::Feed(const uint8_t* data, size_t len) {
  if (error_) {
    return false;
  }
  // Compact before growing: everything before pos_ has been handed out.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= 4096)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
  // Validate every complete length prefix eagerly so an oversized claim is
  // rejected before Next() would try to materialize it.
  size_t scan = pos_;
  while (buf_.size() - scan >= kFrameHeaderBytes) {
    uint32_t n;
    std::memcpy(&n, buf_.data() + scan, sizeof(n));
    if (n > max_frame_) {
      error_ = true;
      return false;
    }
    if (buf_.size() - scan - kFrameHeaderBytes < n) {
      break;  // incomplete frame; stop scanning
    }
    scan += kFrameHeaderBytes + n;
  }
  return true;
}

std::optional<Bytes> FrameDecoder::Next() {
  if (error_ || buf_.size() - pos_ < kFrameHeaderBytes) {
    return std::nullopt;
  }
  uint32_t n;
  std::memcpy(&n, buf_.data() + pos_, sizeof(n));
  if (buf_.size() - pos_ - kFrameHeaderBytes < n) {
    return std::nullopt;
  }
  const uint8_t* p = buf_.data() + pos_ + kFrameHeaderBytes;
  Bytes payload(p, p + n);
  pos_ += kFrameHeaderBytes + n;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return payload;
}

}  // namespace net
}  // namespace dissent
