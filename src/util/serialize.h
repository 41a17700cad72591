// Canonical binary encoding for protocol messages, snapshots and state.
//
// All multi-byte integers are little-endian and fixed-width; variable-length
// byte strings are length-prefixed with a u32. The encoding must be canonical
// (one valid encoding per value) because signatures, blame evidence and the
// self-certifying group id are computed over these bytes.
//
// Writer and Reader are the byte-level primitives; Reader returns false on
// truncation instead of crashing. Signing transcripts, which are only ever
// written, use Writer directly. Every format that is also read back is
// written down once, as a field list that both directions run:
//
//   template <class Io>
//   bool Fields(Io& io, Foo& m) {
//     return io.U64(m.round) && io.SortedU32s(m.ids) && io.Blob(m.payload);
//   }
//
// Encoder runs the list to append bytes to a Writer; Decoder runs the same
// list to fill a value from a Reader. The two directions cannot drift apart,
// so snapshot-then-restore is a fixed point by construction.
//
// The hostile-input guards live in Decoder's primitives, so a field list
// cannot forget one. A sequence count never exceeds what the remaining input
// could hold at its minimum bytes per entry, checked before anything is
// allocated. Sorted id lists and map keys must be strictly increasing.
// Decode() requires the input to be fully consumed. A read-side condition
// that the writer holds by construction is a Check(). Semantic rules that
// span fields (value ranges, canonical combinations) go in one per-type
// validity function that the caller runs after decoding.
#ifndef DISSENT_UTIL_SERIALIZE_H_
#define DISSENT_UTIL_SERIALIZE_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/bytes.h"

namespace dissent {

class Writer {
 public:
  void U8(uint8_t v);
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Bool(bool v);
  // Length-prefixed byte string.
  void Blob(const Bytes& b);
  // Raw bytes, no length prefix (caller knows the framing).
  void Raw(const Bytes& b);
  void Str(const std::string& s);

  const Bytes& data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(const Bytes& buf) : buf_(buf) {}

  bool U8(uint8_t* v);
  bool U16(uint16_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool Bool(bool* v);
  bool Blob(Bytes* b);
  bool Raw(size_t n, Bytes* b);
  bool Str(std::string* s);

  // True when every byte has been consumed; protocol decoders require this
  // so trailing garbage cannot be smuggled under a valid signature.
  bool AtEnd() const { return pos_ == buf_.size(); }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  bool Take(size_t n, const uint8_t** p);

  const Bytes& buf_;
  size_t pos_ = 0;
};

namespace codec_internal {
constexpr size_t kNoLimit = std::numeric_limits<uint32_t>::max();
// std::map (value_type is a pair) versus std::set.
template <class M>
constexpr bool kIsMap = !std::is_same_v<typename M::key_type, typename M::value_type>;
}  // namespace codec_internal

// Write side of a field list: every primitive appends and succeeds. It only
// reads through the references it is handed.
class Encoder {
 public:
  explicit Encoder(Writer& w) : w_(w) {}

  // Integers (and enums) of any width, encoded at the named width.
  template <class T>
  bool U8(T& v) {
    w_.U8(static_cast<uint8_t>(v));
    return true;
  }
  template <class T>
  bool U32(T& v) {
    w_.U32(static_cast<uint32_t>(v));
    return true;
  }
  template <class T>
  bool U64(T& v) {
    w_.U64(static_cast<uint64_t>(v));
    return true;
  }
  bool Bool(bool& v) {
    w_.Bool(v);
    return true;
  }
  bool Blob(Bytes& b) {
    w_.Blob(b);
    return true;
  }
  // A fixed string the reader must find verbatim (format name and version).
  bool Magic(const char* magic) {
    w_.Str(magic);
    return true;
  }
  // Read-side conditions; the writer holds them by construction.
  bool Check(bool) { return true; }
  bool Fits(size_t /*count*/, size_t /*bytes_each*/) { return true; }

  // u32 count, then each element.
  template <class V, class F>
  bool Seq(V& v, size_t /*min_bytes*/, size_t /*max_count*/, F each) {
    w_.U32(static_cast<uint32_t>(v.size()));
    return Each(v, v.size(), each);
  }
  template <class V, class F>
  bool Seq(V& v, size_t min_bytes, F each) {
    return Seq(v, min_bytes, codec_internal::kNoLimit, each);
  }
  // u32 count that the reader requires to be exactly `n`, then each element.
  template <class V, class F>
  bool SeqOf(V& v, size_t /*n*/, F each) {
    return Seq(v, 1, each);
  }
  // Elements whose count follows from earlier fields: no count on the wire.
  template <class V, class F>
  bool Each(V& v, size_t /*n*/, F each) {
    for (auto& e : v) {
      if (!each(e)) {
        return false;
      }
    }
    return true;
  }
  bool Blobs(std::vector<Bytes>& v) {
    return Seq(v, 4, [this](Bytes& b) { return Blob(b); });
  }
  // Strictly increasing ids, each taking at least `min_bytes` of input.
  bool SortedU32s(std::vector<uint32_t>& v, size_t /*min_bytes*/ = 4) {
    return Seq(v, 4, [this](uint32_t& id) { return U32(id); });
  }
  // A std::map (each(key, value)) or std::set (each(key)), u32 count first,
  // in key order. `each` gets a copy of the key, so a map whose key is
  // derived from its value need not write the key.
  template <class M, class F>
  bool Sorted(M& m, size_t /*min_bytes*/, size_t /*max_count*/, F each) {
    w_.U32(static_cast<uint32_t>(m.size()));
    for (auto& entry : m) {
      bool ok;
      if constexpr (codec_internal::kIsMap<M>) {
        typename M::key_type key = entry.first;
        ok = each(key, entry.second);
      } else {
        typename M::key_type key = entry;
        ok = each(key);
      }
      if (!ok) {
        return false;
      }
    }
    return true;
  }
  // bool present, then the value.
  template <class T, class F>
  bool Optional(std::optional<T>& o, F each) {
    w_.Bool(o.has_value());
    return !o.has_value() || each(*o);
  }
  // A value carried in its own byte form: to(v) as a blob. The reader
  // rebuilds it with from(bytes), a std::optional; nullopt refuses it.
  template <class T, class To, class From>
  bool BlobOf(T& v, To to, From /*from*/) {
    w_.Blob(to(v));
    return true;
  }
  // The same as exactly `n` raw bytes (group elements, scalars).
  template <class T, class To, class From>
  bool RawOf(T& v, size_t /*n*/, To to, From /*from*/) {
    w_.Raw(to(v));
    return true;
  }
  // A value reached through accessors rather than a field: written as
  // fields(get()). The reader fills a fresh value and hands it to set(),
  // which may refuse it.
  template <class Get, class Set, class F>
  bool Via(Get get, Set /*set*/, F fields) {
    auto v = get();
    return fields(v);
  }

 private:
  Writer& w_;
};

// Read side of a field list: the same primitives, each guarded.
class Decoder {
 public:
  explicit Decoder(Reader& r) : r_(r) {}

  template <class T>
  bool U8(T& v) {
    uint8_t x;
    return r_.U8(&x) && (v = static_cast<T>(x), true);
  }
  template <class T>
  bool U32(T& v) {
    static_assert(sizeof(T) >= 4, "a u32 field needs a type that holds it");
    uint32_t x;
    return r_.U32(&x) && (v = static_cast<T>(x), true);
  }
  template <class T>
  bool U64(T& v) {
    static_assert(sizeof(T) >= 8, "a u64 field needs a type that holds it");
    uint64_t x;
    return r_.U64(&x) && (v = static_cast<T>(x), true);
  }
  bool Bool(bool& v) { return r_.Bool(&v); }
  bool Blob(Bytes& b) { return r_.Blob(&b); }
  bool Magic(const char* magic) {
    std::string s;
    return r_.Str(&s) && s == magic;
  }
  bool Check(bool ok) { return ok; }
  // The hostile-count guard: `count` entries of at least `bytes_each` bytes
  // must fit in what is left of the input.
  bool Fits(size_t count, size_t bytes_each) {
    return bytes_each > 0 && count <= r_.remaining() / bytes_each;
  }

  template <class V, class F>
  bool Seq(V& v, size_t min_bytes, size_t max_count, F each) {
    uint32_t n;
    if (!r_.U32(&n) || n > max_count || !Fits(n, min_bytes)) {
      return false;
    }
    v.clear();
    return Each(v, n, each);
  }
  template <class V, class F>
  bool Seq(V& v, size_t min_bytes, F each) {
    return Seq(v, min_bytes, codec_internal::kNoLimit, each);
  }
  template <class V, class F>
  bool SeqOf(V& v, size_t n, F each) {
    uint32_t count;
    return r_.U32(&count) && count == n && Each(v, n, each);
  }
  // Sizes `v` to `n` and fills every element in place.
  template <class V, class F>
  bool Each(V& v, size_t n, F each) {
    v.resize(n);
    for (auto& e : v) {
      if (!each(e)) {
        return false;
      }
    }
    return true;
  }
  bool Blobs(std::vector<Bytes>& v) {
    return Seq(v, 4, [this](Bytes& b) { return Blob(b); });
  }
  bool SortedU32s(std::vector<uint32_t>& v, size_t min_bytes = 4) {
    uint32_t n;
    if (!r_.U32(&n) || !Fits(n, min_bytes)) {
      return false;
    }
    v.clear();
    v.reserve(n);
    for (uint32_t k = 0; k < n; ++k) {
      uint32_t id;
      if (!r_.U32(&id) || (!v.empty() && id <= v.back())) {
        return false;
      }
      v.push_back(id);
    }
    return true;
  }
  template <class M, class F>
  bool Sorted(M& m, size_t min_bytes, size_t max_count, F each) {
    uint32_t n;
    if (!r_.U32(&n) || n > max_count || !Fits(n, min_bytes)) {
      return false;
    }
    m.clear();
    for (uint32_t k = 0; k < n; ++k) {
      typename M::key_type key{};
      if constexpr (codec_internal::kIsMap<M>) {
        typename M::mapped_type value{};
        if (!each(key, value) || (!m.empty() && !(m.rbegin()->first < key))) {
          return false;
        }
        m.emplace_hint(m.end(), std::move(key), std::move(value));
      } else {
        if (!each(key) || (!m.empty() && !(*m.rbegin() < key))) {
          return false;
        }
        m.insert(m.end(), std::move(key));
      }
    }
    return true;
  }
  template <class T, class F>
  bool Optional(std::optional<T>& o, F each) {
    bool present;
    if (!r_.Bool(&present)) {
      return false;
    }
    if (!present) {
      o.reset();
      return true;
    }
    o.emplace();
    return each(*o);
  }
  template <class T, class To, class From>
  bool BlobOf(T& v, To /*to*/, From from) {
    Bytes b;
    return r_.Blob(&b) && Assign(v, from(b));
  }
  template <class T, class To, class From>
  bool RawOf(T& v, size_t n, To /*to*/, From from) {
    Bytes b;
    return r_.Raw(n, &b) && Assign(v, from(b));
  }
  template <class Get, class Set, class F>
  bool Via(Get get, Set set, F fields) {
    std::decay_t<decltype(get())> v{};
    return fields(v) && set(std::move(v));
  }

 private:
  template <class T, class O>
  static bool Assign(T& v, O&& parsed) {
    if (!parsed.has_value()) {
      return false;
    }
    v = std::move(*parsed);
    return true;
  }

  Reader& r_;
};

// Runs a type's field list, Fields(io, value, context...), in one direction.
// The list is found by argument-dependent lookup, so it must be declared in
// the value type's namespace (not an unnamed one). `context` is whatever
// the encoding depends on besides the value, such as the group. The write
// side drops const only to share the list's signature.
template <class T, class... Ctx>
void EncodeTo(Writer& w, const T& v, const Ctx&... ctx) {
  Encoder e(w);
  Fields(e, const_cast<T&>(v), ctx...);
}
template <class T, class... Ctx>
Bytes Encode(const T& v, const Ctx&... ctx) {
  Writer w;
  EncodeTo(w, v, ctx...);
  return w.Take();
}
template <class T, class... Ctx>
bool DecodeFrom(Reader& r, T& v, const Ctx&... ctx) {
  Decoder d(r);
  return Fields(d, v, ctx...);
}
// Decodes all of `data`: trailing bytes are refused.
template <class T, class... Ctx>
std::optional<T> Decode(const Bytes& data, const Ctx&... ctx) {
  Reader r(data);
  T v;
  if (!DecodeFrom(r, v, ctx...) || !r.AtEnd()) {
    return std::nullopt;
  }
  return v;
}

}  // namespace dissent

#endif  // DISSENT_UTIL_SERIALIZE_H_
