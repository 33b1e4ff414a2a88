// Binary serialization buffers for control-plane parameter blobs.
//
// Task parameters cross the driver->controller->worker path as opaque binary blobs (paper
// §3.4: commands carry "a binary blob of parameters"). The writer/reader pair below provides
// a tiny, explicit, endian-stable wire format; sizes feed the network cost model.

#ifndef NIMBUS_SRC_COMMON_SERIALIZE_H_
#define NIMBUS_SRC_COMMON_SERIALIZE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/logging.h"

namespace nimbus {

// An opaque parameter blob attached to a command or template instantiation.
using ParameterBlob = std::vector<std::uint8_t>;

namespace internal {
// The failure path of BlobReader's bounds check: a failed NIMBUS_CHECK_LE, out of line
// (serialize.cc). An inlined CHECK brings its ostringstream into every caller, and GCC
// then outlines the fixed-size reads the decoders are made of.
[[noreturn]] void BlobOverrun(std::size_t need, std::size_t remaining);
}  // namespace internal

// Writes through a cursor into a buffer sized ahead of it: each write is one bounds-checked
// memcpy at the cursor. An encoder that knows its size calls Reserve once and never grows;
// one that does not (app params) grows geometrically. Take() trims to the cursor.
class BlobWriter {
 public:
  BlobWriter() = default;

  // Presizes the buffer for an encoding of known size: one allocation per envelope.
  void Reserve(std::size_t n) {
    if (n > blob_.size()) {
      blob_.resize(n);
    }
  }

  void WriteU8(std::uint8_t v) { AppendRaw(&v, sizeof(v)); }

  void WriteU32(std::uint32_t v) { AppendRaw(&v, sizeof(v)); }

  void WriteU64(std::uint64_t v) { AppendRaw(&v, sizeof(v)); }

  void WriteI64(std::int64_t v) { AppendRaw(&v, sizeof(v)); }

  void WriteDouble(double v) { AppendRaw(&v, sizeof(v)); }

  void WriteString(std::string_view s) {
    WriteU32(static_cast<std::uint32_t>(s.size()));
    AppendRaw(s.data(), s.size());
  }

  void WriteDoubleVector(const std::vector<double>& v) {
    WriteU32(static_cast<std::uint32_t>(v.size()));
    AppendRaw(v.data(), v.size() * sizeof(double));
  }

  // Appends `n` raw bytes in one copy (blobs, id arrays).
  void WriteBytes(const void* data, std::size_t n) { AppendRaw(data, n); }

  // Bytes written so far.
  std::size_t size() const { return pos_; }

  // Returns exactly the written bytes and leaves the writer empty and reusable.
  ParameterBlob Take() {
    blob_.resize(pos_);
    pos_ = 0;
    return std::move(blob_);
  }

 private:
  void AppendRaw(const void* data, std::size_t n) {
    if (n == 0) {
      return;  // empty ranges may carry a null source pointer (e.g. string_view{}.data())
    }
    if (n > blob_.size() - pos_) {
      // Not presized for this write: grow geometrically, so an unsized writer stays
      // amortized O(1) per byte.
      blob_.resize(std::max(pos_ + n, 2 * blob_.size()));
    }
    NIMBUS_CHECK_LE(pos_ + n, blob_.size());
    std::memcpy(blob_.data() + pos_, data, n);
    pos_ += n;
  }

  ParameterBlob blob_;  // sized ahead of the cursor; bytes past `pos_` are not yet written
  std::size_t pos_ = 0;
};

class BlobReader {
 public:
  explicit BlobReader(const ParameterBlob& blob) : blob_(blob) {}

  std::uint8_t ReadU8() { return *Span(1); }

  std::uint32_t ReadU32() {
    std::uint32_t v;
    ExtractRaw(&v, sizeof(v));
    return v;
  }

  std::uint64_t ReadU64() {
    std::uint64_t v;
    ExtractRaw(&v, sizeof(v));
    return v;
  }

  std::int64_t ReadI64() {
    std::int64_t v;
    ExtractRaw(&v, sizeof(v));
    return v;
  }

  double ReadDouble() {
    double v;
    ExtractRaw(&v, sizeof(v));
    return v;
  }

  // Reads a length-prefixed string into `out`, reusing its capacity. Bounds before
  // allocation: a malformed length prefix must fail the CHECK, not ask the allocator for up
  // to 4 GB first.
  void ReadString(std::string* out) {
    const std::uint32_t n = ReadU32();
    NIMBUS_CHECK_LE(n, remaining());
    out->assign(reinterpret_cast<const char*>(blob_.data() + pos_), n);
    pos_ += n;
  }

  std::string ReadString() {
    std::string s;
    ReadString(&s);
    return s;
  }

  std::vector<double> ReadDoubleVector() {
    // Bounds before allocation (see ReadString).
    const std::uint32_t n = ReadU32();
    NIMBUS_CHECK_LE(static_cast<std::size_t>(n) * sizeof(double), remaining());
    std::vector<double> v(n);
    ExtractRaw(v.data(), n * sizeof(double));
    return v;
  }

  // Bounds-checks the next `n` bytes once, advances past them and returns where they
  // start: a decoder reads a fixed-stride array out of the span with no per-field check.
  const std::uint8_t* Span(std::size_t n) {
    if (n > remaining()) {
      internal::BlobOverrun(n, remaining());
    }
    const std::uint8_t* span = blob_.data() + pos_;
    pos_ += n;
    return span;
  }

  // Reads `n` raw bytes into `out`, reusing its capacity (bounds-checked before any
  // allocation).
  void ReadBlob(std::size_t n, ParameterBlob* out) {
    const std::uint8_t* span = Span(n);
    out->assign(span, span + n);
  }

  bool AtEnd() const { return pos_ == blob_.size(); }
  std::size_t remaining() const { return blob_.size() - pos_; }

 private:
  void ExtractRaw(void* out, std::size_t n) {
    const std::uint8_t* span = Span(n);
    if (n > 0) {
      std::memcpy(out, span, n);  // an empty read may have a null `out` (an empty vector)
    }
  }

  const ParameterBlob& blob_;
  std::size_t pos_ = 0;
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_COMMON_SERIALIZE_H_
