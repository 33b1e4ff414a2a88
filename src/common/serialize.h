// Binary serialization buffers for control-plane parameter blobs.
//
// Task parameters cross the driver->controller->worker path as opaque binary blobs (paper
// §3.4: commands carry "a binary blob of parameters"). The writer/reader pair below provides
// a tiny, explicit, endian-stable wire format; sizes feed the network cost model.

#ifndef NIMBUS_SRC_COMMON_SERIALIZE_H_
#define NIMBUS_SRC_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/logging.h"

namespace nimbus {

// An opaque parameter blob attached to a command or template instantiation.
using ParameterBlob = std::vector<std::uint8_t>;

class BlobWriter {
 public:
  BlobWriter() = default;

  // Presizes the buffer for an encoding of known size: one allocation per envelope.
  void Reserve(std::size_t n) { blob_.reserve(n); }

  void WriteU8(std::uint8_t v) { blob_.push_back(v); }

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

  std::size_t size() const { return blob_.size(); }

  ParameterBlob Take() { return std::move(blob_); }
  const ParameterBlob& blob() const { return blob_; }

 private:
  void AppendRaw(const void* data, std::size_t n) {
    if (n == 0) {
      return;  // empty ranges may carry a null source pointer (e.g. string_view{}.data())
    }
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    // Single-copy append: this is the serialized-dispatch hot path (DESIGN.md §10), and
    // resize-then-memcpy would zero-fill before overwriting. GCC 12's -Wstringop-overflow
    // misfires on the inlined range-insert copy; the range really is n bytes.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
    blob_.insert(blob_.end(), bytes, bytes + n);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
  }

  ParameterBlob blob_;
};

class BlobReader {
 public:
  explicit BlobReader(const ParameterBlob& blob) : blob_(blob) {}

  std::uint8_t ReadU8() {
    NIMBUS_CHECK_LE(pos_ + 1, blob_.size());
    return blob_[pos_++];
  }

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
    NIMBUS_CHECK_LE(n, remaining());
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
    NIMBUS_CHECK_LE(pos_ + n, blob_.size());
    std::memcpy(out, blob_.data() + pos_, n);
    pos_ += n;
  }

  const ParameterBlob& blob_;
  std::size_t pos_ = 0;
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_COMMON_SERIALIZE_H_
