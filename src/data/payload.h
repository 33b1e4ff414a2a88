// Application data payloads held in worker memory.
//
// Nimbus tasks operate on *mutable* data objects in place (paper §3.3). A payload is the
// in-memory value of one logical object instance on one worker. Payloads are polymorphic so
// applications can define structured values (model vectors, grid blocks, particle sets).

#ifndef NIMBUS_SRC_DATA_PAYLOAD_H_
#define NIMBUS_SRC_DATA_PAYLOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace nimbus {

class Payload {
 public:
  virtual ~Payload() = default;

  // Deep copy, used for inter-worker data copies and checkpoint snapshots.
  virtual std::unique_ptr<Payload> Clone() const = 0;

  // Approximate in-memory size in bytes (used when the object has no virtual size).
  virtual std::int64_t ByteSize() const = 0;
};

// A single double (e.g. a residual, an error value, a scalar reduction result).
class ScalarPayload final : public Payload {
 public:
  explicit ScalarPayload(double value = 0.0) : value_(value) {}

  std::unique_ptr<Payload> Clone() const override {
    return std::make_unique<ScalarPayload>(value_);
  }

  std::int64_t ByteSize() const override { return static_cast<std::int64_t>(sizeof(double)); }

  double value() const { return value_; }
  void set_value(double v) { value_ = v; }

 private:
  double value_;
};

// A dense vector of doubles (model coefficients, partial sums, feature rows...).
class VectorPayload final : public Payload {
 public:
  VectorPayload() = default;
  explicit VectorPayload(std::vector<double> values) : values_(std::move(values)) {}
  explicit VectorPayload(std::size_t n, double fill = 0.0) : values_(n, fill) {}

  std::unique_ptr<Payload> Clone() const override {
    return std::make_unique<VectorPayload>(values_);
  }

  std::int64_t ByteSize() const override {
    return static_cast<std::int64_t>(values_.size() * sizeof(double));
  }

  std::vector<double>& values() { return values_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_DATA_PAYLOAD_H_
