// Replays that time one layer in isolation by calling its public functions directly.
//
//  * ReplayCommandCodec — the `task` layer: the run's own worker command logs pushed
//    through the wire codec in the shape the workload ships them (one NBE1 commands
//    envelope per command for per-task dispatch; NBW1 batches nested in serialized-batch
//    envelopes for serialized dispatch). Template instantiation ships no commands, so it
//    replays nothing.
//  * ReplayFrameMix — the `net` layer: two TcpEndpoints over loopback exchanging the
//    workload's per-block frame-size mix, ping-pong for round-trip time and windowed
//    streaming for frames per second.

#ifndef PERFBENCH_DRIVER_REPLAY_H_
#define PERFBENCH_DRIVER_REPLAY_H_

#include <cstddef>
#include <vector>

#include "src/common/stats.h"
#include "src/task/command.h"

namespace perfbench {

enum class WireShape { kNone, kPerTask, kSerialized };

struct CodecCost {
  double encode_ns_per_command = 0.0;
  double decode_ns_per_command = 0.0;
  bool round_trip_ok = true;  // every decoded command equals the logged one
};

// `logs` holds one command log per worker. `commands_per_batch` sizes the serialized
// batches (the run's own average). Repeats whole passes for at least `seconds` and
// reports the median pass.
CodecCost ReplayCommandCodec(const std::vector<std::vector<nimbus::Command>>& logs,
                             WireShape shape, double commands_per_batch, double seconds);

struct MixFrame {
  nimbus::MessageKind kind = nimbus::MessageKind::kControl;
  std::size_t bytes = 0;
};

struct FrameMixResult {
  double rtt_p50_us = 0.0;
  double frames_per_s = 0.0;
};

// Spends about `seconds` in total, half per measurement.
FrameMixResult ReplayFrameMix(const std::vector<MixFrame>& mix, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REPLAY_H_
