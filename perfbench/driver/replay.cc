#include "perfbench/driver/replay.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "perfbench/driver/session.h"
#include "src/net/tcp_transport.h"
#include "src/task/wire.h"

namespace perfbench {

using nimbus::Command;
using nimbus::CommandType;

namespace {

// One serialized batch: the commands plus the header bases EncodeBatch needs.
struct Chunk {
  std::uint64_t group_seq = 0;
  nimbus::CommandId command_base;
  nimbus::TaskId task_base;
  std::vector<Command> commands;
};

bool IsCopy(const Command& c) {
  return c.type == CommandType::kCopySend || c.type == CommandType::kCopyReceive;
}

// Cuts each worker's log into batches of about `size` commands. A batch also ends where a
// copy's group sequence changes, because NBW1 copy ids must embed the batch's sequence.
std::vector<Chunk> ChunkLogs(const std::vector<std::vector<Command>>& logs, std::size_t size) {
  std::vector<Chunk> chunks;
  for (const std::vector<Command>& log : logs) {
    Chunk current;
    bool has_copy = false;
    auto flush = [&]() {
      if (!current.commands.empty()) {
        chunks.push_back(std::move(current));
      }
      current = Chunk();
      has_copy = false;
    };
    for (const Command& c : log) {
      if (IsCopy(c)) {
        const std::uint64_t seq = nimbus::CopyGroupSeq(c.copy_id);
        if (has_copy && seq != current.group_seq) {
          flush();
        }
        current.group_seq = seq;
        has_copy = true;
      }
      current.commands.push_back(c);
      if (current.commands.size() >= size) {
        flush();
      }
    }
    flush();
  }
  for (Chunk& chunk : chunks) {
    std::uint64_t command_base = ~std::uint64_t{0};
    std::uint64_t task_base = ~std::uint64_t{0};
    for (const Command& c : chunk.commands) {
      command_base = std::min(command_base, c.id.value());
      for (nimbus::CommandId b : c.before) {
        command_base = std::min(command_base, b.value());
      }
      if (c.type == CommandType::kTask) {
        task_base = std::min(task_base, c.task_id.value());
      }
    }
    chunk.command_base = nimbus::CommandId(command_base);
    chunk.task_base = nimbus::TaskId(task_base == ~std::uint64_t{0} ? 0 : task_base);
  }
  return chunks;
}

double Median(std::vector<double> v) {
  nimbus::SampleStats s;
  for (double x : v) {
    s.Add(x);
  }
  return s.Percentile(0.5);
}

}  // namespace

CodecCost ReplayCommandCodec(const std::vector<std::vector<Command>>& logs, WireShape shape,
                             double commands_per_batch, double seconds) {
  CodecCost cost;
  std::size_t total = 0;
  for (const auto& log : logs) {
    total += log.size();
  }
  if (shape == WireShape::kNone || total == 0) {
    return cost;
  }

  // Untimed set-up: the envelopes as the controller holds them just before encoding.
  std::vector<nimbus::wire::CommandsEnvelope> envelopes;
  std::vector<Chunk> chunks;
  if (shape == WireShape::kPerTask) {
    envelopes.reserve(total);
    for (const auto& log : logs) {
      for (const Command& c : log) {
        nimbus::wire::CommandsEnvelope e;
        e.expected_total = 1;
        e.commands.push_back(c);
        envelopes.push_back(std::move(e));
      }
    }
  } else {
    chunks = ChunkLogs(logs, static_cast<std::size_t>(std::max(1.0, commands_per_batch)));
  }

  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  std::vector<nimbus::ParameterBlob> blobs;
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  for (int pass = 0; pass < 3 || NowNs() < deadline; ++pass) {
    blobs.clear();
    const std::int64_t t0 = NowNs();
    if (shape == WireShape::kPerTask) {
      for (const auto& e : envelopes) {
        blobs.push_back(nimbus::wire::EncodeCommandsEnvelope(e));
      }
    } else {
      for (const Chunk& chunk : chunks) {
        nimbus::wire::SerializedBatchEnvelope e;
        e.group_seq = chunk.group_seq;
        e.expected_total = chunk.commands.size();
        e.batch = nimbus::wire::EncodeBatch(chunk.group_seq, chunk.command_base,
                                            chunk.task_base, chunk.commands);
        blobs.push_back(nimbus::wire::EncodeSerializedBatchEnvelope(e));
      }
    }
    const std::int64_t t1 = NowNs();
    std::size_t decoded = 0;
    bool same = true;
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      if (shape == WireShape::kPerTask) {
        const auto e = nimbus::wire::DecodeCommandsEnvelope(blobs[i]);
        decoded += e.commands.size();
        if (pass == 0) {
          same = same && e.commands.size() == 1 && e.commands[0] == envelopes[i].commands[0];
        }
      } else {
        const auto e = nimbus::wire::DecodeSerializedBatchEnvelope(blobs[i]);
        const auto batch = nimbus::wire::DecodeBatch(e.batch);
        decoded += batch.commands.size();
        if (pass == 0) {
          same = same && batch.commands == chunks[i].commands;
        }
      }
    }
    const std::int64_t t2 = NowNs();
    if (pass == 0) {
      cost.round_trip_ok = same && decoded == total;
    }
    encode_ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(total));
    decode_ns.push_back(static_cast<double>(t2 - t1) / static_cast<double>(total));
  }
  cost.encode_ns_per_command = Median(encode_ns);
  cost.decode_ns_per_command = Median(decode_ns);
  return cost;
}

FrameMixResult ReplayFrameMix(const std::vector<MixFrame>& mix, double seconds) {
  using nimbus::net::NodeAddress;
  FrameMixResult result;
  if (mix.empty()) {
    return result;
  }
  const NodeAddress a = NodeAddress::Controller();
  const NodeAddress b = NodeAddress::ForWorker(nimbus::WorkerId(0));
  nimbus::net::TcpEndpoint ea(a);
  nimbus::net::TcpEndpoint eb(b);
  ea.Listen();
  const std::uint16_t port_b = eb.Listen();
  ea.DialPeer(b, port_b);  // the lower dense index dials, as in the cluster's mesh
  eb.AcceptPeer();

  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t echoes = 0;                 // guarded by mu
  std::atomic<bool> echo{true};             // phase 1 echoes, phase 2 counts
  std::atomic<std::uint64_t> received{0};   // frames b received in phase 2
  eb.RegisterHandler(
      b, [&](NodeAddress, nimbus::MessageKind kind, nimbus::ParameterBlob bytes) {
        if (echo.load(std::memory_order_acquire)) {
          const auto n = static_cast<std::int64_t>(bytes.size());
          eb.Send(b, a, kind, std::move(bytes), n);
        } else {
          received.fetch_add(1, std::memory_order_release);
        }
      });
  ea.RegisterHandler(a, [&](NodeAddress, nimbus::MessageKind, nimbus::ParameterBlob) {
    std::lock_guard<std::mutex> lock(mu);
    ++echoes;
    cv.notify_one();
  });
  ea.Start();
  eb.Start();

  std::vector<nimbus::ParameterBlob> payloads;
  for (const MixFrame& f : mix) {
    payloads.emplace_back(f.bytes, static_cast<std::uint8_t>(0x5A));
  }
  auto send = [&](std::size_t i) {
    ea.Send(a, b, mix[i].kind, payloads[i], static_cast<std::int64_t>(mix[i].bytes));
  };

  // Phase 1: one frame in flight; b echoes it back.
  nimbus::SampleStats rtt;
  const std::int64_t half = static_cast<std::int64_t>(seconds * 0.5e9);
  std::int64_t deadline = NowNs() + half;
  for (std::uint64_t k = 1; NowNs() < deadline; ++k) {
    const std::int64_t t0 = NowNs();
    send((k - 1) % mix.size());
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return echoes == k; });
    rtt.Add(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  result.rtt_p50_us = rtt.Percentile(0.5);

  // Phase 2: stream the mix with a bounded window of frames in flight.
  echo.store(false, std::memory_order_release);
  constexpr std::uint64_t kWindow = 256;
  std::uint64_t sent = 0;
  const std::int64_t start = NowNs();
  deadline = start + half;
  while (NowNs() < deadline) {
    while (sent - received.load(std::memory_order_acquire) >= kWindow) {
      std::this_thread::yield();
    }
    send(sent % mix.size());
    ++sent;
  }
  while (received.load(std::memory_order_acquire) < sent) {
    std::this_thread::yield();
  }
  result.frames_per_s =
      static_cast<double>(sent) / (static_cast<double>(NowNs() - start) * 1e-9);

  ea.PrepareShutdown();
  eb.PrepareShutdown();
  ea.Shutdown();
  eb.Shutdown();
  return result;
}

}  // namespace perfbench
