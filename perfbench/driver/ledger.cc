#include "perfbench/driver/ledger.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "src/task/wire.h"

namespace perfbench {

void SeamRecorder::Install(Session* session) {
  session->cluster().controller().set_phase_probe([this](const char* phase) {
    const std::int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    // "assemble" and "apply" share a first letter; assemble is recorded as 's'.
    const char tag = std::strcmp(phase, "assemble") == 0 ? 's' : phase[0];
    current_.probes.push_back({tag, now});
  });
  nimbus::Job* job = &session->job();
  session->cluster().SetDriverHandler(
      [this, job](nimbus::net::NodeAddress src, nimbus::MessageKind kind,
                  nimbus::ParameterBlob bytes) {
        if (nimbus::wire::PeekEnvelopeType(bytes) == nimbus::wire::EnvelopeType::kBlockDone) {
          const std::int64_t now = NowNs();
          std::lock_guard<std::mutex> lock(mu_);
          current_.done_ns = now;
        }
        job->OnEnvelope(src, kind, std::move(bytes));
      });
}

void SeamRecorder::Uninstall(Session* session) {
  session->cluster().controller().set_phase_probe(nullptr);
  nimbus::Job* job = &session->job();
  session->cluster().SetDriverHandler(
      [job](nimbus::net::NodeAddress src, nimbus::MessageKind kind,
            nimbus::ParameterBlob bytes) { job->OnEnvelope(src, kind, std::move(bytes)); });
}

BlockStamps SeamRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  BlockStamps out = std::move(current_);
  current_ = BlockStamps();
  return out;
}

BlockLedger Attribute(const BlockSample& sample, const BlockStamps& stamps) {
  constexpr double kUs = 1e-3;
  BlockLedger l;
  l.total = static_cast<double>(sample.return_ns - sample.call_ns) * kUs;
  const std::int64_t done = stamps.done_ns != 0 ? stamps.done_ns : sample.return_ns;
  l.wake = static_cast<double>(sample.return_ns - done) * kUs;
  if (stamps.probes.empty()) {
    l.fanout = static_cast<double>(done - sample.call_ns) * kUs;
    return l;
  }
  l.ingress = static_cast<double>(stamps.probes.front().ns - sample.call_ns) * kUs;
  for (std::size_t i = 0; i < stamps.probes.size(); ++i) {
    const BlockStamps::Probe& p = stamps.probes[i];
    std::int64_t end = i + 1 < stamps.probes.size() ? stamps.probes[i + 1].ns : done;
    if (i + 1 == stamps.probes.size() && p.phase == 'a') {
      // A block that ends in an apply: the apply ends with its span, then fanout.
      end = std::clamp(stamps.apply_end_ns, p.ns, done);
      l.fanout += static_cast<double>(done - end) * kUs;
    }
    const double d = static_cast<double>(end - p.ns) * kUs;
    switch (p.phase) {
      case 'v':
        l.validate += d;
        break;
      case 'a':
        l.apply += d;
        break;
      case 's':
        l.assemble += d;
        break;
      default:  // 'd': the dispatch hand-off opens the fan-out
        l.fanout += d;
        break;
    }
  }
  return l;
}

namespace {

// The index of the block whose [call, return] window holds `wall_ns`, or blocks.size().
std::size_t BlockAt(const std::vector<BlockSample>& blocks, std::int64_t wall_ns) {
  const auto it =
      std::upper_bound(blocks.begin(), blocks.end(), wall_ns,
                       [](std::int64_t t, const BlockSample& b) { return t < b.call_ns; });
  if (it == blocks.begin()) {
    return blocks.size();
  }
  const std::size_t b = static_cast<std::size_t>(it - blocks.begin()) - 1;
  return wall_ns > blocks[b].return_ns ? blocks.size() : b;
}

}  // namespace

void AddApplyEnds(const std::vector<nimbus::trace::Event>& events,
                  const std::vector<BlockSample>& blocks, std::vector<BlockStamps>* stamps) {
  for (const nimbus::trace::Event& e : events) {
    if (e.type != nimbus::trace::EventType::kSpan ||
        e.lane != nimbus::trace::Lane::kController ||
        std::strcmp(e.name, "apply_effects") != 0) {
      continue;
    }
    const std::size_t b = BlockAt(blocks, e.wall_ns);
    if (b < blocks.size()) {
      std::int64_t& end = (*stamps)[b].apply_end_ns;
      end = std::max(end, e.wall_ns + e.wall_dur_ns);
    }
  }
}

void AddWorkerSpans(const std::vector<nimbus::trace::Event>& events,
                    const std::vector<BlockSample>& blocks,
                    std::vector<BlockLedger>* ledgers) {
  // Per block, per worker: decode / materialize / group_start totals in microseconds.
  std::vector<std::array<std::array<double, 3>, kWorkers>> sums(blocks.size());
  for (const nimbus::trace::Event& e : events) {
    if (e.type != nimbus::trace::EventType::kSpan ||
        e.lane != nimbus::trace::Lane::kWorker || e.track >= kWorkers) {
      continue;
    }
    int kind;
    if (std::strcmp(e.name, "decode") == 0) {
      kind = 0;
    } else if (std::strcmp(e.name, "materialize") == 0) {
      kind = 1;
    } else if (std::strcmp(e.name, "group_start") == 0) {
      kind = 2;
    } else {
      continue;
    }
    const std::size_t b = BlockAt(blocks, e.wall_ns);
    if (b == blocks.size()) {
      continue;
    }
    sums[b][e.track][static_cast<std::size_t>(kind)] +=
        static_cast<double>(e.wall_dur_ns) * 1e-3;
  }
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    BlockLedger& l = (*ledgers)[b];
    for (const auto& worker : sums[b]) {
      l.decode = std::max(l.decode, worker[0]);
      l.materialize = std::max(l.materialize, worker[1]);
      l.group_start = std::max(l.group_start, worker[2]);
    }
  }
}

}  // namespace perfbench
