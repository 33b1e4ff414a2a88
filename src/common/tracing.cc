#include "src/common/tracing.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace nimbus::trace {

std::atomic<bool> Tracer::enabled_{false};

const char* LaneName(Lane lane) {
  switch (lane) {
    case Lane::kController:
      return "controller";
    case Lane::kPipeline:
      return "pipeline";
    case Lane::kWorker:
      return "worker";
    case Lane::kNetwork:
      return "network";
  }
  return "unknown";
}

// One recording thread's ring. Written lock-free by its owning thread; read/reset under
// the tracer mutex only between runs (Enable/Clear/Snapshot are serial-phase operations).
struct Tracer::ThreadBuffer {
  std::vector<Event> ring;
  std::size_t next = 0;        // write cursor
  std::uint64_t recorded = 0;  // total events ever written since last reset
};

Tracer& Tracer::Get() {
  static Tracer* instance = new Tracer();  // leaked: thread_local caches outlive exit
  return *instance;
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  thread_local ThreadBuffer* buffer = nullptr;
  thread_local const Tracer* owner = nullptr;
  if (buffer == nullptr || owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    auto* fresh = new ThreadBuffer();  // leaked with the singleton
    fresh->ring.resize(ring_capacity_);
    buffers_.push_back(fresh);
    buffer = fresh;
    owner = this;
  }
  return buffer;
}

void Tracer::Enable(const Options& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_capacity_ = options.ring_capacity == 0 ? 1 : options.ring_capacity;
    for (ThreadBuffer* b : buffers_) {
      b->ring.assign(ring_capacity_, Event{});
      b->next = 0;
      b->recorded = 0;
    }
    seq_.store(0, std::memory_order_relaxed);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (ThreadBuffer* b : buffers_) {
    b->next = 0;
    b->recorded = 0;
  }
  seq_.store(0, std::memory_order_relaxed);
}

void Tracer::SetVirtualClock(std::function<std::int64_t()> clock, const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  virtual_clock_ = std::move(clock);
  clock_owner_ = owner;
}

void Tracer::ResetVirtualClock(const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  if (clock_owner_ == owner) {
    virtual_clock_ = nullptr;
    clock_owner_ = nullptr;
  }
}

void Tracer::Record(const Event& event) {
  ThreadBuffer* buffer = BufferForThisThread();
  Event& slot = buffer->ring[buffer->next];
  slot = event;
  slot.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  buffer->next = (buffer->next + 1) % buffer->ring.size();
  ++buffer->recorded;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t dropped = 0;
  for (const ThreadBuffer* b : buffers_) {
    if (b->recorded > b->ring.size()) {
      dropped += b->recorded - b->ring.size();
    }
  }
  return dropped;
}

std::vector<Event> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  for (const ThreadBuffer* b : buffers_) {
    const std::size_t cap = b->ring.size();
    const std::size_t count = std::min<std::uint64_t>(b->recorded, cap);
    // Oldest surviving event first: the cursor points at it once the ring has wrapped.
    const std::size_t start = b->recorded > cap ? b->next : 0;
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(b->ring[(start + i) % cap]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return out;
}

namespace {

void AppendEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') {
      out->push_back('\\');
    }
    out->push_back(*s);
  }
}

// Chrome trace timestamps are microseconds; keep nanosecond precision as fractions.
std::string Micros(std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(ns / 1000),
                static_cast<long long>(ns < 0 ? -(ns % 1000) : ns % 1000));
  return std::string(buf);
}

}  // namespace

std::string Tracer::ChromeJson() const {
  const std::vector<Event> events = Snapshot();

  // Normalize wall timestamps so the trace starts at ts=0.
  std::int64_t wall0 = 0;
  bool have_wall0 = false;
  for (const Event& e : events) {
    if (!have_wall0 || e.wall_ns < wall0) {
      wall0 = e.wall_ns;
      have_wall0 = true;
    }
  }

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&out, &first](const std::string& json) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\n" + json;
  };

  // Lane/track metadata: one "process" per lane, one named "thread" per track seen.
  bool track_seen[kLaneCount][256] = {};
  for (std::size_t lane = 0; lane < kLaneCount; ++lane) {
    emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" + std::to_string(lane + 1) +
         ",\"tid\":0,\"args\":{\"name\":\"" +
         std::string(LaneName(static_cast<Lane>(lane))) + "\"}}");
  }
  for (const Event& e : events) {
    const auto lane = static_cast<std::size_t>(e.lane);
    if (e.track < 256 && !track_seen[lane][e.track]) {
      track_seen[lane][e.track] = true;
      emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" + std::to_string(lane + 1) +
           ",\"tid\":" + std::to_string(e.track) + ",\"args\":{\"name\":\"" +
           std::string(LaneName(e.lane)) + " " + std::to_string(e.track) + "\"}}");
    }
  }

  for (const Event& e : events) {
    const std::string pid = std::to_string(static_cast<std::size_t>(e.lane) + 1);
    const std::string tid = std::to_string(e.track);
    const std::string ts = Micros(e.wall_ns - wall0);
    std::string name;
    AppendEscaped(&name, e.name);
    const std::string args = "\"virtual_us\":" + Micros(e.virtual_ns) +
                             ",\"seq\":" + std::to_string(e.seq) +
                             ",\"value\":" + std::to_string(e.value);
    switch (e.type) {
      case EventType::kSpan:
        emit("{\"name\":\"" + name + "\",\"ph\":\"X\",\"ts\":" + ts +
             ",\"dur\":" + Micros(e.wall_dur_ns) + ",\"pid\":" + pid + ",\"tid\":" + tid +
             ",\"args\":{" + args + "}}");
        break;
      case EventType::kInstant:
        emit("{\"name\":\"" + name + "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + ts +
             ",\"pid\":" + pid + ",\"tid\":" + tid + ",\"args\":{" + args + "}}");
        break;
      case EventType::kCounter:
        emit("{\"name\":\"" + name + "\",\"ph\":\"C\",\"ts\":" + ts + ",\"pid\":" + pid +
             ",\"tid\":" + tid + ",\"args\":{\"" + name + "\":" +
             std::to_string(e.value) + "}}");
        break;
    }
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = ChromeJson();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

}  // namespace nimbus::trace
