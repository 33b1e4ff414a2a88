#include "src/task/wire.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/common/logging.h"

namespace nimbus::wire {
namespace {

// Ids travel as u32 deltas off a header base: this is what makes the encoded bytes
// instantiation-invariant (patch the base, not every record).
std::uint32_t DeltaOf(std::uint64_t value, std::uint64_t base, const char* what) {
  NIMBUS_CHECK_GE(value, base) << what << " below its header base";
  const std::uint64_t delta = value - base;
  NIMBUS_CHECK_LT(delta, std::uint64_t{1} << 32) << what << " delta exceeds 32 bits";
  return static_cast<std::uint32_t>(delta);
}

// Id arrays travel as the ids' raw 8-byte values (u32 count + u64[]), so each direction
// is one bulk copy. Framing already assumes a little-endian host: BlobWriter appends raw.
template <typename Id>
void WriteIdSet(BlobWriter* w, const std::vector<Id>& ids) {
  static_assert(sizeof(Id) == sizeof(std::uint64_t) && std::is_trivially_copyable_v<Id>,
                "the bulk id-set copy needs ids that are 8 trivially copyable bytes");
  w->WriteU32(static_cast<std::uint32_t>(ids.size()));
  w->WriteBytes(ids.data(), ids.size() * sizeof(Id));
}

// Reads into `ids`, reusing its capacity.
template <typename Id>
void ReadIdSet(BlobReader* r, std::vector<Id>* ids) {
  const std::uint32_t n = r->ReadU32();
  // Span bounds-checks the whole array before the vector allocates.
  const std::uint8_t* span = r->Span(static_cast<std::size_t>(n) * sizeof(Id));
  ids->resize(n);
  if (n > 0) {
    std::memcpy(ids->data(), span, static_cast<std::size_t>(n) * sizeof(Id));
  }
}

// Sizes `items` to `n` for a reuse decode: surplus entries move to `spare` instead of being
// destroyed, and growth takes from `spare` first, so a receiver alternating between batch
// sizes keeps every entry's capacity.
template <typename T>
void ResizeKeepingSpares(std::vector<T>* items, std::vector<T>* spare, std::size_t n) {
  while (items->size() > n) {
    spare->push_back(std::move(items->back()));
    items->pop_back();
  }
  while (items->size() < n && !spare->empty()) {
    items->push_back(std::move(spare->back()));
    spare->pop_back();
  }
  items->resize(n);
}

// The encoder's type contract: fields foreign to a command's type must be default, or the
// decode side could not reproduce them (they are not on the wire).
void CheckForeignFieldsDefault(const Command& cmd) {
  switch (cmd.type) {
    case CommandType::kTask:
      NIMBUS_CHECK(!cmd.copy_id.valid() && !cmd.peer.valid() && !cmd.copy_object.valid());
      NIMBUS_CHECK(cmd.copy_version == 0 && cmd.copy_bytes == 0);
      NIMBUS_CHECK(!cmd.data_object.valid());
      break;
    case CommandType::kCopySend:
    case CommandType::kCopyReceive:
      NIMBUS_CHECK(!cmd.task_id.valid() && !cmd.function.valid());
      NIMBUS_CHECK(cmd.duration == 0 && !cmd.returns_scalar);
      NIMBUS_CHECK(!cmd.data_object.valid());
      break;
    default:
      NIMBUS_CHECK(!cmd.task_id.valid() && !cmd.function.valid());
      NIMBUS_CHECK(cmd.duration == 0 && !cmd.returns_scalar);
      NIMBUS_CHECK(!cmd.copy_id.valid() && !cmd.peer.valid() && !cmd.copy_object.valid());
      break;
  }
}

// Fixed bytes of one NBW1 record: 22 shared (type, flags, id delta and the four length
// prefixes) plus the type-specific tail.
std::size_t BatchRecordSize(const Command& cmd) {
  std::size_t tail = 0;
  switch (cmd.type) {
    case CommandType::kTask:
      tail = 20;
      break;
    case CommandType::kCopySend:
    case CommandType::kCopyReceive:
      tail = 36;
      break;
    default:
      tail = 24;
      break;
  }
  return 22 + tail + 4 * cmd.before.size() + 8 * (cmd.read_set.size() + cmd.write_set.size()) +
         cmd.params.size();
}

}  // namespace

ParameterBlob EncodeBatch(std::uint64_t group_seq, CommandId command_base, TaskId task_base,
                          const std::vector<Command>& commands,
                          std::vector<ParamSlot>* slots) {
  NIMBUS_CHECK(command_base.valid());
  std::size_t size = kHeaderSize;
  std::uint64_t task_count = 0;
  for (const Command& cmd : commands) {
    size += BatchRecordSize(cmd);
    if (cmd.type == CommandType::kTask) {
      ++task_count;
    }
  }
  BlobWriter w;
  w.Reserve(size);
  w.WriteU32(kBatchMagic);
  w.WriteU32(static_cast<std::uint32_t>(commands.size()));
  w.WriteU64(group_seq);
  w.WriteU64(command_base.value());
  w.WriteU64(task_base.value());
  w.WriteU64(task_count);
  NIMBUS_CHECK_EQ(w.size(), kHeaderSize);

  for (const Command& cmd : commands) {
    CheckForeignFieldsDefault(cmd);
    w.WriteU8(static_cast<std::uint8_t>(cmd.type));
    w.WriteU8(cmd.returns_scalar ? 1 : 0);
    w.WriteU32(DeltaOf(cmd.id.value(), command_base.value(), "command id"));
    w.WriteU32(static_cast<std::uint32_t>(cmd.before.size()));
    for (CommandId b : cmd.before) {
      w.WriteU32(DeltaOf(b.value(), command_base.value(), "before edge"));
    }
    WriteIdSet(&w, cmd.read_set);
    WriteIdSet(&w, cmd.write_set);
    if (cmd.type == CommandType::kTask && slots != nullptr) {
      NIMBUS_CHECK(task_base.valid());
      slots->push_back(ParamSlot{
          static_cast<std::int32_t>(
              DeltaOf(cmd.task_id.value(), task_base.value(), "task id")),
          static_cast<std::uint32_t>(w.size()),
          static_cast<std::uint32_t>(cmd.params.size())});
    }
    w.WriteU32(static_cast<std::uint32_t>(cmd.params.size()));
    w.WriteBytes(cmd.params.data(), cmd.params.size());
    switch (cmd.type) {
      case CommandType::kTask:
        w.WriteU64(cmd.function.value());
        w.WriteU32(DeltaOf(cmd.task_id.value(), task_base.value(), "task id"));
        w.WriteI64(cmd.duration);
        break;
      case CommandType::kCopySend:
      case CommandType::kCopyReceive:
        NIMBUS_CHECK_EQ(CopyGroupSeq(cmd.copy_id), group_seq)
            << "copy id does not embed the batch group sequence";
        w.WriteU32(static_cast<std::uint32_t>(CopyLocalIndex(cmd.copy_id)));
        w.WriteU64(cmd.peer.value());
        w.WriteU64(cmd.copy_object.value());
        w.WriteU64(cmd.copy_version);
        w.WriteI64(cmd.copy_bytes);
        break;
      default:
        w.WriteU64(cmd.data_object.value());
        w.WriteU64(cmd.copy_version);
        w.WriteI64(cmd.copy_bytes);
        break;
    }
  }
  NIMBUS_CHECK_EQ(w.size(), size) << "batch presize drifted from the encoder";
  return w.Take();
}

DecodedBatch DecodeBatch(const ParameterBlob& bytes) {
  DecodedBatch out;
  DecodeBatch(bytes, &out);
  return out;
}

void DecodeBatch(const ParameterBlob& bytes, DecodedBatch* out_batch) {
  BlobReader r(bytes);
  DecodedBatch& out = *out_batch;
  const std::uint32_t magic = r.ReadU32();
  NIMBUS_CHECK_EQ(magic, kBatchMagic) << "not a wire-format command batch";
  out.header.command_count = r.ReadU32();
  out.header.group_seq = r.ReadU64();
  out.header.command_id_base = r.ReadU64();
  out.header.task_id_base = r.ReadU64();
  out.header.task_count = r.ReadU64();

  // 42 = fixed bytes of the smallest command record (kTask: 22 shared + 20 tail); a lying
  // count must fail here, not ask the allocator for count * sizeof(Command) first.
  NIMBUS_CHECK_LE(static_cast<std::size_t>(out.header.command_count) * 42, r.remaining());
  ResizeKeepingSpares(&out.commands, &out.spare, out.header.command_count);
  std::uint64_t tasks_seen = 0;
  for (Command& cmd : out.commands) {
    cmd.ResetKeepingCapacity();
    const std::uint8_t type_byte = r.ReadU8();
    NIMBUS_CHECK_LE(type_byte, static_cast<std::uint8_t>(CommandType::kFileSave))
        << "unknown command type byte";
    cmd.type = static_cast<CommandType>(type_byte);
    const std::uint8_t flags = r.ReadU8();
    NIMBUS_CHECK_LE(flags, 1) << "unknown flag bits";
    cmd.id = CommandId(out.header.command_id_base + r.ReadU32());
    const std::uint32_t n_before = r.ReadU32();
    const std::uint8_t* before = r.Span(static_cast<std::size_t>(n_before) * 4);
    cmd.before.resize(n_before);
    for (CommandId& b : cmd.before) {
      std::uint32_t delta;
      std::memcpy(&delta, before, sizeof(delta));
      before += sizeof(delta);
      b = CommandId(out.header.command_id_base + delta);
    }
    ReadIdSet(&r, &cmd.read_set);
    ReadIdSet(&r, &cmd.write_set);
    const std::uint32_t param_len = r.ReadU32();
    r.ReadBlob(param_len, &cmd.params);
    switch (cmd.type) {
      case CommandType::kTask:
        cmd.returns_scalar = flags != 0;
        cmd.function = FunctionId(r.ReadU64());
        cmd.task_id = TaskId(out.header.task_id_base + r.ReadU32());
        cmd.duration = r.ReadI64();
        ++tasks_seen;
        break;
      case CommandType::kCopySend:
      case CommandType::kCopyReceive:
        cmd.copy_id = MakeCopyId(out.header.group_seq,
                                 static_cast<std::int32_t>(r.ReadU32()));
        cmd.peer = WorkerId(r.ReadU64());
        cmd.copy_object = LogicalObjectId(r.ReadU64());
        cmd.copy_version = r.ReadU64();
        cmd.copy_bytes = r.ReadI64();
        break;
      default:
        cmd.data_object = LogicalObjectId(r.ReadU64());
        cmd.copy_version = r.ReadU64();
        cmd.copy_bytes = r.ReadI64();
        break;
    }
  }
  NIMBUS_CHECK_EQ(tasks_seen, out.header.task_count) << "task count mismatch";
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the last command record";
}

void PatchHeader(ParameterBlob* bytes, std::uint64_t group_seq, CommandId command_base,
                 TaskId task_base) {
  NIMBUS_CHECK_GE(bytes->size(), kHeaderSize);
  const std::uint64_t base = command_base.value();
  const std::uint64_t tbase = task_base.value();
  std::memcpy(bytes->data() + kGroupSeqOffset, &group_seq, sizeof(group_seq));
  std::memcpy(bytes->data() + kCommandBaseOffset, &base, sizeof(base));
  std::memcpy(bytes->data() + kTaskBaseOffset, &tbase, sizeof(tbase));
}

namespace {

// ---- Envelope layouts ----
//
// Each record and each envelope states its wire layout once, as a field walk: `Walk(w, r)`
// hands r's fields to the walker `w` in wire order. Three walkers run every walk: Measure
// sums the exact encoded size, Write fills the presized buffer, and Read decodes in place
// with every bounds, range and flag check. So the size, the bytes and the decoder cannot
// drift apart. A field's encoding follows from its C++ type (Walker::Field):
//
//   bool, enum                     u8; the reader rejects a byte above MaxByte
//   std::int32_t                   i64 two's complement (sentinels like -1 survive); the
//                                  reader range-checks it
//   u64, i64, double, strong id    8 raw bytes (framing assumes a little-endian host)
//   string, blob, id/double list   u32 count + the raw elements, one bulk copy
//   any other list                 u32 count + each element's walk
//   a record                       its Walk

std::int32_t CheckedI32(std::int64_t v) {
  NIMBUS_CHECK_GE(v, INT32_MIN);
  NIMBUS_CHECK_LE(v, INT32_MAX);
  return static_cast<std::int32_t>(v);
}

// Payload kinds of the data-copy envelope: only the two application payloads cross worker
// boundaries.
enum class PayloadKind : std::uint8_t { kNone, kScalar, kVector };

// The largest valid value of each one-byte field.
constexpr std::uint8_t MaxByte(bool) { return 1; }
constexpr std::uint8_t MaxByte(CommandType) {
  return static_cast<std::uint8_t>(CommandType::kFileSave);
}
constexpr std::uint8_t MaxByte(core::WorkerEditOp::Kind) {
  return static_cast<std::uint8_t>(core::WorkerEditOp::Kind::kTombstone);
}
constexpr std::uint8_t MaxByte(PayloadKind) {
  return static_cast<std::uint8_t>(PayloadKind::kVector);
}

template <typename T>
struct IsStrongId : std::false_type {};
template <typename Tag>
struct IsStrongId<StrongId<Tag>> : std::true_type {};

template <typename T>
constexpr bool kIsWord = std::is_same_v<T, std::uint64_t> || std::is_same_v<T, std::int64_t> ||
                         std::is_same_v<T, double> || IsStrongId<T>::value;

template <typename T>
struct IsVector : std::false_type {};
template <typename E>
struct IsVector<std::vector<E>> : std::true_type {};

// Lists whose elements travel as raw bytes.
template <typename T>
struct IsArray : std::bool_constant<std::is_same_v<T, std::string> ||
                                    std::is_same_v<T, std::string_view>> {};
template <typename E>
struct IsArray<std::vector<E>>
    : std::bool_constant<std::is_same_v<E, std::uint8_t> || kIsWord<E>> {};

// Dispatches each walked field to the walker's encoding for its type (the table above).
template <typename Self>
struct Walker {
  template <typename... F>
  void operator()(F&... fields) {
    (Field(fields), ...);
  }

  template <typename T>
  void Field(T& v) {
    using U = std::remove_const_t<T>;
    Self& self = static_cast<Self&>(*this);
    if constexpr (std::is_same_v<U, bool> || std::is_enum_v<U>) {
      self.Byte(v);
    } else if constexpr (std::is_same_v<U, std::int32_t>) {
      self.I32(v);
    } else if constexpr (kIsWord<U>) {
      static_assert(sizeof(U) == 8 && std::is_trivially_copyable_v<U>);
      self.Word(v);
    } else if constexpr (IsArray<U>::value) {
      self.Array(v);
    } else if constexpr (IsVector<U>::value) {
      self.List(v);
    } else {
      Walk(self, v);
    }
  }
};

// Sums the exact encoded size of what it walks. `spare` lists are never encoded.
struct Measure : Walker<Measure> {
  template <typename T>
  void Byte(const T&) { size += 1; }
  void I32(std::int32_t) { size += 8; }
  template <typename T>
  void Word(const T&) { size += 8; }
  template <typename A>
  void Array(const A& a) { size += 4 + a.size() * sizeof(a[0]); }
  template <typename T>
  void List(const std::vector<T>& items, const std::vector<T>* /*spare*/ = nullptr) {
    size += 4;
    for (const T& item : items) {
      (*this)(item);
    }
  }

  std::size_t size = 0;
};

// The measured size of a default T, the least a T takes on the wire: a list count that
// claims more T's than the remaining bytes could hold fails before the list grows.
template <typename T>
std::size_t MinSize() {
  static const std::size_t size = [] {
    Measure measure;
    const T record{};
    measure(record);
    return measure.size;
  }();
  return size;
}

// Appends what it walks to a presized BlobWriter, blobs and id arrays in one copy each.
struct Write : Walker<Write> {
  explicit Write(BlobWriter* out) : out_(out) {}
  template <typename T>
  void Byte(const T& v) { out_->WriteU8(static_cast<std::uint8_t>(v)); }
  void I32(std::int32_t v) { out_->WriteI64(v); }
  template <typename T>
  void Word(const T& v) { out_->WriteBytes(&v, sizeof(v)); }
  template <typename A>
  void Array(const A& a) {
    out_->WriteU32(static_cast<std::uint32_t>(a.size()));
    out_->WriteBytes(a.data(), a.size() * sizeof(a[0]));
  }
  template <typename T>
  void List(const std::vector<T>& items, const std::vector<T>* /*spare*/ = nullptr) {
    out_->WriteU32(static_cast<std::uint32_t>(items.size()));
    for (const T& item : items) {
      (*this)(item);
    }
  }

  BlobWriter* out_;
};

// Decodes what it walks in place. Every read is bounds-checked, and every count is checked
// against the remaining bytes before its list grows. Lists resize within the capacity they
// kept, so refilling a reused envelope of the same shape allocates nothing.
struct Read : Walker<Read> {
  explicit Read(BlobReader* in) : in_(in) {}
  template <typename T>
  void Byte(T& v) {
    const std::uint8_t byte = in_->ReadU8();
    NIMBUS_CHECK_LE(byte, MaxByte(T{})) << "unknown flag, type or kind byte";
    v = static_cast<T>(byte);
  }
  void I32(std::int32_t& v) { v = CheckedI32(in_->ReadI64()); }
  template <typename T>
  void Word(T& v) { std::memcpy(&v, in_->Span(sizeof(v)), sizeof(v)); }
  template <typename A>
  void Array(A& a) {
    using E = typename A::value_type;
    const std::size_t n = in_->ReadU32();
    const std::uint8_t* span = in_->Span(n * sizeof(E));  // bounds before allocation
    if constexpr (sizeof(E) == 1) {
      const auto* first = reinterpret_cast<const E*>(span);
      a.assign(first, first + n);
    } else {
      a.resize(n);
      if (n > 0) {
        std::memcpy(a.data(), span, n * sizeof(E));
      }
    }
  }
  // `spare` (CommandsEnvelope::spare) takes the records a shorter list does not need.
  template <typename T>
  void List(std::vector<T>& items, std::vector<T>* spare = nullptr) {
    const std::size_t n = in_->ReadU32();
    NIMBUS_CHECK_LE(n * MinSize<T>(), in_->remaining());
    if (spare != nullptr) {
      ResizeKeepingSpares(&items, spare, n);
    } else {
      items.resize(n);
    }
    for (T& item : items) {
      (*this)(item);
    }
  }
  // Object refs are the bulk of a stage list: one Span bounds-checks the whole array, then
  // each record is copied out of it with only its partition's int32 range check.
  void List(std::vector<ObjRef>& refs) {
    const std::size_t stride = MinSize<ObjRef>();  // u64 variable, i64 partition
    const std::size_t n = in_->ReadU32();
    const std::uint8_t* span = in_->Span(n * stride);
    refs.resize(n);
    for (ObjRef& ref : refs) {
      std::uint64_t variable = 0;
      std::int64_t partition = 0;
      std::memcpy(&variable, span, sizeof(variable));
      std::memcpy(&partition, span + sizeof(variable), sizeof(partition));
      span += stride;
      ref.variable = VariableId(variable);
      ref.partition = CheckedI32(partition);
    }
  }

  BlobReader* in_;
};

// `Walk(w, r)` for a record type R matches R and const R alike: the read walk passes
// mutable records, the measure and write walks const ones.
template <typename T, typename R>
using IfRecord = std::enable_if_t<std::is_same_v<std::remove_const_t<T>, R>>;

// Full-field command record: unlike the NBW1 batch records, every field is on the wire
// absolutely (no header bases, no foreign-field default contract), so any Command
// round-trips exactly regardless of which control path built it.
template <typename W, typename T>
IfRecord<T, Command> Walk(W& w, T& c) {
  w(c.type, c.id, c.before, c.read_set, c.write_set, c.params, c.task_id, c.function,
    c.duration, c.returns_scalar, c.copy_id, c.peer, c.copy_object, c.copy_version,
    c.copy_bytes, c.data_object);
}

template <typename W, typename T>
IfRecord<T, core::WtEntry> Walk(W& w, T& e) {
  w(e.type, e.function, e.global_entry, e.duration, e.returns_scalar, e.reads, e.writes,
    e.cached_params, e.copy_index, e.peer, e.object, e.bytes, e.before, e.dead);
}

template <typename W, typename T>
IfRecord<T, core::WorkerEditOp> Walk(W& w, T& op) {
  w(op.kind, op.index, op.edge, op.entry);
}

template <typename W, typename T>
IfRecord<T, ScalarResult> Walk(W& w, T& s) {
  w(s.task, s.value);
}

// One sparse parameter: (global entry, blob).
template <typename W, typename T>
IfRecord<T, std::pair<std::int32_t, ParameterBlob>> Walk(W& w, T& param) {
  w(param.first, param.second);
}

template <typename W, typename T>
IfRecord<T, ObjRef> Walk(W& w, T& ref) {
  w(ref.variable, ref.partition);
}

template <typename W, typename T>
IfRecord<T, TaskDescriptor> Walk(W& w, T& t) {
  w(t.function, t.reads, t.writes, t.params, t.placement_partition, t.duration,
    t.returns_scalar);
}

template <typename W, typename T>
IfRecord<T, StageDescriptor> Walk(W& w, T& s) {
  w(s.name, s.tasks);
}

// The data-copy payload: a kind byte, then that kind's fields. Encoding dispatches on the
// payload's dynamic type (any other Payload subclass CHECK-fails); the read walk (mutable
// T) builds a fresh payload of the kind it read.
template <typename W, typename T>
IfRecord<T, std::unique_ptr<Payload>> Walk(W& w, T& payload) {
  constexpr bool kReading = !std::is_const_v<T>;
  PayloadKind kind = PayloadKind::kNone;
  if constexpr (!kReading) {
    if (dynamic_cast<const VectorPayload*>(payload.get()) != nullptr) {
      kind = PayloadKind::kVector;
    } else if (dynamic_cast<const ScalarPayload*>(payload.get()) != nullptr) {
      kind = PayloadKind::kScalar;
    } else {
      NIMBUS_CHECK(payload == nullptr)
          << "payload type is not wire-encodable (only scalar and vector payloads are)";
    }
  }
  w(kind);
  if (kind == PayloadKind::kScalar) {
    double value = kReading ? 0.0 : static_cast<const ScalarPayload&>(*payload).value();
    w(value);
    if constexpr (kReading) {
      payload = std::make_unique<ScalarPayload>(value);
    }
  } else if (kind == PayloadKind::kVector) {
    if constexpr (kReading) {
      payload = std::make_unique<VectorPayload>();
    }
    w(static_cast<std::conditional_t<kReading, VectorPayload, const VectorPayload>&>(*payload)
          .values());
  } else if constexpr (kReading) {
    payload = nullptr;
  }
}

// The two group envelopes lead with the same group-delivery fields.
template <typename W, typename T>
IfRecord<T, CommandsEnvelope> Walk(W& w, T& e) {
  w(e.group_seq, e.expected_total);
  w.List(e.commands, &e.spare);
}

template <typename W, typename T>
IfRecord<T, SerializedBatchEnvelope> Walk(W& w, T& e) {
  w(e.group_seq, e.expected_total, e.batch);
}

template <typename W, typename T>
IfRecord<T, InstallTemplateEnvelope> Walk(W& w, T& e) {
  w(e.id, e.half.worker, e.half.entries);
}

template <typename W, typename T>
IfRecord<T, InstantiateMsg> Walk(W& w, T& m) {
  w(m.worker_template, m.group_seq, m.command_base, m.task_base, m.params, m.edits);
}

template <typename W, typename T>
IfRecord<T, HeartbeatEnvelope> Walk(W& w, T& e) {
  w(e.worker, e.seq);
}

template <typename W, typename T>
IfRecord<T, GroupCompleteEnvelope> Walk(W& w, T& e) {
  w(e.worker, e.group_seq, e.scalars);
}

template <typename W, typename T>
IfRecord<T, DataCopyEnvelope> Walk(W& w, T& e) {
  w(e.copy, e.object, e.version, e.payload);
}

template <typename W, typename T>
IfRecord<T, InstantiateRequestEnvelope> Walk(W& w, T& e) {
  w(e.request_id, e.epoch, e.name, e.params, e.next_hint);
}

template <typename W, typename T>
IfRecord<T, CheckpointRequestEnvelope> Walk(W& w, T& e) {
  w(e.request_id, e.epoch, e.marker);
}

template <typename W, typename T>
IfRecord<T, RecoveryNoticeEnvelope> Walk(W& w, T& e) {
  w(e.epoch, e.marker);
}

template <typename W, typename T>
IfRecord<T, BlockDoneEnvelope> Walk(W& w, T& e) {
  w(e.request_id, e.scalars);
}

template <typename W, typename T>
IfRecord<T, HeartbeatAckEnvelope> Walk(W& w, T& e) {
  w(e.worker, e.seq);
}

template <typename W, typename T>
IfRecord<T, SuspectNoticeEnvelope> Walk(W& w, T& e) {
  w(e.worker, e.missed_beats);
}

// The one encode body: measure, start the presized envelope, write, finish. An envelope
// costs one allocation (tests/task/envelope_alloc_test.cc); the final CHECK pins the
// presize as an invariant.
template <typename... F>
ParameterBlob EncodeEnvelope(EnvelopeType type, const F&... fields) {
  Measure measure;
  measure(fields...);
  const std::size_t size = kEnvelopeHeaderSize + measure.size;
  BlobWriter out;
  out.Reserve(size);
  out.WriteU32(kEnvelopeMagic);
  out.WriteU8(static_cast<std::uint8_t>(type));
  Write writer(&out);
  writer(fields...);
  NIMBUS_CHECK_EQ(out.size(), size) << "envelope presize drifted from the encoder";
  return out.Take();
}

// Validates the header and pins the expected type (each decoder knows what it decodes;
// cross-type dispatch goes through PeekEnvelopeType first), leaving `in` at the body.
void OpenEnvelope(const ParameterBlob& bytes, EnvelopeType expected, BlobReader* in) {
  NIMBUS_CHECK(PeekEnvelopeType(bytes) == expected) << "envelope type mismatch";
  in->Span(kEnvelopeHeaderSize);
}

// The one decode body: open, read, and no trailing bytes.
template <typename... F>
void DecodeEnvelope(const ParameterBlob& bytes, EnvelopeType type, F&... fields) {
  BlobReader in(bytes);
  OpenEnvelope(bytes, type, &in);
  Read reader(&in);
  reader(fields...);
  NIMBUS_CHECK(in.AtEnd()) << "trailing bytes after the envelope body";
}

template <typename E>
E DecodeValue(const ParameterBlob& bytes, EnvelopeType type) {
  E e{};
  DecodeEnvelope(bytes, type, e);
  return e;
}

}  // namespace

EnvelopeType PeekEnvelopeType(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  const std::uint32_t magic = r.ReadU32();
  NIMBUS_CHECK_EQ(magic, kEnvelopeMagic) << "not a wire-format envelope";
  const std::uint8_t type_byte = r.ReadU8();
  NIMBUS_CHECK_LT(type_byte, kEnvelopeTypeCount) << "unknown envelope type byte";
  return static_cast<EnvelopeType>(type_byte);
}

ParameterBlob EncodeCommandsEnvelope(const CommandsEnvelope& e) {
  return EncodeEnvelope(EnvelopeType::kCommands, e);
}

CommandsEnvelope DecodeCommandsEnvelope(const ParameterBlob& bytes) {
  return DecodeValue<CommandsEnvelope>(bytes, EnvelopeType::kCommands);
}

void DecodeCommandsEnvelope(const ParameterBlob& bytes, CommandsEnvelope* out) {
  DecodeEnvelope(bytes, EnvelopeType::kCommands, *out);
}

ParameterBlob EncodeSerializedBatchEnvelope(const SerializedBatchEnvelope& e) {
  return EncodeEnvelope(EnvelopeType::kSerializedBatch, e);
}

SerializedBatchEnvelope DecodeSerializedBatchEnvelope(const ParameterBlob& bytes) {
  return DecodeValue<SerializedBatchEnvelope>(bytes, EnvelopeType::kSerializedBatch);
}

void DecodeSerializedBatchEnvelope(const ParameterBlob& bytes, SerializedBatchEnvelope* out) {
  DecodeEnvelope(bytes, EnvelopeType::kSerializedBatch, *out);
}

ParameterBlob EncodeInstallTemplateEnvelope(const InstallTemplateEnvelope& e) {
  return EncodeEnvelope(EnvelopeType::kInstallTemplate, e);
}

InstallTemplateEnvelope DecodeInstallTemplateEnvelope(const ParameterBlob& bytes) {
  return DecodeValue<InstallTemplateEnvelope>(bytes, EnvelopeType::kInstallTemplate);
}

ParameterBlob EncodeInstantiateEnvelope(const InstantiateMsg& msg) {
  return EncodeEnvelope(EnvelopeType::kInstantiate, msg);
}

InstantiateMsg DecodeInstantiateEnvelope(const ParameterBlob& bytes) {
  return DecodeValue<InstantiateMsg>(bytes, EnvelopeType::kInstantiate);
}

ParameterBlob EncodeHaltEnvelope() { return EncodeEnvelope(EnvelopeType::kHalt); }

void DecodeHaltEnvelope(const ParameterBlob& bytes) {
  DecodeEnvelope(bytes, EnvelopeType::kHalt);
}

ParameterBlob EncodeHeartbeatEnvelope(const HeartbeatEnvelope& e) {
  return EncodeEnvelope(EnvelopeType::kHeartbeat, e);
}

HeartbeatEnvelope DecodeHeartbeatEnvelope(const ParameterBlob& bytes) {
  return DecodeValue<HeartbeatEnvelope>(bytes, EnvelopeType::kHeartbeat);
}

ParameterBlob EncodeHeartbeatAckEnvelope(const HeartbeatAckEnvelope& e) {
  return EncodeEnvelope(EnvelopeType::kHeartbeatAck, e);
}

HeartbeatAckEnvelope DecodeHeartbeatAckEnvelope(const ParameterBlob& bytes) {
  return DecodeValue<HeartbeatAckEnvelope>(bytes, EnvelopeType::kHeartbeatAck);
}

ParameterBlob EncodeSuspectNoticeEnvelope(const SuspectNoticeEnvelope& e) {
  return EncodeEnvelope(EnvelopeType::kSuspectNotice, e);
}

SuspectNoticeEnvelope DecodeSuspectNoticeEnvelope(const ParameterBlob& bytes) {
  return DecodeValue<SuspectNoticeEnvelope>(bytes, EnvelopeType::kSuspectNotice);
}

ParameterBlob EncodeGroupCompleteEnvelope(const GroupCompleteEnvelope& e) {
  return EncodeEnvelope(EnvelopeType::kGroupComplete, e);
}

GroupCompleteEnvelope DecodeGroupCompleteEnvelope(const ParameterBlob& bytes) {
  return DecodeValue<GroupCompleteEnvelope>(bytes, EnvelopeType::kGroupComplete);
}

ParameterBlob EncodeDataCopyEnvelope(const DataCopyEnvelope& e) {
  return EncodeEnvelope(EnvelopeType::kDataCopy, e);
}

DataCopyEnvelope DecodeDataCopyEnvelope(const ParameterBlob& bytes) {
  return DecodeValue<DataCopyEnvelope>(bytes, EnvelopeType::kDataCopy);
}

// The encoder walks the caller's parts rather than an envelope struct, so the stage list
// is encoded where it lies; the reuse decoder walks the same four fields.
ParameterBlob EncodeSubmitStagesEnvelope(std::uint64_t request_id, std::uint64_t epoch,
                                         std::string_view capture_name,
                                         const std::vector<StageDescriptor>& stages) {
  return EncodeEnvelope(EnvelopeType::kSubmitStages, request_id, epoch, capture_name,
                        stages);
}

SubmitStagesEnvelope DecodeSubmitStagesEnvelope(const ParameterBlob& bytes) {
  SubmitStagesEnvelope e;
  DecodeSubmitStagesEnvelope(bytes, &e);
  return e;
}

void DecodeSubmitStagesEnvelope(const ParameterBlob& bytes, SubmitStagesEnvelope* out) {
  DecodeEnvelope(bytes, EnvelopeType::kSubmitStages, out->request_id, out->epoch,
                 out->capture_name, out->stages);
}

ParameterBlob EncodeInstantiateRequestEnvelope(const InstantiateRequestEnvelope& e) {
  return EncodeEnvelope(EnvelopeType::kInstantiateRequest, e);
}

InstantiateRequestEnvelope DecodeInstantiateRequestEnvelope(const ParameterBlob& bytes) {
  return DecodeValue<InstantiateRequestEnvelope>(bytes, EnvelopeType::kInstantiateRequest);
}

ParameterBlob EncodeCheckpointRequestEnvelope(const CheckpointRequestEnvelope& e) {
  return EncodeEnvelope(EnvelopeType::kCheckpointRequest, e);
}

CheckpointRequestEnvelope DecodeCheckpointRequestEnvelope(const ParameterBlob& bytes) {
  return DecodeValue<CheckpointRequestEnvelope>(bytes, EnvelopeType::kCheckpointRequest);
}

ParameterBlob EncodeBlockDoneEnvelope(const BlockDoneEnvelope& e) {
  return EncodeEnvelope(EnvelopeType::kBlockDone, e);
}

BlockDoneEnvelope DecodeBlockDoneEnvelope(const ParameterBlob& bytes) {
  return DecodeValue<BlockDoneEnvelope>(bytes, EnvelopeType::kBlockDone);
}

ParameterBlob EncodeCheckpointDoneEnvelope(std::uint64_t request_id) {
  return EncodeEnvelope(EnvelopeType::kCheckpointDone, request_id);
}

std::uint64_t DecodeCheckpointDoneEnvelope(const ParameterBlob& bytes) {
  return DecodeValue<std::uint64_t>(bytes, EnvelopeType::kCheckpointDone);
}

ParameterBlob EncodeRecoveryNoticeEnvelope(const RecoveryNoticeEnvelope& e) {
  return EncodeEnvelope(EnvelopeType::kRecoveryNotice, e);
}

RecoveryNoticeEnvelope DecodeRecoveryNoticeEnvelope(const ParameterBlob& bytes) {
  return DecodeValue<RecoveryNoticeEnvelope>(bytes, EnvelopeType::kRecoveryNotice);
}

ParameterBlob ApplyParamOverrides(
    const ParameterBlob& tmpl, const std::vector<ParamSlot>& slots,
    const std::vector<std::pair<std::int32_t, ParameterBlob>>& overrides, PatchStats* stats) {
  // Match this batch's slots against the instantiation's override list (sorted by global
  // entry; entries with no slot here belong to other workers' batches).
  std::vector<std::pair<const ParamSlot*, const ParameterBlob*>> matched;
  bool sizes_match = true;
  for (const ParamSlot& slot : slots) {
    const auto it = std::lower_bound(
        overrides.begin(), overrides.end(), slot.global_entry,
        [](const std::pair<std::int32_t, ParameterBlob>& o, std::int32_t entry) {
          return o.first < entry;
        });
    if (it == overrides.end() || it->first != slot.global_entry) {
      continue;
    }
    matched.emplace_back(&slot, &it->second);
    sizes_match = sizes_match && it->second.size() == slot.cached_len;
  }
  if (matched.empty()) {
    return tmpl;  // pure memcpy replay of the template bytes
  }
  if (sizes_match) {
    ParameterBlob out = tmpl;
    for (const auto& [slot, blob] : matched) {
      std::memcpy(out.data() + slot->len_offset + 4, blob->data(), blob->size());
      ++stats->params_patched;
    }
    return out;
  }
  // A parameter changed length: rebuild by copying the unchanged segments between slots.
  // Slots ascend by offset (encode order), so one forward sweep suffices.
  stats->spliced = true;
  std::int64_t delta = 0;
  for (const auto& [slot, blob] : matched) {
    delta += static_cast<std::int64_t>(blob->size()) -
             static_cast<std::int64_t>(slot->cached_len);
  }
  ParameterBlob out;
  out.reserve(static_cast<std::size_t>(static_cast<std::int64_t>(tmpl.size()) + delta));
  std::size_t prev = 0;
  for (const auto& [slot, blob] : matched) {
    out.insert(out.end(), tmpl.begin() + static_cast<std::ptrdiff_t>(prev),
               tmpl.begin() + slot->len_offset);
    const auto len = static_cast<std::uint32_t>(blob->size());
    const auto* len_bytes = reinterpret_cast<const std::uint8_t*>(&len);
    out.insert(out.end(), len_bytes, len_bytes + sizeof(len));
    out.insert(out.end(), blob->begin(), blob->end());
    prev = slot->len_offset + 4 + slot->cached_len;
    ++stats->params_patched;
  }
  out.insert(out.end(), tmpl.begin() + static_cast<std::ptrdiff_t>(prev), tmpl.end());
  return out;
}

}  // namespace nimbus::wire
