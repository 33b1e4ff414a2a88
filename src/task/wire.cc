#include "src/task/wire.h"

#include <algorithm>
#include <cstring>
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

// ---- Envelope building blocks ----

// Every encoder computes its envelope's exact size first and writes one presized buffer:
// one allocation per envelope, blobs and id sets appended in bulk (DESIGN.md §10.1).
// `body_size` excludes the 5-byte header.
BlobWriter StartEnvelope(EnvelopeType type, std::size_t body_size) {
  BlobWriter w;
  w.Reserve(kEnvelopeHeaderSize + body_size);
  w.WriteU32(kEnvelopeMagic);
  w.WriteU8(static_cast<std::uint8_t>(type));
  return w;
}

// Hands the encoded envelope out. A size helper that drifted from its writer would cost a
// silent reallocation, so the presize is pinned here.
ParameterBlob FinishEnvelope(BlobWriter* w, std::size_t body_size) {
  NIMBUS_CHECK_EQ(w->size(), kEnvelopeHeaderSize + body_size)
      << "envelope presize drifted from the encoder";
  return w->Take();
}

// Reads + validates the header and pins the expected type (each decoder knows what it is
// decoding; cross-type dispatch goes through PeekEnvelopeType first).
void OpenEnvelope(BlobReader* r, EnvelopeType expected) {
  const std::uint32_t magic = r->ReadU32();
  NIMBUS_CHECK_EQ(magic, kEnvelopeMagic) << "not a wire-format envelope";
  const std::uint8_t type_byte = r->ReadU8();
  NIMBUS_CHECK_LT(type_byte, kEnvelopeTypeCount) << "unknown envelope type byte";
  NIMBUS_CHECK_EQ(type_byte, static_cast<std::uint8_t>(expected))
      << "envelope type mismatch";
}

// int32 fields travel as two's-complement i64 (BlobWriter has no 32-bit signed write);
// sentinel values like -1 survive exactly.
void WriteI32(BlobWriter* w, std::int32_t v) { w->WriteI64(v); }

std::int32_t CheckedI32(std::int64_t v) {
  NIMBUS_CHECK_GE(v, INT32_MIN);
  NIMBUS_CHECK_LE(v, INT32_MAX);
  return static_cast<std::int32_t>(v);
}

std::int32_t ReadI32(BlobReader* r) { return CheckedI32(r->ReadI64()); }

void WriteLenBlob(BlobWriter* w, const ParameterBlob& blob) {
  w->WriteU32(static_cast<std::uint32_t>(blob.size()));
  w->WriteBytes(blob.data(), blob.size());
}

std::size_t LenBlobSize(const ParameterBlob& blob) { return 4 + blob.size(); }

// Fixed bytes of one full-field command record (id sets and params add to it).
constexpr std::size_t kCommandFullFixed = 98;

std::size_t CommandFullSize(const Command& cmd) {
  return kCommandFullFixed +
         8 * (cmd.before.size() + cmd.read_set.size() + cmd.write_set.size()) +
         cmd.params.size();
}

void ReadLenBlob(BlobReader* r, ParameterBlob* out) {
  const std::uint32_t n = r->ReadU32();
  r->ReadBlob(n, out);  // bounds-checked before allocation
}

// Full-field command record: unlike the NBW1 batch records, every field is on the wire
// absolutely (no header bases, no foreign-field default contract), so any Command
// round-trips exactly regardless of which control path built it.
void WriteCommandFull(BlobWriter* w, const Command& cmd) {
  w->WriteU8(static_cast<std::uint8_t>(cmd.type));
  w->WriteU64(cmd.id.value());
  WriteIdSet(w, cmd.before);
  WriteIdSet(w, cmd.read_set);
  WriteIdSet(w, cmd.write_set);
  WriteLenBlob(w, cmd.params);
  w->WriteU64(cmd.task_id.value());
  w->WriteU64(cmd.function.value());
  w->WriteI64(cmd.duration);
  w->WriteU8(cmd.returns_scalar ? 1 : 0);
  w->WriteU64(cmd.copy_id.value());
  w->WriteU64(cmd.peer.value());
  w->WriteU64(cmd.copy_object.value());
  w->WriteU64(cmd.copy_version);
  w->WriteI64(cmd.copy_bytes);
  w->WriteU64(cmd.data_object.value());
}

// Assigns every field of `cmd`, so a reused record keeps only its vectors' capacity.
void ReadCommandFull(BlobReader* r, Command* out) {
  Command& cmd = *out;
  const std::uint8_t type_byte = r->ReadU8();
  NIMBUS_CHECK_LE(type_byte, static_cast<std::uint8_t>(CommandType::kFileSave))
      << "unknown command type byte";
  cmd.type = static_cast<CommandType>(type_byte);
  cmd.id = CommandId(r->ReadU64());
  ReadIdSet(r, &cmd.before);
  ReadIdSet(r, &cmd.read_set);
  ReadIdSet(r, &cmd.write_set);
  ReadLenBlob(r, &cmd.params);
  cmd.task_id = TaskId(r->ReadU64());
  cmd.function = FunctionId(r->ReadU64());
  cmd.duration = r->ReadI64();
  const std::uint8_t scalar_flag = r->ReadU8();
  NIMBUS_CHECK_LE(scalar_flag, 1) << "unknown flag bits";
  cmd.returns_scalar = scalar_flag != 0;
  cmd.copy_id = CopyId(r->ReadU64());
  cmd.peer = WorkerId(r->ReadU64());
  cmd.copy_object = LogicalObjectId(r->ReadU64());
  cmd.copy_version = r->ReadU64();
  cmd.copy_bytes = r->ReadI64();
  cmd.data_object = LogicalObjectId(r->ReadU64());
}

void WriteWtEntry(BlobWriter* w, const core::WtEntry& e) {
  w->WriteU8(static_cast<std::uint8_t>(e.type));
  w->WriteU64(e.function.value());
  WriteI32(w, e.global_entry);
  w->WriteI64(e.duration);
  w->WriteU8(e.returns_scalar ? 1 : 0);
  WriteIdSet(w, e.reads);
  WriteIdSet(w, e.writes);
  WriteLenBlob(w, e.cached_params);
  WriteI32(w, e.copy_index);
  w->WriteU64(e.peer.value());
  w->WriteU64(e.object.value());
  w->WriteI64(e.bytes);
  w->WriteU32(static_cast<std::uint32_t>(e.before.size()));
  for (std::int32_t b : e.before) {
    WriteI32(w, b);
  }
  w->WriteU8(e.dead ? 1 : 0);
}

// Fixed bytes of one WtEntry record (id sets, params and before edges add to it).
constexpr std::size_t kWtEntryFixed = 75;

std::size_t WtEntrySize(const core::WtEntry& e) {
  return kWtEntryFixed + 8 * (e.reads.size() + e.writes.size() + e.before.size()) +
         e.cached_params.size();
}

core::WtEntry ReadWtEntry(BlobReader* r) {
  core::WtEntry e;
  const std::uint8_t type_byte = r->ReadU8();
  NIMBUS_CHECK_LE(type_byte, static_cast<std::uint8_t>(CommandType::kFileSave))
      << "unknown command type byte";
  e.type = static_cast<CommandType>(type_byte);
  e.function = FunctionId(r->ReadU64());
  e.global_entry = ReadI32(r);
  e.duration = r->ReadI64();
  const std::uint8_t scalar_flag = r->ReadU8();
  NIMBUS_CHECK_LE(scalar_flag, 1) << "unknown flag bits";
  e.returns_scalar = scalar_flag != 0;
  ReadIdSet(r, &e.reads);
  ReadIdSet(r, &e.writes);
  ReadLenBlob(r, &e.cached_params);
  e.copy_index = ReadI32(r);
  e.peer = WorkerId(r->ReadU64());
  e.object = LogicalObjectId(r->ReadU64());
  e.bytes = r->ReadI64();
  const std::uint32_t n_before = r->ReadU32();
  NIMBUS_CHECK_LE(static_cast<std::size_t>(n_before) * 8, r->remaining());
  e.before.reserve(n_before);
  for (std::uint32_t b = 0; b < n_before; ++b) {
    e.before.push_back(ReadI32(r));
  }
  const std::uint8_t dead_flag = r->ReadU8();
  NIMBUS_CHECK_LE(dead_flag, 1) << "unknown flag bits";
  e.dead = dead_flag != 0;
  return e;
}

void WriteEditOp(BlobWriter* w, const core::WorkerEditOp& op) {
  w->WriteU8(static_cast<std::uint8_t>(op.kind));
  WriteI32(w, op.index);
  WriteI32(w, op.edge);
  WriteWtEntry(w, op.entry);
}

// One edit op is a u8 kind and two i64 indexes ahead of its nested WtEntry.
constexpr std::size_t kEditOpHeader = 17;
constexpr std::size_t kEditOpFixed = kEditOpHeader + kWtEntryFixed;

std::size_t EditOpSize(const core::WorkerEditOp& op) {
  return kEditOpHeader + WtEntrySize(op.entry);
}

core::WorkerEditOp ReadEditOp(BlobReader* r) {
  core::WorkerEditOp op;
  const std::uint8_t kind_byte = r->ReadU8();
  NIMBUS_CHECK_LE(kind_byte,
                  static_cast<std::uint8_t>(core::WorkerEditOp::Kind::kTombstone))
      << "unknown edit-op kind byte";
  op.kind = static_cast<core::WorkerEditOp::Kind>(kind_byte);
  op.index = ReadI32(r);
  op.edge = ReadI32(r);
  op.entry = ReadWtEntry(r);
  return op;
}

void WriteScalarResults(BlobWriter* w, const std::vector<ScalarResult>& scalars) {
  w->WriteU32(static_cast<std::uint32_t>(scalars.size()));
  for (const ScalarResult& s : scalars) {
    w->WriteU64(s.task.value());
    w->WriteDouble(s.value);
  }
}

std::size_t ScalarResultsSize(const std::vector<ScalarResult>& scalars) {
  return 4 + 16 * scalars.size();
}

std::vector<ScalarResult> ReadScalarResults(BlobReader* r) {
  const std::uint32_t n = r->ReadU32();
  NIMBUS_CHECK_LE(static_cast<std::size_t>(n) * 16, r->remaining());
  std::vector<ScalarResult> scalars;
  scalars.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ScalarResult s;
    s.task = TaskId(r->ReadU64());
    s.value = r->ReadDouble();
    scalars.push_back(s);
  }
  return scalars;
}

void WriteSparseParams(BlobWriter* w,
                       const std::vector<std::pair<std::int32_t, ParameterBlob>>& params) {
  w->WriteU32(static_cast<std::uint32_t>(params.size()));
  for (const auto& [slot, blob] : params) {
    WriteI32(w, slot);
    WriteLenBlob(w, blob);
  }
}

std::size_t SparseParamsSize(
    const std::vector<std::pair<std::int32_t, ParameterBlob>>& params) {
  std::size_t size = 4;
  for (const auto& [slot, blob] : params) {
    size += 8 + LenBlobSize(blob);
  }
  return size;
}

std::vector<std::pair<std::int32_t, ParameterBlob>> ReadSparseParams(BlobReader* r) {
  const std::uint32_t n = r->ReadU32();
  // 12 = minimum record size (i64 slot + empty-blob length prefix).
  NIMBUS_CHECK_LE(static_cast<std::size_t>(n) * 12, r->remaining());
  std::vector<std::pair<std::int32_t, ParameterBlob>> params;
  params.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto& [slot, blob] = params.emplace_back();
    slot = ReadI32(r);
    ReadLenBlob(r, &blob);
  }
  return params;
}

void WriteObjRefs(BlobWriter* w, const std::vector<ObjRef>& refs) {
  w->WriteU32(static_cast<std::uint32_t>(refs.size()));
  for (const ObjRef& ref : refs) {
    w->WriteU64(ref.variable.value());
    WriteI32(w, ref.partition);
  }
}

// One ObjRef record: u64 variable + i64 partition.
constexpr std::size_t kObjRefSize = 16;

// Fixed bytes of one submitted task descriptor: u64 function, the two ref-set counts, the
// params length prefix, i64 placement, i64 duration and the scalar flag. Its ref sets and
// params add to it.
constexpr std::size_t kTaskDescriptorFixed = 37;

// Reads into `refs`, reusing its capacity.
void ReadObjRefs(BlobReader* r, std::vector<ObjRef>* refs) {
  const std::uint32_t n = r->ReadU32();
  // Span bounds-checks every record before the vector allocates; each partition still
  // gets its int32 range check.
  const std::uint8_t* span = r->Span(static_cast<std::size_t>(n) * kObjRefSize);
  refs->resize(n);
  for (ObjRef& ref : *refs) {
    std::uint64_t variable;
    std::int64_t partition;
    std::memcpy(&variable, span, sizeof(variable));
    std::memcpy(&partition, span + sizeof(variable), sizeof(partition));
    span += kObjRefSize;
    ref.variable = VariableId(variable);
    ref.partition = CheckedI32(partition);
  }
}

// Payload kind bytes for the data-copy envelope body.
constexpr std::uint8_t kPayloadNone = 0;
constexpr std::uint8_t kPayloadScalar = 1;
constexpr std::uint8_t kPayloadVector = 2;

void WritePayload(BlobWriter* w, const Payload* payload) {
  if (payload == nullptr) {
    w->WriteU8(kPayloadNone);
    return;
  }
  if (const auto* scalar = dynamic_cast<const ScalarPayload*>(payload)) {
    w->WriteU8(kPayloadScalar);
    w->WriteDouble(scalar->value());
    return;
  }
  if (const auto* vec = dynamic_cast<const VectorPayload*>(payload)) {
    w->WriteU8(kPayloadVector);
    w->WriteDoubleVector(vec->values());
    return;
  }
  NIMBUS_CHECK(false) << "payload type is not wire-encodable (TypedPayload<T> is "
                         "in-memory only)";
}

std::size_t PayloadSize(const Payload* payload) {
  if (const auto* vec = dynamic_cast<const VectorPayload*>(payload)) {
    return 1 + 4 + sizeof(double) * vec->values().size();
  }
  if (dynamic_cast<const ScalarPayload*>(payload) != nullptr) {
    return 1 + sizeof(double);
  }
  return 1;  // kPayloadNone (WritePayload rejects any other payload type)
}

std::unique_ptr<Payload> ReadPayload(BlobReader* r) {
  const std::uint8_t kind = r->ReadU8();
  switch (kind) {
    case kPayloadNone:
      return nullptr;
    case kPayloadScalar:
      return std::make_unique<ScalarPayload>(r->ReadDouble());
    case kPayloadVector:
      return std::make_unique<VectorPayload>(r->ReadDoubleVector());
    default:
      NIMBUS_CHECK(false) << "unknown payload kind byte";
      return nullptr;
  }
}

// Group-delivery flag bits shared by the kCommands / kSerializedBatch envelopes.
constexpr std::uint8_t kFlagFinalize = 1;
constexpr std::uint8_t kFlagBarrier = 2;

std::uint8_t GroupFlags(bool finalize, bool barrier) {
  return static_cast<std::uint8_t>((finalize ? kFlagFinalize : 0) |
                                   (barrier ? kFlagBarrier : 0));
}

// Group-delivery fields leading both group envelopes: u64 group_seq, u64 expected_total,
// u8 flags.
constexpr std::size_t kGroupFieldsSize = 17;

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
  std::size_t body = kGroupFieldsSize + 4;
  for (const Command& cmd : e.commands) {
    body += CommandFullSize(cmd);
  }
  BlobWriter w = StartEnvelope(EnvelopeType::kCommands, body);
  w.WriteU64(e.group_seq);
  w.WriteU64(e.expected_total);
  w.WriteU8(GroupFlags(e.finalize, e.barrier));
  w.WriteU32(static_cast<std::uint32_t>(e.commands.size()));
  for (const Command& cmd : e.commands) {
    WriteCommandFull(&w, cmd);
  }
  return FinishEnvelope(&w, body);
}

CommandsEnvelope DecodeCommandsEnvelope(const ParameterBlob& bytes) {
  CommandsEnvelope e;
  DecodeCommandsEnvelope(bytes, &e);
  return e;
}

void DecodeCommandsEnvelope(const ParameterBlob& bytes, CommandsEnvelope* out) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kCommands);
  CommandsEnvelope& e = *out;
  e.group_seq = r.ReadU64();
  e.expected_total = r.ReadU64();
  const std::uint8_t flags = r.ReadU8();
  NIMBUS_CHECK_LE(flags, kFlagFinalize | kFlagBarrier) << "unknown flag bits";
  e.finalize = (flags & kFlagFinalize) != 0;
  e.barrier = (flags & kFlagBarrier) != 0;
  const std::uint32_t n = r.ReadU32();
  NIMBUS_CHECK_LE(static_cast<std::size_t>(n) * kCommandFullFixed, r.remaining());
  ResizeKeepingSpares(&e.commands, &e.spare, n);
  for (Command& cmd : e.commands) {
    ReadCommandFull(&r, &cmd);
  }
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the last command record";
}

ParameterBlob EncodeSerializedBatchEnvelope(const SerializedBatchEnvelope& e) {
  const std::size_t body = kGroupFieldsSize + LenBlobSize(e.batch);
  BlobWriter w = StartEnvelope(EnvelopeType::kSerializedBatch, body);
  w.WriteU64(e.group_seq);
  w.WriteU64(e.expected_total);
  w.WriteU8(GroupFlags(e.finalize, e.barrier));
  WriteLenBlob(&w, e.batch);
  return FinishEnvelope(&w, body);
}

SerializedBatchEnvelope DecodeSerializedBatchEnvelope(const ParameterBlob& bytes) {
  SerializedBatchEnvelope e;
  DecodeSerializedBatchEnvelope(bytes, &e);
  return e;
}

void DecodeSerializedBatchEnvelope(const ParameterBlob& bytes, SerializedBatchEnvelope* out) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kSerializedBatch);
  SerializedBatchEnvelope& e = *out;
  e.group_seq = r.ReadU64();
  e.expected_total = r.ReadU64();
  const std::uint8_t flags = r.ReadU8();
  NIMBUS_CHECK_LE(flags, kFlagFinalize | kFlagBarrier) << "unknown flag bits";
  e.finalize = (flags & kFlagFinalize) != 0;
  e.barrier = (flags & kFlagBarrier) != 0;
  ReadLenBlob(&r, &e.batch);
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the nested batch";
}

ParameterBlob EncodeInstallTemplateEnvelope(const InstallTemplateEnvelope& e) {
  std::size_t body = 8 + 8 + 4;
  for (const core::WtEntry& entry : e.half.entries) {
    body += WtEntrySize(entry);
  }
  BlobWriter w = StartEnvelope(EnvelopeType::kInstallTemplate, body);
  w.WriteU64(e.id.value());
  w.WriteU64(e.half.worker.value());
  w.WriteU32(static_cast<std::uint32_t>(e.half.entries.size()));
  for (const core::WtEntry& entry : e.half.entries) {
    WriteWtEntry(&w, entry);
  }
  return FinishEnvelope(&w, body);
}

InstallTemplateEnvelope DecodeInstallTemplateEnvelope(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kInstallTemplate);
  InstallTemplateEnvelope e;
  e.id = WorkerTemplateId(r.ReadU64());
  e.half.worker = WorkerId(r.ReadU64());
  const std::uint32_t n = r.ReadU32();
  NIMBUS_CHECK_LE(static_cast<std::size_t>(n) * kWtEntryFixed, r.remaining());
  e.half.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    e.half.entries.push_back(ReadWtEntry(&r));
  }
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the last template entry";
  return e;
}

ParameterBlob EncodeInstantiateEnvelope(const InstantiateMsg& msg) {
  std::size_t body = 4 * 8 + SparseParamsSize(msg.params) + 4;
  for (const core::WorkerEditOp& op : msg.edits) {
    body += EditOpSize(op);
  }
  BlobWriter w = StartEnvelope(EnvelopeType::kInstantiate, body);
  w.WriteU64(msg.worker_template.value());
  w.WriteU64(msg.group_seq);
  w.WriteU64(msg.command_base.value());
  w.WriteU64(msg.task_base.value());
  WriteSparseParams(&w, msg.params);
  w.WriteU32(static_cast<std::uint32_t>(msg.edits.size()));
  for (const core::WorkerEditOp& op : msg.edits) {
    WriteEditOp(&w, op);
  }
  return FinishEnvelope(&w, body);
}

InstantiateMsg DecodeInstantiateEnvelope(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kInstantiate);
  InstantiateMsg msg;
  msg.worker_template = WorkerTemplateId(r.ReadU64());
  msg.group_seq = r.ReadU64();
  msg.command_base = CommandId(r.ReadU64());
  msg.task_base = TaskId(r.ReadU64());
  msg.params = ReadSparseParams(&r);
  const std::uint32_t n = r.ReadU32();
  NIMBUS_CHECK_LE(static_cast<std::size_t>(n) * kEditOpFixed, r.remaining());
  msg.edits.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    msg.edits.push_back(ReadEditOp(&r));
  }
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the last edit op";
  return msg;
}

ParameterBlob EncodeHaltEnvelope() {
  BlobWriter w = StartEnvelope(EnvelopeType::kHalt, 0);
  return FinishEnvelope(&w, 0);
}

void DecodeHaltEnvelope(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kHalt);
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the halt header";
}

ParameterBlob EncodeLoadObjectsEnvelope(const LoadObjectsEnvelope& e) {
  const std::size_t body = 8 + 4 + 8 * e.objects.size();
  BlobWriter w = StartEnvelope(EnvelopeType::kLoadObjects, body);
  w.WriteU64(e.group_seq);
  WriteIdSet(&w, e.objects);
  return FinishEnvelope(&w, body);
}

LoadObjectsEnvelope DecodeLoadObjectsEnvelope(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kLoadObjects);
  LoadObjectsEnvelope e;
  e.group_seq = r.ReadU64();
  ReadIdSet(&r, &e.objects);
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the object list";
  return e;
}

ParameterBlob EncodeHeartbeatEnvelope(const HeartbeatEnvelope& e) {
  BlobWriter w = StartEnvelope(EnvelopeType::kHeartbeat, 16);
  w.WriteU64(e.worker.value());
  w.WriteU64(e.seq);
  return FinishEnvelope(&w, 16);
}

HeartbeatEnvelope DecodeHeartbeatEnvelope(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kHeartbeat);
  HeartbeatEnvelope e;
  e.worker = WorkerId(r.ReadU64());
  e.seq = r.ReadU64();
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the heartbeat body";
  return e;
}

ParameterBlob EncodeHeartbeatAckEnvelope(const HeartbeatAckEnvelope& e) {
  BlobWriter w = StartEnvelope(EnvelopeType::kHeartbeatAck, 16);
  w.WriteU64(e.worker.value());
  w.WriteU64(e.seq);
  return FinishEnvelope(&w, 16);
}

HeartbeatAckEnvelope DecodeHeartbeatAckEnvelope(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kHeartbeatAck);
  HeartbeatAckEnvelope e;
  e.worker = WorkerId(r.ReadU64());
  e.seq = r.ReadU64();
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the heartbeat ack body";
  return e;
}

ParameterBlob EncodeSuspectNoticeEnvelope(const SuspectNoticeEnvelope& e) {
  BlobWriter w = StartEnvelope(EnvelopeType::kSuspectNotice, 16);
  w.WriteU64(e.worker.value());
  w.WriteU64(e.missed_beats);
  return FinishEnvelope(&w, 16);
}

SuspectNoticeEnvelope DecodeSuspectNoticeEnvelope(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kSuspectNotice);
  SuspectNoticeEnvelope e;
  e.worker = WorkerId(r.ReadU64());
  e.missed_beats = r.ReadU64();
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the suspect notice body";
  return e;
}

ParameterBlob EncodeGroupCompleteEnvelope(const GroupCompleteEnvelope& e) {
  const std::size_t body = 16 + ScalarResultsSize(e.scalars);
  BlobWriter w = StartEnvelope(EnvelopeType::kGroupComplete, body);
  w.WriteU64(e.worker.value());
  w.WriteU64(e.group_seq);
  WriteScalarResults(&w, e.scalars);
  return FinishEnvelope(&w, body);
}

GroupCompleteEnvelope DecodeGroupCompleteEnvelope(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kGroupComplete);
  GroupCompleteEnvelope e;
  e.worker = WorkerId(r.ReadU64());
  e.group_seq = r.ReadU64();
  e.scalars = ReadScalarResults(&r);
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the scalar list";
  return e;
}

ParameterBlob EncodeDataCopyEnvelope(const DataCopyEnvelope& e) {
  const std::size_t body = 24 + PayloadSize(e.payload.get());
  BlobWriter w = StartEnvelope(EnvelopeType::kDataCopy, body);
  w.WriteU64(e.copy.value());
  w.WriteU64(e.object.value());
  w.WriteU64(e.version);
  WritePayload(&w, e.payload.get());
  return FinishEnvelope(&w, body);
}

DataCopyEnvelope DecodeDataCopyEnvelope(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kDataCopy);
  DataCopyEnvelope e;
  e.copy = CopyId(r.ReadU64());
  e.object = LogicalObjectId(r.ReadU64());
  e.version = r.ReadU64();
  e.payload = ReadPayload(&r);
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the payload";
  return e;
}

ParameterBlob EncodeSubmitStagesEnvelope(std::uint64_t request_id,
                                         std::string_view capture_name,
                                         const std::vector<StageDescriptor>& stages) {
  std::size_t body = 8 + 4 + capture_name.size() + 4;
  for (const StageDescriptor& stage : stages) {
    body += 4 + stage.name.size() + 4;
    for (const TaskDescriptor& task : stage.tasks) {
      body += kTaskDescriptorFixed + kObjRefSize * (task.reads.size() + task.writes.size()) +
              task.params.size();
    }
  }
  BlobWriter w = StartEnvelope(EnvelopeType::kSubmitStages, body);
  w.WriteU64(request_id);
  w.WriteString(capture_name);
  w.WriteU32(static_cast<std::uint32_t>(stages.size()));
  for (const StageDescriptor& stage : stages) {
    w.WriteString(stage.name);
    w.WriteU32(static_cast<std::uint32_t>(stage.tasks.size()));
    for (const TaskDescriptor& task : stage.tasks) {
      w.WriteU64(task.function.value());
      WriteObjRefs(&w, task.reads);
      WriteObjRefs(&w, task.writes);
      WriteLenBlob(&w, task.params);
      WriteI32(&w, task.placement_partition);
      w.WriteI64(task.duration);
      w.WriteU8(task.returns_scalar ? 1 : 0);
    }
  }
  return FinishEnvelope(&w, body);
}

SubmitStagesEnvelope DecodeSubmitStagesEnvelope(const ParameterBlob& bytes) {
  SubmitStagesEnvelope e;
  DecodeSubmitStagesEnvelope(bytes, &e);
  return e;
}

void DecodeSubmitStagesEnvelope(const ParameterBlob& bytes, SubmitStagesEnvelope* out) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kSubmitStages);
  SubmitStagesEnvelope& e = *out;
  e.request_id = r.ReadU64();
  r.ReadString(&e.capture_name);
  const std::uint32_t n_stages = r.ReadU32();
  NIMBUS_CHECK_LE(static_cast<std::size_t>(n_stages) * 8, r.remaining());
  e.stages.resize(n_stages);
  for (StageDescriptor& stage : e.stages) {
    r.ReadString(&stage.name);
    const std::uint32_t n_tasks = r.ReadU32();
    NIMBUS_CHECK_LE(static_cast<std::size_t>(n_tasks) * kTaskDescriptorFixed, r.remaining());
    stage.tasks.resize(n_tasks);
    // Every field is assigned, so a reused descriptor keeps only its vectors' capacity.
    for (TaskDescriptor& task : stage.tasks) {
      task.function = FunctionId(r.ReadU64());
      ReadObjRefs(&r, &task.reads);
      ReadObjRefs(&r, &task.writes);
      ReadLenBlob(&r, &task.params);
      task.placement_partition = ReadI32(&r);
      task.duration = r.ReadI64();
      const std::uint8_t scalar_flag = r.ReadU8();
      NIMBUS_CHECK_LE(scalar_flag, 1) << "unknown flag bits";
      task.returns_scalar = scalar_flag != 0;
    }
  }
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the last stage";
}

ParameterBlob EncodeInstantiateRequestEnvelope(const InstantiateRequestEnvelope& e) {
  const std::size_t body =
      8 + 4 + e.name.size() + SparseParamsSize(e.params) + 4 + e.next_hint.size();
  BlobWriter w = StartEnvelope(EnvelopeType::kInstantiateRequest, body);
  w.WriteU64(e.request_id);
  w.WriteString(e.name);
  WriteSparseParams(&w, e.params);
  w.WriteString(e.next_hint);
  return FinishEnvelope(&w, body);
}

InstantiateRequestEnvelope DecodeInstantiateRequestEnvelope(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kInstantiateRequest);
  InstantiateRequestEnvelope e;
  e.request_id = r.ReadU64();
  e.name = r.ReadString();
  e.params = ReadSparseParams(&r);
  e.next_hint = r.ReadString();
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the lookahead hint";
  return e;
}

ParameterBlob EncodeCheckpointRequestEnvelope(const CheckpointRequestEnvelope& e) {
  BlobWriter w = StartEnvelope(EnvelopeType::kCheckpointRequest, 16);
  w.WriteU64(e.request_id);
  w.WriteU64(e.marker);
  return FinishEnvelope(&w, 16);
}

CheckpointRequestEnvelope DecodeCheckpointRequestEnvelope(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kCheckpointRequest);
  CheckpointRequestEnvelope e;
  e.request_id = r.ReadU64();
  e.marker = r.ReadU64();
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the checkpoint request";
  return e;
}

ParameterBlob EncodeBlockDoneEnvelope(const BlockDoneEnvelope& e) {
  const std::size_t body = 8 + ScalarResultsSize(e.scalars);
  BlobWriter w = StartEnvelope(EnvelopeType::kBlockDone, body);
  w.WriteU64(e.request_id);
  WriteScalarResults(&w, e.scalars);
  return FinishEnvelope(&w, body);
}

BlockDoneEnvelope DecodeBlockDoneEnvelope(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kBlockDone);
  BlockDoneEnvelope e;
  e.request_id = r.ReadU64();
  e.scalars = ReadScalarResults(&r);
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the scalar list";
  return e;
}

ParameterBlob EncodeCheckpointDoneEnvelope(std::uint64_t request_id) {
  BlobWriter w = StartEnvelope(EnvelopeType::kCheckpointDone, 8);
  w.WriteU64(request_id);
  return FinishEnvelope(&w, 8);
}

std::uint64_t DecodeCheckpointDoneEnvelope(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kCheckpointDone);
  const std::uint64_t request_id = r.ReadU64();
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the checkpoint reply";
  return request_id;
}

ParameterBlob EncodeRecoveryNoticeEnvelope(std::uint64_t marker) {
  BlobWriter w = StartEnvelope(EnvelopeType::kRecoveryNotice, 8);
  w.WriteU64(marker);
  return FinishEnvelope(&w, 8);
}

std::uint64_t DecodeRecoveryNoticeEnvelope(const ParameterBlob& bytes) {
  BlobReader r(bytes);
  OpenEnvelope(&r, EnvelopeType::kRecoveryNotice);
  const std::uint64_t marker = r.ReadU64();
  NIMBUS_CHECK(r.AtEnd()) << "trailing bytes after the recovery notice";
  return marker;
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
