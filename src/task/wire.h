// Binary wire codec for command batches (DESIGN.md §10).
//
// The batched central path and the template machinery ship per-worker *groups* of commands
// whose structure is immutable between edits — only a handful of fields change per
// instantiation (the command-id base, the group sequence, the task-id base, and overridden
// parameter blobs). This codec exploits that: a batch encodes as a fixed-offset header
// carrying exactly those varying bases plus per-command records that store ids *relative*
// to the header. The encoded bytes of a cached template are therefore
// instantiation-invariant, so dispatch is memcpy + three header patches (+ in-place
// parameter overwrites), and the decoder reconstitutes absolute ids from the patched
// header.
//
// Format (all fields little-endian via BlobWriter's raw appends; version byte in the magic):
//
//   header (40 bytes, fixed offsets):
//     u32 magic "NBW1"   u32 command_count   u64 group_seq   u64 command_id_base
//     u64 task_id_base   u64 task_count
//   per-command record:
//     u8 type   u8 flags(bit0: returns_scalar)
//     u32 id_delta                      (id = command_id_base + delta)
//     u32 n + u32[] before_deltas       (before = command_id_base + delta)
//     u32 n + u64[] read_set            u32 n + u64[] write_set
//     u32 len + u8[] params             <- the patchable parameter slot
//     type-specific tail:
//       kTask:                 u64 function   u32 task_delta   i64 duration
//       kCopySend/kCopyReceive: u32 copy_index   u64 peer   u64 copy_object
//                               u64 copy_version   i64 copy_bytes
//       kData*/kFile*:          u64 data_object   u64 copy_version   i64 copy_bytes
//
// Round-trip contract: DecodeBatch(EncodeBatch(...)) reproduces the input commands
// field-for-field (Command::operator== compares every field), under the encoder's
// preconditions — each id/before/task id lies in [base, base + 2^32) of its header base,
// copy ids embed the header's group sequence, and fields foreign to a command's type hold
// their defaults (CHECKed at encode; core::CommandFromEntry satisfies all of this by
// construction). The decoder validates magic, type bytes, and every length prefix against
// the remaining buffer before allocating.

#ifndef NIMBUS_SRC_TASK_WIRE_H_
#define NIMBUS_SRC_TASK_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/logging.h"
#include "src/common/serialize.h"
#include "src/common/stats.h"
#include "src/data/payload.h"
#include "src/task/command.h"
#include "src/task/messages.h"

namespace nimbus::wire {

// "NBW1": Nimbus Batch Wire format, version 1. Bump the trailing digit on layout changes.
inline constexpr std::uint32_t kBatchMagic = 0x3157424E;

// Fixed header offsets — the instantiation-varying slots PatchHeader overwrites in place.
inline constexpr std::size_t kCommandCountOffset = 4;
inline constexpr std::size_t kGroupSeqOffset = 8;
inline constexpr std::size_t kCommandBaseOffset = 16;
inline constexpr std::size_t kTaskBaseOffset = 24;
inline constexpr std::size_t kHeaderSize = 40;

struct BatchHeader {
  std::uint32_t command_count = 0;
  std::uint64_t group_seq = 0;
  std::uint64_t command_id_base = 0;
  std::uint64_t task_id_base = 0;
  std::uint64_t task_count = 0;
};

// Byte offset of one task command's parameter field inside an encoded batch, keyed by the
// task's global entry (== task-id delta). `len_offset` addresses the u32 length prefix;
// the blob bytes follow it. Emitted in encode order, so offsets ascend.
struct ParamSlot {
  std::int32_t global_entry = -1;
  std::uint32_t len_offset = 0;
  std::uint32_t cached_len = 0;
};

// In-place/splice accounting for one ApplyParamOverrides call.
struct PatchStats {
  std::uint64_t params_patched = 0;  // same-size in-place overwrites
  bool spliced = false;              // a size change forced a segment-copy rebuild
};

// Encodes `commands` as one batch. Preconditions (CHECKed): every command id and before
// id is in [command_base, command_base + 2^32); task ids of kTask commands are in
// [task_base, task_base + 2^32); copy ids embed `group_seq`; fields foreign to a
// command's type are default. `slots` (optional out) receives one ParamSlot per kTask
// command, in encode order.
ParameterBlob EncodeBatch(std::uint64_t group_seq, CommandId command_base, TaskId task_base,
                          const std::vector<Command>& commands,
                          std::vector<ParamSlot>* slots = nullptr);

struct DecodedBatch {
  BatchHeader header;
  std::vector<Command> commands;
  // Reuse-decode storage, not part of the batch: commands a smaller batch did not need,
  // kept (with their vectors' capacity) for the next larger one.
  std::vector<Command> spare;
};

// Decodes one batch, reconstituting absolute ids from the header bases. CHECK-fails on a
// bad magic, an unknown type byte, a length prefix past the buffer, or trailing bytes.
DecodedBatch DecodeBatch(const ParameterBlob& bytes);
// Reuse form (the one decode body; the form above wraps it): decodes into `out`, keeping
// the capacity of its command list and of each command's vectors (a smaller batch parks
// the commands it does not need in `out->spare`), so a steady-state receiver refilling
// the same DecodedBatch allocates nothing. Same bounds checks.
void DecodeBatch(const ParameterBlob& bytes, DecodedBatch* out);

// Overwrites the three instantiation-varying header slots of an encoded batch in place.
void PatchHeader(ParameterBlob* bytes, std::uint64_t group_seq, CommandId command_base,
                 TaskId task_base);

// Produces the shipped buffer for one instantiation from a cached template encoding:
// `overrides` is the (global entry, blob) list sorted ascending by entry (entries with no
// slot in this batch are skipped — they belong to other workers). Same-size overrides are
// patched into a plain copy of the template; a size change falls back to one
// segment-copy rebuild. The returned buffer still carries the template's header — callers
// follow up with PatchHeader.
ParameterBlob ApplyParamOverrides(
    const ParameterBlob& tmpl, const std::vector<ParamSlot>& slots,
    const std::vector<std::pair<std::int32_t, ParameterBlob>>& overrides, PatchStats* stats);

// ---- Message envelopes (DESIGN.md §13) ----
//
// Every message that crosses the transport seam (src/net/transport.h) travels as one
// envelope: a versioned 5-byte header (u32 magic, u8 envelope type) followed by a
// type-specific body. Unlike the NBW1 batch format above — which stores ids as deltas so
// cached template bytes are instantiation-invariant — envelopes are encoded per send and
// carry every field absolutely: the decode side reconstructs the in-memory message
// field-for-field with no preconditions on the input structs. A kSerializedBatch envelope
// nests the NBW1 bytes verbatim, so the serialized-dispatch path still ships cached
// template encodings (memcpy + patch), just wrapped in an envelope header.
//
// One walk per layout: wire.cc states each record's and each envelope's fields once, in
// wire order, and three walkers run that description. One measures the exact size, one
// writes the presized buffer (blobs and id arrays in one bulk copy each), and one decodes.
// So an envelope costs one allocation (tests/task/envelope_alloc_test.cc), a nested batch
// one memcpy, and the encoder and decoder cannot disagree on a field.
//
// Decoding validates the magic, the type byte, every flag and enum byte, every int32
// range, and every length prefix against the remaining buffer before allocating; trailing
// bytes CHECK-fail (tests/task/envelope_test.cc, tests/task/wire_fuzz_test.cc).
// Fixed-stride arrays (id sets, object refs) are bounds-checked once per array.
//
// Reuse decoding: every decode assigns each field in place, and lists resize within the
// capacity they kept. The envelopes a steady-state central block receives (kCommands,
// kSerializedBatch, kSubmitStages) expose that as decode-into-caller-storage forms; the
// value-returning decoders decode into a fresh envelope through the same body
// (tests/worker/central_ingest_alloc_test.cc).

// Marks a receiver's decode scratch in use for one delivery. A TCP self-send re-enters the
// delivery handler synchronously; a nested delivery that decoded into the same scratch
// would overwrite the message its caller is still reading, so it CHECK-fails here instead.
class ScratchGuard {
 public:
  explicit ScratchGuard(bool* live) : live_(live) {
    NIMBUS_CHECK(!*live_) << "nested delivery would overwrite a live decode scratch";
    *live_ = true;
  }
  ~ScratchGuard() { *live_ = false; }
  ScratchGuard(const ScratchGuard&) = delete;
  ScratchGuard& operator=(const ScratchGuard&) = delete;

 private:
  bool* live_;
};

// "NBE3": Nimbus Envelope format, version 3. Bump the trailing digit on layout changes.
inline constexpr std::uint32_t kEnvelopeMagic = 0x3345424E;
inline constexpr std::size_t kEnvelopeHeaderSize = 5;

enum class EnvelopeType : std::uint8_t {
  // Controller -> worker.
  kCommands = 0,       // explicit command group (central dispatch, patches, checkpoint
                       // saves, recovery reloads)
  kSerializedBatch,    // NBW1-encoded command group (serialized dispatch)
  kInstallTemplate,    // cache one worker-template half
  kInstantiate,        // instantiate a cached template (params + edits)
  kHalt,               // terminate ongoing work (failure handling)
  // Worker -> controller.
  kHeartbeat,          // periodic liveness signal
  kGroupComplete,      // one group finished (carries scalar results)
  // Worker -> worker.
  kDataCopy,           // one data-copy payload (send half -> receive half)
  // Driver -> controller.
  kSubmitStages,       // run stages centrally (optionally capturing a template)
  kInstantiateRequest, // run a captured block (steady state, n+1 messages per block)
  kCheckpointRequest,  // write a checkpoint
  // Controller -> driver.
  kBlockDone,          // block finished (carries scalar results)
  kCheckpointDone,     // checkpoint finished
  kRecoveryNotice,     // a worker failed; state reverted to a checkpoint
  // Failure detection (DESIGN.md §14).
  kHeartbeatAck,       // controller -> worker: echoes a heartbeat's sequence number
  kSuspectNotice,      // controller -> driver: a worker missed beats and is suspected
};
inline constexpr std::uint8_t kEnvelopeTypeCount = 16;

// Reads and validates the envelope header, returning the type. CHECK-fails on a short
// buffer, a bad magic, or an unknown type byte.
EnvelopeType PeekEnvelopeType(const ParameterBlob& bytes);

// -- Controller -> worker --

// The two group envelopes carry one worker's share of group `group_seq`, in one frame or
// streamed over several. Every frame names the share's full command count; the worker
// takes it from the first frame and the share is complete once that many have run.
struct CommandsEnvelope {
  std::uint64_t group_seq = 0;
  std::uint64_t expected_total = 0;
  std::vector<Command> commands;
  std::vector<Command> spare;  // reuse-decode storage (see DecodedBatch); never encoded
};
ParameterBlob EncodeCommandsEnvelope(const CommandsEnvelope& e);
CommandsEnvelope DecodeCommandsEnvelope(const ParameterBlob& bytes);
void DecodeCommandsEnvelope(const ParameterBlob& bytes, CommandsEnvelope* out);

struct SerializedBatchEnvelope {
  std::uint64_t group_seq = 0;
  std::uint64_t expected_total = 0;
  ParameterBlob batch;  // NBW1 bytes (EncodeBatch), nested verbatim
};
ParameterBlob EncodeSerializedBatchEnvelope(const SerializedBatchEnvelope& e);
SerializedBatchEnvelope DecodeSerializedBatchEnvelope(const ParameterBlob& bytes);
void DecodeSerializedBatchEnvelope(const ParameterBlob& bytes, SerializedBatchEnvelope* out);

struct InstallTemplateEnvelope {
  WorkerTemplateId id;
  core::WorkerHalf half;
};
ParameterBlob EncodeInstallTemplateEnvelope(const InstallTemplateEnvelope& e);
InstallTemplateEnvelope DecodeInstallTemplateEnvelope(const ParameterBlob& bytes);

ParameterBlob EncodeInstantiateEnvelope(const InstantiateMsg& msg);
InstantiateMsg DecodeInstantiateEnvelope(const ParameterBlob& bytes);

ParameterBlob EncodeHaltEnvelope();
void DecodeHaltEnvelope(const ParameterBlob& bytes);  // validation only (empty body)

// -- Worker -> controller --

struct HeartbeatEnvelope {
  WorkerId worker;
  std::uint64_t seq = 0;  // monotonic per worker; echoed back in kHeartbeatAck
};
ParameterBlob EncodeHeartbeatEnvelope(const HeartbeatEnvelope& e);
HeartbeatEnvelope DecodeHeartbeatEnvelope(const ParameterBlob& bytes);

struct GroupCompleteEnvelope {
  WorkerId worker;
  std::uint64_t group_seq = 0;
  std::vector<ScalarResult> scalars;
};
ParameterBlob EncodeGroupCompleteEnvelope(const GroupCompleteEnvelope& e);
GroupCompleteEnvelope DecodeGroupCompleteEnvelope(const ParameterBlob& bytes);

// -- Worker -> worker --

// Payload wire coverage: ScalarPayload and VectorPayload (the two application payload
// kinds that cross worker boundaries). Encoding any other Payload subclass CHECK-fails.
struct DataCopyEnvelope {
  CopyId copy;
  LogicalObjectId object;
  Version version = 0;
  std::unique_ptr<Payload> payload;
};
ParameterBlob EncodeDataCopyEnvelope(const DataCopyEnvelope& e);
DataCopyEnvelope DecodeDataCopyEnvelope(const ParameterBlob& bytes);

// -- Driver -> controller --

// Every driver request carries `epoch`, the recovery epoch of the last kRecoveryNotice the
// driver saw. The controller runs a request only if it is the current epoch: an older one
// was sent before the driver learned of a recovery, and is answered with the notice instead
// (DESIGN.md §14.6).
struct SubmitStagesEnvelope {
  std::uint64_t request_id = 0;
  std::uint64_t epoch = 0;
  // Non-empty: capture the stages as a named template while executing (BeginTemplate /
  // SubmitStages / EndTemplate). Empty: plain central execution.
  std::string capture_name;
  std::vector<StageDescriptor> stages;
};
// Encodes straight from the caller's stage list, so the driver ships its recorded block
// definitions without copying them into an envelope struct first.
ParameterBlob EncodeSubmitStagesEnvelope(std::uint64_t request_id, std::uint64_t epoch,
                                         std::string_view capture_name,
                                         const std::vector<StageDescriptor>& stages);
SubmitStagesEnvelope DecodeSubmitStagesEnvelope(const ParameterBlob& bytes);
void DecodeSubmitStagesEnvelope(const ParameterBlob& bytes, SubmitStagesEnvelope* out);

struct InstantiateRequestEnvelope {
  std::uint64_t request_id = 0;
  std::uint64_t epoch = 0;
  std::string name;
  std::vector<std::pair<std::int32_t, ParameterBlob>> params;
  std::string next_hint;  // lookahead announcement ("" = none, DESIGN.md §9)
};
ParameterBlob EncodeInstantiateRequestEnvelope(const InstantiateRequestEnvelope& e);
InstantiateRequestEnvelope DecodeInstantiateRequestEnvelope(const ParameterBlob& bytes);

struct CheckpointRequestEnvelope {
  std::uint64_t request_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t marker = 0;
};
ParameterBlob EncodeCheckpointRequestEnvelope(const CheckpointRequestEnvelope& e);
CheckpointRequestEnvelope DecodeCheckpointRequestEnvelope(const ParameterBlob& bytes);

// -- Controller -> driver --

struct BlockDoneEnvelope {
  std::uint64_t request_id = 0;
  std::vector<ScalarResult> scalars;
};
ParameterBlob EncodeBlockDoneEnvelope(const BlockDoneEnvelope& e);
BlockDoneEnvelope DecodeBlockDoneEnvelope(const ParameterBlob& bytes);

ParameterBlob EncodeCheckpointDoneEnvelope(std::uint64_t request_id);
std::uint64_t DecodeCheckpointDoneEnvelope(const ParameterBlob& bytes);

// A recovery finished: `epoch` numbers it (1 for the first), `marker` is the checkpoint
// marker the cluster reverted to.
struct RecoveryNoticeEnvelope {
  std::uint64_t epoch = 0;
  std::uint64_t marker = 0;
};
ParameterBlob EncodeRecoveryNoticeEnvelope(const RecoveryNoticeEnvelope& e);
RecoveryNoticeEnvelope DecodeRecoveryNoticeEnvelope(const ParameterBlob& bytes);

// -- Failure detection (DESIGN.md §14) --

struct HeartbeatAckEnvelope {
  WorkerId worker;            // the acked worker (echoed so the frame is self-describing)
  std::uint64_t seq = 0;      // the heartbeat sequence being acknowledged
};
ParameterBlob EncodeHeartbeatAckEnvelope(const HeartbeatAckEnvelope& e);
HeartbeatAckEnvelope DecodeHeartbeatAckEnvelope(const ParameterBlob& bytes);

struct SuspectNoticeEnvelope {
  WorkerId worker;
  std::uint64_t missed_beats = 0;
};
ParameterBlob EncodeSuspectNoticeEnvelope(const SuspectNoticeEnvelope& e);
SuspectNoticeEnvelope DecodeSuspectNoticeEnvelope(const ParameterBlob& bytes);

}  // namespace nimbus::wire

#endif  // NIMBUS_SRC_TASK_WIRE_H_
