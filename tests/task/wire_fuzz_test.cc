// Deterministic decoder-robustness sweep (DESIGN.md §14.5): every envelope type gets a
// valid exemplar, and every exemplar gets mutated — truncated at each boundary, bit-flipped
// at each byte, length prefixes blasted to lie — then fed back through its decoder. The
// contract under test is "reject cleanly": a malformed buffer must fail a bounds CHECK (no
// crash, no over-read, no huge allocation), never misparse. ScopedCheckThrow turns the
// CHECK aborts into exceptions so thousands of cases run in-process; the CI sanitizer legs
// run this suite under ASan/UBSan, which is what actually proves "no over-read".

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/data/payload.h"
#include "src/task/command.h"
#include "src/task/messages.h"
#include "src/task/wire.h"

namespace nimbus {
namespace {

struct CorpusEntry {
  std::string name;
  wire::EnvelopeType type;
  ParameterBlob bytes;
};

Command MakeTask(std::uint64_t id) {
  Command c;
  c.id = CommandId(id);
  c.type = CommandType::kTask;
  c.read_set = {LogicalObjectId(3), LogicalObjectId(9)};
  c.write_set = {LogicalObjectId(4)};
  c.params = ParameterBlob{0xDE, 0xAD, 0xBE, 0xEF};
  c.task_id = TaskId(id + 1000);
  c.function = FunctionId(7);
  c.duration = sim::Micros(50);
  c.returns_scalar = true;
  return c;
}

// One valid encoding per envelope type; the mutation sweeps below cover all of them.
std::vector<CorpusEntry> BuildCorpus() {
  std::vector<CorpusEntry> corpus;
  auto add = [&](const char* name, wire::EnvelopeType type, ParameterBlob bytes) {
    corpus.push_back({name, type, std::move(bytes)});
  };

  wire::CommandsEnvelope commands;
  commands.group_seq = 11;
  commands.expected_total = 2;
  commands.commands = {MakeTask(100), MakeTask(101)};
  add("commands", wire::EnvelopeType::kCommands, wire::EncodeCommandsEnvelope(commands));

  wire::SerializedBatchEnvelope batch;
  batch.group_seq = 12;
  batch.batch = ParameterBlob{1, 2, 3, 4, 5, 6, 7, 8};
  add("serialized_batch", wire::EnvelopeType::kSerializedBatch,
      wire::EncodeSerializedBatchEnvelope(batch));

  wire::InstallTemplateEnvelope install;
  install.id = WorkerTemplateId(5);
  install.half.worker = WorkerId(2);
  core::WtEntry entry;
  entry.type = CommandType::kTask;
  entry.function = FunctionId(9);
  entry.global_entry = 0;
  entry.reads = {LogicalObjectId(1)};
  entry.writes = {LogicalObjectId(2)};
  install.half.entries.push_back(entry);
  add("install_template", wire::EnvelopeType::kInstallTemplate,
      wire::EncodeInstallTemplateEnvelope(install));

  InstantiateMsg inst;
  inst.worker_template = WorkerTemplateId(5);
  inst.group_seq = 13;
  inst.command_base = CommandId(1000);
  inst.task_base = TaskId(2000);
  inst.params.emplace_back(0, ParameterBlob{9, 9});
  add("instantiate", wire::EnvelopeType::kInstantiate, wire::EncodeInstantiateEnvelope(inst));

  add("halt", wire::EnvelopeType::kHalt, wire::EncodeHaltEnvelope());

  wire::HeartbeatEnvelope beat;
  beat.worker = WorkerId(3);
  beat.seq = 77;
  add("heartbeat", wire::EnvelopeType::kHeartbeat, wire::EncodeHeartbeatEnvelope(beat));

  wire::GroupCompleteEnvelope complete;
  complete.worker = WorkerId(3);
  complete.group_seq = 15;
  complete.scalars = {{TaskId(1), 0.5}, {TaskId(2), -1.25}};
  add("group_complete", wire::EnvelopeType::kGroupComplete,
      wire::EncodeGroupCompleteEnvelope(complete));

  wire::DataCopyEnvelope copy;
  copy.copy = CopyId(21);
  copy.object = LogicalObjectId(6);
  copy.version = 2;
  auto vec = std::make_unique<VectorPayload>();
  vec->values() = {1.0, 2.5, -3.0};
  copy.payload = std::move(vec);
  add("data_copy", wire::EnvelopeType::kDataCopy, wire::EncodeDataCopyEnvelope(copy));

  StageDescriptor stage;
  stage.name = "stage0";
  TaskDescriptor task;
  task.function = FunctionId(7);
  task.reads = {{VariableId(1), 0}};
  task.writes = {{VariableId(1), 0}};
  task.params = ParameterBlob{1, 2};
  stage.tasks.push_back(task);
  add("submit_stages", wire::EnvelopeType::kSubmitStages,
      wire::EncodeSubmitStagesEnvelope(31, 1, "block", {stage}));

  wire::InstantiateRequestEnvelope request;
  request.request_id = 32;
  request.epoch = 1;
  request.name = "block";
  request.params.emplace_back(1, ParameterBlob{8});
  request.next_hint = "next";
  add("instantiate_request", wire::EnvelopeType::kInstantiateRequest,
      wire::EncodeInstantiateRequestEnvelope(request));

  wire::CheckpointRequestEnvelope checkpoint;
  checkpoint.request_id = 33;
  checkpoint.epoch = 1;
  checkpoint.marker = 4;
  add("checkpoint_request", wire::EnvelopeType::kCheckpointRequest,
      wire::EncodeCheckpointRequestEnvelope(checkpoint));

  wire::BlockDoneEnvelope done;
  done.request_id = 34;
  done.scalars = {{TaskId(5), 2.0}};
  add("block_done", wire::EnvelopeType::kBlockDone, wire::EncodeBlockDoneEnvelope(done));

  add("checkpoint_done", wire::EnvelopeType::kCheckpointDone,
      wire::EncodeCheckpointDoneEnvelope(35));
  add("recovery_notice", wire::EnvelopeType::kRecoveryNotice,
      wire::EncodeRecoveryNoticeEnvelope({1, 36}));

  wire::HeartbeatAckEnvelope ack;
  ack.worker = WorkerId(3);
  ack.seq = 77;
  add("heartbeat_ack", wire::EnvelopeType::kHeartbeatAck,
      wire::EncodeHeartbeatAckEnvelope(ack));

  wire::SuspectNoticeEnvelope suspect;
  suspect.worker = WorkerId(3);
  suspect.missed_beats = 2;
  add("suspect_notice", wire::EnvelopeType::kSuspectNotice,
      wire::EncodeSuspectNoticeEnvelope(suspect));

  return corpus;
}

// Runs the decoder matching `type` on `bytes`, discarding the result. Mutations that
// corrupt the type byte still route to the original decoder — OpenEnvelope pins the type,
// so a mismatch is itself a rejection the decoder must make cleanly.
void DecodeAs(wire::EnvelopeType type, const ParameterBlob& bytes) {
  switch (type) {
    case wire::EnvelopeType::kCommands:
      wire::DecodeCommandsEnvelope(bytes);
      return;
    case wire::EnvelopeType::kSerializedBatch:
      wire::DecodeSerializedBatchEnvelope(bytes);
      return;
    case wire::EnvelopeType::kInstallTemplate:
      wire::DecodeInstallTemplateEnvelope(bytes);
      return;
    case wire::EnvelopeType::kInstantiate:
      wire::DecodeInstantiateEnvelope(bytes);
      return;
    case wire::EnvelopeType::kHalt:
      wire::DecodeHaltEnvelope(bytes);
      return;
    case wire::EnvelopeType::kHeartbeat:
      wire::DecodeHeartbeatEnvelope(bytes);
      return;
    case wire::EnvelopeType::kGroupComplete:
      wire::DecodeGroupCompleteEnvelope(bytes);
      return;
    case wire::EnvelopeType::kDataCopy:
      wire::DecodeDataCopyEnvelope(bytes);
      return;
    case wire::EnvelopeType::kSubmitStages:
      wire::DecodeSubmitStagesEnvelope(bytes);
      return;
    case wire::EnvelopeType::kInstantiateRequest:
      wire::DecodeInstantiateRequestEnvelope(bytes);
      return;
    case wire::EnvelopeType::kCheckpointRequest:
      wire::DecodeCheckpointRequestEnvelope(bytes);
      return;
    case wire::EnvelopeType::kBlockDone:
      wire::DecodeBlockDoneEnvelope(bytes);
      return;
    case wire::EnvelopeType::kCheckpointDone:
      wire::DecodeCheckpointDoneEnvelope(bytes);
      return;
    case wire::EnvelopeType::kRecoveryNotice:
      wire::DecodeRecoveryNoticeEnvelope(bytes);
      return;
    case wire::EnvelopeType::kHeartbeatAck:
      wire::DecodeHeartbeatAckEnvelope(bytes);
      return;
    case wire::EnvelopeType::kSuspectNotice:
      wire::DecodeSuspectNoticeEnvelope(bytes);
      return;
  }
  FAIL() << "unhandled envelope type " << static_cast<int>(type);
}

// True if the decoder accepted the buffer; false if it rejected via a thrown CHECK.
// Anything else (crash, over-read) is what the sanitizer legs exist to catch.
bool DecodesCleanly(wire::EnvelopeType type, const ParameterBlob& bytes) {
  try {
    DecodeAs(type, bytes);
    return true;
  } catch (const CheckFailure&) {
    return false;
  }
}

TEST(WireFuzzTest, CorpusCoversEveryEnvelopeTypeAndDecodesClean) {
  ScopedCheckThrow guard;
  const auto corpus = BuildCorpus();
  ASSERT_EQ(corpus.size(), static_cast<std::size_t>(wire::kEnvelopeTypeCount));
  std::vector<bool> seen(wire::kEnvelopeTypeCount, false);
  for (const CorpusEntry& entry : corpus) {
    SCOPED_TRACE(entry.name);
    seen[static_cast<std::size_t>(entry.type)] = true;
    EXPECT_EQ(wire::PeekEnvelopeType(entry.bytes), entry.type);
    EXPECT_TRUE(DecodesCleanly(entry.type, entry.bytes));
  }
  for (std::size_t t = 0; t < seen.size(); ++t) {
    EXPECT_TRUE(seen[t]) << "no corpus entry for envelope type " << t;
  }
}

TEST(WireFuzzTest, EveryTruncationOfEveryEnvelopeIsRejected) {
  ScopedCheckThrow guard;
  for (const CorpusEntry& entry : BuildCorpus()) {
    SCOPED_TRACE(entry.name);
    // Every strict prefix must fail: the decoders read length prefixes before content and
    // finish with an at-end check, so no shorter buffer can parse as complete.
    for (std::size_t cut = 0; cut < entry.bytes.size(); ++cut) {
      ParameterBlob truncated(entry.bytes.begin(),
                              entry.bytes.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(DecodesCleanly(entry.type, truncated)) << "cut at " << cut;
    }
    // One extra byte is a trailing-bytes rejection.
    ParameterBlob padded = entry.bytes;
    padded.push_back(0);
    EXPECT_FALSE(DecodesCleanly(entry.type, padded));
  }
}

TEST(WireFuzzTest, BitFlipsAtEveryByteNeverCrashTheDecoder) {
  ScopedCheckThrow guard;
  for (const CorpusEntry& entry : BuildCorpus()) {
    SCOPED_TRACE(entry.name);
    for (std::size_t i = 0; i < entry.bytes.size(); ++i) {
      for (std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xFF}}) {
        ParameterBlob mutated = entry.bytes;
        mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ mask);
        // A flip inside a value field may still decode (to a different value); a flip in a
        // magic, type, flag, or length byte must reject. Either way: no crash, no
        // over-read — the decode must return or throw.
        DecodesCleanly(entry.type, mutated);
      }
    }
  }
}

TEST(WireFuzzTest, LyingLengthPrefixesAreRejectedBeforeAllocating) {
  ScopedCheckThrow guard;
  for (const CorpusEntry& entry : BuildCorpus()) {
    SCOPED_TRACE(entry.name);
    if (entry.bytes.size() < wire::kEnvelopeHeaderSize + 4) {
      continue;  // no body word to lie in
    }
    // Saturate every aligned-ish 4-byte window past the header. Windows that land on a
    // count or length prefix now claim ~4 billion elements; the decoder must reject
    // against the remaining buffer before allocating. Windows on value fields just decode
    // to garbage values — fine, as long as nothing crashes.
    for (std::size_t off = wire::kEnvelopeHeaderSize; off + 4 <= entry.bytes.size(); ++off) {
      ParameterBlob mutated = entry.bytes;
      for (std::size_t b = 0; b < 4; ++b) {
        mutated[off + b] = 0xFF;
      }
      DecodesCleanly(entry.type, mutated);
    }
  }
}

TEST(WireFuzzTest, DecodingAsEveryWrongTypeIsRejected) {
  ScopedCheckThrow guard;
  const auto corpus = BuildCorpus();
  for (const CorpusEntry& entry : corpus) {
    SCOPED_TRACE(entry.name);
    for (const CorpusEntry& other : corpus) {
      if (other.type == entry.type) {
        continue;
      }
      // The envelope header pins the type; every cross-type decode must reject.
      EXPECT_FALSE(DecodesCleanly(other.type, entry.bytes))
          << "decoded " << entry.name << " as " << other.name;
    }
  }
}

// The nested NBW1 batch codec gets the same treatment: it is what the serialized-dispatch
// hot path memcpys around, so its bounds discipline matters as much as the envelopes'.
ParameterBlob EncodeSampleBatch() {
  const std::uint64_t group_seq = 40;
  const CommandId base(5000);
  const TaskId task_base(6000);
  std::vector<Command> commands;
  Command task = MakeTask(5000);
  task.task_id = TaskId(6000);
  commands.push_back(task);
  Command send;
  send.id = CommandId(5001);
  send.type = CommandType::kCopySend;
  send.before = {CommandId(5000)};
  send.copy_id = MakeCopyId(group_seq, 0);
  send.peer = WorkerId(1);
  send.copy_object = LogicalObjectId(4);
  send.copy_version = 3;
  send.copy_bytes = 1024;
  commands.push_back(send);
  return wire::EncodeBatch(group_seq, base, task_base, commands);
}

TEST(WireFuzzTest, BatchTruncationsAndFlipsAreRejectedOrHarmless) {
  ScopedCheckThrow guard;
  const ParameterBlob bytes = EncodeSampleBatch();

  auto decodes = [](const ParameterBlob& blob) {
    try {
      wire::DecodeBatch(blob);
      return true;
    } catch (const CheckFailure&) {
      return false;
    }
  };
  ASSERT_TRUE(decodes(bytes));

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ParameterBlob truncated(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decodes(truncated)) << "cut at " << cut;
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    ParameterBlob mutated = bytes;
    mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ 0xFF);
    decodes(mutated);  // reject-or-parse; must not crash or over-read
  }
}

}  // namespace
}  // namespace nimbus
