// Envelope codec (src/task/wire.h, DESIGN.md §13).
//
// Everything that crosses the transport seam travels as an encoded envelope; these tests
// pin the codec's contract: exact round-tripping for every envelope type (randomized over
// field shapes), and CHECK-fail discipline for malformed buffers — truncations at any
// boundary, trailing bytes, bad magics, and unknown type bytes must die loudly rather than
// misparse.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/data/payload.h"
#include "src/task/command.h"
#include "src/task/messages.h"
#include "src/task/wire.h"

namespace nimbus {
namespace {

ParameterBlob RandomBlob(std::mt19937_64& rng, std::size_t size) {
  ParameterBlob blob(size);
  for (auto& b : blob) {
    b = static_cast<std::uint8_t>(rng());
  }
  return blob;
}

// Random full-field commands: the envelope codec encodes every field of every command
// (unlike the NBW1 batch codec there is no base-relative contract to respect).
std::vector<Command> RandomCommands(std::mt19937_64& rng, std::size_t n) {
  std::vector<Command> cmds;
  for (std::size_t i = 0; i < n; ++i) {
    Command c;
    c.id = CommandId(rng() % 1'000'000);
    c.type = static_cast<CommandType>(rng() % 7);
    const std::size_t n_before = rng() % 4;
    for (std::size_t b = 0; b < n_before; ++b) {
      c.before.emplace_back(rng() % 1'000'000);
    }
    const std::size_t n_reads = rng() % 5;
    for (std::size_t r = 0; r < n_reads; ++r) {
      c.read_set.emplace_back(rng() % 10'000);
    }
    const std::size_t n_writes = rng() % 3;
    for (std::size_t w = 0; w < n_writes; ++w) {
      c.write_set.emplace_back(rng() % 10'000);
    }
    if (rng() % 2 == 0) {
      c.params = RandomBlob(rng, rng() % 200);
    }
    c.task_id = TaskId(rng() % 1'000'000);
    c.function = FunctionId(rng() % 50);
    c.duration = static_cast<sim::Duration>(rng() % 1'000'000);
    c.returns_scalar = rng() % 2 == 0;
    c.copy_id = CopyId(rng() % 1'000'000);
    c.peer = WorkerId(rng() % 100);
    c.copy_object = LogicalObjectId(rng() % 10'000);
    c.copy_version = rng() % 1'000;
    c.copy_bytes = static_cast<std::int64_t>(rng() % 1'000'000);
    c.data_object = LogicalObjectId(rng() % 10'000);
    cmds.push_back(std::move(c));
  }
  return cmds;
}

TEST(EnvelopeCodecTest, CommandsEnvelopeRandomizedRoundTrip) {
  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 20; ++round) {
    wire::CommandsEnvelope e;
    e.group_seq = rng();
    e.expected_total = rng() % 500;
    e.commands = RandomCommands(rng, rng() % 40);

    const ParameterBlob bytes = wire::EncodeCommandsEnvelope(e);
    ASSERT_EQ(wire::PeekEnvelopeType(bytes), wire::EnvelopeType::kCommands);
    const wire::CommandsEnvelope d = wire::DecodeCommandsEnvelope(bytes);
    EXPECT_EQ(d.group_seq, e.group_seq);
    EXPECT_EQ(d.expected_total, e.expected_total);
    ASSERT_EQ(d.commands.size(), e.commands.size());
    for (std::size_t i = 0; i < e.commands.size(); ++i) {
      EXPECT_EQ(d.commands[i], e.commands[i]) << "command " << i;
    }
    // Re-encoding the decoded envelope must reproduce the bytes exactly.
    EXPECT_EQ(wire::EncodeCommandsEnvelope(d), bytes);
  }
}

TEST(EnvelopeCodecTest, SerializedBatchEnvelopeNestsBytesVerbatim) {
  std::mt19937_64 rng(7);
  wire::SerializedBatchEnvelope e;
  e.group_seq = 42;
  e.expected_total = 17;
  e.batch = RandomBlob(rng, 513);

  const ParameterBlob bytes = wire::EncodeSerializedBatchEnvelope(e);
  const wire::SerializedBatchEnvelope d = wire::DecodeSerializedBatchEnvelope(bytes);
  EXPECT_EQ(d.group_seq, 42u);
  EXPECT_EQ(d.expected_total, 17u);
  EXPECT_EQ(d.batch, e.batch);
}

TEST(EnvelopeCodecTest, InstallTemplateEnvelopeRoundTripsEveryEntryField) {
  core::WorkerHalf half;
  half.worker = WorkerId(3);
  for (int i = 0; i < 5; ++i) {
    core::WtEntry entry;
    entry.type = i % 2 == 0 ? CommandType::kTask : CommandType::kCopySend;
    entry.function = FunctionId(static_cast<std::uint64_t>(10 + i));
    entry.global_entry = i;
    entry.duration = sim::Millis(i + 1);
    entry.returns_scalar = i == 4;
    entry.reads = {LogicalObjectId(static_cast<std::uint64_t>(i)), LogicalObjectId(99)};
    entry.writes = {LogicalObjectId(static_cast<std::uint64_t>(100 + i))};
    half.entries.push_back(entry);
  }
  wire::InstallTemplateEnvelope e;
  e.id = WorkerTemplateId(9);
  e.half = half;

  const ParameterBlob bytes = wire::EncodeInstallTemplateEnvelope(e);
  ASSERT_EQ(wire::PeekEnvelopeType(bytes), wire::EnvelopeType::kInstallTemplate);
  const wire::InstallTemplateEnvelope d = wire::DecodeInstallTemplateEnvelope(bytes);
  EXPECT_EQ(d.id, WorkerTemplateId(9));
  EXPECT_EQ(d.half.worker, WorkerId(3));
  ASSERT_EQ(d.half.entries.size(), half.entries.size());
  for (std::size_t i = 0; i < half.entries.size(); ++i) {
    const core::WtEntry& a = half.entries[i];
    const core::WtEntry& b = d.half.entries[i];
    EXPECT_EQ(b.type, a.type);
    EXPECT_EQ(b.function, a.function);
    EXPECT_EQ(b.global_entry, a.global_entry);
    EXPECT_EQ(b.duration, a.duration);
    EXPECT_EQ(b.returns_scalar, a.returns_scalar);
    EXPECT_EQ(b.reads, a.reads);
    EXPECT_EQ(b.writes, a.writes);
  }
}

TEST(EnvelopeCodecTest, InstantiateEnvelopeRoundTripsParamsAndSeq) {
  std::mt19937_64 rng(11);
  InstantiateMsg msg;
  msg.worker_template = WorkerTemplateId(5);
  msg.group_seq = 1234;
  msg.command_base = CommandId(1'000'000);
  msg.task_base = TaskId(500'000);
  msg.params.emplace_back(0, RandomBlob(rng, 8));
  msg.params.emplace_back(7, RandomBlob(rng, 0));
  msg.params.emplace_back(12, RandomBlob(rng, 300));

  const ParameterBlob bytes = wire::EncodeInstantiateEnvelope(msg);
  const InstantiateMsg d = wire::DecodeInstantiateEnvelope(bytes);
  EXPECT_EQ(d.worker_template, msg.worker_template);
  EXPECT_EQ(d.group_seq, msg.group_seq);
  EXPECT_EQ(d.command_base, msg.command_base);
  EXPECT_EQ(d.task_base, msg.task_base);
  ASSERT_EQ(d.params.size(), msg.params.size());
  for (std::size_t i = 0; i < msg.params.size(); ++i) {
    EXPECT_EQ(d.params[i], msg.params[i]) << "param " << i;
  }
  EXPECT_TRUE(d.edits.empty());
}

TEST(EnvelopeCodecTest, ControlEnvelopesRoundTrip) {
  wire::DecodeHaltEnvelope(wire::EncodeHaltEnvelope());

  wire::HeartbeatEnvelope hb;
  hb.worker = WorkerId(7);
  hb.seq = 42;
  const wire::HeartbeatEnvelope hbd =
      wire::DecodeHeartbeatEnvelope(wire::EncodeHeartbeatEnvelope(hb));
  EXPECT_EQ(hbd.worker, WorkerId(7));
  EXPECT_EQ(hbd.seq, 42u);

  wire::HeartbeatAckEnvelope ack;
  ack.worker = WorkerId(7);
  ack.seq = 42;
  const wire::HeartbeatAckEnvelope ackd =
      wire::DecodeHeartbeatAckEnvelope(wire::EncodeHeartbeatAckEnvelope(ack));
  EXPECT_EQ(ackd.worker, WorkerId(7));
  EXPECT_EQ(ackd.seq, 42u);

  wire::SuspectNoticeEnvelope suspect;
  suspect.worker = WorkerId(3);
  suspect.missed_beats = 2;
  const wire::SuspectNoticeEnvelope suspectd =
      wire::DecodeSuspectNoticeEnvelope(wire::EncodeSuspectNoticeEnvelope(suspect));
  EXPECT_EQ(suspectd.worker, WorkerId(3));
  EXPECT_EQ(suspectd.missed_beats, 2u);

  wire::GroupCompleteEnvelope gc;
  gc.worker = WorkerId(2);
  gc.group_seq = 31;
  gc.scalars = {{TaskId(10), 1.5}, {TaskId(11), -2.25}};
  const wire::GroupCompleteEnvelope gcd =
      wire::DecodeGroupCompleteEnvelope(wire::EncodeGroupCompleteEnvelope(gc));
  EXPECT_EQ(gcd.worker, WorkerId(2));
  EXPECT_EQ(gcd.group_seq, 31u);
  ASSERT_EQ(gcd.scalars.size(), 2u);
  EXPECT_EQ(gcd.scalars[0].task, TaskId(10));
  EXPECT_DOUBLE_EQ(gcd.scalars[0].value, 1.5);
  EXPECT_EQ(gcd.scalars[1].task, TaskId(11));
  EXPECT_DOUBLE_EQ(gcd.scalars[1].value, -2.25);
}

TEST(EnvelopeCodecTest, DriverEnvelopesRoundTrip) {
  wire::InstantiateRequestEnvelope ir;
  ir.request_id = 5;
  ir.epoch = 2;
  ir.name = "lr_inner";
  ir.params.emplace_back(3, ParameterBlob{1, 2, 3});
  ir.next_hint = "lr_outer";
  const wire::InstantiateRequestEnvelope ird =
      wire::DecodeInstantiateRequestEnvelope(wire::EncodeInstantiateRequestEnvelope(ir));
  EXPECT_EQ(ird.request_id, 5u);
  EXPECT_EQ(ird.epoch, 2u);
  EXPECT_EQ(ird.name, "lr_inner");
  ASSERT_EQ(ird.params.size(), 1u);
  EXPECT_EQ(ird.params[0], ir.params[0]);
  EXPECT_EQ(ird.next_hint, "lr_outer");

  wire::CheckpointRequestEnvelope cr;
  cr.request_id = 6;
  cr.epoch = 3;
  cr.marker = 40;
  const wire::CheckpointRequestEnvelope crd =
      wire::DecodeCheckpointRequestEnvelope(wire::EncodeCheckpointRequestEnvelope(cr));
  EXPECT_EQ(crd.request_id, 6u);
  EXPECT_EQ(crd.epoch, 3u);
  EXPECT_EQ(crd.marker, 40u);

  wire::BlockDoneEnvelope bd;
  bd.request_id = 7;
  bd.scalars = {{TaskId(1), 0.5}};
  const wire::BlockDoneEnvelope bdd =
      wire::DecodeBlockDoneEnvelope(wire::EncodeBlockDoneEnvelope(bd));
  EXPECT_EQ(bdd.request_id, 7u);
  ASSERT_EQ(bdd.scalars.size(), 1u);
  EXPECT_EQ(bdd.scalars[0].task, TaskId(1));

  EXPECT_EQ(wire::DecodeCheckpointDoneEnvelope(wire::EncodeCheckpointDoneEnvelope(9)), 9u);
  const wire::RecoveryNoticeEnvelope rnd =
      wire::DecodeRecoveryNoticeEnvelope(wire::EncodeRecoveryNoticeEnvelope({4, 13}));
  EXPECT_EQ(rnd.epoch, 4u);
  EXPECT_EQ(rnd.marker, 13u);
}

TEST(EnvelopeCodecTest, DataCopyEnvelopeCarriesScalarAndVectorPayloads) {
  wire::DataCopyEnvelope e;
  e.copy = CopyId(77);
  e.object = LogicalObjectId(5);
  e.version = 3;
  e.payload = std::make_unique<ScalarPayload>(6.75);
  const wire::DataCopyEnvelope d =
      wire::DecodeDataCopyEnvelope(wire::EncodeDataCopyEnvelope(e));
  EXPECT_EQ(d.copy, CopyId(77));
  EXPECT_EQ(d.object, LogicalObjectId(5));
  EXPECT_EQ(d.version, 3u);
  const auto* s = dynamic_cast<const ScalarPayload*>(d.payload.get());
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value(), 6.75);

  wire::DataCopyEnvelope v;
  v.copy = CopyId(78);
  v.object = LogicalObjectId(6);
  v.version = 4;
  auto vec = std::make_unique<VectorPayload>();
  vec->values() = {1.0, -2.5, 3.125};
  v.payload = std::move(vec);
  const wire::DataCopyEnvelope vd =
      wire::DecodeDataCopyEnvelope(wire::EncodeDataCopyEnvelope(v));
  const auto* pv = dynamic_cast<const VectorPayload*>(vd.payload.get());
  ASSERT_NE(pv, nullptr);
  EXPECT_EQ(pv->values(), (std::vector<double>{1.0, -2.5, 3.125}));
}

// ---- Wire-format pin ----
//
// One fixed envelope of each hot type, encoded and compared against bytes captured from
// the per-field encoder this codec replaced: presizing and bulk copies changed no byte.

std::string Hex(const ParameterBlob& bytes) {
  std::string out;
  char digits[3];
  for (std::uint8_t b : bytes) {
    std::snprintf(digits, sizeof(digits), "%02x", b);
    out += digits;
  }
  return out;
}

ParameterBlob GoldenBatchEnvelope() {
  Command task;
  task.type = CommandType::kTask;
  task.id = CommandId(1001);
  task.before = {CommandId(1000)};
  task.read_set = {LogicalObjectId(7), LogicalObjectId(8)};
  task.write_set = {LogicalObjectId(9)};
  task.params = {0xA1, 0xB2, 0xC3};
  task.task_id = TaskId(502);
  task.function = FunctionId(4);
  task.duration = 250;
  task.returns_scalar = true;
  Command send;
  send.type = CommandType::kCopySend;
  send.id = CommandId(1002);
  send.before = {CommandId(1001)};
  send.read_set = {LogicalObjectId(9)};
  send.copy_id = MakeCopyId(6, 3);
  send.peer = WorkerId(2);
  send.copy_object = LogicalObjectId(9);
  send.copy_version = 5;
  send.copy_bytes = 4096;
  wire::SerializedBatchEnvelope e;
  e.group_seq = 6;
  e.expected_total = 2;
  e.batch = wire::EncodeBatch(6, CommandId(1000), TaskId(500), {task, send});
  return wire::EncodeSerializedBatchEnvelope(e);
}

ParameterBlob GoldenCommandsEnvelope() {
  Command c;
  c.type = CommandType::kCopyReceive;
  c.id = CommandId(0x0102030405060708);
  c.before = {CommandId(3), CommandId(4)};
  c.read_set = {LogicalObjectId(11)};
  c.write_set = {LogicalObjectId(12), LogicalObjectId(13)};
  c.params = {0xDE, 0xAD};
  c.task_id = TaskId(21);
  c.function = FunctionId(22);
  c.duration = -5;
  c.returns_scalar = true;
  c.copy_id = CopyId(23);
  c.peer = WorkerId(24);
  c.copy_object = LogicalObjectId(25);
  c.copy_version = 26;
  c.copy_bytes = 27;
  c.data_object = LogicalObjectId(28);
  wire::CommandsEnvelope e;
  e.group_seq = 77;
  e.expected_total = 1;
  e.commands = {c};
  return wire::EncodeCommandsEnvelope(e);
}

std::vector<StageDescriptor> GoldenStages() {
  TaskDescriptor map;
  map.function = FunctionId(3);
  map.reads = {ObjRef{VariableId(1), 0}, ObjRef{VariableId(2), -1}};
  map.writes = {ObjRef{VariableId(4), 7}};
  map.params = {0x10, 0x20, 0x30, 0x40};
  map.placement_partition = -1;
  map.duration = 1500;
  TaskDescriptor reduce;
  reduce.function = FunctionId(5);
  reduce.reads = {ObjRef{VariableId(4), 7}};
  reduce.placement_partition = 2;
  reduce.duration = 40;
  reduce.returns_scalar = true;
  StageDescriptor first;
  first.name = "map";
  first.tasks = {map};
  StageDescriptor second;
  second.name = "reduce";
  second.tasks = {reduce};
  return {first, second};
}

TEST(EnvelopeCodecTest, GoldenBytesSerializedBatchEnvelope) {
  EXPECT_EQ(Hex(GoldenBatchEnvelope()),
      "4e4245330106000000000000000200000000000000b70000004e42573102000000060000000000"
      "0000e803000000000000f40100000000000001000000000000000001010000000100000000000000"
      "020000000700000000000000080000000000000001000000090000000000000003000000a1b2c304"
      "0000000000000002000000fa00000000000000010002000000010000000100000001000000090000"
      "00000000000000000000000000030000000200000000000000090000000000000005000000000000"
      "000010000000000000");
}

TEST(EnvelopeCodecTest, GoldenBytesCommandsEnvelope) {
  EXPECT_EQ(Hex(GoldenCommandsEnvelope()),
      "4e424533004d000000000000000100000000000000010000000208070605040302010200000003"
      "000000000000000400000000000000010000000b00000000000000020000000c000000000000000d"
      "0000000000000002000000dead15000000000000001600000000000000fbffffffffffffff011700"
      "000000000000180000000000000019000000000000001a000000000000001b000000000000001c00"
      "000000000000");
}

TEST(EnvelopeCodecTest, GoldenBytesSubmitStagesEnvelope) {
  EXPECT_EQ(Hex(wire::EncodeSubmitStagesEnvelope(9, 10, "lr", GoldenStages())),
      "4e4245330809000000000000000a00000000000000020000006c7202000000030000006d61700100"
      "0000030000000000000002000000010000000000000000000000000000000200000000000000ffff"
      "ffffffffffff01000000040000000000000007000000000000000400000010203040ffffffffffff"
      "ffffdc05000000000000000600000072656475636501000000050000000000000001000000040000"
      "0000000000070000000000000000000000000000000200000000000000280000000000000001");
}

// Every remaining envelope type, one fixture each. Every field holds a distinct non-default
// value, so two swapped fields of one type change the bytes.

core::WtEntry GoldenWtEntry() {
  core::WtEntry e;
  e.type = CommandType::kCopyReceive;
  e.function = FunctionId(41);
  e.global_entry = 42;
  e.duration = 43;
  e.returns_scalar = true;
  e.reads = {LogicalObjectId(44), LogicalObjectId(45)};
  e.writes = {LogicalObjectId(46)};
  e.cached_params = {0xC1, 0xC2};
  e.copy_index = 47;
  e.peer = WorkerId(48);
  e.object = LogicalObjectId(49);
  e.bytes = 50;
  e.before = {-3, 51};
  e.dead = true;
  return e;
}

struct GoldenCase {
  const char* name;
  ParameterBlob bytes;
  const char* hex;
};

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;

  wire::InstallTemplateEnvelope install;
  install.id = WorkerTemplateId(61);
  install.half.worker = WorkerId(62);
  install.half.entries = {GoldenWtEntry()};
  cases.push_back({"install_template", wire::EncodeInstallTemplateEnvelope(install),
      "4e424533023d000000000000003e00000000000000010000000229000000000000002a0000000000"
      "00002b0000000000000001020000002c000000000000002d00000000000000010000002e00000000"
      "00000002000000c1c22f000000000000003000000000000000310000000000000032000000000000"
      "0002000000fdffffffffffffff330000000000000001"});

  InstantiateMsg inst;
  inst.worker_template = WorkerTemplateId(71);
  inst.group_seq = 72;
  inst.command_base = CommandId(73);
  inst.task_base = TaskId(74);
  inst.params = {{75, ParameterBlob{0xA7, 0xA8}}, {-76, ParameterBlob{}}};
  core::WorkerEditOp op;
  op.kind = core::WorkerEditOp::Kind::kAddBeforeEdge;
  op.index = 77;
  op.edge = 78;
  op.entry = GoldenWtEntry();
  inst.edits = {op};
  cases.push_back({"instantiate", wire::EncodeInstantiateEnvelope(inst),
      "4e424533034700000000000000480000000000000049000000000000004a00000000000000020000"
      "004b0000000000000002000000a7a8b4ffffffffffffff0000000001000000024d00000000000000"
      "4e000000000000000229000000000000002a000000000000002b0000000000000001020000002c00"
      "0000000000002d00000000000000010000002e0000000000000002000000c1c22f00000000000000"
      "30000000000000003100000000000000320000000000000002000000fdffffffffffffff33000000"
      "0000000001"});

  cases.push_back({"halt", wire::EncodeHaltEnvelope(),
      "4e42453304"});

  wire::HeartbeatEnvelope beat;
  beat.worker = WorkerId(91);
  beat.seq = 92;
  cases.push_back({"heartbeat", wire::EncodeHeartbeatEnvelope(beat),
      "4e424533055b000000000000005c00000000000000"});

  wire::GroupCompleteEnvelope complete;
  complete.worker = WorkerId(101);
  complete.group_seq = 102;
  complete.scalars = {{TaskId(103), 1.5}, {TaskId(104), -0.25}};
  cases.push_back({"group_complete", wire::EncodeGroupCompleteEnvelope(complete),
      "4e4245330665000000000000006600000000000000020000006700000000000000000000000000f8"
      "3f6800000000000000000000000000d0bf"});

  wire::DataCopyEnvelope scalar_copy;
  scalar_copy.copy = CopyId(111);
  scalar_copy.object = LogicalObjectId(112);
  scalar_copy.version = 113;
  scalar_copy.payload = std::make_unique<ScalarPayload>(2.5);
  cases.push_back({"data_copy_scalar", wire::EncodeDataCopyEnvelope(scalar_copy),
      "4e424533076f0000000000000070000000000000007100000000000000010000000000000440"});

  wire::DataCopyEnvelope vector_copy;
  vector_copy.copy = CopyId(114);
  vector_copy.object = LogicalObjectId(115);
  vector_copy.version = 116;
  vector_copy.payload = std::make_unique<VectorPayload>(std::vector<double>{0.5, -8.0});
  cases.push_back({"data_copy_vector", wire::EncodeDataCopyEnvelope(vector_copy),
      "4e424533077200000000000000730000000000000074000000000000000202000000000000000000"
      "e03f00000000000020c0"});

  wire::InstantiateRequestEnvelope request;
  request.request_id = 121;
  request.epoch = 122;
  request.name = "blk";
  request.params = {{122, ParameterBlob{0xB1}}};
  request.next_hint = "nx";
  cases.push_back({"instantiate_request", wire::EncodeInstantiateRequestEnvelope(request),
      "4e4245330979000000000000007a0000000000000003000000626c6b010000007a00000000000000"
      "01000000b1020000006e78"});

  wire::CheckpointRequestEnvelope checkpoint;
  checkpoint.request_id = 131;
  checkpoint.epoch = 133;
  checkpoint.marker = 132;
  cases.push_back({"checkpoint_request", wire::EncodeCheckpointRequestEnvelope(checkpoint),
      "4e4245330a830000000000000085000000000000008400000000000000"});

  wire::BlockDoneEnvelope done;
  done.request_id = 141;
  done.scalars = {{TaskId(142), 3.75}};
  cases.push_back({"block_done", wire::EncodeBlockDoneEnvelope(done),
      "4e4245330b8d00000000000000010000008e000000000000000000000000000e40"});

  cases.push_back({"checkpoint_done", wire::EncodeCheckpointDoneEnvelope(151),
      "4e4245330c9700000000000000"});
  cases.push_back({"recovery_notice", wire::EncodeRecoveryNoticeEnvelope({162, 161}),
      "4e4245330da200000000000000a100000000000000"});

  wire::HeartbeatAckEnvelope ack;
  ack.worker = WorkerId(171);
  ack.seq = 172;
  cases.push_back({"heartbeat_ack", wire::EncodeHeartbeatAckEnvelope(ack),
      "4e4245330eab00000000000000ac00000000000000"});

  wire::SuspectNoticeEnvelope suspect;
  suspect.worker = WorkerId(181);
  suspect.missed_beats = 182;
  cases.push_back({"suspect_notice", wire::EncodeSuspectNoticeEnvelope(suspect),
      "4e4245330fb500000000000000b600000000000000"});
  return cases;
}

// Decodes a golden envelope and encodes the result again: a decoder that skipped or swapped
// a field would not reproduce the golden bytes.
ParameterBlob Reencode(const ParameterBlob& b) {
  switch (wire::PeekEnvelopeType(b)) {
    case wire::EnvelopeType::kInstallTemplate:
      return wire::EncodeInstallTemplateEnvelope(wire::DecodeInstallTemplateEnvelope(b));
    case wire::EnvelopeType::kInstantiate:
      return wire::EncodeInstantiateEnvelope(wire::DecodeInstantiateEnvelope(b));
    case wire::EnvelopeType::kHalt:
      wire::DecodeHaltEnvelope(b);
      return wire::EncodeHaltEnvelope();
    case wire::EnvelopeType::kHeartbeat:
      return wire::EncodeHeartbeatEnvelope(wire::DecodeHeartbeatEnvelope(b));
    case wire::EnvelopeType::kGroupComplete:
      return wire::EncodeGroupCompleteEnvelope(wire::DecodeGroupCompleteEnvelope(b));
    case wire::EnvelopeType::kDataCopy:
      return wire::EncodeDataCopyEnvelope(wire::DecodeDataCopyEnvelope(b));
    case wire::EnvelopeType::kInstantiateRequest:
      return wire::EncodeInstantiateRequestEnvelope(wire::DecodeInstantiateRequestEnvelope(b));
    case wire::EnvelopeType::kCheckpointRequest:
      return wire::EncodeCheckpointRequestEnvelope(wire::DecodeCheckpointRequestEnvelope(b));
    case wire::EnvelopeType::kBlockDone:
      return wire::EncodeBlockDoneEnvelope(wire::DecodeBlockDoneEnvelope(b));
    case wire::EnvelopeType::kCheckpointDone:
      return wire::EncodeCheckpointDoneEnvelope(wire::DecodeCheckpointDoneEnvelope(b));
    case wire::EnvelopeType::kRecoveryNotice:
      return wire::EncodeRecoveryNoticeEnvelope(wire::DecodeRecoveryNoticeEnvelope(b));
    case wire::EnvelopeType::kHeartbeatAck:
      return wire::EncodeHeartbeatAckEnvelope(wire::DecodeHeartbeatAckEnvelope(b));
    case wire::EnvelopeType::kSuspectNotice:
      return wire::EncodeSuspectNoticeEnvelope(wire::DecodeSuspectNoticeEnvelope(b));
    default:
      ADD_FAILURE() << "no golden case for this envelope type";
      return {};
  }
}

TEST(EnvelopeCodecTest, GoldenBytesEveryOtherEnvelopeType) {
  const std::vector<GoldenCase> cases = GoldenCases();
  std::vector<bool> covered(wire::kEnvelopeTypeCount, false);
  covered[static_cast<std::size_t>(wire::EnvelopeType::kCommands)] = true;
  covered[static_cast<std::size_t>(wire::EnvelopeType::kSerializedBatch)] = true;
  covered[static_cast<std::size_t>(wire::EnvelopeType::kSubmitStages)] = true;
  for (const GoldenCase& c : cases) {
    covered[static_cast<std::size_t>(wire::PeekEnvelopeType(c.bytes))] = true;
    EXPECT_EQ(Hex(c.bytes), c.hex) << c.name;
    EXPECT_EQ(Hex(Reencode(c.bytes)), c.hex) << c.name << " after a decode";
  }
  for (std::size_t t = 0; t < covered.size(); ++t) {
    EXPECT_TRUE(covered[t]) << "no golden bytes for envelope type " << t;
  }
}

TEST(EnvelopeCodecTest, SubmitStagesRoundTripsEmptyTaskDescriptors) {
  // The smallest task record is 37 bytes (no refs, no params): a stage of such tasks at
  // the end of the buffer must pass the decoder's per-task size bound.
  StageDescriptor stage;
  stage.name = "s";
  stage.tasks.resize(3);
  const wire::SubmitStagesEnvelope d =
      wire::DecodeSubmitStagesEnvelope(wire::EncodeSubmitStagesEnvelope(4, 0, "", {stage}));
  ASSERT_EQ(d.stages.size(), 1u);
  ASSERT_EQ(d.stages[0].tasks.size(), 3u);
  EXPECT_TRUE(d.stages[0].tasks[2].reads.empty());
  EXPECT_EQ(d.stages[0].tasks[2].placement_partition, -1);
}

TEST(EnvelopeCodecTest, SubmitStagesRoundTripsEveryTaskField) {
  const std::vector<StageDescriptor> stages = GoldenStages();
  const ParameterBlob bytes = wire::EncodeSubmitStagesEnvelope(9, 5, "lr", stages);
  const wire::SubmitStagesEnvelope d = wire::DecodeSubmitStagesEnvelope(bytes);
  EXPECT_EQ(d.request_id, 9u);
  EXPECT_EQ(d.epoch, 5u);
  EXPECT_EQ(d.capture_name, "lr");
  ASSERT_EQ(d.stages.size(), stages.size());
  for (std::size_t s = 0; s < stages.size(); ++s) {
    EXPECT_EQ(d.stages[s].name, stages[s].name);
    ASSERT_EQ(d.stages[s].tasks.size(), stages[s].tasks.size());
    for (std::size_t t = 0; t < stages[s].tasks.size(); ++t) {
      const TaskDescriptor& a = d.stages[s].tasks[t];
      const TaskDescriptor& b = stages[s].tasks[t];
      EXPECT_EQ(a.function, b.function);
      EXPECT_EQ(a.reads, b.reads);
      EXPECT_EQ(a.writes, b.writes);
      EXPECT_EQ(a.params, b.params);
      EXPECT_EQ(a.placement_partition, b.placement_partition);
      EXPECT_EQ(a.duration, b.duration);
      EXPECT_EQ(a.returns_scalar, b.returns_scalar);
    }
  }
  EXPECT_EQ(wire::EncodeSubmitStagesEnvelope(d.request_id, d.epoch, d.capture_name, d.stages),
            bytes);
}

TEST(EnvelopeCodecDeathTest, TruncationAtEveryBoundaryDies) {
  wire::CommandsEnvelope e;
  e.group_seq = 9;
  e.expected_total = 1;
  std::mt19937_64 rng(3);
  e.commands = RandomCommands(rng, 2);
  const ParameterBlob bytes = wire::EncodeCommandsEnvelope(e);

  // Sample truncation points across the buffer, including mid-header and mid-command.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{4}, std::size_t{12},
                          bytes.size() / 2, bytes.size() - 1}) {
    ParameterBlob truncated(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_DEATH(wire::DecodeCommandsEnvelope(truncated), "") << "cut at " << cut;
  }
}

TEST(EnvelopeCodecDeathTest, TrailingBytesDie) {
  wire::HeartbeatEnvelope hb;
  hb.worker = WorkerId(1);
  ParameterBlob bytes = wire::EncodeHeartbeatEnvelope(hb);
  bytes.push_back(0);
  EXPECT_DEATH(wire::DecodeHeartbeatEnvelope(bytes), "trailing");

  ParameterBlob halt = wire::EncodeHaltEnvelope();
  halt.push_back(7);
  EXPECT_DEATH(wire::DecodeHaltEnvelope(halt), "");
}

TEST(EnvelopeCodecDeathTest, BadMagicAndUnknownTypeDie) {
  ParameterBlob bytes = wire::EncodeHaltEnvelope();
  ParameterBlob bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_DEATH(wire::PeekEnvelopeType(bad_magic), "");

  ParameterBlob bad_type = bytes;
  bad_type[4] = 0xEE;  // type byte past kEnvelopeTypeCount
  EXPECT_DEATH(wire::PeekEnvelopeType(bad_type), "");

  // Decoding as the wrong (valid) type must also die: the header pins the type.
  EXPECT_DEATH(wire::DecodeHeartbeatEnvelope(bytes), "");
}

TEST(EnvelopeCodecDeathTest, OversizedCountFieldDiesBeforeAllocating) {
  wire::CommandsEnvelope e;
  e.group_seq = 1;
  const ParameterBlob bytes = wire::EncodeCommandsEnvelope(e);
  ParameterBlob corrupt = bytes;
  // The command count is the 4 bytes before the (empty) records; blast it to 2^32-1.
  for (std::size_t i = corrupt.size() - 4; i < corrupt.size(); ++i) {
    corrupt[i] = 0xFF;
  }
  EXPECT_DEATH(wire::DecodeCommandsEnvelope(corrupt), "");
}

// Overwrites the first occurrence of the 8-byte little-endian `from` in `bytes` with `to`.
void ReplaceU64(ParameterBlob* bytes, std::uint64_t from, std::uint64_t to) {
  for (std::size_t i = 0; i + 8 <= bytes->size(); ++i) {
    if (std::memcmp(bytes->data() + i, &from, 8) == 0) {
      std::memcpy(bytes->data() + i, &to, 8);
      return;
    }
  }
  FAIL() << "pattern not found";
}

TEST(EnvelopeCodecDeathTest, ObjRefPartitionOutsideInt32DiesAfterBulkRead) {
  StageDescriptor stage;
  stage.name = "s";
  TaskDescriptor task;
  task.function = FunctionId(1);
  task.reads = {ObjRef{VariableId(2), 0x5A5A5}};
  stage.tasks = {task};
  ParameterBlob bytes = wire::EncodeSubmitStagesEnvelope(1, 0, "", {stage});
  ReplaceU64(&bytes, 0x5A5A5, std::uint64_t{1} << 31);
  EXPECT_DEATH(wire::DecodeSubmitStagesEnvelope(bytes), "2147483647");
}

TEST(EnvelopeCodecDeathTest, IdSetCountOverrunDiesBeforeAllocating) {
  wire::CommandsEnvelope e;
  Command c;
  c.read_set = {LogicalObjectId(5)};
  e.commands = {c};
  ParameterBlob bytes = wire::EncodeCommandsEnvelope(e);
  // header, group fields (u64 seq, u64 total), u32 command count, then the record: u8
  // type, u64 id, u32 + u64[] before (empty), and the read set's u32 count.
  const std::size_t read_count_at = wire::kEnvelopeHeaderSize + 16 + 4 + 1 + 8 + 4;
  std::uint32_t count;
  std::memcpy(&count, bytes.data() + read_count_at, sizeof(count));
  ASSERT_EQ(count, 1u);
  // Claim 2^32-1 ids (32 GB): the bounds check must fire, not the allocator.
  std::memset(bytes.data() + read_count_at, 0xFF, sizeof(count));
  EXPECT_DEATH(wire::DecodeCommandsEnvelope(bytes), "Check failed.*remaining");
}

}  // namespace
}  // namespace nimbus
