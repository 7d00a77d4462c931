#include "engine/recovery.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "fault/fault_injector.h"
#include "stream/stream_checkpoint.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

namespace fs = std::filesystem;

std::string UniqueDir(const char* tag) {
  static int counter = 0;
  std::string dir = (fs::temp_directory_path() /
                     (std::string("etlopt_recovery_") + tag + "_" +
                      std::to_string(::getpid()) + "_" +
                      std::to_string(counter++)))
                        .string();
  fs::remove_all(dir);
  return dir;
}

RecoveryOptions FastOptions(const std::string& dir = "") {
  RecoveryOptions options;
  options.checkpoint_dir = dir;
  options.retry.initial_backoff_millis = 1;
  options.retry.max_backoff_millis = 2;
  return options;
}

void ExpectSameResult(const ExecutionResult& a, const ExecutionResult& b) {
  ASSERT_EQ(a.target_data.size(), b.target_data.size());
  for (const auto& [name, rows] : a.target_data) {
    auto it = b.target_data.find(name);
    ASSERT_NE(it, b.target_data.end()) << "missing target " << name;
    ASSERT_EQ(rows.size(), it->second.size()) << "target " << name;
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i], it->second[i])
          << "target " << name << " row " << i;
    }
  }
  EXPECT_EQ(a.rows_out, b.rows_out);
}

FaultSpec MakeSpec(FaultSite site, uint64_t hit, FaultKind kind) {
  FaultSpec spec;
  spec.site = site;
  spec.hit = hit;
  spec.kind = kind;
  return spec;
}

TEST(RecoveryOptionsTest, DefaultsAreValid) {
  EXPECT_TRUE(ValidateRecoveryOptions(RecoveryOptions{}).ok());
}

TEST(RecoveryOptionsTest, RejectsNegativeDeadline) {
  RecoveryOptions options;
  options.deadline_millis = -1;
  EXPECT_TRUE(ValidateRecoveryOptions(options).IsInvalidArgument());
}

TEST(RecoveryOptionsTest, RejectsBadRetryPolicy) {
  RecoveryOptions options;
  options.retry.max_attempts = 0;
  EXPECT_TRUE(ValidateRecoveryOptions(options).IsInvalidArgument());
  options = RecoveryOptions{};
  options.retry.initial_backoff_millis = -3;
  EXPECT_TRUE(ValidateRecoveryOptions(options).IsInvalidArgument());
}

TEST(RecoveryOptionsTest, ExecuteValidatesUpFront) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  RecoveryOptions options;
  options.deadline_millis = -7;
  RecoverableExecutor exec(options);
  auto r = exec.Execute(s->workflow, MakeFig1Input(1, 10));
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST(RecoveryTest, MatchesPlainExecutorWithoutFaults) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(11, 120);
  auto plain = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(plain.ok());

  RecoverableExecutor no_ckpt(FastOptions());
  RecoveryStats stats;
  auto r = no_ckpt.Execute(s->workflow, input, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectSameResult(*plain, *r);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_FALSE(stats.resumed);

  std::string dir = UniqueDir("plain");
  RecoverableExecutor with_ckpt(FastOptions(dir));
  auto r2 = with_ckpt.Execute(s->workflow, input, &stats);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ExpectSameResult(*plain, *r2);
  EXPECT_GT(stats.checkpoints_written, 0u);
  fs::remove_all(dir);
}

TEST(RecoveryTest, RetryMasksTransientFaults) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(5, 80);
  auto plain = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(plain.ok());

  FaultSchedule schedule;
  schedule.faults.push_back(
      MakeSpec(FaultSite::kActivityExecute, 0, FaultKind::kError));
  schedule.faults.push_back(
      MakeSpec(FaultSite::kActivityExecute, 3, FaultKind::kError));
  ScopedFaultInjection arm(schedule);
  RecoverableExecutor exec(FastOptions());
  RecoveryStats stats;
  auto r = exec.Execute(s->workflow, input, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectSameResult(*plain, *r);
  EXPECT_GE(stats.retries, 2u);
}

TEST(RecoveryTest, ExhaustedRetriesSurfaceCleanly) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  FaultSchedule schedule;
  // More consecutive transient faults than max_attempts can absorb.
  for (uint64_t h = 0; h < 8; ++h) {
    schedule.faults.push_back(
        MakeSpec(FaultSite::kActivityExecute, h, FaultKind::kError));
  }
  ScopedFaultInjection arm(schedule);
  RecoveryOptions options = FastOptions();
  options.retry.max_attempts = 2;
  RecoverableExecutor exec(options);
  auto r = exec.Execute(s->workflow, MakeFig1Input(5, 40));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
}

TEST(RecoveryTest, CrashThenResumeIsByteIdentical) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(21, 150);
  auto plain = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(plain.ok());

  std::string dir = UniqueDir("resume");
  RecoveryOptions options = FastOptions(dir);
  options.checkpoint_policy = CheckpointPolicy::kAllNodes;
  RecoverableExecutor exec(options);

  {
    FaultSchedule schedule;
    schedule.faults.push_back(
        MakeSpec(FaultSite::kActivityExecute, 2, FaultKind::kCrash));
    ScopedFaultInjection arm(schedule);
    auto crashed = exec.Execute(s->workflow, input);
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(IsInjectedCrash(crashed.status()))
        << crashed.status().ToString();
  }

  RecoveryStats stats;
  auto resumed = exec.Execute(s->workflow, input, &stats);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(stats.resumed);
  EXPECT_GT(stats.checkpoints_loaded, 0u);
  EXPECT_GT(stats.nodes_skipped, 0u);
  ExpectSameResult(*plain, *resumed);
  // Successful run cleaned its recovery points.
  EXPECT_FALSE(fs::exists(dir) && !fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST(RecoveryTest, CheckpointsFromDifferentInputAreNotResumed) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input_a = MakeFig1Input(1, 60);
  ExecutionInput input_b = MakeFig1Input(2, 60);
  ASSERT_NE(ExecutionInputFingerprint(input_a),
            ExecutionInputFingerprint(input_b));

  std::string dir = UniqueDir("stale");
  RecoveryOptions options = FastOptions(dir);
  options.remove_checkpoints_on_success = false;
  RecoverableExecutor exec(options);
  ASSERT_TRUE(exec.Execute(s->workflow, input_a).ok());

  auto plain_b = ExecuteWorkflow(s->workflow, input_b);
  ASSERT_TRUE(plain_b.ok());
  RecoveryStats stats;
  auto r = exec.Execute(s->workflow, input_b, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(stats.resumed);
  ExpectSameResult(*plain_b, *r);
  fs::remove_all(dir);
}

TEST(RecoveryTest, CorruptCheckpointFilesAreRejectedAndRecomputed) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(33, 90);
  auto plain = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(plain.ok());

  std::string dir = UniqueDir("corrupt");
  RecoveryOptions options = FastOptions(dir);
  options.remove_checkpoints_on_success = false;
  RecoverableExecutor exec(options);
  ASSERT_TRUE(exec.Execute(s->workflow, input).ok());

  // Flip one byte in every persisted checkpoint.
  size_t corrupted = 0;
  for (const auto& run_entry : fs::directory_iterator(dir)) {
    for (const auto& entry : fs::directory_iterator(run_entry.path())) {
      std::string bytes;
      {
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
      }
      ASSERT_FALSE(bytes.empty());
      bytes[bytes.size() / 2] = static_cast<char>(
          static_cast<unsigned char>(bytes[bytes.size() / 2]) ^ 0x40);
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      ++corrupted;
    }
  }
  ASSERT_GT(corrupted, 0u);

  RecoveryStats stats;
  auto r = exec.Execute(s->workflow, input, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.checkpoints_rejected, corrupted);
  EXPECT_FALSE(stats.resumed);
  ExpectSameResult(*plain, *r);
  fs::remove_all(dir);
}

TEST(RecoveryTest, ShortRowCheckpointIsRejected) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(33, 90);
  auto plain = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(plain.ok());

  std::string dir = UniqueDir("short_row");
  RecoveryOptions options = FastOptions(dir);
  options.checkpoint_policy = CheckpointPolicy::kAllNodes;
  options.remove_checkpoints_on_success = false;
  RecoverableExecutor exec(options);
  ASSERT_TRUE(exec.Execute(s->workflow, input).ok());

  // Cut every row of every checkpoint to one column and re-serialize:
  // the checksum is valid, only the arity is wrong.
  size_t shortened = 0;
  for (const auto& run_entry : fs::directory_iterator(dir)) {
    for (const auto& entry : fs::directory_iterator(run_entry.path())) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      auto checkpoint = ParseCheckpoint(buf.str());
      ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
      ASSERT_FALSE(checkpoint->rows.empty()) << entry.path();
      for (Record& row : checkpoint->rows) {
        ASSERT_GT(row.size(), 1u);
        row = Record({row.value(0)});
      }
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out << SerializeCheckpoint(*checkpoint);
      ++shortened;
    }
  }
  ASSERT_GT(shortened, 0u);

  RecoveryStats stats;
  auto r = exec.Execute(s->workflow, input, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.checkpoints_rejected, shortened);
  EXPECT_FALSE(stats.resumed);
  ExpectSameResult(*plain, *r);
  fs::remove_all(dir);
}

TEST(RecoveryTest, DeadlineExceededSurfaces) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  FaultSchedule schedule;
  FaultSpec delay = MakeSpec(FaultSite::kActivityExecute, 0, FaultKind::kDelay);
  delay.delay_micros = 20000;  // 20 ms against a 1 ms budget
  schedule.faults.push_back(delay);
  ScopedFaultInjection arm(schedule);
  RecoveryOptions options = FastOptions();
  options.deadline_millis = 1;
  RecoverableExecutor exec(options);
  RecoveryStats stats;
  auto r = exec.Execute(s->workflow, MakeFig1Input(2, 200), &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  // The run did work before the deadline hit; its stats must say so.
  EXPECT_GE(stats.nodes_executed, 1u);
}

// An ETLSTRM1 stream checkpoint exercising every field.
StreamCheckpoint SampleStreamCheckpoint() {
  StreamCheckpoint checkpoint;
  checkpoint.workflow_hash = 0x0123456789abcdefull;
  checkpoint.capture_fingerprint = 0xfedcba9876543210ull;
  checkpoint.next_batch = 3;
  checkpoint.batch_count = 8;
  checkpoint.rows_out = {{2, 40}, {6, 0}};
  checkpoint.target_data["DW"] = {
      Record({Value::Int(-7), Value::Double(2.5), Value::String("a\nb")}),
      Record({Value::Null(), Value::Bool(false), Value::String("")})};
  checkpoint.target_data["EMPTY"] = {};
  checkpoint.state_blobs["n4"] = std::string("\x00\xff\x01state", 8);
  checkpoint.state_blobs["n4.p1"] = "";
  return checkpoint;
}

TEST(CheckpointFormatTest, RoundTripIsExact) {
  Checkpoint checkpoint;
  checkpoint.workflow_hash = 0x0123456789abcdefull;
  checkpoint.input_hash = 0xfedcba9876543210ull;
  checkpoint.node = 7;
  checkpoint.rows_out = {{3, 120}, {5, 0}, {9, 7777}};
  checkpoint.rows.push_back(Record({Value::Null(), Value::Bool(true),
                                    Value::Bool(false), Value::Int(-42)}));
  checkpoint.rows.push_back(Record({Value::Int(1), Value::Double(0.1),
                                    Value::Double(-1.5e300),
                                    Value::String("héllo\nworld")}));
  checkpoint.rows.push_back(Record(std::vector<Value>{}));
  checkpoint.rows.push_back(Record({Value::String("")}));

  std::string bytes = SerializeCheckpoint(checkpoint);
  auto parsed = ParseCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->workflow_hash, checkpoint.workflow_hash);
  EXPECT_EQ(parsed->input_hash, checkpoint.input_hash);
  EXPECT_EQ(parsed->node, checkpoint.node);
  EXPECT_EQ(parsed->rows_out, checkpoint.rows_out);
  ASSERT_EQ(parsed->rows.size(), checkpoint.rows.size());
  for (size_t i = 0; i < checkpoint.rows.size(); ++i) {
    EXPECT_EQ(parsed->rows[i], checkpoint.rows[i]) << "row " << i;
  }
  // Byte-exact re-serialization.
  EXPECT_EQ(SerializeCheckpoint(*parsed), bytes);

  const StreamCheckpoint stream = SampleStreamCheckpoint();
  const std::string stream_bytes = SerializeStreamCheckpoint(stream);
  auto stream_parsed = ParseStreamCheckpoint(stream_bytes);
  ASSERT_TRUE(stream_parsed.ok()) << stream_parsed.status().ToString();
  EXPECT_EQ(stream_parsed->workflow_hash, stream.workflow_hash);
  EXPECT_EQ(stream_parsed->capture_fingerprint, stream.capture_fingerprint);
  EXPECT_EQ(stream_parsed->next_batch, stream.next_batch);
  EXPECT_EQ(stream_parsed->batch_count, stream.batch_count);
  EXPECT_EQ(stream_parsed->rows_out, stream.rows_out);
  EXPECT_EQ(stream_parsed->target_data, stream.target_data);
  EXPECT_EQ(stream_parsed->state_blobs, stream.state_blobs);
  EXPECT_EQ(SerializeStreamCheckpoint(*stream_parsed), stream_bytes);
}

TEST(CheckpointFormatTest, EveryTruncationIsRejectedCleanly) {
  Checkpoint checkpoint;
  checkpoint.workflow_hash = 1;
  checkpoint.input_hash = 2;
  checkpoint.node = 3;
  checkpoint.rows_out = {{1, 10}};
  checkpoint.rows.push_back(
      Record({Value::Int(5), Value::String("abc"), Value::Double(2.5)}));
  std::string bytes = SerializeCheckpoint(checkpoint);
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto parsed = ParseCheckpoint(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "truncation at " << len << " accepted";
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << parsed.status().ToString();
  }
  const std::string stream_bytes =
      SerializeStreamCheckpoint(SampleStreamCheckpoint());
  for (size_t len = 0; len < stream_bytes.size(); ++len) {
    auto parsed =
        ParseStreamCheckpoint(std::string_view(stream_bytes).substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "stream truncation at " << len << " accepted";
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << parsed.status().ToString();
  }
}

TEST(CheckpointFormatTest, EveryBitFlipIsRejectedCleanly) {
  Checkpoint checkpoint;
  checkpoint.workflow_hash = 0xdeadbeef;
  checkpoint.input_hash = 0xcafef00d;
  checkpoint.node = 4;
  checkpoint.rows_out = {{2, 20}, {4, 9}};
  checkpoint.rows.push_back(Record({Value::String("payload"), Value::Int(9)}));
  checkpoint.rows.push_back(Record({Value::Bool(true), Value::Null()}));
  const std::string bytes = SerializeCheckpoint(checkpoint);
  Rng rng(99);
  // All offsets for a small checkpoint is feasible; flip one bit each.
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupt[offset]) ^
        (1u << rng.UniformIndex(8)));
    auto parsed = ParseCheckpoint(corrupt);
    // The checksum guards the payload; magic/length flips fail framing.
    EXPECT_FALSE(parsed.ok()) << "bit flip at " << offset << " accepted";
  }
  const std::string stream_bytes =
      SerializeStreamCheckpoint(SampleStreamCheckpoint());
  for (size_t offset = 0; offset < stream_bytes.size(); ++offset) {
    std::string corrupt = stream_bytes;
    corrupt[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupt[offset]) ^
        (1u << rng.UniformIndex(8)));
    EXPECT_FALSE(ParseStreamCheckpoint(corrupt).ok())
        << "stream bit flip at " << offset << " accepted";
  }
}

TEST(CheckpointFormatTest, GarbageIsRejected) {
  EXPECT_FALSE(ParseCheckpoint("").ok());
  EXPECT_FALSE(ParseCheckpoint("ETLCKPT1").ok());
  EXPECT_FALSE(ParseCheckpoint("not a checkpoint at all").ok());
  std::string huge_count("ETLCKPT1", 8);
  huge_count += std::string(8, '\xff');  // absurd payload length
  huge_count += std::string(64, 'x');
  EXPECT_FALSE(ParseCheckpoint(huge_count).ok());

  EXPECT_FALSE(ParseStreamCheckpoint("").ok());
  EXPECT_FALSE(ParseStreamCheckpoint("ETLSTRM1").ok());
  EXPECT_FALSE(ParseStreamCheckpoint("not a checkpoint at all").ok());
  std::string stream_huge_count("ETLSTRM1", 8);
  stream_huge_count += std::string(8, '\xff');
  stream_huge_count += std::string(64, 'x');
  EXPECT_FALSE(ParseStreamCheckpoint(stream_huge_count).ok());
  // A recovery checkpoint is not a stream checkpoint, and vice versa.
  Checkpoint checkpoint;
  checkpoint.rows.push_back(Record({Value::Int(1)}));
  EXPECT_FALSE(ParseStreamCheckpoint(SerializeCheckpoint(checkpoint)).ok());
  EXPECT_FALSE(
      ParseCheckpoint(SerializeStreamCheckpoint(SampleStreamCheckpoint()))
          .ok());
}

TEST(InputFingerprintTest, SensitiveToDataAndLookups) {
  ExecutionInput a;
  a.source_data["S"] = {Record({Value::Int(1), Value::String("x")})};
  ExecutionInput b = a;
  EXPECT_EQ(ExecutionInputFingerprint(a), ExecutionInputFingerprint(b));
  b.source_data["S"][0].value(0) = Value::Int(2);
  EXPECT_NE(ExecutionInputFingerprint(a), ExecutionInputFingerprint(b));
  ExecutionInput c = a;
  c.context.lookups["L"][{Value::Int(1)}] = Value::Int(100);
  EXPECT_NE(ExecutionInputFingerprint(a), ExecutionInputFingerprint(c));
}

}  // namespace
}  // namespace etlopt
