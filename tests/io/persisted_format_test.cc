// Pins the bytes of every persisted binary format: fixed inputs are
// serialized as ETLCKPT1 recovery checkpoints, ETLSTRM1 stream
// checkpoints and ETLPLNS1 plan-cache files, plus the input and capture
// fingerprints that key checkpoint files, and each result's Fnv1a64 is
// compared with the value the encoders produced before they shared one
// byte codec and envelope. A change here is a format change: old files
// would no longer load.

#include <gtest/gtest.h>

#include <string>

#include "common/string_util.h"
#include "engine/recovery.h"
#include "io/plan_format.h"
#include "stream/micro_batch.h"
#include "stream/stream_checkpoint.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

std::vector<Record> SampleRows() {
  return {Record({Value::Null(), Value::Bool(true), Value::Int(-42),
                  Value::Double(0.1), Value::String("h\xc3\xa9llo")}),
          Record(std::vector<Value>{}),
          Record({Value::Double(-1.5e300), Value::String("")})};
}

TEST(PersistedFormatTest, RecoveryCheckpointBytesArePinned) {
  Checkpoint checkpoint;
  checkpoint.workflow_hash = 0x0123456789abcdefull;
  checkpoint.input_hash = 0xfedcba9876543210ull;
  checkpoint.node = 7;
  checkpoint.rows_out = {{3, 120}, {5, 0}, {9, 7777}};
  checkpoint.rows = SampleRows();
  const std::string bytes = SerializeCheckpoint(checkpoint);
  EXPECT_EQ(bytes.size(), 150u);
  EXPECT_EQ(Fnv1a64(bytes), 15412292193692656620ull);
}

TEST(PersistedFormatTest, StreamCheckpointBytesArePinned) {
  StreamCheckpoint checkpoint;
  checkpoint.workflow_hash = 0x0123456789abcdefull;
  checkpoint.capture_fingerprint = 0x0f1e2d3c4b5a6978ull;
  checkpoint.next_batch = 3;
  checkpoint.batch_count = 8;
  checkpoint.rows_out = {{2, 40}, {6, 0}};
  checkpoint.target_data["DW"] = SampleRows();
  checkpoint.target_data["EMPTY"] = {};
  checkpoint.state_blobs["n4"] = std::string("\x00\xff\x01state", 8);
  checkpoint.state_blobs["n4.p1"] = "";
  const std::string bytes = SerializeStreamCheckpoint(checkpoint);
  EXPECT_EQ(bytes.size(), 212u);
  EXPECT_EQ(Fnv1a64(bytes), 3183486456040018659ull);
}

TEST(PersistedFormatTest, PlanCacheFileBytesArePinned) {
  OptimizedPlan plain;
  plain.algorithm = "hs";
  plain.cost_model = "linlog(sk_setup=0,agg_setup=0)";
  plain.options = "max_states=200000,max_millis=60000";
  plain.merges = "a+b;c+d";
  plain.initial_cost = 45852.0;
  plain.best_cost = 30000.125;
  plain.signature_hash = 0x1f2e3d4c5b6a7988ull;
  plain.visited_states = 1234;
  plain.exhausted = true;
  plain.path = {{TransitionRecord::Kind::kSwap, "SWA(sel0,nn0)"},
                {TransitionRecord::Kind::kSplit, ""}};
  plain.initial_text = "source S a:int\n";
  plain.optimized_text = "source S a:int\ntarget T a:int\n";
  OptimizedPlan reliable = plain;
  reliable.algorithm = "hsg";
  reliable.recovery.enabled = true;
  reliable.recovery.labels = {"1", "4"};
  reliable.recovery.execution_cost = 100.5;
  reliable.recovery.checkpoint_cost = 2.25;
  reliable.recovery.expected_recovery_cost = 0.75;
  reliable.recovery.expected_total_cost = 103.5;
  reliable.recovery.failure_rate_per_cost = 1e-4;
  reliable.recovery.stream_checkpoint_unit_cost = 3.0;
  reliable.recovery.rationale = "2 of 5 candidates";
  const std::string bytes = SerializePlansBinary({plain, reliable});
  EXPECT_EQ(bytes.size(), 549u);
  EXPECT_EQ(Fnv1a64(bytes), 1315913460042599266ull);
}

TEST(PersistedFormatTest, CheckpointKeyFingerprintsArePinned) {
  auto scenario = BuildFig1Scenario();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  ExecutionInput input = MakeFig1Input(/*seed=*/5, /*rows_per_source=*/20);
  input.context.lookups["L"][{Value::Int(1), Value::String("k")}] =
      Value::Double(2.5);
  EXPECT_EQ(ExecutionInputFingerprint(input), 3864473328323252138ull);

  StreamOptions options;
  options.num_batches = 4;
  auto source = MicroBatchSource::Make(scenario->workflow, input, options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source->CaptureFingerprint(), 12001161682480107855ull);
}

}  // namespace
}  // namespace etlopt
