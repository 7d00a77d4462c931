#include "engine/executor.h"

#include <gtest/gtest.h>

#include <string>

#include "activity/templates.h"
#include "engine/recovery.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

// Every engine binds its sources through one step, so a bad binding must
// fail each of them with the serial engine's status: same code, same
// message.
void ExpectEveryEngineFailsAlike(const Workflow& w,
                                 const ExecutionInput& input,
                                 StatusCode expected) {
  const Status serial = ExecuteWorkflow(w, input).status();
  ASSERT_EQ(serial.code(), expected) << serial.ToString();
  auto expect_same = [&serial](const Status& status, const std::string& who) {
    EXPECT_EQ(status.code(), serial.code()) << who << ": " << status.ToString();
    EXPECT_EQ(status.message(), serial.message()) << who;
  };
  for (EngineKind engine : {EngineKind::kSerial, EngineKind::kParallel,
                            EngineKind::kVectorized}) {
    ExecutionOptions options;
    options.engine = engine;
    expect_same(ExecuteWith(w, input, options).status(),
                "engine " + std::to_string(static_cast<int>(engine)));
  }
  expect_same(RecoverableExecutor().Execute(w, input).status(),
              "recoverable");
}

TEST(ExecutorTest, RequiresFreshWorkflow) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  Workflow w = s->workflow;
  // Mutate without refresh.
  ASSERT_TRUE(w.SwapAdjacent(s->to_euro, s->a2e_date).ok());
  auto r = ExecuteWorkflow(w, MakeFig1Input(1, 10));
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

TEST(ExecutorTest, MissingSourceDataFails) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input;  // empty
  ExpectEveryEngineFailsAlike(s->workflow, input, StatusCode::kNotFound);
}

TEST(ExecutorTest, SourceArityMismatchFails) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(1, 5);
  input.source_data["PARTS1"].push_back(Record({Value::Int(1)}));
  ExpectEveryEngineFailsAlike(s->workflow, input,
                              StatusCode::kInvalidArgument);
}

TEST(ExecutorTest, Fig1EndToEnd) {
  auto s = BuildFig1Scenario(/*threshold=*/100.0);
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(42, 200);
  auto r = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->target_data.count("DW"));
  const auto& dw = r->target_data.at("DW");
  ASSERT_FALSE(dw.empty());
  const Schema& dw_schema = s->workflow.recordset(s->dw).schema;
  size_t cost_idx = *dw_schema.IndexOf("COST_EUR");
  size_t date_idx = *dw_schema.IndexOf("DATE");
  for (const auto& row : dw) {
    // Threshold check held.
    EXPECT_GE(row.value(cost_idx).AsDouble(), 100.0);
    // All dates European DD/MM/YYYY: middle part is a month.
    const std::string& d = row.value(date_idx).string_value();
    ASSERT_EQ(d.size(), 10u);
    int month = std::stoi(d.substr(3, 2));
    EXPECT_GE(month, 1);
    EXPECT_LE(month, 12);
  }
}

TEST(ExecutorTest, RowsOutTracksActivityOutputs) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(7, 100);
  auto r = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(r.ok());
  // Filters can only shrink flows.
  EXPECT_LE(r->rows_out.at(s->not_null), 100u);
  // Function preserves cardinality.
  EXPECT_EQ(r->rows_out.at(s->to_euro), 100u);
  EXPECT_EQ(r->rows_out.at(s->a2e_date), 100u);
  // Aggregation shrinks (or keeps) the flow.
  EXPECT_LE(r->rows_out.at(s->aggregate), 100u);
  // Union is the sum of its inputs.
  EXPECT_EQ(r->rows_out.at(s->union_node),
            r->rows_out.at(s->not_null) + r->rows_out.at(s->aggregate));
}

TEST(ExecutorTest, ExecuteIntoLoadsTargets) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(3, 50);
  MemoryTable dw("DW", s->workflow.recordset(s->dw).schema);
  ASSERT_TRUE(dw.Append(Record({Value::Int(0), Value::String("stale"),
                                Value::String("01/01/2000"),
                                Value::Double(1)}))
                  .ok());
  ASSERT_TRUE(
      ExecuteWorkflowInto(s->workflow, input, {{"DW", &dw}}).ok());
  auto r = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(r.ok());
  // Truncated then loaded: count matches a direct run.
  EXPECT_EQ(*dw.Count(), r->target_data.at("DW").size());
}

TEST(ExecutorTest, Fig4EndToEndWithLookups) {
  auto s = BuildFig4Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig4Input(11, 32);
  auto r = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& t = r->target_data.at("T");
  const Schema& ts = s->workflow.recordset(s->target).schema;
  size_t skey_idx = *ts.IndexOf("SKEY");
  for (const auto& row : t) {
    EXPECT_GE(row.value(skey_idx).int_value(), 1000);
  }
}

TEST(ExecutorTest, DeterministicAcrossRuns) {
  auto s = BuildFig1Scenario();
  ASSERT_TRUE(s.ok());
  ExecutionInput input = MakeFig1Input(5, 80);
  auto r1 = ExecuteWorkflow(s->workflow, input);
  auto r2 = ExecuteWorkflow(s->workflow, input);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->target_data.at("DW"), r2->target_data.at("DW"));
}

TEST(ExecutorTest, ProduceSameOutputSelfComparison) {
  auto a = BuildFig1Scenario();
  auto b = BuildFig1Scenario();
  ASSERT_TRUE(a.ok() && b.ok());
  auto same = ProduceSameOutput(a->workflow, b->workflow, MakeFig1Input(9, 60));
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(*same);
}

TEST(ExecutorTest, ProduceSameOutputDetectsDifference) {
  auto a = BuildFig1Scenario(100.0);
  auto b = BuildFig1Scenario(250.0);
  ASSERT_TRUE(a.ok() && b.ok());
  auto same = ProduceSameOutput(a->workflow, b->workflow, MakeFig1Input(9, 60));
  ASSERT_TRUE(same.ok());
  EXPECT_FALSE(*same);
}

}  // namespace
}  // namespace etlopt
