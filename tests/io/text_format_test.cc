#include "io/text_format.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "cost/cost_model.h"
#include "optimizer/search.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

TEST(PredicateParserTest, SimpleComparisons) {
  for (const char* text :
       {"(V1 >= 300)", "(V1 > 300)", "(V1 <= 300)", "(V1 < 300)",
        "(V1 = 300)", "(V1 <> 300)"}) {
    auto e = ParsePredicate(text);
    ASSERT_TRUE(e.ok()) << text << ": " << e.status().ToString();
    EXPECT_EQ((*e)->ToString(), text);
  }
}

TEST(PredicateParserTest, Literals) {
  auto s = ParsePredicate("(SRC = 'S1')");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->ToString(), "(SRC = 'S1')");
  auto d = ParsePredicate("(V1 >= 2.5)");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->ToString(), "(V1 >= 2.5)");
  auto n = ParsePredicate("(V1 = NULL)");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ((*n)->ToString(), "(V1 = NULL)");
  auto b = ParsePredicate("(FLAG = true)");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*b)->ToString(), "(FLAG = true)");
}

TEST(PredicateParserTest, LogicalForms) {
  for (const char* text :
       {"((V1 >= 1) AND (V2 < 5))", "((V1 >= 1) OR (V2 < 5))",
        "(NOT (V1 >= 1))", "(V1 IS NULL)", "(V1 IS NOT NULL)",
        "(((A > 1) AND (B > 2)) OR (C IS NULL))"}) {
    auto e = ParsePredicate(text);
    ASSERT_TRUE(e.ok()) << text << ": " << e.status().ToString();
    EXPECT_EQ((*e)->ToString(), text);
  }
}

TEST(PredicateParserTest, EvaluatesCorrectly) {
  Schema schema = Schema::MakeOrDie({{"V1", DataType::kDouble}});
  Record row({Value::Double(10)});
  auto e = ParsePredicate("((V1 > 5) AND (V1 IS NOT NULL))");
  ASSERT_TRUE(e.ok());
  auto r = EvaluatePredicate(**e, row, schema);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(PredicateParserTest, RejectsMalformed) {
  EXPECT_FALSE(ParsePredicate("V1 >= 300").ok());      // missing parens
  EXPECT_FALSE(ParsePredicate("(V1 >=)").ok());        // missing rhs
  EXPECT_FALSE(ParsePredicate("(V1 >= 300").ok());     // unbalanced
  EXPECT_FALSE(ParsePredicate("(V1 ! 300)").ok());     // bad char
  EXPECT_FALSE(ParsePredicate("(V1 >= 300) x").ok());  // trailing
  EXPECT_FALSE(ParsePredicate("(V1 IS 300)").ok());    // IS without NULL
}

constexpr char kFig1Text[] = R"(
# The paper's running example.
source PARTS1 card=1000 schema=PKEY:int,SOURCE:string,DATE:string,COST_EUR:double
source PARTS2 card=3000 schema=PKEY:int,SOURCE:string,DATE:string,DEPT:string,COST_USD:double
notnull nn_cost in=PARTS1 attr=COST_EUR sel=0.9
function to_euro in=PARTS2 fn=dollar2euro args=COST_USD out=COST_EUR:double drop=COST_USD
inplace a2e in=to_euro fn=a2e_date attr=DATE type=string
aggregate monthly in=a2e group=PKEY,SOURCE,DATE aggs=SUM(COST_EUR)->COST_EUR sel=0.4
union u in=nn_cost,monthly
selection threshold in=u pred=(COST_EUR >= 100) sel=0.5
target DW in=threshold schema=PKEY:int,SOURCE:string,DATE:string,COST_EUR:double
)";

TEST(TextFormatTest, ParsesFig1Equivalent) {
  auto parsed = ParseWorkflowText(kFig1Text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto built = BuildFig1Scenario(100.0);
  ASSERT_TRUE(built.ok());
  EXPECT_TRUE(parsed->EquivalentTo(built->workflow));
  EXPECT_EQ(parsed->Signature(), built->workflow.Signature());
}

TEST(TextFormatTest, PrintParseRoundTripFig1) {
  auto built = BuildFig1Scenario();
  ASSERT_TRUE(built.ok());
  auto text = PrintWorkflowText(built->workflow);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto reparsed = ParseWorkflowText(*text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << *text;
  EXPECT_TRUE(reparsed->EquivalentTo(built->workflow));
  EXPECT_EQ(reparsed->Signature(), built->workflow.Signature());
}

TEST(TextFormatTest, PrintParseRoundTripGenerated) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    GeneratorOptions options;
    options.category = WorkloadCategory::kMedium;
    options.seed = seed;
    auto g = GenerateWorkflow(options);
    ASSERT_TRUE(g.ok());
    auto text = PrintWorkflowText(g->workflow);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    auto reparsed = ParseWorkflowText(*text);
    ASSERT_TRUE(reparsed.ok())
        << "seed " << seed << ": " << reparsed.status().ToString();
    EXPECT_TRUE(reparsed->EquivalentTo(g->workflow)) << "seed " << seed;
    EXPECT_EQ(reparsed->Signature(), g->workflow.Signature());
  }
}

TEST(TextFormatTest, RejectsDeeplyNestedSelectionPredicate) {
  // 100k nested groups would overflow the recursive-descent parser's
  // stack; the depth limit turns them into an error.
  const size_t depth = 100000;
  std::string pred =
      std::string(depth, '(') + "V >= 1" + std::string(depth, ')');
  std::string text =
      "source A card=10 schema=V:double\n"
      "selection s in=A pred=" + pred + " sel=0.5\n"
      "target T in=s schema=V:double\n";
  Status status = ParseWorkflowText(text).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_TRUE(ParsePredicate(pred).status().IsInvalidArgument());

  // The limit itself still parses.
  std::string deepest = "(V >= 1)";
  for (size_t i = 1; i < kMaxPredicateDepth; ++i) {
    deepest = "(NOT " + deepest + ")";
  }
  EXPECT_TRUE(ParsePredicate(deepest).ok());
  EXPECT_TRUE(ParsePredicate("(NOT " + deepest + ")")
                  .status()
                  .IsInvalidArgument());
}

TEST(TextFormatTest, RejectsUnknownDirective) {
  EXPECT_FALSE(ParseWorkflowText("bogus x in=y").ok());
}

TEST(TextFormatTest, RejectsUnknownProvider) {
  EXPECT_TRUE(ParseWorkflowText("notnull nn in=MISSING attr=V sel=0.9")
                  .status()
                  .IsNotFound());
}

TEST(TextFormatTest, RejectsDuplicateNames) {
  std::string text =
      "source A card=10 schema=V:double\n"
      "source A card=10 schema=V:double\n";
  EXPECT_TRUE(ParseWorkflowText(text).status().IsAlreadyExists());
}

TEST(TextFormatTest, RejectsInvalidWorkflow) {
  // Activity without a consumer fails Finalize.
  std::string text =
      "source A card=10 schema=V:double\n"
      "notnull nn in=A attr=V sel=0.9\n";
  EXPECT_FALSE(ParseWorkflowText(text).ok());
}

TEST(TextFormatTest, CommentsAndBlankLinesIgnored) {
  std::string text =
      "\n# header\n"
      "source A card=10 schema=V:double\n"
      "   \n"
      "notnull nn in=A attr=V sel=0.9  # inline comment\n"
      "target T in=nn schema=V:double\n";
  auto w = ParseWorkflowText(text);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(w->ActivityCount(), 1u);
}

TEST(TextFormatPlabelTest, DefaultPrintOmitsPlabels) {
  auto w = ParseWorkflowText(kFig1Text);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  auto text = PrintWorkflowText(*w);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->find("plabel="), std::string::npos);
}

TEST(TextFormatPlabelTest, EmitPlabelsOnEveryDirective) {
  auto w = ParseWorkflowText(kFig1Text);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  TextFormatOptions options;
  options.emit_plabels = true;
  auto text = PrintWorkflowText(*w, options);
  ASSERT_TRUE(text.ok());
  for (const std::string& line : Split(*text, '\n')) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(" plabel="), std::string::npos) << line;
  }
}

TEST(TextFormatPlabelTest, PlabelRoundTripPreservesSignature) {
  // Optimize so plabels no longer match a fresh Finalize() assignment:
  // swaps move activities but their labels travel with them.
  auto generated = GenerateWorkflow({});
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  LinearLogCostModel model;
  auto result = HeuristicSearch(generated->workflow, model);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Workflow& best = result->best.workflow;
  if (!best.fresh()) {
    ASSERT_TRUE(best.Refresh().ok());
  }

  TextFormatOptions options;
  options.emit_plabels = true;
  auto text = PrintWorkflowText(best, options);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto reparsed = ParseWorkflowText(*text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->Signature(), best.Signature());
  EXPECT_EQ(reparsed->SignatureHash(), best.SignatureHash());

  // Without plabel emission the reparse re-labels in topo order, which in
  // general CHANGES the signature of an optimized workflow — the reason
  // the plan format insists on plabels.
  auto bare = PrintWorkflowText(best);
  ASSERT_TRUE(bare.ok());
  auto bare_reparsed = ParseWorkflowText(*bare);
  ASSERT_TRUE(bare_reparsed.ok());
  // (Equality may still hold for lucky scenarios; only the plabel form is
  // guaranteed. Assert the guaranteed direction.)
  EXPECT_EQ(reparsed->Signature(), best.Signature());
}

TEST(TextFormatPlabelTest, RoundTripIsByteStable) {
  auto w = ParseWorkflowText(kFig1Text);
  ASSERT_TRUE(w.ok());
  TextFormatOptions options;
  options.emit_plabels = true;
  auto once = PrintWorkflowText(*w, options);
  ASSERT_TRUE(once.ok());
  auto reparsed = ParseWorkflowText(*once);
  ASSERT_TRUE(reparsed.ok());
  auto twice = PrintWorkflowText(*reparsed, options);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(*once, *twice);
}

TEST(TextFormatPlabelTest, RejectsMalformedPlabel) {
  std::string text =
      "source A card=10 plabel=bad+label schema=V:double\n"
      "notnull nn in=A attr=V sel=0.9\n"
      "target T in=nn schema=V:double\n";
  EXPECT_FALSE(ParseWorkflowText(text).ok());
}

}  // namespace
}  // namespace etlopt
