// Regression comparator: pass/warn/fail classification of min wall times
// on synthetic baselines, the baseline-spread noise floor, threshold
// parsing, and the result JSON round-trip the comparator depends on.
#include "benchkit/compare.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "benchkit/runner.hpp"

namespace omu::benchkit {
namespace {

CaseResult make_case(const std::string& name, double min_ns) {
  CaseResult c;
  c.name = name;
  c.family = name.substr(0, name.find('/'));
  c.repeats = 3;
  c.wall_ns.n = 3;
  c.wall_ns.min = min_ns;
  c.wall_ns.median = min_ns * 1.1;
  c.wall_ns.max = min_ns * 1.2;
  c.wall_ns.mean = min_ns * 1.1;
  c.wall_ns.p90 = min_ns * 1.15;
  c.items = 1000;
  return c;
}

RunResult make_run(std::vector<CaseResult> cases) {
  RunResult r;
  r.cases = std::move(cases);
  return r;
}

const CaseDelta* find_delta(const CompareReport& report, const std::string& name) {
  for (const CaseDelta& d : report.deltas) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

TEST(BenchkitCompare, ThresholdParsing) {
  EXPECT_DOUBLE_EQ(parse_regress_threshold("10%"), 0.10);
  EXPECT_DOUBLE_EQ(parse_regress_threshold("0.1"), 0.1);
  EXPECT_DOUBLE_EQ(parse_regress_threshold("2.5%"), 0.025);
  EXPECT_DOUBLE_EQ(parse_regress_threshold("0"), 0.0);
  EXPECT_THROW(parse_regress_threshold(""), std::runtime_error);
  EXPECT_THROW(parse_regress_threshold("abc"), std::runtime_error);
  EXPECT_THROW(parse_regress_threshold("10%%"), std::runtime_error);
  EXPECT_THROW(parse_regress_threshold("-5%"), std::runtime_error);
}

TEST(BenchkitCompare, IdenticalRunsHaveNoRegressions) {
  const RunResult base = make_run({make_case("a/x:1", 100.0), make_case("b", 200.0)});
  const CompareReport report = compare_runs(base, base, CompareOptions{});
  EXPECT_FALSE(report.has_regressions());
  EXPECT_EQ(report.ok, 2u);
  EXPECT_EQ(report.warned, 0u);
  EXPECT_EQ(report.improved, 0u);
}

TEST(BenchkitCompare, ClassifiesPassWarnFail) {
  CompareOptions options;
  options.max_regress = 0.10;  // warn above 5%, regress above 10%
  const RunResult base = make_run(
      {make_case("steady", 100.0), make_case("warned", 100.0), make_case("slow", 100.0),
       make_case("faster", 100.0)});
  const RunResult current = make_run(
      {make_case("steady", 103.0), make_case("warned", 108.0), make_case("slow", 125.0),
       make_case("faster", 80.0)});
  const CompareReport report = compare_runs(base, current, options);

  EXPECT_EQ(find_delta(report, "steady")->status, DeltaStatus::kOk);
  EXPECT_EQ(find_delta(report, "warned")->status, DeltaStatus::kWarn);
  EXPECT_EQ(find_delta(report, "slow")->status, DeltaStatus::kRegress);
  EXPECT_EQ(find_delta(report, "faster")->status, DeltaStatus::kImproved);
  EXPECT_TRUE(report.has_regressions());
  EXPECT_EQ(report.regressed, 1u);
  EXPECT_EQ(report.warned, 1u);
  EXPECT_EQ(report.improved, 1u);
  EXPECT_EQ(report.ok, 1u);
  EXPECT_NEAR(find_delta(report, "slow")->delta_frac, 0.25, 1e-12);
}

TEST(BenchkitCompare, ComparesMinAboveTheBaselinesOwnSpread) {
  CompareOptions options;
  options.max_regress = 0.10;
  CaseResult noisy = make_case("noisy", 100.0);
  noisy.wall_ns.stddev = 30.0;  // the baseline spreads 30% of its min
  CaseResult quiet = make_case("quiet", 100.0);
  quiet.wall_ns.stddev = 2.0;  // below max_regress, which then holds
  CaseResult jittery = make_case("jittery", 100.0);
  jittery.wall_ns.median = 300.0;  // slow repeats, the same fastest one
  const RunResult base = make_run({noisy, quiet, make_case("jittery", 100.0)});
  const RunResult current =
      make_run({make_case("noisy", 125.0), make_case("quiet", 125.0), jittery});
  const CompareReport report = compare_runs(base, current, options);
  EXPECT_EQ(find_delta(report, "noisy")->status, DeltaStatus::kWarn);  // inside its spread
  EXPECT_EQ(find_delta(report, "quiet")->status, DeltaStatus::kRegress);
  EXPECT_EQ(find_delta(report, "jittery")->status, DeltaStatus::kOk);

  const CompareReport beyond =
      compare_runs(make_run({noisy}), make_run({make_case("noisy", 140.0)}), options);
  EXPECT_EQ(find_delta(beyond, "noisy")->status, DeltaStatus::kRegress);
}

TEST(BenchkitCompare, CustomWarnThreshold) {
  CompareOptions options;
  options.max_regress = 0.50;
  options.warn_threshold = 0.01;  // warn on anything above 1%
  const RunResult base = make_run({make_case("a", 100.0)});
  const RunResult current = make_run({make_case("a", 103.0)});
  const CompareReport report = compare_runs(base, current, options);
  EXPECT_EQ(find_delta(report, "a")->status, DeltaStatus::kWarn);
}

TEST(BenchkitCompare, NewAndGoneCasesAreNotFailures) {
  const RunResult base = make_run({make_case("kept", 100.0), make_case("removed", 50.0)});
  const RunResult current = make_run({make_case("kept", 100.0), make_case("added", 10.0)});
  const CompareReport report = compare_runs(base, current, CompareOptions{});
  EXPECT_EQ(find_delta(report, "added")->status, DeltaStatus::kNew);
  EXPECT_EQ(find_delta(report, "removed")->status, DeltaStatus::kGone);
  EXPECT_FALSE(report.has_regressions());
  EXPECT_EQ(report.added, 1u);
  EXPECT_EQ(report.removed, 1u);
}

TEST(BenchkitCompare, NewlyFailingCheckIsRegressionEvenWhenFast) {
  CaseResult base_case = make_case("a", 100.0);
  base_case.checks["invariant"] = true;
  CaseResult cur_case = make_case("a", 90.0);  // faster...
  cur_case.checks["invariant"] = false;        // ...but now wrong
  const CompareReport report =
      compare_runs(make_run({base_case}), make_run({cur_case}), CompareOptions{});
  EXPECT_TRUE(report.has_regressions());
  EXPECT_EQ(find_delta(report, "a")->status, DeltaStatus::kRegress);
  EXPECT_NE(find_delta(report, "a")->detail.find("invariant"), std::string::npos);
}

TEST(BenchkitCompare, CheckFailingOnBothSidesIsNotARegression) {
  CaseResult base_case = make_case("a", 100.0);
  base_case.checks["invariant"] = false;
  CaseResult cur_case = make_case("a", 100.0);
  cur_case.checks["invariant"] = false;
  const CompareReport report =
      compare_runs(make_run({base_case}), make_run({cur_case}), CompareOptions{});
  EXPECT_FALSE(report.has_regressions());
}

TEST(BenchkitCompare, ErrorIsRegressionEvenWithSkippedOrZeroBaseline) {
  CaseResult skipped_base = make_case("a", 0.0);
  skipped_base.skipped = true;
  CaseResult errored = make_case("a", 100.0);
  errored.error = "crashed";
  const CompareReport report =
      compare_runs(make_run({skipped_base}), make_run({errored}), CompareOptions{});
  EXPECT_TRUE(report.has_regressions());
  EXPECT_EQ(find_delta(report, "a")->status, DeltaStatus::kRegress);

  CaseResult zero_base = make_case("b", 0.0);
  CaseResult failing = make_case("b", 100.0);
  failing.checks["shape"] = false;
  const CompareReport report2 =
      compare_runs(make_run({zero_base}), make_run({failing}), CompareOptions{});
  EXPECT_TRUE(report2.has_regressions());
}

TEST(BenchkitCompare, SkippedCasesCompareAsOk) {
  CaseResult skipped = make_case("a", 0.0);
  skipped.skipped = true;
  skipped.skip_reason = "single-core host";
  const CompareReport report = compare_runs(make_run({make_case("a", 100.0)}),
                                            make_run({skipped}), CompareOptions{});
  EXPECT_FALSE(report.has_regressions());
}

TEST(BenchkitCompare, SurvivesJsonRoundTrip) {
  RunResult run = make_run({make_case("fam/x:1", 1234.5), make_case("fam/x:2", 6789.0)});
  run.cases[0].counters["fps"] = 60.0;
  run.cases[0].checks["shape"] = true;
  run.cases[0].params.push_back(Param{"x", "1"});
  run.env.compiler = "GNU 12.2.0";
  run.env.nproc = 4;

  const RunResult reloaded = from_json(Json::parse(to_json(run).dump(2)));
  ASSERT_EQ(reloaded.cases.size(), 2u);
  EXPECT_EQ(reloaded.cases[0].name, "fam/x:1");
  EXPECT_EQ(reloaded.cases[0].family, "fam");
  EXPECT_DOUBLE_EQ(reloaded.cases[0].wall_ns.min, 1234.5);
  EXPECT_DOUBLE_EQ(reloaded.cases[0].counters.at("fps"), 60.0);
  EXPECT_TRUE(reloaded.cases[0].checks.at("shape"));
  ASSERT_EQ(reloaded.cases[0].params.size(), 1u);
  EXPECT_EQ(reloaded.cases[0].params[0].key, "x");
  EXPECT_EQ(reloaded.env.compiler, "GNU 12.2.0");
  EXPECT_EQ(reloaded.env.nproc, 4u);

  // A reloaded run compares clean against the original.
  const CompareReport report = compare_runs(run, reloaded, CompareOptions{});
  EXPECT_FALSE(report.has_regressions());
  EXPECT_EQ(report.ok, 2u);
}

TEST(BenchkitCompare, RejectsMalformedDocuments) {
  EXPECT_THROW(from_json(Json::parse("[]")), std::runtime_error);
  EXPECT_THROW(from_json(Json::parse("{}")), std::runtime_error);
  EXPECT_THROW(from_json(Json::parse(R"({"benchmarks": [{"median_ns": 1}]})")),
               std::runtime_error);
}

TEST(BenchkitCompare, MarkdownAndTableRenderCoverAllStatuses) {
  CompareOptions options;
  const RunResult base =
      make_run({make_case("ok", 100.0), make_case("slow", 100.0), make_case("gone", 1.0)});
  const RunResult current =
      make_run({make_case("ok", 100.0), make_case("slow", 150.0), make_case("new", 1.0)});
  const CompareReport report = compare_runs(base, current, options);

  std::ostringstream md;
  print_compare_markdown(report, options, md);
  EXPECT_NE(md.str().find("| `slow` |"), std::string::npos);
  EXPECT_NE(md.str().find("REGRESS"), std::string::npos);
  EXPECT_NE(md.str().find("1 regressed"), std::string::npos);

  std::ostringstream table;
  print_compare_report(report, options, table);
  EXPECT_NE(table.str().find("slow"), std::string::npos);
  EXPECT_NE(table.str().find("+50.0%"), std::string::npos);
}

}  // namespace
}  // namespace omu::benchkit
