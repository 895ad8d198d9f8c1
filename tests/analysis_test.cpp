// Drives the cross-file static analysis passes
// (tools/lint/analysis/analysis.hpp) against the mini repo trees under
// tests/analysis_fixtures/ (never compiled), and proves the real tree
// analyzes clean. Each fixture tree mirrors the real layout (src/,
// src/wire/, docs/) because the passes resolve those paths relative to
// the root they are given.
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis.hpp"

namespace kvscale::lint {
namespace {

namespace fs = std::filesystem;

fs::path Fixture(const std::string& tree) {
  return fs::path(KVSCALE_ANALYSIS_FIXTURE_DIR) / tree;
}

std::map<std::string, int> CountByRule(const std::vector<Finding>& findings) {
  std::map<std::string, int> counts;
  for (const Finding& f : findings) ++counts[f.rule];
  return counts;
}

bool AnyMessageContains(const std::vector<Finding>& findings,
                        const std::string& needle) {
  for (const Finding& f : findings) {
    if (f.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

Whitelist EmptyWhitelist() {
  Whitelist wl;
  wl.rel_path = "test-whitelist";
  return wl;
}

WhitelistEntry Entry(const std::string& kind, const std::string& subject) {
  // Subjects are stored space-normalized, as LoadWhitelist would.
  return {1, kind, subject, "test reason", false};
}

// ---------------------------------------------------------------------------
// Pass 1: lock graph
// ---------------------------------------------------------------------------

TEST(KvscaleAnalysis, LockGraphFindsSeededDeadlock) {
  Whitelist wl = EmptyWhitelist();
  const auto findings = AnalyzeLockGraph(Fixture("lock_deadlock"), wl);
  const auto counts = CountByRule(findings);
  // Both edges of the {Alpha::mu_, Beta::mu_} cycle are reported.
  EXPECT_EQ(counts.at("lock-cycle"), 2);
  EXPECT_EQ(counts.at("wait-holding"), 1);
  EXPECT_EQ(findings.size(), 3u);
  EXPECT_TRUE(AnyMessageContains(findings, "Alpha::mu_"));
  EXPECT_TRUE(AnyMessageContains(findings, "Beta::mu_"));
  EXPECT_TRUE(AnyMessageContains(findings, "Gamma::Stall waits on"));
  EXPECT_TRUE(AnyMessageContains(findings, "Gamma::extra_mu_"));
}

TEST(KvscaleAnalysis, LockGraphSafeHierarchyIsClean) {
  // Same two-class shape, strict order, plus a KV_REQUIRES helper whose
  // entry-held capability must not count as a re-acquisition.
  Whitelist wl = EmptyWhitelist();
  const auto findings = AnalyzeLockGraph(Fixture("lock_safe"), wl);
  EXPECT_TRUE(findings.empty()) << FindingsJson(findings);
}

TEST(KvscaleAnalysis, LockGraphWhitelistSuppressesAndGoesStale) {
  Whitelist wl = EmptyWhitelist();
  // Breaking one direction of the cycle dissolves the SCC entirely.
  wl.entries.push_back(Entry("lock-order", "Alpha::mu_->Beta::mu_"));
  wl.entries.push_back(Entry("wait-holding", "Gamma::Stall"));
  wl.entries.push_back(Entry("lock-order", "Never::a_->Never::b_"));
  const auto findings = AnalyzeLockGraph(Fixture("lock_deadlock"), wl);
  EXPECT_TRUE(findings.empty()) << FindingsJson(findings);
  const auto stale = wl.StaleEntries();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "analysis-whitelist");
  EXPECT_NE(stale[0].message.find("Never::a_->Never::b_"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pass 2: wire drift
// ---------------------------------------------------------------------------

TEST(KvscaleAnalysis, WireDriftSymmetricTreeIsClean) {
  const auto findings = AnalyzeWireDrift(Fixture("wire_symmetric"));
  EXPECT_TRUE(findings.empty()) << FindingsJson(findings);
}

TEST(KvscaleAnalysis, WireDriftFindsVisitAndCodecDrift) {
  const auto findings = AnalyzeWireDrift(Fixture("wire_asymmetric"));
  const auto counts = CountByRule(findings);
  // skipped + weird never visited, payload visited twice, ghost unknown,
  // renamed_member mislabeled.
  EXPECT_EQ(counts.at("wire-visit-drift"), 5);
  // OrderRequest::Visit walks second before first.
  EXPECT_EQ(counts.at("wire-field-order"), 1);
  // Unencodable member type + compact reader missing std::string +
  // tagged writer/reader FieldTag disagreement on uint32_t.
  EXPECT_EQ(counts.at("wire-codec-asymmetry"), 3);
  EXPECT_EQ(counts.at("wire-unregistered-message"), 1);
  EXPECT_EQ(findings.size(), 10u);
  EXPECT_TRUE(AnyMessageContains(findings, "DriftRequest::skipped"));
  EXPECT_TRUE(AnyMessageContains(findings, "CompactCodec.Reader"));
  EXPECT_TRUE(AnyMessageContains(findings, "FieldTag::kU64"));
  EXPECT_TRUE(AnyMessageContains(findings, "OrderRequest (order_request)"));
}

TEST(KvscaleAnalysis, WireDriftFindsAnUngatedReplyBatch) {
  const auto findings = AnalyzeWireDrift(Fixture("wire_reply_gate"));
  ASSERT_EQ(findings.size(), 1u) << FindingsJson(findings);
  EXPECT_EQ(findings[0].rule, "wire-reply-gate");
  EXPECT_TRUE(AnyMessageContains(findings, "ReplyItemChecksum"));
}

TEST(KvscaleAnalysis, WireDriftFindsOperatorGaps) {
  const auto findings = AnalyzeWireDrift(Fixture("wire_operator"));
  const auto counts = CountByRule(findings);
  // kOpScan has no case, and the switch has no default arm.
  EXPECT_EQ(counts.at("wire-operator-unhandled"), 2);
  EXPECT_EQ(counts.at("wire-operator-count"), 1);
  EXPECT_EQ(counts.at("wire-decode-gate"), 1);
  EXPECT_EQ(findings.size(), 4u);
  EXPECT_TRUE(AnyMessageContains(findings, "kOpScan"));
  EXPECT_TRUE(AnyMessageContains(findings, "kQueryOpCount is 3 but 2"));
  EXPECT_TRUE(AnyMessageContains(findings, "IsKnownQueryOp"));
}

// ---------------------------------------------------------------------------
// Pass 3: metric registry
// ---------------------------------------------------------------------------

TEST(KvscaleAnalysis, MetricRegistryFindsSeededDefects) {
  Whitelist wl = EmptyWhitelist();
  std::vector<MetricInstrument> registry;
  const auto findings =
      AnalyzeMetricRegistry(Fixture("metric_collision"), wl, &registry);
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.at("metric-collision"), 1);
  EXPECT_EQ(counts.at("metric-kind-overlap"), 1);
  EXPECT_EQ(counts.at("metric-undocumented"), 1);
  EXPECT_EQ(findings.size(), 3u);
  EXPECT_TRUE(AnyMessageContains(findings, "fixture.read.error"));
  EXPECT_TRUE(AnyMessageContains(findings, "fixture.undocumented.total"));

  // The extracted registry is sorted by (name, kind) and tags the
  // dynamic family.
  ASSERT_EQ(registry.size(), 6u);
  EXPECT_EQ(registry[0].name, "fixture.queue.depth");
  EXPECT_EQ(registry[0].kind, "gauge");
  EXPECT_EQ(registry[1].name, "fixture.queue.depth");
  EXPECT_EQ(registry[1].kind, "histogram");
  EXPECT_EQ(registry[4].name, "fixture.stage.");
  EXPECT_TRUE(registry[4].dynamic);
  EXPECT_FALSE(registry[0].dynamic);
}

TEST(KvscaleAnalysis, MetricRegistryWhitelistSuppresses) {
  Whitelist wl = EmptyWhitelist();
  wl.entries.push_back(
      Entry("metric-pair", "fixture.read.error~fixture.read.errors"));
  wl.entries.push_back(Entry("metric-kind", "fixture.queue.depth"));
  const auto findings =
      AnalyzeMetricRegistry(Fixture("metric_collision"), wl, nullptr);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "metric-undocumented");
  EXPECT_TRUE(wl.StaleEntries().empty());
}

// ---------------------------------------------------------------------------
// Whitelist grammar
// ---------------------------------------------------------------------------

TEST(KvscaleAnalysis, WhitelistGrammar) {
  const Whitelist wl =
      LoadWhitelist(fs::path(KVSCALE_ANALYSIS_FIXTURE_DIR) /
                        "whitelist_grammar.txt",
                    "tests/analysis_fixtures/whitelist_grammar.txt");
  ASSERT_EQ(wl.entries.size(), 2u);
  EXPECT_EQ(wl.entries[0].kind, "lock-order");
  EXPECT_EQ(wl.entries[0].subject, "Alpha::mu_->Beta::mu_");  // normalized
  EXPECT_EQ(wl.entries[0].reason, "fixture justification one");
  EXPECT_EQ(wl.entries[1].kind, "metric-kind");

  ASSERT_EQ(wl.problems.size(), 3u);
  EXPECT_EQ(wl.problems[0].line, 6);  // no 'kind: subject -- reason' shape
  EXPECT_EQ(wl.problems[1].line, 7);  // unknown kind
  EXPECT_EQ(wl.problems[2].line, 8);  // missing justification
  for (const Finding& f : wl.problems) {
    EXPECT_EQ(f.rule, "analysis-whitelist");
  }
}

TEST(KvscaleAnalysis, WhitelistMissingFileIsEmpty) {
  const Whitelist wl = LoadWhitelist(
      fs::path(KVSCALE_ANALYSIS_FIXTURE_DIR) / "no_such_whitelist.txt",
      "no_such_whitelist.txt");
  EXPECT_TRUE(wl.entries.empty());
  EXPECT_TRUE(wl.problems.empty());
}

// ---------------------------------------------------------------------------
// JSON stability
// ---------------------------------------------------------------------------

TEST(KvscaleAnalysis, FindingsJsonIsStable) {
  EXPECT_EQ(FindingsJson({}), "{\"findings\":[]}\n");
  const std::vector<Finding> findings = {
      {"src/a.cpp", 3, "lock-cycle", "holding \"x\"\tand\nmore"},
  };
  EXPECT_EQ(FindingsJson(findings),
            "{\"findings\":[\n"
            "  {\"file\":\"src/a.cpp\",\"line\":3,\"id\":\"lock-cycle\","
            "\"message\":\"holding \\\"x\\\"\\tand\\nmore\"}\n"
            "]}\n");
}

TEST(KvscaleAnalysis, MetricRegistryJsonIsStable) {
  EXPECT_EQ(MetricRegistryJson({}), "{\"metrics\":[]}\n");
  const std::vector<MetricInstrument> metrics = {
      {"sim.gauge.", "gauge", "src/t.cpp", 9, true},
  };
  EXPECT_EQ(MetricRegistryJson(metrics),
            "{\"metrics\":[\n"
            "  {\"name\":\"sim.gauge.\",\"kind\":\"gauge\","
            "\"file\":\"src/t.cpp\",\"line\":9,\"dynamic\":true}\n"
            "]}\n");
}

// ---------------------------------------------------------------------------
// The real tree analyzes clean
// ---------------------------------------------------------------------------

TEST(KvscaleAnalysis, RealTreeIsClean) {
  const fs::path root(KVSCALE_REPO_ROOT);
  Whitelist wl = LoadWhitelist(
      root / "tools/lint/analysis/ANALYSIS_WHITELIST.txt",
      "tools/lint/analysis/ANALYSIS_WHITELIST.txt");
  EXPECT_TRUE(wl.problems.empty()) << FindingsJson(wl.problems);

  const auto lock = AnalyzeLockGraph(root, wl);
  EXPECT_TRUE(lock.empty()) << FindingsJson(lock);
  const auto wire = AnalyzeWireDrift(root);
  EXPECT_TRUE(wire.empty()) << FindingsJson(wire);
  const auto metric = AnalyzeMetricRegistry(root, wl, nullptr);
  EXPECT_TRUE(metric.empty()) << FindingsJson(metric);

  // Every committed whitelist entry must still be earning its keep.
  const auto stale = wl.StaleEntries();
  EXPECT_TRUE(stale.empty()) << FindingsJson(stale);
}

}  // namespace
}  // namespace kvscale::lint
