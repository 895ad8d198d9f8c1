// kvscale_analysis: cross-file static analyzer CLI (see analysis.hpp).
//
// usage:
//   kvscale_analysis --root DIR [--pass PASS]... [--whitelist FILE]
//                    [--json] [--registry-out FILE]
//   kvscale_analysis --list-ids
//
// PASS is one of: lock-graph, wire-drift, metric-registry (default: all
// three). The whitelist defaults to
// <root>/tools/lint/analysis/ANALYSIS_WHITELIST.txt. Stale-whitelist
// detection only runs when every whitelist-consuming pass ran, so a
// single-pass invocation never misreports the other pass's entries.
//
// exit codes: 0 clean, 1 findings, 2 usage/internal error.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis.hpp"

namespace {

using ::kvscale::lint::AnalyzeLockGraph;
using ::kvscale::lint::AnalyzeMetricRegistry;
using ::kvscale::lint::AnalyzeWireDrift;
using ::kvscale::lint::Finding;
using ::kvscale::lint::FindingsJson;
using ::kvscale::lint::FormatFinding;
using ::kvscale::lint::LoadWhitelist;
using ::kvscale::lint::MetricInstrument;
using ::kvscale::lint::MetricRegistryJson;
using ::kvscale::lint::Whitelist;

constexpr std::string_view kWhitelistRel =
    "tools/lint/analysis/ANALYSIS_WHITELIST.txt";

int Usage() {
  std::fprintf(
      stderr,
      "usage: kvscale_analysis --root DIR [--pass "
      "lock-graph|wire-drift|metric-registry]...\n"
      "                        [--whitelist FILE] [--json] "
      "[--registry-out FILE]\n"
      "       kvscale_analysis --list-ids\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string whitelist_path;
  std::string registry_out_path;
  std::vector<std::string> passes;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-ids") {
      for (const char* id :
           {"lock-cycle", "wait-holding", "wire-visit-drift",
            "wire-field-order", "wire-codec-asymmetry",
            "wire-unregistered-message", "wire-operator-unhandled",
            "wire-operator-count", "wire-decode-gate", "wire-reply-gate",
            "metric-collision",
            "metric-kind-overlap", "metric-undocumented",
            "analysis-whitelist"}) {
        std::printf("%s\n", id);
      }
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--whitelist" && i + 1 < argc) {
      whitelist_path = argv[++i];
    } else if (arg == "--registry-out" && i + 1 < argc) {
      registry_out_path = argv[++i];
    } else if (arg == "--pass" && i + 1 < argc) {
      passes.emplace_back(argv[++i]);
    } else {
      return Usage();
    }
  }
  if (root.empty()) return Usage();
  if (passes.empty()) {
    passes = {"lock-graph", "wire-drift", "metric-registry"};
  }
  for (const std::string& pass : passes) {
    if (pass != "lock-graph" && pass != "wire-drift" &&
        pass != "metric-registry") {
      std::fprintf(stderr, "kvscale_analysis: unknown pass '%s'\n",
                   pass.c_str());
      return 2;
    }
  }

  const std::filesystem::path root_path(root);
  Whitelist wl = LoadWhitelist(
      whitelist_path.empty() ? root_path / kWhitelistRel
                             : std::filesystem::path(whitelist_path),
      whitelist_path.empty() ? kWhitelistRel : std::string_view(whitelist_path));

  std::vector<Finding> findings(wl.problems);
  bool ran_lock = false, ran_metric = false;
  for (const std::string& pass : passes) {
    std::vector<Finding> pass_findings;
    if (pass == "lock-graph") {
      pass_findings = AnalyzeLockGraph(root_path, wl);
      ran_lock = true;
    } else if (pass == "wire-drift") {
      pass_findings = AnalyzeWireDrift(root_path);
    } else {
      std::vector<MetricInstrument> registry;
      pass_findings = AnalyzeMetricRegistry(root_path, wl, &registry);
      ran_metric = true;
      if (!registry_out_path.empty()) {
        std::ofstream out(registry_out_path, std::ios::binary);
        if (!out) {
          std::fprintf(stderr, "kvscale_analysis: cannot write %s\n",
                       registry_out_path.c_str());
          return 2;
        }
        out << MetricRegistryJson(registry);
      }
    }
    findings.insert(findings.end(), pass_findings.begin(),
                    pass_findings.end());
  }
  // Whitelist entries are per-pass; only judge staleness when every
  // consumer ran.
  if (ran_lock && ran_metric) {
    const std::vector<Finding> stale = wl.StaleEntries();
    findings.insert(findings.end(), stale.begin(), stale.end());
  }

  if (json) {
    std::fputs(FindingsJson(findings).c_str(), stdout);
  } else {
    for (const Finding& f : findings) {
      std::printf("%s\n", FormatFinding(f).c_str());
    }
    if (findings.empty()) {
      std::printf("kvscale_analysis: clean\n");
    } else {
      std::printf("kvscale_analysis: %zu finding(s)\n", findings.size());
    }
  }
  return findings.empty() ? 0 : 1;
}
