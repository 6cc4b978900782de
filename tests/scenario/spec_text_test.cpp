// The spec text format against two fixed references:
//
//  * golden rendering: ScenarioSpec::to_text() of every builtin preset, of
//    `paper-path` swept to 30% tight-link load, and of a beta = 1 paper
//    spec, byte for byte. The files in tests/spec_text_golden/ were
//    captured from the hand-written per-key emitter that the spec key table
//    replaced, so any change to key order, formatting or emit-if rules shows
//    up here. Each golden text must also parse back to itself.
//  * documentation: every key in the parser's key table (spec_key_names())
//    is documented in docs/SCENARIOS.md.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/registry.hpp"

namespace pathload::scenario {
namespace {

/// A file of this repository, by its path from the repo root.
std::string read_repo_file(const std::string& path) {
  const std::string here = __FILE__;  // <repo>/tests/scenario/<this file>
  std::ifstream in{here.substr(0, here.rfind("/tests/scenario/")) + "/" + path};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::pair<std::string, ScenarioSpec>> golden_specs() {
  std::vector<std::pair<std::string, ScenarioSpec>> out;
  for (const ScenarioSpec& s : Registry::builtin().entries()) out.emplace_back(s.name, s);
  out.emplace_back("paper-path@0.3", Registry::builtin().at("paper-path").with_load(0.3));
  PaperPathConfig cfg;
  cfg.beta = 1.0;
  ScenarioSpec beta_one = ScenarioSpec::from_paper("beta-one", "", cfg);
  beta_one.warmup = Duration::seconds(1);
  out.emplace_back("beta-one", std::move(beta_one));
  return out;
}

TEST(SpecTextGolden, ToTextIsByteIdenticalAndRoundTrips) {
  for (const auto& [name, spec] : golden_specs()) {
    SCOPED_TRACE(name);
    const std::string golden = read_repo_file("tests/spec_text_golden/" + name + ".scenario");
    ASSERT_FALSE(golden.empty()) << "missing golden for " << name;
    EXPECT_EQ(spec.to_text(), golden);
    EXPECT_EQ(ScenarioSpec::parse(golden).to_text(), golden);
  }
}

/// The part of `doc` from `heading` up to the next heading of any level.
std::string section(const std::string& doc, const std::string& heading) {
  const auto begin = doc.find(heading);
  if (begin == std::string::npos) return {};
  const auto end = doc.find("\n#", begin + heading.size());
  return doc.substr(begin, end == std::string::npos ? end : end - begin);
}

TEST(SpecKeys, EveryTableKeyIsDocumented) {
  const std::string doc = read_repo_file("docs/SCENARIOS.md");
  ASSERT_FALSE(doc.empty()) << "docs/SCENARIOS.md is missing";
  const std::string flow_doc = section(doc, "### Flow directives");
  const std::string impair_doc = section(doc, "### Impair directives");
  const std::vector<std::string> keys = spec_key_names();
  EXPECT_GT(keys.size(), 40u);
  for (const std::string& key : keys) {
    SCOPED_TRACE(key);
    const auto space = key.find(' ');
    if (space == std::string::npos) {
      // `key = value` lines: a backticked `key` or `key = ...`.
      EXPECT_TRUE(doc.find("`" + key + "`") != std::string::npos ||
                  doc.find("`" + key + " =") != std::string::npos);
      continue;
    }
    // Directive keys: `key=` in the directive's own section.
    const std::string directive = key.substr(0, space);
    const std::string& text = directive == "flow" ? flow_doc : impair_doc;
    ASSERT_TRUE(directive == "flow" || directive == "impair");
    EXPECT_TRUE(std::regex_search(
        text, std::regex{"(^|[^a-z0-9_])" + key.substr(space + 1) + "="}));
  }
}

}  // namespace
}  // namespace pathload::scenario
