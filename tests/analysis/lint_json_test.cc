// dpc-lint rendering: the JSON output must round-trip through a JSON
// parser (a minimal one lives in this test), the text output must carry
// file:line:column prefixes, and --werror must flip the exit code on
// warnings.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/lint.h"

namespace dpc {
namespace {

// --- A minimal recursive-descent JSON parser (objects, arrays, strings,
// integers, booleans), enough to validate RenderJson's output shape. -----

struct JsonValue {
  enum class Kind { kObject, kArray, kString, kNumber, kBool } kind;
  std::map<std::string, std::shared_ptr<JsonValue>> object;
  std::vector<std::shared_ptr<JsonValue>> array;
  std::string str;
  long long number = 0;
  bool boolean = false;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing key " << key;
    static JsonValue empty{Kind::kObject, {}, {}, "", 0, false};
    return it == object.end() ? empty : *it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::shared_ptr<JsonValue> Parse() {
    auto v = ParseValue();
    SkipWs();
    EXPECT_EQ(pos_, text_.size()) << "trailing garbage";
    return v;
  }

  bool failed() const { return failed_; }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    failed_ = true;
    ADD_FAILURE() << "expected '" << c << "' at offset " << pos_;
    return false;
  }

  std::shared_ptr<JsonValue> ParseValue() {
    SkipWs();
    auto v = std::make_shared<JsonValue>();
    if (pos_ >= text_.size()) {
      failed_ = true;
      return v;
    }
    char c = text_[pos_];
    if (c == '{') {
      v->kind = JsonValue::Kind::kObject;
      ++pos_;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        SkipWs();
        std::string key = ParseString();
        if (!Consume(':')) return v;
        v->object[key] = ParseValue();
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        Consume('}');
        return v;
      }
    }
    if (c == '[') {
      v->kind = JsonValue::Kind::kArray;
      ++pos_;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v->array.push_back(ParseValue());
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        Consume(']');
        return v;
      }
    }
    if (c == '"') {
      v->kind = JsonValue::Kind::kString;
      v->str = ParseString();
      return v;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      v->kind = JsonValue::Kind::kBool;
      v->boolean = true;
      pos_ += 4;
      return v;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      v->kind = JsonValue::Kind::kBool;
      v->boolean = false;
      pos_ += 5;
      return v;
    }
    v->kind = JsonValue::Kind::kNumber;
    bool neg = c == '-';
    if (neg) ++pos_;
    long long n = 0;
    bool any = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      n = n * 10 + (text_[pos_] - '0');
      ++pos_;
      any = true;
    }
    if (!any) {
      failed_ = true;
      ADD_FAILURE() << "bad value at offset " << pos_;
    }
    // Fractional part (the plan report renders %.1f floats): consumed and
    // discarded, `number` keeps the integer part.
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      bool frac = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        frac = true;
      }
      if (!frac) {
        failed_ = true;
        ADD_FAILURE() << "bad fraction at offset " << pos_;
      }
    }
    v->number = neg ? -n : n;
    return v;
  }

  std::string ParseString() {
    std::string out;
    if (!Consume('"')) return out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          int code = 0;
          for (int i = 0; i < 4 && pos_ < text_.size(); ++i) {
            char h = text_[pos_++];
            code = code * 16 + (h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
          }
          out += static_cast<char>(code);
          break;
        }
        default: out += esc;
      }
    }
    Consume('"');
    return out;
  }

  std::string_view text_;
  size_t pos_ = 0;
  bool failed_ = false;
};

TEST(LintJsonTest, JsonOutputRoundTripsThroughAParser) {
  LintOptions options;
  std::vector<FileLint> results;
  // Two errors + one warning, including a diagnostic with an attached note
  // and a "quoted" relation name that needs escaping in messages.
  results.push_back(LintSource(
      "bad.ndlog",
      "r1 out(@N, X, Z) :- ev(@L, X, Y), link(@L, N), Y == 1, Y == 2.\n"
      "r2 fwd(@M, X) :- other(@L, X), hop(@L, M).\n",
      options));
  // A clean file contributing an equivalence-key report.
  results.push_back(LintSource(
      "good.ndlog", "r1 recv(@N, X) :- ev(@L, X, _Y), s(@L, X, N).\n",
      options));

  std::string json = RenderJson(results);
  JsonParser parser(json);
  auto root = parser.Parse();
  ASSERT_FALSE(parser.failed()) << json;
  ASSERT_EQ(root->kind, JsonValue::Kind::kObject);

  EXPECT_EQ(root->at("errors").number, 2);
  EXPECT_EQ(root->at("warnings").number, 1);

  const JsonValue& files = root->at("files");
  ASSERT_EQ(files.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(files.array.size(), 2u);

  const JsonValue& bad = *files.array[0];
  EXPECT_EQ(bad.at("file").str, "bad.ndlog");
  EXPECT_EQ(bad.at("errors").number, 2);
  EXPECT_EQ(bad.at("warnings").number, 1);
  const JsonValue& diags = bad.at("diagnostics");
  ASSERT_EQ(diags.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(diags.array.size(), 3u);
  bool saw_note = false;
  for (const auto& d : diags.array) {
    EXPECT_FALSE(d->at("code").str.empty());
    EXPECT_GT(d->at("line").number, 0);
    EXPECT_GT(d->at("column").number, 0);
    EXPECT_FALSE(d->at("message").str.empty());
    const JsonValue& sev = d->at("severity");
    EXPECT_TRUE(sev.str == "error" || sev.str == "warning");
    for (const auto& note : d->at("notes").array) {
      saw_note = true;
      EXPECT_EQ(note->at("severity").str, "note");
    }
  }
  EXPECT_TRUE(saw_note);  // W403 carries a "required here" note

  const JsonValue& good = *files.array[1];
  EXPECT_EQ(good.at("errors").number, 0);
  const JsonValue& keys = good.at("equivalence_keys");
  ASSERT_EQ(keys.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(keys.at("summary").str, "(ev:0, ev:1)");
  const JsonValue& attrs = keys.at("attributes");
  ASSERT_EQ(attrs.array.size(), 3u);
  EXPECT_EQ(attrs.array[0]->at("attr").str, "ev:0");
  EXPECT_TRUE(attrs.array[0]->at("is_key").boolean);
  EXPECT_EQ(attrs.array[0]->at("reason").str, "location-specifier");
  EXPECT_TRUE(attrs.array[1]->at("is_key").boolean);
  const JsonValue& chain = attrs.array[1]->at("chain");
  ASSERT_GE(chain.array.size(), 2u);
  EXPECT_EQ(chain.array.front()->str, "ev:1");
  EXPECT_FALSE(attrs.array[2]->at("is_key").boolean);
}

TEST(LintJsonTest, PlanReportRoundTripsThroughAParser) {
  LintOptions options;
  options.print_plan = true;
  options.analyzer.plan_notes = true;
  std::vector<FileLint> results;
  results.push_back(LintSource(
      "fwd.ndlog",
      "r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).\n"
      "r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.\n",
      options));

  std::string json = RenderJson(results);
  JsonParser parser(json);
  auto root = parser.Parse();
  ASSERT_FALSE(parser.failed()) << json;

  const JsonValue& file = *root->at("files").array[0];
  const JsonValue& plans = file.at("plans");
  ASSERT_EQ(plans.kind, JsonValue::Kind::kObject);
  const JsonValue& rules = plans.at("rules");
  ASSERT_EQ(rules.array.size(), 2u);
  const JsonValue& r1 = *rules.array[0];
  EXPECT_EQ(r1.at("rule").str, "r1");
  EXPECT_EQ(r1.at("join_order").str, "packet -> route[0,1]");
  EXPECT_EQ(r1.at("indexed_probes").number, 1);
  EXPECT_EQ(r1.at("scan_probes").number, 0);
  EXPECT_FALSE(r1.at("cross_product").boolean);
  EXPECT_FALSE(r1.at("dead").boolean);
  EXPECT_GE(r1.at("est_fanout").number, 1);
  const JsonValue& sigs = plans.at("index_signatures");
  ASSERT_EQ(sigs.array.size(), 1u);
  EXPECT_EQ(sigs.array[0]->at("relation").str, "route");
  EXPECT_EQ(sigs.array[0]->at("signatures").array[0]->str, "[0,1]");

  // The text rendering carries the same report when requested.
  std::string text = RenderText(results, options);
  EXPECT_NE(text.find("rule plans"), std::string::npos) << text;
  EXPECT_NE(text.find("r1: packet -> route[0,1]"), std::string::npos) << text;
  EXPECT_NE(text.find("index route: [0,1]"), std::string::npos) << text;
}

TEST(LintJsonTest, ShardReportRoundTripsThroughAParser) {
  LintOptions options;
  options.print_shard = true;
  options.analyzer.shard = true;
  std::vector<FileLint> results;
  results.push_back(LintSource(
      "fwd.ndlog",
      "r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).\n"
      "r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.\n",
      options));

  std::string json = RenderJson(results);
  JsonParser parser(json);
  auto root = parser.Parse();
  ASSERT_FALSE(parser.failed()) << json;

  const JsonValue& file = *root->at("files").array[0];
  const JsonValue& shards = file.at("shards");
  ASSERT_EQ(shards.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(shards.at("node_local").number, 1);
  EXPECT_EQ(shards.at("cross_shard").number, 1);
  const JsonValue& rules = shards.at("rules");
  ASSERT_EQ(rules.array.size(), 2u);
  const JsonValue& r1 = *rules.array[0];
  EXPECT_EQ(r1.at("rule").str, "r1");
  EXPECT_EQ(r1.at("event_loc").str, "L");
  EXPECT_EQ(r1.at("head_loc").str, "N");
  EXPECT_FALSE(r1.at("node_local").boolean);
  EXPECT_TRUE(r1.at("keyed").boolean);
  EXPECT_EQ(r1.at("mixed_conditions").number, 0);
  const JsonValue& r2 = *rules.array[1];
  EXPECT_TRUE(r2.at("node_local").boolean);

  // The text rendering carries the same report when requested.
  std::string text = RenderText(results, options);
  EXPECT_NE(text.find("shard locality (1 node-local, 1 cross-shard)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("r1: cross-shard (@L -> @N), keyed"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("r2: node-local (@L)"), std::string::npos) << text;

  // Without --shard the section is absent entirely.
  LintOptions off;
  std::vector<FileLint> plain;
  plain.push_back(LintSource(
      "fwd.ndlog",
      "r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).\n"
      "r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.\n",
      off));
  EXPECT_EQ(RenderJson(plain).find("\"shards\""), std::string::npos);
}

TEST(LintJsonTest, GrowthReportRoundTripsThroughAParser) {
  LintOptions options;
  options.print_growth = true;
  options.analyzer.growth_notes = true;
  std::vector<FileLint> results;
  results.push_back(LintSource(
      "fwd.ndlog",
      "r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).\n"
      "r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.\n",
      options));

  std::string json = RenderJson(results);
  JsonParser parser(json);
  auto root = parser.Parse();
  ASSERT_FALSE(parser.failed()) << json;

  const JsonValue& file = *root->at("files").array[0];
  const JsonValue& growth = file.at("growth");
  ASSERT_EQ(growth.kind, JsonValue::Kind::kObject);
  EXPECT_TRUE(growth.at("recursive").boolean);
  EXPECT_TRUE(growth.at("certified").boolean);
  EXPECT_EQ(growth.at("max_chain_depth").number, 2);
  const JsonValue& cycles = growth.at("cycles");
  ASSERT_EQ(cycles.array.size(), 1u);
  const JsonValue& cycle = *cycles.array[0];
  EXPECT_EQ(cycle.at("path").str, "packet -> packet");
  ASSERT_EQ(cycle.at("rules").array.size(), 1u);
  EXPECT_EQ(cycle.at("rules").array[0]->str, "r1");
  EXPECT_EQ(cycle.at("proof").str, "finite-support");
  EXPECT_TRUE(cycle.at("bounded").boolean);
  EXPECT_FALSE(cycle.at("conditional").boolean);
  EXPECT_FALSE(cycle.at("divergent").boolean);

  // The text rendering carries the same report when requested.
  std::string text = RenderText(results, options);
  EXPECT_NE(text.find("derivation growth"), std::string::npos) << text;
  EXPECT_NE(text.find("packet -> packet"), std::string::npos) << text;

  // Without --growth the section is absent entirely.
  LintOptions off;
  std::vector<FileLint> plain;
  plain.push_back(LintSource(
      "fwd.ndlog",
      "r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).\n"
      "r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.\n",
      off));
  EXPECT_EQ(RenderJson(plain).find("\"growth\""), std::string::npos);
}

TEST(LintJsonTest, StorageReportRoundTripsThroughAParser) {
  LintOptions options;
  options.print_storage = true;
  options.analyzer.storage = true;
  std::vector<FileLint> results;
  results.push_back(LintSource(
      "fwd.ndlog",
      "r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).\n"
      "r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.\n",
      options));

  std::string json = RenderJson(results);
  JsonParser parser(json);
  auto root = parser.Parse();
  ASSERT_FALSE(parser.failed()) << json;

  const JsonValue& file = *root->at("files").array[0];
  const JsonValue& storage = file.at("storage");
  ASSERT_EQ(storage.kind, JsonValue::Kind::kObject);
  EXPECT_GT(storage.at("events").number, 0);
  EXPECT_GT(storage.at("classes").number, 0);
  const JsonValue& rules = storage.at("rules");
  ASSERT_EQ(rules.array.size(), 2u);
  EXPECT_EQ(rules.array[0]->at("rule").str, "r1");
  EXPECT_GT(rules.array[0]->at("exspan_bytes").number, 0);
  EXPECT_GT(rules.array[0]->at("advanced_bytes").number, 0);
  const JsonValue& schemes = storage.at("schemes");
  ASSERT_EQ(schemes.array.size(), 4u);
  EXPECT_EQ(schemes.array[0]->at("scheme").str, "exspan");
  EXPECT_EQ(schemes.array[1]->at("scheme").str, "basic");
  EXPECT_EQ(schemes.array[2]->at("scheme").str, "advanced");
  EXPECT_EQ(schemes.array[3]->at("scheme").str, "advanced-interclass");
  for (const auto& s : schemes.array) {
    EXPECT_GT(s->at("total").number, 0) << s->at("scheme").str;
  }

  // The text rendering carries the same report when requested.
  std::string text = RenderText(results, options);
  EXPECT_NE(text.find("storage model"), std::string::npos) << text;
  EXPECT_NE(text.find("exspan"), std::string::npos) << text;

  // Without --storage the section is absent entirely.
  LintOptions off;
  std::vector<FileLint> plain;
  plain.push_back(LintSource(
      "fwd.ndlog",
      "r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).\n"
      "r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.\n",
      off));
  EXPECT_EQ(RenderJson(plain).find("\"storage\""), std::string::npos);
}

TEST(LintJsonTest, JsonStaysValidOnEarlyErrorsWithAllReportsEnabled) {
  // A parse failure (E001) and a front-half error (E103) both suppress the
  // back-half passes; the JSON must remain well-formed with every opt-in
  // report requested, just without the growth/storage sections.
  LintOptions options;
  options.print_keys = true;
  options.print_plan = true;
  options.print_shard = true;
  options.print_growth = true;
  options.print_storage = true;
  options.analyzer.plan_notes = true;
  options.analyzer.shard = true;
  options.analyzer.growth_notes = true;
  options.analyzer.storage = true;

  std::vector<FileLint> results;
  results.push_back(LintSource("broken.ndlog", "not ndlog at all", options));
  results.push_back(LintSource(
      "chain.ndlog",
      "r1 a(@L, X) :- b(@L, X), s(@L, X).\n"
      "r2 c(@L, X) :- d(@L, X), s(@L, X).\n",
      options));

  std::string json = RenderJson(results);
  JsonParser parser(json);
  auto root = parser.Parse();
  ASSERT_FALSE(parser.failed()) << json;
  ASSERT_EQ(root->at("files").array.size(), 2u);
  EXPECT_GT(root->at("errors").number, 0);
  EXPECT_EQ(json.find("\"growth\""), std::string::npos);
  EXPECT_EQ(json.find("\"storage\""), std::string::npos);

  // Rendering text with every section requested must not crash either.
  EXPECT_FALSE(RenderText(results, options).empty());

  // And the exit code reports failure regardless of --werror.
  EXPECT_EQ(LintExitCode(results, options), 1);
}

TEST(LintJsonTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("x\ny\tz"), "x\\ny\\tz");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(LintJsonTest, TextOutputCarriesFileLineColumnPrefixes) {
  LintOptions options;
  std::vector<FileLint> results;
  results.push_back(
      LintSource("p.ndlog",
                 "r1 out(@N, X) :- ev(@L, X, Extra), link(@L, N).\n",
                 options));
  std::string text = RenderText(results, options);
  EXPECT_NE(text.find("p.ndlog:1:"), std::string::npos) << text;
  EXPECT_NE(text.find("warning:"), std::string::npos) << text;
  EXPECT_NE(text.find("[W301]"), std::string::npos) << text;
  EXPECT_NE(text.find("p.ndlog: 0 errors, 1 warning"), std::string::npos)
      << text;
}

TEST(LintJsonTest, WerrorFlipsExitCodeOnWarnings) {
  LintOptions options;
  std::vector<FileLint> results;
  results.push_back(
      LintSource("w.ndlog",
                 "r1 out(@N, X) :- ev(@L, X, Extra), link(@L, N).\n",
                 options));
  EXPECT_EQ(LintExitCode(results, options), 0);
  options.werror = true;
  EXPECT_EQ(LintExitCode(results, options), 1);

  std::vector<FileLint> clean;
  clean.push_back(LintSource(
      "c.ndlog", "r1 out(@N, X) :- ev(@L, X, _B), link(@L, N).\n", options));
  EXPECT_EQ(LintExitCode(clean, options), 0);

  std::vector<FileLint> broken;
  broken.push_back(LintSource("e.ndlog", "not ndlog at all", options));
  options.werror = false;
  EXPECT_EQ(LintExitCode(broken, options), 1);
}

// Constant folding must not trap on INT64_MIN / -1 (SIGFPE): the
// overflowing assignment simply does not fold.
TEST(LintJsonTest, OverflowingConstantExpressionLintsWithoutCrashing) {
  LintOptions options;
  std::vector<FileLint> results;
  results.push_back(LintSource(
      "overflow.ndlog",
      "r1 out(@L, Q) :- ev(@L, A), "
      "Q := (0 - 9223372036854775807 - 1) / (0 - 1).\n",
      options));
  std::string text = RenderText(results, options);
  EXPECT_NE(text.find("overflow.ndlog: 0 errors"), std::string::npos) << text;
  EXPECT_EQ(LintExitCode(results, options), 0);
}

}  // namespace
}  // namespace dpc
