// Pinned end-to-end guarantee of proof-carrying typed evaluation: for every
// example program, running with PRAGMA TYPECHECK = ON (typed-proven fast
// path) must produce bit-identical query results AND identical EvalStats to
// TYPECHECK = OFF (checked interpreter) — eliding the per-tuple type tests
// may only skip dispatch, never change answers or the amount of work
// counted. The reachability tests pin the soundness contract itself: a
// catalog admitted entirely under typechecking can never hit an eval-time
// type error, and the ill-typed definitions that could are rejected at
// define time unless TYPECHECK is off.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "lang/interpreter.h"

namespace datacon {
namespace {

/// Canonical form of a relation: sorted tuple renderings.
std::vector<std::string> Canonical(const Relation& rel) {
  std::vector<std::string> out;
  for (const Tuple& t : rel.tuples()) {
    std::string row;
    for (const Value& v : t.values()) row += v.ToString() + "|";
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectStatsEqual(const EvalStats& a, const EvalStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.tuples_considered, b.tuples_considered) << what;
  EXPECT_EQ(a.tuples_inserted, b.tuples_inserted) << what;
  EXPECT_EQ(a.outer_tuples, b.outer_tuples) << what;
  EXPECT_EQ(a.index_builds, b.index_builds) << what;
  EXPECT_EQ(a.index_probes, b.index_probes) << what;
  EXPECT_EQ(a.specialized_branches, b.specialized_branches) << what;
  EXPECT_EQ(a.seed_tuples_pruned, b.seed_tuples_pruned) << what;
}

struct RunOutcome {
  std::vector<std::vector<std::string>> results;
  EvalStats stats;
  bool last_typed_proven = false;
};

/// Executes `source` from scratch with typechecking on or off and
/// canonicalizes every QUERY result.
RunOutcome RunScript(const std::string& source, bool typecheck) {
  DatabaseOptions options;
  options.typecheck = typecheck;
  Database db(options);
  Interpreter interp(&db);
  Status s = interp.Execute(source);
  EXPECT_TRUE(s.ok()) << s.ToString();
  RunOutcome outcome;
  for (const Interpreter::QueryResult& r : interp.results()) {
    outcome.results.push_back(Canonical(r.relation));
  }
  outcome.stats = db.last_stats();
  outcome.last_typed_proven = db.last_record().typed_proven;
  return outcome;
}

constexpr const char* kBoundedPaths = R"(
TYPE place = STRING;
TYPE hoprel = RELATION OF RECORD src, dst: place; len: INTEGER END;
VAR Hop: hoprel;

CONSTRUCTOR routes FOR Rel: hoprel (): hoprel;
BEGIN EACH r IN Rel: TRUE,
      <f.src, b.dst, f.len + b.len> OF EACH f IN Rel,
      EACH b IN Rel {routes}: f.dst = b.src AND f.len + b.len < 40
END routes;

INSERT INTO Hop <"dock", "gate", 5>, <"gate", "hall", 7>, <"hall", "vault", 9>;

QUERY Hop {routes};
)";

constexpr const char* kIllTypedCtor = R"(
TYPE itemrel = RELATION OF RECORD name: STRING; qty: INTEGER END;
VAR Item: itemrel;

CONSTRUCTOR mislabeled FOR Rel: itemrel (): itemrel;
BEGIN <r.qty, r.qty> OF EACH r IN Rel: TRUE END mislabeled;
)";

TEST(TypedSemantics, ProvenRunIsBitIdenticalToChecked) {
  RunOutcome on = RunScript(kBoundedPaths, /*typecheck=*/true);
  RunOutcome off = RunScript(kBoundedPaths, /*typecheck=*/false);
  ASSERT_EQ(on.results.size(), 1u);
  EXPECT_EQ(on.results, off.results);
  // Base hops plus the bounded compositions: dock-hall(12), gate-vault(16),
  // dock-vault(21).
  EXPECT_EQ(on.results[0].size(), 6u);
  ExpectStatsEqual(on.stats, off.stats, "bounded paths");
  // The clean catalog runs proven under typechecking, checked without.
  EXPECT_TRUE(on.last_typed_proven);
  EXPECT_FALSE(off.last_typed_proven);
}

TEST(TypedSemantics, EveryExampleProgramIsBitIdentical) {
  const std::filesystem::path dir(DATACON_EXAMPLES_DIR);
  size_t examples = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".dbpl") continue;
    ++examples;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    RunOutcome on = RunScript(buffer.str(), /*typecheck=*/true);
    RunOutcome off = RunScript(buffer.str(), /*typecheck=*/false);
    EXPECT_EQ(on.results, off.results) << entry.path();
    ExpectStatsEqual(on.stats, off.stats, entry.path().string());
    // Every shipped example type-checks cleanly, so the last QUERY of each
    // ran typed-proven (examples without a QUERY never set the flag).
    if (buffer.str().find("QUERY") != std::string::npos) {
      EXPECT_TRUE(on.last_typed_proven) << entry.path();
      EXPECT_FALSE(off.last_typed_proven) << entry.path();
    }
  }
  // The corpus exists and was actually exercised (bad/ is skipped: this
  // iteration is non-recursive).
  EXPECT_GE(examples, 6u);
}

TEST(TypedSemantics, IllTypedDefinitionIsRejectedAtDefineTime) {
  Database db;
  Interpreter interp(&db);
  Status s = interp.Execute(kIllTypedCtor);
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  // The rejected group was rolled back: the catalog stays clean and proven.
  EXPECT_TRUE(db.catalog_typed_clean());
}

TEST(TypedSemantics, NonBinaryClosureShapeIsAcceptedAndEvaluatedGenerically) {
  // A closure over two columns of a ternary base is a legal, well-typed
  // program. The capture rule checks arity and declines it, so the generic
  // fixpoint answers it, typed-proven, with capture rules on or off.
  constexpr const char* kTernaryTc = R"(
TYPE widerel = RELATION OF RECORD a, b, c: INTEGER END;
TYPE edge2 = RELATION OF RECORD src, dst: INTEGER END;
VAR W: widerel;

CONSTRUCTOR tc3 FOR Rel: widerel (): edge2;
BEGIN <r.a, r.b> OF EACH r IN Rel: TRUE,
      <f.a, t.dst> OF EACH f IN Rel, EACH t IN Rel {tc3}: f.b = t.src
END tc3;
)";
  std::vector<std::set<std::string>> answers;
  for (bool capture : {true, false}) {
    DatabaseOptions options;
    options.use_capture_rules = capture;
    Database db(options);
    Interpreter interp(&db);
    Status s = interp.Execute(std::string(kTernaryTc) +
                              "INSERT INTO W <1, 2, 9>, <2, 3, 9>;\n"
                              "QUERY W {tc3};\n");
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(db.catalog_typed_clean());
    EXPECT_TRUE(db.last_record().typed_proven);
    ASSERT_EQ(interp.results().size(), 1u);
    std::set<std::string> rows;
    for (const Tuple& t : interp.results()[0].relation.tuples()) {
      rows.insert(t.ToString());
    }
    answers.push_back(std::move(rows));
  }
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(answers[0],
            (std::set<std::string>{"<1, 2>", "<1, 3>", "<2, 3>"}));
}

TEST(TypedSemantics, TypecheckOffAdmitsAndDemotesToChecked) {
  // With TYPECHECK off the ill-typed constructor defines fine; evaluation
  // falls back to the checked interpreter, which reports the type error at
  // the only point left: per-tuple evaluation.
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute("PRAGMA TYPECHECK = OFF;").ok());
  ASSERT_TRUE(interp.Execute(kIllTypedCtor).ok());
  EXPECT_FALSE(db.catalog_typed_clean());

  ASSERT_TRUE(interp.Execute("INSERT INTO Item <\"bolt\", 12>;").ok());
  Status s = interp.Execute("QUERY Item {mislabeled};");
  EXPECT_EQ(s.code(), StatusCode::kTypeError) << s.ToString();
  EXPECT_FALSE(db.last_record().typed_proven);

  // Turning the pragma back on cannot retroactively prove the demoted
  // catalog: admission happened unchecked.
  ASSERT_TRUE(interp.Execute("PRAGMA TYPECHECK = ON;").ok());
  EXPECT_FALSE(db.catalog_typed_clean());
}

TEST(TypedSemantics, RuntimeTypeErrorNeedsFilterNotJoin) {
  // The checked interpreter's kTypeError surfaces through a single-binding
  // filter comparison (a real EvalPred walk); the identity query around it
  // passes schema inference because it never descends into the body.
  constexpr const char* kFilterMismatch = R"(
PRAGMA TYPECHECK = OFF;
TYPE itemrel = RELATION OF RECORD name: STRING; qty: INTEGER END;
VAR Item: itemrel;

CONSTRUCTOR never FOR Rel: itemrel (): itemrel;
BEGIN EACH r IN Rel: r.name = r.qty END never;

INSERT INTO Item <"bolt", 12>;
)";
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kFilterMismatch).ok());
  Status s = interp.Execute("QUERY Item {never};");
  EXPECT_EQ(s.code(), StatusCode::kTypeError) << s.ToString();
  EXPECT_NE(s.ToString().find("comparison across types"), std::string::npos)
      << s.ToString();
}

TEST(TypedSemantics, PragmaTypecheckValidatesItsValue) {
  Database db;
  Interpreter interp(&db);
  EXPECT_TRUE(interp.Execute("PRAGMA TYPECHECK = OFF;").ok());
  EXPECT_TRUE(interp.Execute("PRAGMA TYPECHECK = ON;").ok());
  EXPECT_EQ(interp.Execute("PRAGMA TYPECHECK = 2;").code(),
            StatusCode::kInvalidArgument);
}

TEST(TypedSemantics, ShowSchemasPrintsInferredSchemas) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kBoundedPaths).ok());
  interp.ClearResults();
  ASSERT_TRUE(interp.Execute("SHOW SCHEMAS;").ok());
  ASSERT_EQ(interp.results().size(), 1u);
  const std::string& text = interp.results()[0].text;
  EXPECT_NE(text.find("SCHEMAS:"), std::string::npos) << text;
  EXPECT_NE(
      text.find("routes: RECORD src: STRING; dst: STRING; len: INTEGER END"),
      std::string::npos)
      << text;
}

TEST(TypedSemantics, ExplainReportsInferredSchemasAndProvenStatus) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kBoundedPaths).ok());
  interp.ClearResults();
  ASSERT_TRUE(interp.Execute("EXPLAIN Hop {routes};").ok());
  ASSERT_EQ(interp.results().size(), 1u);
  const std::string& text = interp.results()[0].text;
  EXPECT_NE(text.find("level 2 (inferred schemas):"), std::string::npos)
      << text;
  EXPECT_NE(
      text.find("routes: RECORD src: STRING; dst: STRING; len: INTEGER END"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("typed evaluation: proven"), std::string::npos) << text;

  // The same plan under TYPECHECK = OFF reports the checked fallback.
  interp.ClearResults();
  ASSERT_TRUE(interp.Execute("PRAGMA TYPECHECK = OFF;\nEXPLAIN Hop {routes};")
                  .ok());
  ASSERT_EQ(interp.results().size(), 1u);
  EXPECT_NE(interp.results()[0].text.find("typed evaluation: checked"),
            std::string::npos)
      << interp.results()[0].text;
}

TEST(TypedSemantics, UnionSchemaNamesAreBranchOrderIndependent) {
  // Satellite fix: branches disagreeing on a result field name get the
  // deterministic positional name, whichever branch comes first.
  constexpr const char* kPrefix = R"(
TYPE arel = RELATION OF RECORD left, right: INTEGER END;
TYPE brel = RELATION OF RECORD top, bottom: INTEGER END;
VAR A: arel;
VAR B: brel;
INSERT INTO A <1, 2>;
INSERT INTO B <3, 4>;
)";
  for (const char* query :
       {"QUERY {EACH a IN A: TRUE, EACH b IN B: TRUE};",
        "QUERY {EACH b IN B: TRUE, EACH a IN A: TRUE};"}) {
    Database db;
    Interpreter interp(&db);
    ASSERT_TRUE(interp.Execute(std::string(kPrefix) + query).ok());
    ASSERT_EQ(interp.results().size(), 1u);
    const Schema& schema = interp.results()[0].relation.schema();
    ASSERT_EQ(schema.arity(), 2);
    EXPECT_EQ(schema.field(0).name, "c0") << query;
    EXPECT_EQ(schema.field(1).name, "c1") << query;
  }
}

}  // namespace
}  // namespace datacon
