// Differential coverage of the index probe sites (DESIGN §4.7): inner join
// levels, level 0 over a catalog relation variable, and SOME quantifiers
// over one. BranchExecOptions::use_hash_joins = false turns all three off,
// so every probe must agree with the scan it replaces — query results,
// accept/reject decisions and violation witnesses — at THREADS 1 and 4
// (the latter forced to fan out even over tiny relations).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "lang/interpreter.h"

namespace datacon {
namespace {

struct Config {
  bool hash_joins;
  size_t threads;
  bool simplify = true;
  bool typecheck = true;

  std::string Name() const {
    return std::string(hash_joins ? "probes" : "scans") + " threads=" +
           std::to_string(threads) + (simplify ? "" : " simplify=off") +
           (typecheck ? "" : " typecheck=off");
  }
};

DatabaseOptions OptionsFor(const Config& config) {
  DatabaseOptions options;
  options.eval.exec.use_hash_joins = config.hash_joins;
  options.eval.exec.num_threads = config.threads;
  options.eval.exec.min_parallel_tuples = 1;
  options.constraints_simplify = config.simplify;
  options.typecheck = config.typecheck;
  return options;
}

std::vector<Config> HashAndThreadConfigs(bool typecheck = true) {
  std::vector<Config> out;
  for (bool hash : {true, false}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      out.push_back(Config{hash, threads, true, typecheck});
    }
  }
  return out;
}

/// Every QUERY result of a script (sorted renderings) and the script's
/// final status.
struct ScriptOutcome {
  std::vector<std::string> results;
  std::string status;

  bool operator==(const ScriptOutcome& other) const {
    return results == other.results && status == other.status;
  }
  friend void PrintTo(const ScriptOutcome& o, std::ostream* os) {
    *os << o.status;
    for (const std::string& r : o.results) *os << "\n  " << r;
  }
};

ScriptOutcome RunScript(const std::string& source, const Config& config) {
  Database db(OptionsFor(config));
  Interpreter interp(&db);
  ScriptOutcome out;
  out.status = interp.Execute(source).ToString();
  for (const Interpreter::QueryResult& r : interp.results()) {
    // EXPLAIN output (multi-line) names the physical plan, which differs
    // by design.
    if (r.text.find('\n') != std::string::npos) continue;
    out.results.push_back(r.text + " = " + r.relation.ToString());
  }
  return out;
}

void ExpectAllAgree(const std::string& source,
                    const std::vector<Config>& configs,
                    const std::string& what) {
  const ScriptOutcome reference = RunScript(source, configs[0]);
  for (size_t i = 1; i < configs.size(); ++i) {
    EXPECT_EQ(RunScript(source, configs[i]), reference)
        << what << ": " << configs[i].Name() << " vs " << configs[0].Name();
  }
}

TEST(ProbeSemantics, ExampleCorpusAgreesWithScans) {
  const std::filesystem::path dir(DATACON_EXAMPLES_DIR);
  size_t examples = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".dbpl") continue;
    ++examples;
    std::ifstream in(entry.path());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ExpectAllAgree(buffer.str(), HashAndThreadConfigs(), entry.path());
  }
  EXPECT_GE(examples, 9u);
}

/// Quantifier shapes around the SOME probe: the key equality in any
/// position, flipped, composite, under NOT, nested inside another
/// quantifier over its variable, beside a non-catalog range (which keeps
/// the scan), under ALL (which always scans), inside a selector and a
/// recursive constructor, and at level 0 of a branch.
constexpr const char* kQuantifierShapes = R"(
TYPE noderel = RELATION OF RECORD id, grp: INTEGER END;
TYPE edgerel = RELATION OF RECORD src, dst: INTEGER END;
VAR N: noderel;
VAR E: edgerel;
INSERT INTO N <1, 1>, <2, 1>, <3, 2>, <4, 2>, <5, 3>, <6, 3>, <7, 1>;
INSERT INTO E <1, 2>, <2, 3>, <3, 1>, <3, 4>, <4, 5>, <6, 6>, <5, 7>,
              <7, 2>, <2, 6>;
SELECTOR has_out_to (Lo: INTEGER) FOR Rel: noderel;
BEGIN EACH n IN Rel: SOME e IN E (e.src = n.id AND e.dst > Lo) END has_out_to;
CONSTRUCTOR reach FOR Rel: edgerel (): edgerel;
BEGIN EACH r IN Rel: SOME n IN N (r.src = n.id AND n.grp < 3),
      <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel {reach}:
        f.dst = b.src AND NOT SOME m IN N (m.grp = 3 AND b.dst = m.id)
END reach;
QUERY {EACH n IN N: SOME e IN E (e.dst > 2 AND e.src = n.id)};
QUERY {EACH n IN N: NOT SOME e IN E (n.grp < e.dst AND n.id = e.src)};
QUERY {EACH n IN N: SOME e IN E (e.src = n.id AND e.dst = n.grp)};
QUERY {EACH n IN N: SOME e IN E (n.id = e.src AND
        SOME f IN E (f.src = e.dst AND f.dst = n.id))};
QUERY {EACH n IN N: SOME e IN E {reach} (e.src = n.id AND e.dst = 6)};
QUERY {EACH n IN N: ALL e IN E (e.src # n.id OR e.dst > n.id)};
QUERY {EACH n IN N: SOME e IN E (e.src = n.id + 1 OR e.dst = n.id)};
QUERY {EACH n IN N: n.grp = 1 AND SOME e IN E (e.src = n.id)};
QUERY {<n.id, m.id> OF EACH n IN N, EACH m IN N:
        n.grp = m.grp AND NOT SOME e IN E (e.src = n.id AND e.dst = m.id)};
QUERY {EACH e IN E: e.src = 3};
QUERY {EACH e IN E: 2 = e.dst AND e.src > 1};
QUERY {<e.src, f.dst> OF EACH e IN E, EACH f IN E: e.src = 2 AND f.src = e.dst};
QUERY N [has_out_to(3)];
QUERY E {reach};
QUERY {EACH r IN E {reach}: r.src = 1};
)";

TEST(ProbeSemantics, QuantifierShapesAgreeWithScans) {
  ScriptOutcome out = RunScript(kQuantifierShapes, Config{true, 1});
  EXPECT_EQ(out.status, "OK");
  EXPECT_EQ(out.results.size(), 15u);
  ExpectAllAgree(kQuantifierShapes, HashAndThreadConfigs(), "shapes");
}

TEST(ProbeSemantics, QuantifierShapesAgreeUnderTypecheckOff) {
  ExpectAllAgree(std::string("PRAGMA TYPECHECK = OFF;\n") + kQuantifierShapes,
                 HashAndThreadConfigs(/*typecheck=*/false), "typecheck off");
  // A probe key of the wrong type — admissible in definitions while
  // TYPECHECK is off — falls back to the scan, which reports the same
  // error as the scan-only plan, or nothing when no tuple reaches it: at
  // level 0, inside SOME, and at an inner join level.
  constexpr const char* kMismatch = R"(
PRAGMA TYPECHECK = OFF;
TYPE noderel = RELATION OF RECORD id, grp: INTEGER END;
TYPE namerel = RELATION OF RECORD name: STRING; id: INTEGER END;
VAR N: noderel;
VAR M: namerel;
VAR Empty: namerel;
CONSTRUCTOR none_in FOR Rel: noderel (): noderel;
BEGIN EACH n IN Rel: NOT SOME e IN Empty (e.name = n.id) END none_in;
CONSTRUCTOR named_one FOR Rel: namerel (): namerel;
BEGIN EACH m IN Rel: m.name = 1 END named_one;
CONSTRUCTOR some_in FOR Rel: noderel (): noderel;
BEGIN EACH n IN Rel: SOME m IN M (m.name = n.id) END some_in;
CONSTRUCTOR joined FOR Rel: noderel (): noderel;
BEGIN <n.id, m.id> OF EACH n IN Rel, EACH m IN M: m.name = n.id END joined;
INSERT INTO N <1, 1>, <2, 1>;
INSERT INTO M <"a", 1>;
QUERY N {none_in};
QUERY Empty {named_one};
)";
  for (const char* failing : {"QUERY M {named_one};", "QUERY N {some_in};",
                               "QUERY N {joined};"}) {
    const std::string script = std::string(kMismatch) + failing;
    for (const Config& config : HashAndThreadConfigs(/*typecheck=*/false)) {
      ScriptOutcome out = RunScript(script, config);
      EXPECT_EQ(out.results.size(), 2u) << config.Name() << ": " << failing;
      EXPECT_NE(out.status.find("comparison across types"), std::string::npos)
          << config.Name() << ": " << out.status;
    }
    ExpectAllAgree(script, HashAndThreadConfigs(/*typecheck=*/false),
                   failing);
  }
}

/// Replays the seeded random sequence of single and batch inserts into
/// Uses, erases from it and inserts into Part under `config`'s update_mix
/// constraints; returns every step's status and sets `final_uses`.
std::vector<std::string> RunUpdateSequence(uint64_t seed, const Config& config,
                                           std::string* final_uses) {
  Database db(OptionsFor(config));
  Interpreter interp(&db);
  Status setup = interp.Execute(R"(
TYPE partrel = RELATION OF RECORD pid, kind: INTEGER END;
TYPE userel = RELATION OF RECORD src, dst: INTEGER END;
VAR Part: partrel;
VAR Uses: userel;
INSERT INTO Part <0, 0>, <1, 1>, <2, 2>, <3, 3>, <4, 4>, <5, 5>, <6, 6>,
                 <7, 0>, <8, 1>, <9, 2>;
INSERT INTO Uses <0, 1>, <0, 2>, <1, 3>, <1, 4>;
CONSTRAINT one_parent KEY <dst> ON Uses;
CONSTRAINT uses_src FOREIGN src OF Uses REFERENCES pid OF Part;
CONSTRAINT no_two_cycle DENY EACH a IN Uses, EACH b IN Uses:
  a.src = b.dst AND a.dst = b.src;
)");
  EXPECT_TRUE(setup.ok()) << setup.ToString();
  std::mt19937_64 rng(seed);
  auto node = [&rng] {
    return static_cast<int64_t>(std::uniform_int_distribution<int>(0, 11)(rng));
  };
  auto edge = [&] { return Tuple({Value::Int(node()), Value::Int(node())}); };
  std::vector<std::string> log;
  for (int step = 0; step < 60; ++step) {
    const int kind = std::uniform_int_distribution<int>(0, 9)(rng);
    Status status;
    if (kind < 6) {
      status = db.Insert("Uses", edge());
    } else if (kind < 8) {
      status = db.InsertAll("Uses", {edge(), edge()});
    } else if (kind < 9) {
      std::vector<Tuple> uses = db.GetRelation("Uses").value()->SortedTuples();
      if (!uses.empty()) {
        const size_t pick = std::uniform_int_distribution<size_t>(
            0, uses.size() - 1)(rng);
        db.GetMutableRelation("Uses").value()->Erase(uses[pick]);
      }
    } else {
      status =
          db.Insert("Part", Tuple({Value::Int(node() + 10), Value::Int(0)}));
    }
    log.push_back(status.ToString());
  }
  *final_uses = db.GetRelation("Uses").value()->ToString();
  return log;
}

/// The accept/reject decision of a logged status and the constraint named.
std::string Decision(const std::string& status) {
  const size_t open = status.find('\'');
  if (open == std::string::npos) return status;
  return status.substr(0, status.find('\'', open + 1) + 1);
}

TEST(ProbeSemantics, ConstrainedUpdateSequencesAgree) {
  size_t rejected = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    std::string reference_uses;
    const std::vector<Config> configs = HashAndThreadConfigs();
    const std::vector<std::string> reference =
        RunUpdateSequence(seed, configs[0], &reference_uses);
    for (const std::string& s : reference) {
      rejected += s.find("CONSTRAINT_VIOLATION") != std::string::npos;
    }
    // Probes or scans, serial or fanned out: identical statuses, witnesses
    // included.
    for (size_t i = 1; i < configs.size(); ++i) {
      std::string uses;
      EXPECT_EQ(RunUpdateSequence(seed, configs[i], &uses), reference)
          << "seed " << seed << ": " << configs[i].Name();
      EXPECT_EQ(uses, reference_uses) << "seed " << seed;
    }
    // Full re-evaluation of every check takes the same decisions (its
    // messages name the whole denial's witness instead of the delta's).
    for (bool hash : {true, false}) {
      std::string uses;
      std::vector<std::string> full = RunUpdateSequence(
          seed, Config{hash, 1, /*simplify=*/false}, &uses);
      ASSERT_EQ(full.size(), reference.size());
      for (size_t step = 0; step < full.size(); ++step) {
        EXPECT_EQ(Decision(full[step]), Decision(reference[step]))
            << "seed " << seed << " step " << step;
      }
      EXPECT_EQ(uses, reference_uses) << "seed " << seed;
    }
  }
  // The sequences exercise rejections, not just clean inserts.
  EXPECT_GT(rejected, 50u);
}

}  // namespace
}  // namespace datacon
