// Output-sensitive access, pinned by counts rather than timings: a
// constrained insert and a seeded closure lookup must do work proportional
// to their answer, not to the relation they read. Each sweep runs the same
// operation over a small and a 16x larger relation and compares the
// engine's own per-query records (query.finish events), which count the
// tuples every branch tried at its outermost level and the indexes each
// evaluation actually built.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/database.h"
#include "lang/interpreter.h"

namespace datacon {
namespace {

/// Field totals over the query.finish events of one operation.
std::map<std::string, int64_t> WorkOf(Database* db,
                                      const std::function<void()>& op) {
  db->events().Clear();
  db->events().set_enabled(true);
  op();
  db->events().set_enabled(false);
  std::map<std::string, int64_t> totals;
  for (const Event& e : db->events().Events()) {
    if (e.type != "query.finish") continue;
    ++totals["evaluations"];
    for (const EventField& f : e.fields) {
      if (f.is_int && f.key != "elapsed_ns" && f.key != "eval_index") {
        totals[f.key] += f.int_value;
      }
    }
  }
  return totals;
}

Tuple Pair(int64_t a, int64_t b) {
  return Tuple({Value::Int(a), Value::Int(b)});
}

/// update_mix's schema and constraints over a binary forest of `uses`
/// edges (part i's parent is (i-1)/2); parts up to uses + 8 exist.
std::unique_ptr<Database> ConstrainedForest(int uses) {
  auto db = std::make_unique<Database>();
  Interpreter interp(db.get());
  EXPECT_TRUE(interp
                  .Execute("TYPE partrel = RELATION OF RECORD pid, kind: "
                           "INTEGER END;"
                           "TYPE userel = RELATION OF RECORD src, dst: "
                           "INTEGER END;"
                           "VAR Part: partrel; VAR Uses: userel;")
                  .ok());
  for (int p = 0; p <= uses + 8; ++p) {
    EXPECT_TRUE(db->Insert("Part", Pair(p, p % 7)).ok());
  }
  for (int i = 1; i <= uses; ++i) {
    EXPECT_TRUE(db->Insert("Uses", Pair((i - 1) / 2, i)).ok());
  }
  Status s = interp.Execute(R"(
CONSTRAINT one_parent KEY <dst> ON Uses;
CONSTRAINT uses_src FOREIGN src OF Uses REFERENCES pid OF Part;
CONSTRAINT no_two_cycle DENY EACH a IN Uses, EACH b IN Uses:
  a.src = b.dst AND a.dst = b.src;
)");
  EXPECT_TRUE(s.ok()) << s.ToString();
  return db;
}

TEST(Scaling, ConstrainedInsertWorkIsIndependentOfRelationSize) {
  std::map<std::string, int64_t> first[2], second[2], rejected[2];
  const int sizes[2] = {1000, 16000};
  for (int k = 0; k < 2; ++k) {
    std::unique_ptr<Database> db = ConstrainedForest(sizes[k]);
    const int64_t leaf = sizes[k] + 1;
    first[k] = WorkOf(db.get(), [&] {
      EXPECT_TRUE(db->Insert("Uses", Pair(3, leaf)).ok());
    });
    second[k] = WorkOf(db.get(), [&] {
      EXPECT_TRUE(db->Insert("Uses", Pair(5, leaf + 1)).ok());
    });
    // A KEY violation: part 4 already has a parent.
    rejected[k] = WorkOf(db.get(), [&] {
      EXPECT_EQ(db->Insert("Uses", Pair(7, 4)).code(),
                StatusCode::kConstraintViolation);
    });
  }
  for (int k = 0; k < 2; ++k) {
    // Five residues (KEY x2, FOREIGN, DENY x2), each one probe of Uses.
    EXPECT_EQ(second[k]["evaluations"], 5) << sizes[k];
    EXPECT_EQ(second[k]["index_probes"], 5) << sizes[k];
    EXPECT_EQ(second[k]["rounds"], 0) << sizes[k];
    // Every index the residues probe exists after the first insert.
    EXPECT_EQ(second[k]["physical_index_builds"], 0) << sizes[k];
    EXPECT_EQ(rejected[k]["physical_index_builds"], 0) << sizes[k];
  }
  // The residues try only the tuples their probes return: the same count
  // over 1k and 16k Uses tuples.
  EXPECT_EQ(first[0]["outer_tuples"], first[1]["outer_tuples"]);
  EXPECT_EQ(second[0]["outer_tuples"], second[1]["outer_tuples"]);
  EXPECT_EQ(second[0]["tuples_considered"], second[1]["tuples_considered"]);
  EXPECT_LE(second[0]["outer_tuples"], 5);
  EXPECT_EQ(rejected[0]["outer_tuples"], rejected[1]["outer_tuples"]);
  EXPECT_EQ(first[0]["physical_index_builds"],
            first[1]["physical_index_builds"]);
}

TEST(Scaling, ConstrainedInsertsCompileEachResidueOnce) {
  // A residue's program is compiled on its first execution and reused by
  // every later one: 200 inserts compile the five residues once each.
  std::unique_ptr<Database> db = ConstrainedForest(1000);
  Counter* compilations = db->metrics().GetCounter("prepared.compilations");
  const int64_t before = compilations->value();
  const int64_t evaluations = db->last_eval_index();
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(db->Insert("Uses", Pair(i % 500, 1001 + i)).ok());
  }
  EXPECT_EQ(db->last_eval_index() - evaluations, 200 * 5);
  EXPECT_EQ(compilations->value() - before, 5);
}

/// `chains` disjoint 8-edge chains; chain c covers nodes 9c .. 9c+8.
std::unique_ptr<Database> Chains(int chains) {
  DatabaseOptions options;
  options.cache = false;
  auto db = std::make_unique<Database>(options);
  Interpreter interp(db.get());
  EXPECT_TRUE(interp
                  .Execute("TYPE edge = RELATION OF RECORD src, dst: INTEGER "
                           "END; VAR E: edge;"
                           "CONSTRUCTOR tc FOR Rel: edge (): edge; BEGIN "
                           "EACH r IN Rel: TRUE, <f.src, b.dst> OF EACH f IN "
                           "Rel, EACH b IN Rel {tc}: f.dst = b.src END tc;")
                  .ok());
  for (int c = 0; c < chains; ++c) {
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(db->Insert("E", Pair(9 * c + i, 9 * c + i + 1)).ok());
    }
  }
  return db;
}

TEST(Scaling, SeededLookupWorkIsIndependentOfEdgeCount) {
  std::map<std::string, int64_t> work[2];
  const int chains[2] = {100, 1600};  // 800 and 12.8k edges
  for (int k = 0; k < 2; ++k) {
    std::unique_ptr<Database> db = Chains(chains[k]);
    Interpreter interp(db.get());
    work[k] = WorkOf(db.get(), [&] {
      for (int q = 0; q < 50; ++q) {
        const int source = 9 * (q % chains[0]);
        std::string query = "QUERY {EACH v IN E {tc}: v.src = ";
        query.append(std::to_string(source)).append("};");
        ASSERT_TRUE(interp.Execute(query).ok());
        ASSERT_EQ(interp.results().back().relation.size(), 8u);
      }
    });
    EXPECT_EQ(work[k]["evaluations"], 50) << chains[k];
    // One build of the edges' source index, reused by every later lookup.
    EXPECT_EQ(work[k]["physical_index_builds"], 1) << chains[k];
    EXPECT_EQ(work[k]["rounds"], 0) << chains[k];
  }
  // Each lookup works on its 8-tuple closure only.
  EXPECT_EQ(work[0]["peak_delta"], 50 * 8);
  EXPECT_EQ(work[0]["peak_delta"], work[1]["peak_delta"]);
  EXPECT_EQ(work[0]["outer_tuples"], work[1]["outer_tuples"]);
  EXPECT_EQ(work[0]["tuples_considered"], work[1]["tuples_considered"]);
}

}  // namespace
}  // namespace datacon
