// Commit-time enforcement of declared integrity constraints: violating
// mutations must be rejected atomically (relation tuple sets exactly as
// before), the simplified delta-driven checks must agree with full
// re-evaluation, and the PRAGMA CONSTRAINTS = OFF escape hatch must admit
// tuples whose violations then surface on the next checked statement.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/constraint.h"
#include "ast/builder.h"
#include "common/metrics.h"
#include "core/database.h"
#include "lang/interpreter.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests

std::unique_ptr<Database> GraphDb(DatabaseOptions options = {}) {
  auto db = std::make_unique<Database>(options);
  EXPECT_TRUE(db->DefineRelationType("edgerel",
                                     Schema({{"src", ValueType::kInt},
                                             {"dst", ValueType::kInt}}))
                  .ok());
  EXPECT_TRUE(db->DefineRelationType("markrel",
                                     Schema({{"node", ValueType::kInt}}))
                  .ok());
  EXPECT_TRUE(db->CreateRelation("Edge", "edgerel").ok());
  EXPECT_TRUE(db->CreateRelation("Mark", "markrel").ok());
  return db;
}

ConstraintDeclPtr NoSelfLoop() {
  return std::make_shared<const ConstraintDecl>(
      "no_self_loop", std::vector<Binding>{Each("p", Rel("Edge"))},
      Eq(FieldRef("p", "src"), FieldRef("p", "dst")));
}

ConstraintDeclPtr MarkRefsEdge() {
  return std::make_shared<const ConstraintDecl>(
      "mark_refs_edge", "node", Rel("Mark"), "src", Rel("Edge"));
}

Tuple Edge2(int64_t a, int64_t b) {
  return Tuple({Value::Int(a), Value::Int(b)});
}

std::vector<Tuple> SortedTuples(const Database& db, const std::string& name) {
  Result<const Relation*> rel = db.GetRelation(name);
  EXPECT_TRUE(rel.ok());
  return rel.value()->SortedTuples();
}

TEST(ConstraintEnforcement, ViolatingInsertIsRejectedAndRolledBack) {
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(1, 2)).ok());
  std::vector<Tuple> before = SortedTuples(*db, "Edge");

  Status violation = db->Insert("Edge", Edge2(3, 3));
  EXPECT_EQ(violation.code(), StatusCode::kConstraintViolation);
  EXPECT_NE(violation.message().find("no_self_loop"), std::string::npos);
  EXPECT_EQ(SortedTuples(*db, "Edge"), before);

  // The database is still usable after the rejection.
  EXPECT_TRUE(db->Insert("Edge", Edge2(3, 4)).ok());
}

TEST(ConstraintEnforcement, BatchInsertIsAtomic) {
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(1, 2)).ok());
  std::vector<Tuple> before = SortedTuples(*db, "Edge");

  // Two clean tuples around one violating tuple: nothing may stick.
  Status violation = db->InsertAll(
      "Edge", {Edge2(5, 6), Edge2(7, 7), Edge2(8, 9)});
  EXPECT_EQ(violation.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(SortedTuples(*db, "Edge"), before);
}

TEST(ConstraintEnforcement, ViolatingAssignIsRolledBack) {
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(1, 2)).ok());
  std::vector<Tuple> before = SortedTuples(*db, "Edge");

  Relation bad(Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}}));
  ASSERT_TRUE(bad.Insert(Edge2(4, 4)).ok());
  EXPECT_EQ(db->Assign("Edge", bad).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(SortedTuples(*db, "Edge"), before);
}

TEST(ConstraintEnforcement, ViolatingDefineLeavesCatalogUntouched) {
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->Insert("Edge", Edge2(5, 5)).ok());
  Status refused = db->DefineConstraint(NoSelfLoop());
  EXPECT_EQ(refused.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(db->catalog().constraints().size(), 0u);
  // A later insert is unchecked — the constraint never registered.
  EXPECT_TRUE(db->Insert("Edge", Edge2(6, 6)).ok());
}

TEST(ConstraintEnforcement, DuplicateNameIsAlreadyExists) {
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  EXPECT_EQ(db->DefineConstraint(NoSelfLoop()).code(),
            StatusCode::kAlreadyExists);
}

TEST(ConstraintEnforcement, ForeignKeySidesBehaveAsymmetrically) {
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->DefineConstraint(MarkRefsEdge()).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(1, 2)).ok());
  // Referencing side: must match an Edge source.
  EXPECT_TRUE(db->Insert("Mark", Tuple({Value::Int(1)})).ok());
  EXPECT_EQ(db->Insert("Mark", Tuple({Value::Int(9)})).code(),
            StatusCode::kConstraintViolation);
  // Referenced side: always admissible (skip event).
  EXPECT_TRUE(db->Insert("Edge", Edge2(7, 8)).ok());
}

TEST(ConstraintEnforcement, SimplifiedAgreesWithFullRecheck) {
  // The same mutation sequence against two databases differing only in
  // constraints_simplify must produce identical verdicts and final states.
  DatabaseOptions simplified;
  simplified.constraints_simplify = true;
  DatabaseOptions full;
  full.constraints_simplify = false;
  std::unique_ptr<Database> a = GraphDb(simplified);
  std::unique_ptr<Database> b = GraphDb(full);
  for (Database* db : {a.get(), b.get()}) {
    ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
    ASSERT_TRUE(db->DefineConstraint(MarkRefsEdge()).ok());
  }
  const std::vector<Tuple> edges = {Edge2(1, 2), Edge2(2, 2), Edge2(2, 3),
                                    Edge2(4, 4), Edge2(3, 1)};
  for (const Tuple& t : edges) {
    Status sa = a->Insert("Edge", t);
    Status sb = b->Insert("Edge", t);
    EXPECT_EQ(sa.code(), sb.code()) << t.ToString();
  }
  for (int64_t node : {1, 5, 2, 9}) {
    Status sa = a->Insert("Mark", Tuple({Value::Int(node)}));
    Status sb = b->Insert("Mark", Tuple({Value::Int(node)}));
    EXPECT_EQ(sa.code(), sb.code()) << node;
  }
  EXPECT_EQ(SortedTuples(*a, "Edge"), SortedTuples(*b, "Edge"));
  EXPECT_EQ(SortedTuples(*a, "Mark"), SortedTuples(*b, "Mark"));
}

TEST(ConstraintEnforcement, CountersTrackCheckKinds) {
  // The counters are per-database, so a fresh database starts at zero.
  std::unique_ptr<Database> db = GraphDb();
  Counter* checks = db->metrics().GetCounter("constraints.checks");
  Counter* simplified = db->metrics().GetCounter("constraints.simplified");
  Counter* violations = db->metrics().GetCounter("constraints.violations");
  EXPECT_EQ(checks->value(), 0);
  EXPECT_EQ(simplified->value(), 0);
  EXPECT_EQ(violations->value(), 0);

  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(1, 2)).ok());
  EXPECT_EQ(db->Insert("Edge", Edge2(3, 3)).code(),
            StatusCode::kConstraintViolation);

  EXPECT_GT(checks->value(), 0);
  EXPECT_GT(simplified->value(), 0);
  EXPECT_EQ(violations->value(), 1);
}

TEST(ConstraintEnforcement, PragmaOffAdmitsThenFullRecheckSurfaces) {
  std::unique_ptr<Database> db = GraphDb();
  Interpreter interp(db.get());
  ASSERT_TRUE(interp
                  .Execute("CONSTRAINT c DENY EACH p IN Edge: "
                           "p.src = p.dst;")
                  .ok());
  ASSERT_TRUE(interp.Execute("PRAGMA CONSTRAINTS = OFF;").ok());
  // Violations are admitted while enforcement is off.
  ASSERT_TRUE(interp.Execute("INSERT INTO Edge <5, 5>;").ok());
  ASSERT_TRUE(interp.Execute("PRAGMA CONSTRAINTS = ON;").ok());
  // The next checked statement re-checks everything inserted since the
  // last successful check — the stale violation surfaces and the statement
  // is rejected, so its own (clean) tuple does not stick either.
  Status late = interp.Execute("INSERT INTO Edge <1, 2>;");
  EXPECT_EQ(late.code(), StatusCode::kConstraintViolation);
  std::vector<Tuple> edges = SortedTuples(*db, "Edge");
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], Edge2(5, 5));
}

TEST(ConstraintEnforcement, DescribeConstraintsListsPlans) {
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  ASSERT_TRUE(db->DefineConstraint(MarkRefsEdge()).ok());
  std::string text = db->DescribeConstraints();
  EXPECT_NE(text.find("no_self_loop"), std::string::npos);
  EXPECT_NE(text.find("mark_refs_edge"), std::string::npos);
  EXPECT_NE(text.find("simplified"), std::string::npos);
  EXPECT_NE(text.find("skip"), std::string::npos);
  EXPECT_NE(text.find("full recheck"), std::string::npos);
}

TEST(ConstraintEnforcement, EraseForcesFullRecheckSoundly) {
  // An erase invalidates the delta log; the next check must fall back to
  // full re-evaluation and still accept clean tuples / reject violating
  // ones.
  std::unique_ptr<Database> db = GraphDb();
  Counter* full_rechecks =
      db->metrics().GetCounter("constraints.full_rechecks");
  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(1, 2)).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(4, 5)).ok());
  ASSERT_TRUE(db->GetMutableRelation("Edge").value()->Erase(Edge2(4, 5)));
  int64_t full0 = full_rechecks->value();
  // InsertedSince is gone, so this check runs the full denial — and passes.
  EXPECT_TRUE(db->Insert("Edge", Edge2(2, 3)).ok());
  EXPECT_GT(full_rechecks->value(), full0);
  ASSERT_TRUE(db->GetMutableRelation("Edge").value()->Erase(Edge2(2, 3)));
  EXPECT_EQ(db->Insert("Edge", Edge2(2, 2)).code(),
            StatusCode::kConstraintViolation);
}

/// The update_mix constraints over Part/Uses: KEY, FOREIGN and a 2-cycle
/// DENY on Uses.
std::unique_ptr<Database> PartsDb() {
  auto db = std::make_unique<Database>();
  Interpreter interp(db.get());
  Status s = interp.Execute(R"(
TYPE partrel = RELATION OF RECORD pid, kind: INTEGER END;
TYPE userel = RELATION OF RECORD src, dst: INTEGER END;
VAR Part: partrel;
VAR Uses: userel;
INSERT INTO Part <1, 0>, <2, 0>, <3, 0>, <4, 0>, <5, 0>, <6, 0>;
INSERT INTO Uses <1, 2>, <2, 3>;
CONSTRAINT one_parent KEY <dst> ON Uses;
CONSTRAINT uses_src FOREIGN src OF Uses REFERENCES pid OF Part;
CONSTRAINT no_two_cycle DENY EACH a IN Uses, EACH b IN Uses:
  a.src = b.dst AND a.dst = b.src;
)");
  EXPECT_TRUE(s.ok()) << s.ToString();
  return db;
}

TEST(ConstraintEnforcement, RejectedStatementKeepsTheDeltaBaseline) {
  // A rejected statement's rollback restores exactly the state every
  // constraint verified before it, so the next valid insert still runs the
  // simplified residues instead of re-checking every constraint in full.
  std::unique_ptr<Database> db = PartsDb();
  Counter* full_rechecks =
      db->metrics().GetCounter("constraints.full_rechecks");
  const int64_t full0 = full_rechecks->value();

  // Insert: a second parent for part 3 (KEY), with its witness.
  Status key = db->Insert("Uses", Edge2(1, 3));
  EXPECT_EQ(key.code(), StatusCode::kConstraintViolation);
  EXPECT_NE(key.message().find("'one_parent' violated by tuple <1, 3> (Uses): "
                               "witness <2, 3>"),
            std::string::npos)
      << key.ToString();
  ASSERT_TRUE(db->Insert("Uses", Edge2(3, 4)).ok());
  EXPECT_EQ(full_rechecks->value(), full0);

  // InsertAll: a clean tuple plus a dangling assembly (FOREIGN).
  Status foreign = db->InsertAll("Uses", {Edge2(4, 5), Edge2(9, 6)});
  EXPECT_EQ(foreign.code(), StatusCode::kConstraintViolation);
  EXPECT_NE(foreign.message().find("'uses_src' violated by tuple <9, 6> "
                                   "(Uses): witness <9, 6>"),
            std::string::npos)
      << foreign.ToString();
  ASSERT_TRUE(db->Insert("Uses", Edge2(4, 5)).ok());
  EXPECT_EQ(full_rechecks->value(), full0);

  // Assign: the current contents plus a 2-cycle (DENY); the full recheck
  // after the wholesale replacement finds it.
  Relation value = *db->GetRelation("Uses").value();
  ASSERT_TRUE(value.Insert(Edge2(5, 4)).ok());
  Status cycle = db->Assign("Uses", value);
  EXPECT_EQ(cycle.code(), StatusCode::kConstraintViolation);
  EXPECT_NE(cycle.message().find("'no_two_cycle' violated: witness "
                                 "<4, 5, 5, 4>"),
            std::string::npos)
      << cycle.ToString();
  const int64_t after_assign = full_rechecks->value();
  ASSERT_TRUE(db->Insert("Uses", Edge2(5, 6)).ok());
  EXPECT_EQ(full_rechecks->value(), after_assign);

  // The replayed baselines stay sound: violations are still caught.
  EXPECT_EQ(db->Insert("Uses", Edge2(6, 5)).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(db->Insert("Uses", Edge2(2, 6)).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(SortedTuples(*db, "Uses"),
            (std::vector<Tuple>{Edge2(1, 2), Edge2(2, 3), Edge2(3, 4),
                                Edge2(4, 5), Edge2(5, 6)}));
}

TEST(ConstraintEnforcement, StaleBaselinesStayStaleAcrossARollback) {
  // A constraint that had not verified the pre-statement state (its input
  // moved while enforcement was off) must still run its full recheck after
  // a rejected statement.
  std::unique_ptr<Database> db = GraphDb();
  Counter* full_rechecks =
      db->metrics().GetCounter("constraints.full_rechecks");
  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  db->options().constraints = false;
  ASSERT_TRUE(db->Insert("Edge", Edge2(1, 2)).ok());
  ASSERT_TRUE(db->GetMutableRelation("Edge").value()->Erase(Edge2(1, 2)));
  db->options().constraints = true;
  EXPECT_EQ(db->Insert("Edge", Edge2(3, 3)).code(),
            StatusCode::kConstraintViolation);
  const int64_t full0 = full_rechecks->value();
  ASSERT_TRUE(db->Insert("Edge", Edge2(3, 4)).ok());
  EXPECT_GT(full_rechecks->value(), full0);
}

TEST(ConstraintEnforcement, ShowConstraintsRendersResiduePlans) {
  std::unique_ptr<Database> db = PartsDb();
  const std::string text = db->DescribeConstraints();
  for (const char* line : {
           // KEY <dst>: one probe on the delta's dst per residue.
           "    residue 0: probe(b IN Uses on dst = delta_dst) -> "
           "filter(delta_src # b.src) -> project<b.src, b.dst>\n",
           "    residue 1: probe(a IN Uses on dst = delta_dst) -> "
           "filter(a.src # delta_src) -> project<a.src, a.dst>\n",
           // FOREIGN: the delta tuple itself, then the SOME over Part
           // (probed on ref.pid inside the filter).
           "    residue 0: probe(fk IN Uses on src = delta_src, dst = "
           "delta_dst) -> filter(NOT (SOME ref IN Part (ref.pid = fk.src))) "
           "-> project<fk.src, fk.dst>\n",
           // DENY 2-cycle: the reversed edge, on the same (src, dst) index
           // as the FOREIGN residue.
           "    residue 0: probe(b IN Uses on src = delta_dst, dst = "
           "delta_src) -> project<b.src, b.dst>\n",
           "    residue 1: probe(a IN Uses on src = delta_dst, dst = "
           "delta_src) -> project<a.src, a.dst>\n",
           "  full check: scan(fk IN Uses) -> filter(NOT (SOME ref IN Part "
           "(ref.pid = fk.src))) -> project<fk.src, fk.dst>\n"}) {
    EXPECT_NE(text.find(line), std::string::npos) << line << "\n" << text;
  }
  EXPECT_EQ(text.find("general evaluation"), std::string::npos) << text;
}

}  // namespace
}  // namespace datacon
