// A prepared query owns its compiled program (DESIGN §4.8): built on the
// first execution, reused by every later one, and rebuilt exactly when a
// definition or a plan-shaping option changes. Across every such event —
// and across the ones that must not rebuild (THREADS, a Clear or an
// assignment that drops an input's indexes) — a long-lived prepared query
// must answer like a freshly prepared one, and long-lived constraint
// residues must accept, reject and name witnesses like freshly defined
// constraints over the same facts.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ast/builder.h"
#include "core/database.h"
#include "lang/interpreter.h"

namespace datacon {
namespace {

constexpr char kSchema[] = R"(
TYPE partrel = RELATION OF RECORD pid, kind: INTEGER END;
TYPE userel = RELATION OF RECORD src, dst: INTEGER END;
VAR Part: partrel;
VAR Uses: userel;
CONSTRUCTOR explode FOR Rel: userel (): userel;
BEGIN EACH r IN Rel: TRUE,
      <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel {explode}: f.dst = b.src
END explode;
)";

constexpr char kConstraints[] = R"(
CONSTRAINT one_parent KEY <dst> ON Uses;
CONSTRAINT uses_src FOREIGN src OF Uses REFERENCES pid OF Part;
CONSTRAINT no_two_cycle DENY EACH a IN Uses, EACH b IN Uses:
  a.src = b.dst AND a.dst = b.src;
)";

constexpr int kUses = 200;  // a binary forest: part i's parent is (i-1)/2
constexpr int kParts = kUses + 40;

Tuple Pair(int64_t a, int64_t b) {
  return Tuple({Value::Int(a), Value::Int(b)});
}

void RunScript(Database* db, const std::string& source) {
  Interpreter interp(db);
  Status s = interp.Execute(source);
  ASSERT_TRUE(s.ok()) << s.ToString() << "\n" << source;
}

/// A parameterized form with its placeholders and one binding.
struct Form {
  CalcExprPtr expr;
  std::map<std::string, ValueType> placeholders;
  std::map<std::string, Value> params;
};

std::vector<Form> Forms() {
  using namespace build;
  std::vector<Form> forms;
  // A seeded closure with capture rules on, a magic-seed specialized
  // fixpoint without.
  forms.push_back(
      {Union({IdentityBranch("v", Constructed(Rel("Uses"), "explode"),
                             Eq(FieldRef("v", "src"), Param("start")))}),
       {{"start", ValueType::kInt}},
       {{"start", Value::Int(3)}}});
  // A join whose outer scan fans out at THREADS 4 and whose SOME
  // quantifier probes Part's own index.
  forms.push_back(
      {Union({MakeBranch(
           {FieldRef("u", "src"), FieldRef("w", "dst")},
           {Each("u", Rel("Uses")), Each("w", Rel("Uses"))},
           And({Eq(FieldRef("u", "dst"), FieldRef("w", "src")),
                Lt(Param("p"), FieldRef("w", "dst")),
                Some("q", Rel("Part"),
                     And({Eq(FieldRef("q", "pid"), FieldRef("w", "dst")),
                          Eq(FieldRef("q", "kind"), Int(1))}))}))}),
       {{"p", ValueType::kInt}},
       {{"p", Value::Int(20)}}});
  return forms;
}

class PreparedProgramTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    RunScript(db_.get(), kSchema);
    for (int p = 0; p < kParts; ++p) {
      ASSERT_TRUE(db_->Insert("Part", Pair(p, p % 3)).ok());
    }
    for (int i = 1; i <= kUses; ++i) {
      ASSERT_TRUE(db_->Insert("Uses", Pair((i - 1) / 2, i)).ok());
    }
    RunScript(db_.get(), kConstraints);
    for (const Form& form : Forms()) {
      Result<PreparedQuery> prepared =
          db_->Prepare(form.expr, form.placeholders);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      prepared_.push_back(std::move(prepared).value());
    }
    // The first execution builds each program.
    const int64_t before = Compilations();
    for (size_t i = 0; i < prepared_.size(); ++i) {
      ASSERT_TRUE(prepared_[i].Execute(Forms()[i].params).ok());
    }
    EXPECT_EQ(Compilations() - before, static_cast<int64_t>(prepared_.size()));
    ExpectQueriesMatchFresh(/*rebuilt=*/false);
    ExpectConstraintsMatchFresh();
  }

  int64_t Compilations() const {
    return db_->metrics().GetCounter("prepared.compilations")->value();
  }

  /// Applies `event` to the database under test; definitions and option
  /// flips (`replay`) are also replayed on every fresh reference database,
  /// data changes reach it through the copied facts.
  void Apply(const std::function<void(Database*)>& event, bool replay) {
    event(db_.get());
    if (replay) history_.push_back(event);
  }

  /// Executes every long-lived form twice and a freshly prepared twin once:
  /// the answers and plan descriptions agree, the first execution rebuilt
  /// each program exactly when `rebuilt`, and the second rebuilt nothing.
  void ExpectQueriesMatchFresh(bool rebuilt) {
    const std::vector<Form> forms = Forms();
    for (size_t i = 0; i < prepared_.size(); ++i) {
      SCOPED_TRACE("form " + std::to_string(i));
      int64_t before = Compilations();
      Result<Relation> got = prepared_[i].Execute(forms[i].params);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(Compilations() - before, rebuilt ? 1 : 0);
      before = Compilations();
      Result<Relation> again = prepared_[i].Execute(forms[i].params);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(Compilations(), before);

      Result<PreparedQuery> fresh =
          db_->Prepare(forms[i].expr, forms[i].placeholders);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      Result<Relation> want = fresh->Execute(forms[i].params);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_EQ(got->ToString(), want->ToString());
      EXPECT_EQ(again->ToString(), want->ToString());
      EXPECT_EQ(prepared_[i].plan_description(), fresh->plan_description());
    }
  }

  /// One accepted insert (which also re-bases the constraints after a
  /// Clear or an assignment) and one rejected insert per constraint, run
  /// against the database under test and against a fresh database holding
  /// the same definitions and facts with the constraints defined last: the
  /// statuses — codes, messages and witnesses — agree.
  void ExpectConstraintsMatchFresh() {
    auto reference = std::make_unique<Database>();
    RunScript(reference.get(), kSchema);
    for (const auto& event : history_) event(reference.get());
    for (const char* name : {"Part", "Uses"}) {
      for (const Tuple& t : db_->GetRelation(name).value()->SortedTuples()) {
        ASSERT_TRUE(reference->Insert(name, t).ok());
      }
    }
    RunScript(reference.get(), kConstraints);

    const int64_t fresh_part = kParts + next_part_++;
    // Accepted: a new part used by the root.
    std::vector<std::pair<const char*, Tuple>> statements = {
        {"Part", Pair(fresh_part, 1)},
        {"Uses", Pair(0, fresh_part)},
        // KEY: part 2 already has parent 0.
        {"Uses", Pair(3, 2)},
        // FOREIGN: no part 100000.
        {"Uses", Pair(100000, fresh_part + 1000)},
        // DENY: the reverse of 0 -> 1 (0 is a root, so KEY holds).
        {"Uses", Pair(1, 0)},
    };
    for (const auto& [relation, tuple] : statements) {
      SCOPED_TRACE(std::string(relation) + " " + tuple.ToString());
      Status got = db_->Insert(relation, tuple);
      Status want = reference->Insert(relation, tuple);
      EXPECT_EQ(got.code(), want.code());
      EXPECT_EQ(got.ToString(), want.ToString());
    }
  }

  /// An event, then both checks.
  void Check(const std::function<void(Database*)>& event, bool rebuilds,
             bool replay = true) {
    Apply(event, replay);
    ExpectQueriesMatchFresh(rebuilds);
    ExpectConstraintsMatchFresh();
  }

  std::unique_ptr<Database> db_;
  std::vector<PreparedQuery> prepared_;
  std::vector<std::function<void(Database*)>> history_;
  int next_part_ = 0;
};

TEST_F(PreparedProgramTest, ReusedUntilNothingChanges) {
  // No event at all: nothing is rebuilt.
  ExpectQueriesMatchFresh(/*rebuilt=*/false);
  ExpectConstraintsMatchFresh();
}

TEST_F(PreparedProgramTest, NewDefinitionsRebuild) {
  Check([](Database* db) {
          RunScript(db, "TYPE extrarel = RELATION OF RECORD x, y: INTEGER "
                        "END;");
        },
        true);
  Check([](Database* db) { RunScript(db, "VAR Extra: extrarel;"); }, true);
  Check([](Database* db) {
          RunScript(db, "SELECTOR kind_is (K: INTEGER) FOR Rel: partrel;"
                        "BEGIN EACH r IN Rel: r.kind = K END kind_is;");
        },
        true);
  Check([](Database* db) {
          RunScript(db, "CONSTRUCTOR up FOR Rel: userel (): userel;"
                        "BEGIN <r.dst, r.src> OF EACH r IN Rel: TRUE END up;");
        },
        true);
  Check([](Database* db) {
          RunScript(db,
                    "CONSTRAINT no_self DENY EACH s IN Uses: s.src = s.dst;");
        },
        true);
}

TEST_F(PreparedProgramTest, PlanShapingOptionsRebuild) {
  Check([](Database* db) { db->options().specialize = false; }, true);
  Check([](Database* db) { db->options().specialize = true; }, true);
  Check([](Database* db) { db->options().use_capture_rules = false; }, true);
  Check([](Database* db) { db->options().inline_nonrecursive = false; }, true);
  Check([](Database* db) { db->options().eval.exec.use_hash_joins = false; },
        true);
  Check([](Database* db) { db->options().eval.exec.use_hash_joins = true; },
        true);
  Check([](Database* db) { db->options().use_capture_rules = true; }, true);
  Check([](Database* db) { db->options().inline_nonrecursive = true; }, true);
}

TEST_F(PreparedProgramTest, TypecheckOffDemotesAndRebuildsOnce) {
  // TYPECHECK OFF ends the typed-proven fast path: a rebuild.
  Check([](Database* db) { db->options().typecheck = false; }, true);
  // An unchecked definition demotes the catalog: a rebuild (a definition).
  Check([](Database* db) {
          RunScript(db, "SELECTOR big (N: INTEGER) FOR Rel: userel;"
                        "BEGIN EACH r IN Rel: r.dst > N END big;");
        },
        true);
  ASSERT_FALSE(db_->catalog_typed_clean());
  // TYPECHECK ON again: the demoted catalog stays checked, so the programs'
  // key is unchanged and nothing is rebuilt.
  Check([](Database* db) { db->options().typecheck = true; }, false);
}

TEST_F(PreparedProgramTest, ThreadsDoNotShapeAPlan) {
  Check([](Database* db) { db->options().eval.exec.num_threads = 4; }, false);
  Check([](Database* db) { db->options().eval.exec.num_threads = 1; }, false);
}

TEST_F(PreparedProgramTest, DroppedIndexesAreRequestedAgain) {
  // Clear and assignment drop a relation's indexes; the programs hold none,
  // so they re-request them and answer over the new contents.
  Relation saved = *db_->GetRelation("Uses").value();
  Check([](Database* db) { db->GetMutableRelation("Uses").value()->Clear(); },
        false, /*replay=*/false);
  Check([&saved](Database* db) { ASSERT_TRUE(db->Assign("Uses", saved).ok()); },
        false, /*replay=*/false);
  Relation parts = *db_->GetRelation("Part").value();
  Check([&parts](Database* db) { ASSERT_TRUE(db->Assign("Part", parts).ok()); },
        false, /*replay=*/false);
  EXPECT_GT(db_->GetRelation("Uses").value()->size(),
            static_cast<size_t>(kUses));
}

}  // namespace
}  // namespace datacon
