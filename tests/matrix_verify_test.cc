// Mutation tests for the commutativity-matrix verifier (cc/matrix_verifier.h).
//
// The verifier's value is what it REJECTS: each test seeds one defect class
// into a scratch registry through the TestOnlyCorrupt* hooks (the public
// registration API cannot build a broken matrix — Define() always writes
// symmetric cells) and asserts the verifier rejects it with a pointed
// diagnostic naming the check, the type, and the offending methods.
#include "cc/matrix_verifier.h"

#include <algorithm>
#include <string>

#include "cc/compatibility.h"
#include "gtest/gtest.h"

namespace semcc {
namespace {

using CellKind = CompatibilityRegistry::CellKind;

constexpr TypeId kScratchType = 77;

/// A small well-formed registry: three methods, every pair registered,
/// one parameter-dependent cell (A vs C commute iff first args differ).
void InstallScratchMatrix(CompatibilityRegistry* c) {
  for (const char* m : {"MvA", "MvB", "MvC"}) {
    c->DeclareMethod(kScratchType, m);
  }
  c->Define(kScratchType, "MvA", "MvA", true);
  c->Define(kScratchType, "MvA", "MvB", false);
  c->Define(kScratchType, "MvB", "MvB", true);
  c->Define(kScratchType, "MvB", "MvC", true);
  c->Define(kScratchType, "MvC", "MvC", false);
  c->DefinePredicate(kScratchType, "MvA", "MvC",
                     [](const Args& a, const Args& b) {
                       return !a.empty() && !b.empty() && !(a[0] == b[0]);
                     });
}

constexpr TypeId kSpecType = 78;

/// A registry whose cells are DERIVED from exact footprints (§5.8): a
/// point-keyed blind insert and a point-keyed read. Every pair involving
/// the insert compiles to a key-overlap predicate, the read pair to a
/// static compatible cell — all computed, none hand-written.
void InstallScratchSpecs(CompatibilityRegistry* c) {
  MethodSpec ins;
  ins.writes = KeyRef::Point(0);
  ins.size_delta = 1;
  c->DefineMethodSpec(kSpecType, "MvIns", ins);
  MethodSpec sel;
  sel.reads = KeyRef::Point(0);
  c->DefineMethodSpec(kSpecType, "MvSel", sel);
}

bool HasDiagnosticForType(const MatrixVerifyReport& report, TypeId type,
                          const std::string& check,
                          const std::string& detail_substr) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const MatrixDiagnostic& d) {
                       return d.check == check && d.type == type &&
                              d.detail.find(detail_substr) !=
                                  std::string::npos;
                     });
}

bool HasDiagnostic(const MatrixVerifyReport& report, const std::string& check,
                   const std::string& detail_substr) {
  return HasDiagnosticForType(report, kScratchType, check, detail_substr);
}

TEST(MatrixVerifyTest, WellFormedScratchRegistryPasses) {
  CompatibilityRegistry c;
  InstallScratchMatrix(&c);
  MatrixVerifier verifier(&c);
  const MatrixVerifyReport report = verifier.Verify();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.types_checked, 1u);
  EXPECT_GT(report.cells_checked, 0u);
  EXPECT_GT(report.verdicts_sampled, 0u);
  EXPECT_FALSE(report.behavioral_skipped);
}

TEST(MatrixVerifyTest, RejectsFlippedSymmetryCell) {
  CompatibilityRegistry c;
  InstallScratchMatrix(&c);
  // Flip ONE direction of a static cell: (MvA, MvB) becomes compatible
  // while (MvB, MvA) stays conflict — the verdict now depends on which
  // side holds the lock, which the protocol never allows.
  ASSERT_TRUE(c.TestOnlyCorruptCell(kScratchType, "MvA", "MvB",
                                    CellKind::kCellCompatible));
  const MatrixVerifyReport report = MatrixVerifier(&c).Verify();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, "cell-symmetry", "MvA"))
      << report.ToString();
  EXPECT_TRUE(HasDiagnostic(report, "cell-symmetry", "MvB"))
      << report.ToString();
  EXPECT_TRUE(report.behavioral_skipped);
}

TEST(MatrixVerifyTest, RejectsPredicateDenseMismatch) {
  CompatibilityRegistry c;
  InstallScratchMatrix(&c);
  // Overwrite BOTH directions of the predicate pair with a static verdict:
  // symmetry still holds, but the compiled table now contradicts the
  // registered Fig. 3-style predicate — the hot path would answer
  // "always commute" where the registration says "commute iff args differ".
  ASSERT_TRUE(c.TestOnlyCorruptCell(kScratchType, "MvA", "MvC",
                                    CellKind::kCellCompatible));
  ASSERT_TRUE(c.TestOnlyCorruptCell(kScratchType, "MvC", "MvA",
                                    CellKind::kCellCompatible));
  const MatrixVerifyReport report = MatrixVerifier(&c).Verify();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(
      HasDiagnostic(report, "registration-agreement", "predicate"))
      << report.ToString();
  EXPECT_TRUE(report.behavioral_skipped);
}

TEST(MatrixVerifyTest, RejectsIncompleteMatrix) {
  // A declared method with unregistered pairs degrades to the conflict
  // default — the retained-lock closure property (Fig. 8/9) the verifier's
  // matrix-totality check protects.
  CompatibilityRegistry c;
  InstallScratchMatrix(&c);
  c.DeclareMethod(kScratchType, "MvOrphan");
  const MatrixVerifyReport report = MatrixVerifier(&c).Verify();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, "matrix-totality", "MvOrphan"))
      << report.ToString();
}

TEST(MatrixVerifyTest, WellFormedDerivedSpecsPass) {
  CompatibilityRegistry c;
  InstallScratchSpecs(&c);
  const MatrixVerifyReport report = MatrixVerifier(&c).Verify();
  EXPECT_TRUE(report.ok()) << report.ToString();
  // The derived cells appear in the dump with their spec lines, so spec
  // edits show up in the golden table like matrix edits do.
  const std::string table = MatrixVerifier(&c).DumpTable();
  for (const char* needle :
       {"spec MvIns reads=none writes=point(arg0) observes_size=no "
        "size_delta=1 exact=yes",
        "spec MvSel reads=point(arg0) writes=none observes_size=no "
        "size_delta=0 exact=yes",
        "cell MvIns x MvSel = pred{", "cell MvSel x MvSel = commute"}) {
    EXPECT_NE(table.find(needle), std::string::npos)
        << "missing " << needle << " in:\n" << table;
  }
}

TEST(MatrixVerifyTest, RejectsCorruptedDerivedCell) {
  CompatibilityRegistry c;
  InstallScratchSpecs(&c);
  // Flip BOTH directions of the derived key-overlap predicate cell to a
  // static conflict: symmetry still holds, but the published table now
  // contradicts what the footprint algebra computes from the two exact
  // specs — the lock manager would block point ops on different keys that
  // the specs prove independent.
  ASSERT_TRUE(c.TestOnlyCorruptCell(kSpecType, "MvIns", "MvSel",
                                    CellKind::kCellConflict));
  ASSERT_TRUE(c.TestOnlyCorruptCell(kSpecType, "MvSel", "MvIns",
                                    CellKind::kCellConflict));
  const MatrixVerifyReport report = MatrixVerifier(&c).Verify();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnosticForType(report, kSpecType, "spec-derivation",
                                   "(MvIns, MvSel) derive predicate"))
      << report.ToString();
  EXPECT_TRUE(HasDiagnosticForType(report, kSpecType, "spec-derivation",
                                   "published cell is conflict"))
      << report.ToString();
}

TEST(MatrixVerifyTest, RejectsCorruptedSpec) {
  CompatibilityRegistry c;
  InstallScratchSpecs(&c);
  // Swap MvIns's published spec for a keyless no-op footprint WITHOUT
  // re-deriving: the algebra now derives compatible for every MvIns pair
  // while the compiled cells still carry the old key-overlap predicates.
  MethodSpec benign;
  ASSERT_TRUE(c.TestOnlyCorruptSpec(kSpecType, "MvIns", benign));
  const MatrixVerifyReport report = MatrixVerifier(&c).Verify();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnosticForType(report, kSpecType, "spec-derivation",
                                   "(MvIns, MvSel) derive compatible"))
      << report.ToString();
  EXPECT_TRUE(HasDiagnosticForType(report, kSpecType, "spec-derivation",
                                   "published cell is predicate"))
      << report.ToString();
}

TEST(MatrixVerifyTest, DumpTableIsDeterministicAndExhaustive) {
  CompatibilityRegistry c;
  InstallScratchMatrix(&c);
  MatrixVerifier verifier(&c);
  const std::string table = verifier.DumpTable();
  EXPECT_EQ(table, verifier.DumpTable());
  for (const char* needle :
       {"MvA x MvA", "MvA x MvB", "MvA x MvC", "MvB x MvB", "MvB x MvC",
        "MvC x MvC", "pred{"}) {
    EXPECT_NE(table.find(needle), std::string::npos)
        << "missing " << needle << " in:\n" << table;
  }
}

}  // namespace
}  // namespace semcc
