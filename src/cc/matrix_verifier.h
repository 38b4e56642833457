// Build-time verification of the commutativity matrices (tools/matrix_verify).
//
// The protocol's correctness rests on matrix properties no compiler checks
// (paper §2.2/§3; Malta & Martinez, "Limits of Commutativity on Abstract
// Data Types"): commutativity is symmetric, the compiled dense tables must
// agree with the registration-level view they were compiled from, cells
// derived from method specs must agree with the footprint algebra, and the
// per-type matrix must be total over its declared methods — an
// unregistered pair silently falls through to the generic rules, else
// conflict, which makes the ancestor walk (Fig. 8/9, Case 1/2 relief)
// strictly more blocking than the ADT designer intended. The verifier
// mechanically checks these families against a live registry and can
// dump the exhaustive verified verdict table for golden-file regression.
//
// Two consumers: tools/matrix_verify (a ctest over the real registry) and
// tests/matrix_verify_test.cc (mutation tests seeding each defect class via
// the registry's TestOnlyCorrupt* hooks and asserting pointed rejection).
#ifndef SEMCC_CC_MATRIX_VERIFIER_H_
#define SEMCC_CC_MATRIX_VERIFIER_H_

#include <map>
#include <string>
#include <vector>

#include "cc/compatibility.h"
#include "object/value.h"

namespace semcc {

/// \brief One verifier finding: which check failed, where, and why.
struct MatrixDiagnostic {
  std::string check;  ///< "cell-symmetry", "registration-agreement", ...
  TypeId type = kInvalidTypeId;
  std::string detail;

  std::string ToString() const;
};

/// \brief Outcome of one MatrixVerifier::Verify() run.
struct MatrixVerifyReport {
  std::vector<MatrixDiagnostic> diagnostics;
  size_t types_checked = 0;
  size_t cells_checked = 0;
  size_t verdicts_sampled = 0;
  /// True when a structural defect made the behavioral sampling phase
  /// unsafe to run (e.g. a cell claiming kPredicate with no predicate
  /// compiled would crash Commute); the structural diagnostics then stand
  /// alone.
  bool behavioral_skipped = false;

  bool ok() const { return diagnostics.empty(); }
  /// Human-readable multi-line summary (diagnostics first, counts last).
  std::string ToString() const;
};

/// \brief Static verifier over a CompatibilityRegistry's compiled tables.
///
/// Check families (names appear in MatrixDiagnostic::check):
///  - "cell-symmetry": every compiled dense cell equals its transpose.
///  - "registration-agreement": each registered entry compiled to the cell
///    kind it implies (static-compatible / static-conflict / predicate), and
///    every non-kUnknown compiled cell has a backing registered entry.
///  - "pred-symmetry" / "pred-determinism": predicate verdicts are symmetric
///    under operand swap and stable under re-evaluation over the samples.
///  - "matrix-totality": every pair over a type's declared/registered
///    methods has a registered verdict (the retained-lock closure property:
///    parent-level cells may not silently degrade to the conflict default).
///  - "spec-derivation": for every pair of *exact* method specs
///    (DefineMethodSpec), the published cell must equal what the footprint
///    algebra (DeriveCell) computes from the two specs — regardless of
///    whether the cell was derived or hand-written — and each such
///    predicate cell must agree with SpecsCommute on every sample pair.
///  - "spec-vs-generic": where the exact specs are exactly the built-in
///    generic-op footprints, the derived verdicts must reproduce the
///    hand-coded generic key rules (GenericCommute) on every sample pair.
class MatrixVerifier {
 public:
  explicit MatrixVerifier(const CompatibilityRegistry* compat);

  /// Add an argument vector to the predicate sample set (the
  /// built-in set covers nullary, int-keyed, string-event, and two-arg
  /// shapes; ADTs with exotic predicates can extend it).
  void AddSampleArgs(Args args);

  /// Run every check over every registered type.
  MatrixVerifyReport Verify() const;

  /// Exhaustive verdict table over every registered type, deterministic and
  /// diff-friendly — committed as a golden file and compared by a ctest so
  /// a matrix edit cannot land without the reviewed table changing with it.
  /// `type_names` (optional) maps TypeId to schema names for readability.
  std::string DumpTable(
      const std::map<TypeId, std::string>* type_names = nullptr) const;

 private:
  /// Declared methods first (declaration order), then any method appearing
  /// in a registered pair but never declared (sorted by name).
  std::vector<std::string> MethodUniverse(TypeId type) const;

  void VerifyStructural(TypeId type, MatrixVerifyReport* report) const;
  void VerifyBehavioral(TypeId type, MatrixVerifyReport* report) const;

  const CompatibilityRegistry* compat_;
  std::vector<Args> samples_;
};

}  // namespace semcc

#endif  // SEMCC_CC_MATRIX_VERIFIER_H_
