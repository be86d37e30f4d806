//===- GraphBuilder.h - Constraint graph construction -----------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase 1 of Section 4.3: "the analysis creates the constraint graph edges
/// that can be directly inferred from program statements". All application
/// methods are considered executable; polymorphic calls are resolved with
/// class-hierarchy information; calls to application methods contribute
/// parameter/return edges; occurrences of Android APIs become operation
/// nodes; activity lifecycle callbacks seed activity nodes into `this`
/// variables.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_ANALYSIS_GRAPHBUILDER_H
#define GATOR_ANALYSIS_GRAPHBUILDER_H

#include "analysis/Options.h"
#include "analysis/Solution.h"
#include "android/AndroidModel.h"
#include "graph/ConstraintGraph.h"
#include "hier/ClassHierarchy.h"
#include "layout/Layout.h"

#include <unordered_map>
#include <vector>

namespace gator {
namespace support {
class TraceSink;
} // namespace support

namespace analysis {

/// Builds the statement-derived part of the constraint graph.
class GraphBuilder {
public:
  /// \p Layouts is mutable because view ids referenced only from code
  /// (e.g. used with setId on programmatic views) are interned on demand.
  GraphBuilder(const ir::Program &P, layout::LayoutRegistry &Layouts,
               const android::AndroidModel &AM,
               const hier::ClassHierarchy &CH, DiagnosticEngine &Diags)
      : P(P), Layouts(Layouts), AM(AM), CH(CH), Diags(Diags) {}

  /// Populates \p G and \p Ops. Returns false on (non-fatal) errors.
  bool build(graph::ConstraintGraph &G, std::vector<OpSite> &Ops);

  /// Attaches a span sink for build sub-phases (docs/OBSERVABILITY.md);
  /// null disables tracing. Must outlive build().
  void setTrace(support::TraceSink *Sink) { Trace = Sink; }

  /// Enables/disables unknown-source modeling (docs/ROBUSTNESS.md): when on,
  /// reflective construction, non-constant ids, and missing layout resources
  /// become tagged UnknownView/UnknownId nodes instead of dropped facts.
  void setModelUnknownSources(bool On) { ModelUnknown = On; }

private:
  void buildResourceNodes(graph::ConstraintGraph &G);
  void buildActivityNodes(graph::ConstraintGraph &G);
  void buildMethod(graph::ConstraintGraph &G, std::vector<OpSite> &Ops,
                   const ir::MethodDecl &M);
  void buildInvoke(graph::ConstraintGraph &G, std::vector<OpSite> &Ops,
                   const ir::MethodDecl &M, const ir::Stmt &S);
  void buildOpSite(graph::ConstraintGraph &G, std::vector<OpSite> &Ops,
                   const ir::MethodDecl &M, const ir::Stmt &S,
                   const android::OpSpec &Spec);
  void buildCallEdges(graph::ConstraintGraph &G, const ir::MethodDecl &M,
                      const ir::Stmt &S,
                      const std::vector<const ir::MethodDecl *> &Targets);

  /// Program::findClass memoized by the *address* of the queried name —
  /// every caller passes a string stored in the IR (Stmt::ClassName,
  /// Variable::TypeName), stable for the builder's lifetime, so a pointer
  /// hash replaces a string hash on the per-statement hot path. Negative
  /// lookups are cached too.
  const ir::ClassDecl *findClassCached(const std::string &Name);

  const ir::Program &P;
  layout::LayoutRegistry &Layouts;
  const android::AndroidModel &AM;
  const hier::ClassHierarchy &CH;
  DiagnosticEngine &Diags;

  std::unordered_map<const std::string *, const ir::ClassDecl *> ClassCache;

  support::TraceSink *Trace = nullptr;
  bool ModelUnknown = true;
};

} // namespace analysis
} // namespace gator

#endif // GATOR_ANALYSIS_GRAPHBUILDER_H
