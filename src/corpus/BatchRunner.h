//===- BatchRunner.h - Parallel corpus-wide analysis ------------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one corpus-wide driver behind the Table 1/Table 2 benches, the
/// strong-scaling bench, and the determinism tests: generate and analyze
/// every app of a spec list, fanning whole-app tasks over the parallel
/// execution layer (docs/PARALLEL.md). Each task is thread-confined — its
/// own AppBundle (program, layouts, diagnostics) and its own
/// BudgetTracker — so results are independent of the job count; records
/// come back in spec order regardless of scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_CORPUS_BATCHRUNNER_H
#define GATOR_CORPUS_BATCHRUNNER_H

#include "analysis/AppStats.h"
#include "analysis/GuiAnalysis.h"
#include "analysis/SolutionCache.h"
#include "corpus/Corpus.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <memory>
#include <vector>

namespace gator {
namespace corpus {

/// One ordered record of a corpus-wide run. The lightweight summaries
/// (Stats, Metrics, phase times) are always harvested inside the task;
/// the heavyweight artifacts (App bundle, full AnalysisResult) are kept
/// only when the caller asks for them — see analyzeCorpus().
struct BatchAppResult {
  size_t Index = 0;  ///< position in the input spec list
  std::string Name;
  GeneratedApp App;  ///< bundle + ground truth; empty if !KeepArtifacts
  /// Null if generation produced errors (the analysis itself is fail-soft
  /// and always yields a result) or if the run dropped artifacts.
  std::unique_ptr<analysis::AnalysisResult> Result;
  analysis::AppStats Stats; ///< collected unless GenerationFailed
  analysis::Solution::PrecisionMetrics Metrics; ///< Table 2 averages
  double BuildSeconds = 0.0; ///< graph-construction time of the analysis
  double SolveSeconds = 0.0; ///< fixed-point time of the analysis
  bool GenerationFailed = false;
  /// True when the record replayed from the solution cache instead of a
  /// full solve. Feeds the run ledger's per-app cache flag
  /// (corpus::fleetLedger); field-identical to a cold record otherwise.
  bool CacheHit = false;
  /// Thread-confined trace of this task (an "analyze-app" span wrapping
  /// the per-phase spans), recorded only when the batch options carry a
  /// trace sink. The driver appends these into its sink in spec order —
  /// tagged with the app ordinal as tid — so the merged trace is
  /// byte-identical across job counts (after timestamp normalization).
  std::unique_ptr<support::TraceSink> Trace;
};

/// Generates and analyzes every spec with Options.Jobs workers (0 =
/// hardware concurrency, 1 = exact serial). A positive
/// Options.Budget.MaxWallSeconds becomes a shared batch-wide deadline
/// (computed once before the fan-out) unless the caller already set
/// Budget.SharedDeadline; work-item and graph caps stay per-task.
/// \p Stats, when non-null, receives the fan-out's worker/task counts.
///
/// With \p KeepArtifacts false, each task releases its app bundle and
/// AnalysisResult as soon as Stats/Metrics are harvested, so at most one
/// app per worker is resident at a time — the same memory profile as a
/// destroy-per-iteration serial loop, and measurably faster for
/// stats-only consumers (see bench/BENCH_parallel.json). Callers that
/// read Result or App afterwards (solution JSON, differential tests)
/// need the default KeepArtifacts = true.
///
/// \p Cache, when non-null, is the content-addressed solution cache
/// (docs/CACHE.md): each task keys its spec + options, serves hits
/// without generating or solving, and stores misses. Served only when
/// KeepArtifacts is false (a hit has no bundle or AnalysisResult to keep)
/// and the options are cache-eligible (no wall-clock deadline); otherwise
/// the cache is ignored. Hit records are field-identical to cold ones —
/// Stats, Metrics, and phase times replay from the entry — so a warm
/// sweep's summary output is byte-identical to a cold one at every job
/// count.
std::vector<BatchAppResult>
analyzeCorpus(const std::vector<AppSpec> &Specs,
              const analysis::AnalysisOptions &Options,
              support::ParallelForStats *Stats = nullptr,
              bool KeepArtifacts = true,
              analysis::SolutionCache *Cache = nullptr);

} // namespace corpus
} // namespace gator

#endif // GATOR_CORPUS_BATCHRUNNER_H
