//===- gator_perf.cpp - End-to-end benchmark --------------------*- C++ -*-===//
//
// Drives the library from outside, through the public calls gator_cli's
// per-app path makes, and times each app from its input to its answers.
// An app's answers are what `gator_cli --tuples --atg --lint --json`
// produces: the summary, handler tuples, ATG, event sequences from the
// manifest launcher, lint findings and the analysis JSON.
//
//   gator_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --work <dir>
//   gator_perf --export <dir> --fleet <n> --seed <n>
//   gator_perf --answers <appdir> <jsonfile>
//
// The first form runs one workload (perfbench/README.md) and prints a
// metric report whose last line is one JSON object. `--trace 1` wraps
// every public call in a support::TraceSpan to split app latency by
// layer; `--trace 0` carries only the per-app clock. The other two forms
// serve the CLI parity self-test: `--export` writes the corpus plus a
// seeded fleet slice, and `--answers` prints one app's answer text and
// writes its JSON, to be compared with gator_cli on the same directory.
//
// Every answered app is checked against the generator's ground truth (its
// FindViewExpectation / ListenerExpectation lists, fidelity and exit code),
// never against the analysis under test; a cache hit must replay the
// answers the cold pass stored for that content.
//
//===----------------------------------------------------------------------===//

#include "analysis/AppStats.h"
#include "analysis/GuiAnalysis.h"
#include "analysis/SolutionCache.h"
#include "android/Manifest.h"
#include "corpus/AppBundle.h"
#include "corpus/Corpus.h"
#include "guimodel/GuiModel.h"
#include "guimodel/JsonExport.h"
#include "guimodel/Lint.h"
#include "layout/Layout.h"
#include "layout/LayoutWriter.h"
#include "parser/Parser.h"
#include "parser/Printer.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace gator;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

//===----------------------------------------------------------------------===//
// Layers
//===----------------------------------------------------------------------===//

/// Span names, one per layer. Each span wraps one public call (or the
/// benchmark's own file reads); spans never nest, so a layer's time is
/// the sum of its spans and the rest of the app's latency is unattributed.
constexpr const char *LayerNames[] = {
    "read",            "support.hash",      "parser",
    "layout",          "android.install",   "android.manifest",
    "ir.resolve",      "analysis.run",      "analysis.metrics",
    "guimodel.tuples", "guimodel.atg",      "guimodel.sequences",
    "guimodel.lint",   "guimodel.json",     "cache.lookup",
    "cache.store"};
constexpr size_t NumLayers = std::size(LayerNames);

size_t layerIndex(const std::string &Name) {
  for (size_t I = 0; I < NumLayers; ++I)
    if (Name == LayerNames[I])
      return I;
  return NumLayers;
}

//===----------------------------------------------------------------------===//
// Inputs and ground truth
//===----------------------------------------------------------------------===//

/// What the generator guarantees about one app, kept from its spec.
struct Truth {
  std::string Name;
  std::vector<corpus::FindViewExpectation> Finds;
  std::vector<corpus::ListenerExpectation> Listeners;
  /// Carries a hostile site, so it must analyze DegradedInput / exit 1.
  bool Hostile = false;
  /// Bytes of the app's source files (ALite, layouts, manifest).
  uint64_t InputBytes = 0;
};

bool isHostile(const corpus::AppSpec &S) {
  return S.ReflectiveViewsPerActivity || S.DynamicFindsPerActivity ||
         S.MissingLayoutRefsPerActivity;
}

/// The manifest export_corpus writes: every activity, Activity0 launches.
std::string manifestXml(const corpus::AppSpec &Spec) {
  std::ostringstream Out;
  Out << "<manifest package=\"corpus." << Spec.Name << "\">\n"
      << "  <application>\n";
  for (unsigned I = 0; I < Spec.Activities; ++I) {
    Out << "    <activity android:name=\"" << Spec.Name << "Activity" << I
        << "\"";
    if (I == 0)
      Out << ">\n"
          << "      <intent-filter>\n"
          << "        <action android:name=\"android.intent.action."
             "MAIN\" />\n"
          << "        <category android:name=\"android.intent.category."
             "LAUNCHER\" />\n"
          << "      </intent-filter>\n"
          << "    </activity>\n";
    else
      Out << " />\n";
  }
  Out << "  </application>\n</manifest>\n";
  return Out.str();
}

/// The parsed form of manifestXml, for in-memory apps.
android::Manifest manifestOf(const corpus::AppSpec &Spec) {
  android::Manifest M;
  M.Package = "corpus." + Spec.Name;
  for (unsigned I = 0; I < Spec.Activities; ++I)
    M.Activities.push_back(
        {Spec.Name + "Activity" + std::to_string(I), I == 0});
  return M;
}

/// One app's source files by relative name.
using SourceFiles = std::vector<std::pair<std::string, std::string>>;

SourceFiles sourcesOf(const corpus::GeneratedApp &App) {
  SourceFiles Files;
  std::ostringstream Alite;
  parser::printProgram(App.Bundle->Program, Alite);
  Files.emplace_back("app.alite", Alite.str());
  for (const auto &Def : App.Bundle->Layouts->layouts())
    Files.emplace_back(Def->name() + ".xml", layout::layoutToXml(*Def));
  Files.emplace_back("AndroidManifest.xml", manifestXml(App.Spec));
  return Files;
}

void writeFile(const fs::path &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  if (!Out.flush())
    throw std::runtime_error("cannot write " + Path.string());
}

bool readFile(const fs::path &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Generates \p Specs, prints each app's sources, writes them under
/// Root/<name> unless \p Root is empty, and returns the ground truth; the
/// time spent creating and writing files is added to \p WriteSeconds.
/// Generated programs are dropped as soon as they are printed, so set-up
/// memory stays one app deep.
std::vector<Truth> exportApps(const std::vector<corpus::AppSpec> &Specs,
                              const fs::path &Root, double &WriteSeconds) {
  std::vector<Truth> Out;
  for (const corpus::AppSpec &Spec : Specs) {
    corpus::GeneratedApp App = corpus::generateApp(Spec);
    Truth T{Spec.Name, App.Finds, App.Listeners, isHostile(Spec), 0};
    const fs::path Dir = Root / Spec.Name;
    SourceFiles Files = sourcesOf(App);
    for (const auto &File : Files)
      T.InputBytes += File.second.size();
    if (!Root.empty()) {
      auto T0 = Clock::now();
      fs::create_directories(Dir);
      for (const auto &[Name, Text] : Files)
        writeFile(Dir / Name, Text);
      WriteSeconds += secondsSince(T0);
    }
    Out.push_back(std::move(T));
  }
  return Out;
}

corpus::FleetSpec fleetSpec(unsigned Apps, uint64_t Seed) {
  corpus::FleetSpec F;
  F.Apps = Apps;
  F.Seed = Seed;
  F.ReflectivePercent = 5;
  F.DynamicIdPercent = 5;
  F.MissingLayoutPercent = 5;
  return F;
}

//===----------------------------------------------------------------------===//
// Answering one app
//===----------------------------------------------------------------------===//

/// What a run keeps of one answered app: its measurements, whether its
/// answers were right, and the counters of its cold analysis (zero on a
/// cache hit). The program, result and answer text are dropped as soon as
/// the app is checked, so a batch holds only these records.
struct Sample {
  double Seconds = 0; ///< app latency: input to answers
  bool Traced = false;
  double LayerSeconds[NumLayers] = {};
  uint64_t ParserBytes = 0;
  uint64_t InputBytes = 0;
  bool CacheHit = false;
  uint64_t EntryBytes = 0;
  double Receivers = 0;
  bool Correct = false;

  bool Cold = false;
  double Classes = 0, Methods = 0, Nodes = 0, Propagations = 0,
         OpFirings = 0, UnknownSources = 0, ValuesPushed = 0, DedupHits = 0,
         BuildSeconds = 0, SolveSeconds = 0, JsonBytes = 0;
};

/// One answered app: its answers, what the truth check needs, and the
/// measurements.
struct Answer {
  /// Owns the program the result points into; null on a cache hit.
  std::unique_ptr<corpus::AppBundle> App;
  std::unique_ptr<analysis::AnalysisResult> Result;
  int ExitCode = 2;
  std::string Text; ///< summary and client outputs, as gator_cli prints
  std::string Json; ///< the analysis JSON document
  Sample Kept;
};

/// Returns \p A's record with its correctness and the counters of its
/// cold analysis filled in.
Sample keep(const Answer &A, bool Correct) {
  Sample S = A.Kept;
  S.Correct = Correct;
  if (A.Result) {
    const analysis::AnalysisResult &R = *A.Result;
    S.Cold = true;
    S.Classes = A.App->Program.appClassCount();
    S.Methods = A.App->Program.appMethodCount();
    S.Nodes = R.Graph->size();
    S.Propagations = R.Stats.Propagations;
    S.OpFirings = R.Stats.OpFirings;
    S.ValuesPushed = R.Stats.ValuesPushed;
    S.DedupHits = R.Stats.DedupHits;
    S.UnknownSources =
        R.Graph->nodesOfKind(graph::NodeKind::UnknownView).size() +
        R.Graph->nodesOfKind(graph::NodeKind::UnknownId).size();
    S.BuildSeconds = R.BuildSeconds;
    S.SolveSeconds = R.SolveSeconds;
    S.JsonBytes = A.Json.size();
  }
  return S;
}

/// Sums a traced app's spans into its per-layer seconds.
void collectSpans(const support::TraceSink &Sink, Answer &A) {
  A.Kept.Traced = true;
  for (const support::TraceSink::Event &E : Sink.events()) {
    size_t L = layerIndex(E.Name);
    if (L < NumLayers)
      A.Kept.LayerSeconds[L] += E.DurMicros * 1e-6;
  }
}

/// Runs the analysis on a loaded app and produces its answers in the
/// order gator_cli prints them.
void analyzeAndAnswer(Answer &A, bool InputErrors,
                      const android::Manifest *Manifest,
                      support::TraceSink *Trace) {
  corpus::AppBundle &App = *A.App;
  {
    support::TraceSpan S(Trace, "analysis.run");
    A.Result = analysis::GuiAnalysis::run(App.Program, *App.Layouts,
                                          App.Android, {}, App.Diags);
  }
  if (!A.Result)
    return; // exit code stays 2, as in gator_cli
  const analysis::AnalysisResult &R = *A.Result;
  std::ostringstream Out;
  {
    support::TraceSpan S(Trace, "analysis.metrics");
    Out << "classes: " << App.Program.appClassCount()
        << "  methods: " << App.Program.appMethodCount()
        << "  layouts: " << App.Resources.layoutCount()
        << "  view ids: " << App.Resources.viewIdCount() << "\n";
    R.Graph->dumpStats(Out);
    auto M = R.metrics();
    A.Kept.Receivers = M.AvgReceivers;
    Out << "precision: receivers=" << M.AvgReceivers;
    if (M.AvgParameters)
      Out << " parameters=" << *M.AvgParameters;
    if (M.AvgResults)
      Out << " results=" << *M.AvgResults;
    if (M.AvgListeners)
      Out << " listeners=" << *M.AvgListeners;
    Out << "\n";
    Out << "fidelity: " << analysis::fidelityName(R.Sol->fidelity());
    if (R.Sol->fidelity() == analysis::Fidelity::TruncatedBudget)
      Out << " (budget: "
          << support::budgetReasonName(R.Sol->truncationReason()) << ")";
    if (!R.Sol->unresolvedOps().empty())
      Out << " unresolved-ops=" << R.Sol->unresolvedOps().size();
    size_t Unknown = R.Graph->nodesOfKind(graph::NodeKind::UnknownView).size() +
                     R.Graph->nodesOfKind(graph::NodeKind::UnknownId).size();
    if (Unknown)
      Out << " unknown-sources=" << Unknown;
    Out << "\n";
  }
  {
    support::TraceSpan S(Trace, "guimodel.tuples");
    Out << "\n(activity, view, event, handler) tuples:\n";
    guimodel::printHandlerTuples(Out, R, guimodel::extractHandlerTuples(R));
  }
  {
    support::TraceSpan S(Trace, "guimodel.atg");
    Out << "\nactivity transition graph:\n";
    guimodel::printTransitionsDot(Out,
                                  guimodel::buildActivityTransitionGraph(R));
  }
  if (Manifest) {
    Out << "manifest: package=" << Manifest->Package;
    auto Launcher = Manifest->launcherActivity();
    if (Launcher)
      Out << " launcher=" << *Launcher;
    Out << "\n";
    if (Launcher) {
      support::TraceSpan S(Trace, "guimodel.sequences");
      const ir::ClassDecl *Start = App.Program.findClass(*Launcher);
      if (!Start) {
        A.Text = Out.str();
        A.ExitCode = 1;
        return;
      }
      Out << "\nevent sequences from " << *Launcher << " (length <= 5):\n";
      guimodel::printEventSequences(
          Out, R, guimodel::enumerateEventSequences(R, Start, 5, 64));
    }
  }
  {
    support::TraceSpan S(Trace, "guimodel.lint");
    Out << "\nlint findings:\n";
    guimodel::printLintFindings(Out, guimodel::runLint(R, *App.Layouts));
  }
  {
    support::TraceSpan S(Trace, "guimodel.json");
    std::ostringstream Json;
    guimodel::writeAnalysisJson(Json, R);
    A.Json = Json.str();
  }
  A.Text = Out.str();
  bool Degraded = R.Sol->fidelity() != analysis::Fidelity::Complete;
  A.ExitCode = (InputErrors || Degraded) ? 1 : 0;
}

/// Answers one app directory cold: the file census, reads and frontends
/// of gator_cli's per-app path, then the analysis and its clients.
void answerDirInto(Answer &A, const std::string &Dir,
                   support::TraceSink *Trace) {
  A.App = std::make_unique<corpus::AppBundle>();
  corpus::AppBundle &App = *A.App;
  {
    support::TraceSpan S(Trace, "android.install");
    App.Android.install(App.Program);
  }
  std::vector<fs::path> AliteFiles, XmlFiles;
  fs::path ManifestFile;
  {
    support::TraceSpan S(Trace, "read");
    std::error_code EC;
    for (const auto &Entry : fs::recursive_directory_iterator(Dir, EC)) {
      if (!Entry.is_regular_file())
        continue;
      const fs::path &P = Entry.path();
      if (P.extension() == ".alite")
        AliteFiles.push_back(P);
      else if (P.filename() == "AndroidManifest.xml")
        ManifestFile = P;
      else if (P.extension() == ".xml")
        XmlFiles.push_back(P);
    }
    if (EC || AliteFiles.empty()) {
      A.ExitCode = 1;
      return;
    }
    std::sort(AliteFiles.begin(), AliteFiles.end());
    std::sort(XmlFiles.begin(), XmlFiles.end());
  }
  bool Ok = true;
  std::string Text;
  auto Read = [&](const fs::path &P) {
    support::TraceSpan S(Trace, "read");
    return readFile(P, Text);
  };
  for (const fs::path &P : AliteFiles) {
    if (!Read(P)) {
      A.ExitCode = 1;
      return;
    }
    support::TraceSpan S(Trace, "parser");
    Ok &= parser::parseAlite(Text, P.string(), App.Program, App.Diags);
    A.Kept.ParserBytes += Text.size();
  }
  for (const fs::path &P : XmlFiles) {
    if (!Read(P)) {
      A.ExitCode = 1;
      return;
    }
    support::TraceSpan S(Trace, "layout");
    Ok &= layout::readLayoutXml(*App.Layouts, P.stem().string(), Text,
                                App.Diags) != nullptr;
  }
  bool Finalized;
  {
    support::TraceSpan S(Trace, "ir.resolve");
    Finalized = App.finalize();
  }
  Ok &= Finalized;
  std::optional<android::Manifest> Manifest;
  if (!ManifestFile.empty()) {
    if (!Read(ManifestFile)) {
      A.ExitCode = 1;
      return;
    }
    support::TraceSpan S(Trace, "android.manifest");
    Manifest = android::parseManifest(Text, ManifestFile.string(), App.Diags);
    if (Manifest)
      for (const android::ManifestActivity &M : Manifest->Activities)
        if (!App.Program.findClass(M.ClassName))
          App.Diags.warning("manifest declares unknown activity '" +
                            M.ClassName + "'");
  }
  if (!Finalized) {
    A.ExitCode = 1;
    return;
  }
  analyzeAndAnswer(A, !Ok || App.Diags.hasErrors(),
                   Manifest ? &*Manifest : nullptr, Trace);
}

/// Times \p Body as one app, with a span sink when \p Traced.
template <typename Fn> Answer timedApp(bool Traced, Fn &&Body) {
  Answer A;
  support::TraceSink Sink;
  support::TraceSink *Trace = Traced ? &Sink : nullptr;
  auto T0 = Clock::now();
  Body(A, Trace);
  A.Kept.Seconds = secondsSince(T0);
  if (Traced)
    collectSpans(Sink, A);
  return A;
}

//===----------------------------------------------------------------------===//
// Truth check
//===----------------------------------------------------------------------===//

bool hasViewWithId(const analysis::AnalysisResult &R, graph::NodeId View,
                   const std::string &IdName) {
  const graph::Node &N = R.Graph->node(View);
  return N.Kind == graph::NodeKind::ViewInfl && N.LNode &&
         N.LNode->viewIdName() == IdName;
}

/// Checks an analyzed app against its generator's ground truth: fidelity
/// and exit code as the spec implies, every expected view in its find's
/// result, every expected listener on its view.
bool matchesTruth(const Truth &T, Answer &A) {
  if (!A.Result)
    return false;
  analysis::AnalysisResult &R = *A.Result;
  const analysis::Fidelity Want = T.Hostile
                                      ? analysis::Fidelity::DegradedInput
                                      : analysis::Fidelity::Complete;
  if (A.ExitCode != (T.Hostile ? 1 : 0) || R.Sol->fidelity() != Want)
    return false;
  const ir::Program &P = A.App->Program;
  for (const corpus::FindViewExpectation &E : T.Finds) {
    const ir::ClassDecl *C = P.findClass(E.ClassName);
    const ir::MethodDecl *M = C ? C->findOwnMethod(E.MethodName, 0) : nullptr;
    ir::VarId V = M ? M->findVar(E.OutVar) : ir::InvalidVar;
    if (V == ir::InvalidVar)
      return false;
    bool Found = false;
    for (graph::NodeId Val : R.Sol->viewsAt(R.Graph->getVarNode(M, V)))
      Found = Found || hasViewWithId(R, Val, E.ViewIdName);
    if (!Found)
      return false;
  }
  for (const corpus::ListenerExpectation &E : T.Listeners) {
    const ir::ClassDecl *Act = P.findClass(E.ActivityClass);
    if (!Act)
      return false;
    bool Found = false;
    for (graph::NodeId Root : R.Graph->roots(R.Graph->getActivityNode(Act)))
      for (graph::NodeId V : R.Graph->descendantsOf(Root)) {
        if (!hasViewWithId(R, V, E.ViewIdName))
          continue;
        for (graph::NodeId L : R.Graph->listeners(V)) {
          const ir::ClassDecl *K = R.Graph->node(L).Klass;
          Found = Found || (K && K->name() == E.ListenerClass);
        }
      }
    if (!Found)
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

/// Everything one workload run measures. Answered apps are folded in as
/// they come: a run keeps one latency per app and sums, so its own memory
/// does not grow with the number of apps it answers, which would show in
/// peak_rss_mb.
struct Run {
  std::string Workload;
  unsigned Jobs = 1;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<double> LatencyMs;   ///< per answered app
  std::vector<double> EditSeconds; ///< per untraced edit
  std::vector<double> SetupSeconds; ///< per set-up, file writes excluded
  std::vector<double> SetupWriteSeconds;
  double BatchWall = 0;     ///< summed wall time of the answering batches
  double BatchWallJobs = 0; ///< the same, times the workers each used
  double Busy = 0;          ///< summed app latency, in seconds
  double InputBytes = 0, Receivers = 0;

  // Apps answered with and without spans.
  double Traced = 0, TracedN = 0, Untraced = 0, UntracedN = 0;
  double Layer[NumLayers] = {};
  double TracedParserBytes = 0, Lookups = 0, Hits = 0;
  std::vector<double> LookupMs, StoreMs, EntryBytes;

  /// Counters summed over cold-analyzed apps, and how many there were.
  Sample ColdSum;
  double Cold = 0;

  void add(const Sample &S);
};

void Run::add(const Sample &S) {
  ++Attempted;
  Failed += !S.Correct;
  LatencyMs.push_back(S.Seconds * 1e3);
  Busy += S.Seconds;
  InputBytes += S.InputBytes;
  Receivers += S.Receivers;
  if (S.Cold) {
    ++Cold;
    ColdSum.ParserBytes += S.ParserBytes;
    ColdSum.Classes += S.Classes;
    ColdSum.Methods += S.Methods;
    ColdSum.Nodes += S.Nodes;
    ColdSum.Propagations += S.Propagations;
    ColdSum.OpFirings += S.OpFirings;
    ColdSum.UnknownSources += S.UnknownSources;
    ColdSum.ValuesPushed += S.ValuesPushed;
    ColdSum.DedupHits += S.DedupHits;
    ColdSum.BuildSeconds += S.BuildSeconds;
    ColdSum.SolveSeconds += S.SolveSeconds;
    ColdSum.JsonBytes += S.JsonBytes;
  }
  if (!S.Traced) {
    Untraced += S.Seconds;
    ++UntracedN;
    return;
  }
  Traced += S.Seconds;
  ++TracedN;
  TracedParserBytes += S.ParserBytes;
  for (size_t L = 0; L < NumLayers; ++L)
    Layer[L] += S.LayerSeconds[L];
  const double Lookup = S.LayerSeconds[layerIndex("cache.lookup")],
               Store = S.LayerSeconds[layerIndex("cache.store")];
  if (Lookup > 0) {
    ++Lookups;
    Hits += S.CacheHit;
    LookupMs.push_back(Lookup * 1e3);
  }
  if (Store > 0) {
    StoreMs.push_back(Store * 1e3);
    EntryBytes.push_back(S.EntryBytes);
  }
}

/// Answers N apps as one support::parallelMap batch on R.Jobs workers, as
/// gator_cli answers a batch, and keeps their records in input order. Each
/// task checks its own app and returns only the record.
void runBatch(Run &R, size_t N, const std::function<Sample(size_t)> &Task) {
  support::ParallelForStats Stats;
  auto T0 = Clock::now();
  std::vector<Sample> Out =
      support::parallelMap<Sample>(R.Jobs, N, Task, &Stats);
  double Wall = secondsSince(T0);
  R.BatchWall += Wall;
  R.BatchWallJobs += Wall * Stats.WorkersUsed;
  for (const Sample &S : Out)
    R.add(S);
}

/// Continued fraction of the incomplete beta function (Lentz's method).
double betaFraction(double A, double B, double X) {
  const double Tiny = 1e-300;
  auto Clamp = [&](double V) { return std::fabs(V) < Tiny ? Tiny : V; };
  double C = 1, D = 1 / Clamp(1 - (A + B) * X / (A + 1)), H = D;
  for (int M = 1; M < 100000; ++M) {
    double Even = M * (B - M) * X / ((A - 1 + 2 * M) * (A + 2 * M));
    D = 1 / Clamp(1 + Even * D);
    C = Clamp(1 + Even / C);
    H *= D * C;
    double Odd = -(A + M) * (A + B + M) * X / ((A + 2 * M) * (A + 1 + 2 * M));
    D = 1 / Clamp(1 + Odd * D);
    C = Clamp(1 + Odd / C);
    H *= D * C;
    if (std::fabs(D * C - 1) < 1e-13)
      break;
  }
  return H;
}

/// Regularized incomplete beta function I_X(A, B).
double incompleteBeta(double A, double B, double X) {
  if (X <= 0)
    return 0;
  if (X >= 1)
    return 1;
  double LogFront = std::lgamma(A + B) - std::lgamma(A) - std::lgamma(B) +
                    A * std::log(X) + B * std::log1p(-X);
  if (X < (A + 1) / (A + B + 2))
    return std::exp(LogFront) * betaFraction(A, B, X) / A;
  return 1 - std::exp(LogFront) * betaFraction(B, A, 1 - X) / B;
}

/// Harrell-Davis estimate of the Q quantile: a Beta-weighted mean of the
/// order statistics around rank Q*n. The corpus workloads answer each of
/// 20 apps equally often, so their p50 and p90 fall exactly between two
/// apps; a single order statistic there flips between the two apps from
/// run to run, while this weighted mean does not.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double N = V.size(), A = Q * (N + 1), B = (1 - Q) * (N + 1);
  double Sum = 0, Below = 0;
  for (size_t I = 0; I < V.size(); ++I) {
    double Upto = incompleteBeta(A, B, (I + 1) / N);
    Sum += (Upto - Below) * V[I];
    Below = Upto;
  }
  return Sum;
}

/// Mean of \p V without its smallest and largest value. Set-up times on
/// this kind of host fall into a fast and a slow mode within one run, so
/// the median of a few flips between the modes from run to run, while
/// this mean follows the share of each.
double trimmedMean(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  if (V.size() > 2)
    V = std::vector<double>(V.begin() + 1, V.end() - 1);
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / V.size();
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
  const char *Better;
};

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

std::vector<Metric> endToEndMetrics(const Run &R) {
  const double N = std::max<uint64_t>(R.Attempted, 1);
  return {{"app_latency_ms_p50", quantile(R.LatencyMs, 0.5), "ms", "lower"},
          {"app_latency_ms_p90", quantile(R.LatencyMs, 0.9), "ms", "lower"},
          {"apps_per_s", R.Attempted / R.BatchWall, "1/s", "higher"},
          {"input_mb_per_s", R.InputBytes / 1e6 / R.BatchWall, "MB/s",
           "higher"},
          {"peak_rss_mb", peakRssMb(), "MB", "lower"},
          {"setup_s", trimmedMean(R.SetupSeconds), "s", "lower"},
          {"precision_receivers", R.Receivers / N, "views", "lower"},
          {"fail_ratio", R.Failed / N, "ratio", "lower"}};
}

std::vector<Metric> perLayerMetrics(const Run &R) {
  auto PerApp = [&](double Total, double N) { return N ? Total / N : 0; };
  const Sample &Sum = R.ColdSum;
  std::vector<double> EditMs;
  for (double E : R.EditSeconds)
    EditMs.push_back(E * 1e3);
  std::vector<Metric> M;
  double Attributed = 0;
  for (size_t L = 0; L < NumLayers; ++L) {
    const std::string Name = LayerNames[L];
    M.push_back({Name + ".ms_per_app", PerApp(R.Layer[L] * 1e3, R.TracedN),
                 "ms", "lower"});
    M.push_back(
        {Name + ".share", PerApp(R.Layer[L], R.Traced), "ratio", "lower"});
    Attributed += R.Layer[L];
  }
  const double Efficiency = R.Busy / R.BatchWallJobs;
  const double ParserSeconds = R.Layer[layerIndex("parser")];
  M.insert(
      M.end(),
      {{"unattributed.share", PerApp(R.Traced - Attributed, R.Traced),
        "ratio", "lower"},
       {"parser.mb_per_s", PerApp(R.TracedParserBytes / 1e6, ParserSeconds),
        "MB/s", "higher"},
       {"parser.bytes_per_app", PerApp(Sum.ParserBytes, R.Cold), "bytes",
        "lower"},
       {"ir.classes_per_app", PerApp(Sum.Classes, R.Cold), "count", "lower"},
       {"ir.methods_per_app", PerApp(Sum.Methods, R.Cold), "count", "lower"},
       {"analysis.build_ms_per_app", PerApp(Sum.BuildSeconds * 1e3, R.Cold),
        "ms", "lower"},
       {"analysis.solve_ms_per_app", PerApp(Sum.SolveSeconds * 1e3, R.Cold),
        "ms", "lower"},
       {"graph.nodes_per_app", PerApp(Sum.Nodes, R.Cold), "count", "lower"},
       {"analysis.propagations_per_app", PerApp(Sum.Propagations, R.Cold),
        "count", "lower"},
       {"analysis.op_firings_per_app", PerApp(Sum.OpFirings, R.Cold), "count",
        "lower"},
       {"analysis.unknown_sources_per_app", PerApp(Sum.UnknownSources, R.Cold),
        "count", "lower"},
       {"analysis.push_useful_ratio",
        Sum.ValuesPushed ? 1 - Sum.DedupHits / Sum.ValuesPushed : 0, "ratio",
        "higher"},
       {"guimodel.json_bytes_per_app", PerApp(Sum.JsonBytes, R.Cold), "bytes",
        "lower"},
       {"cache.lookup_ms_p50", quantile(R.LookupMs, 0.5), "ms", "lower"},
       {"cache.store_ms_p50", quantile(R.StoreMs, 0.5), "ms", "lower"},
       {"cache.entry_bytes_p50", quantile(R.EntryBytes, 0.5), "bytes",
        "lower"},
       {"cache.hit_ratio", PerApp(R.Hits, R.Lookups), "ratio", "higher"},
       {"edit_latency_ms_p50", quantile(EditMs, 0.5), "ms", "lower"},
       {"edit_latency_ms_p90", quantile(EditMs, 0.9), "ms", "lower"},
       {"batch.efficiency", Efficiency, "ratio", "higher"},
       {"batch.idle_share", 1 - Efficiency, "ratio", "lower"},
       {"trace.overhead_ratio",
        R.UntracedN && R.TracedN
            ? (R.Traced / R.TracedN) / (R.Untraced / R.UntracedN)
            : 0,
        "ratio", "lower"}});
  return M;
}

void printReport(const Run &R, bool Traced, double RunSeconds) {
  std::vector<Metric> M = endToEndMetrics(R);
  if (Traced) {
    std::vector<Metric> L = perLayerMetrics(R);
    M.insert(M.end(), L.begin(), L.end());
  }
  const unsigned long long Attempted = R.Attempted, Failed = R.Failed;
  std::printf("# workload %s: %llu samples, %zu untraced edits, jobs %u, "
              "%.2f s measured, %llu failed\n",
              R.Workload.c_str(), Attempted, R.EditSeconds.size(), R.Jobs,
              RunSeconds, Failed);
  std::printf("# set-up repetitions (s):");
  for (size_t I = 0; I < R.SetupSeconds.size(); ++I)
    std::printf(" %.3f (+%.3f writing files)", R.SetupSeconds[I],
                R.SetupWriteSeconds[I]);
  std::printf("\n");
  for (const Metric &X : M)
    std::printf("# %-36s %16.6f %-6s (%s is better)\n", X.Name.c_str(),
                X.Value, X.Unit, X.Better);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Failed == 0 && Attempted > 0 ? "true" : "false", Attempted,
              Failed);
  for (size_t I = 0; I < M.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", M[I].Name.c_str(), M[I].Value, M[I].Unit);
  std::printf("}}\n");
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  fs::path Work;
};

/// Fewest samples a run takes, so at least ten lie beyond its p90.
constexpr size_t MinSamples = 120;

/// Apps in the fleet_disk fleet, and how many of them the untimed
/// warm-up answers. The fleet is one fixed population; the run seed picks
/// the order it is answered in. Drawing a fresh 1000-app fleet per seed
/// moved p50 latency by about 10% through the shape mix alone.
constexpr unsigned FleetApps = 1000;
constexpr uint64_t FleetSeed = 42;
constexpr size_t FleetWarmupApps = 100;

/// Times a workload's set-up: generation, printing and, on edit_cache,
/// the cold answers that warm the cache; setup_s is the trimmed mean of
/// its repetitions. Each workload sets how many it makes, about 2.5 s of
/// set-up work in all. The first repetition makes the inputs the run
/// answers. The others redo the same work at evenly spaced marks of the
/// measured period, between passes, and drop their results: the host's
/// speed drifts in regimes lasting seconds, so repetitions spread over
/// the run sample it as the latencies do, where back-to-back ones share
/// one regime. The benchmark's own file writes are not timed: on a
/// virtual disk, file creation alone swings several-fold between runs, and
/// no program change can move work into it. Each repetition writes into a
/// fresh directory and starts on a flushed file system; nothing is deleted
/// until the run ends.
class Setup {
public:
  Setup(const Config &C, Run &R, unsigned Repeats)
      : C(C), R(R), Repeats(Repeats) {}

  /// The directory the first repetition writes the run's inputs to.
  fs::path inputs() const { return C.Work / "setup0"; }

  /// Runs one repetition of \p Make, which adds its file-writing time to
  /// its second argument, and returns its result.
  template <typename Fn> auto once(Fn &&Make) {
    const fs::path Dir =
        C.Work / ("setup" + std::to_string(R.SetupSeconds.size()));
    ::sync();
    double Writes = 0;
    auto T0 = Clock::now();
    auto Out = Make(Dir, Writes);
    R.SetupSeconds.push_back(secondsSince(T0) - Writes);
    R.SetupWriteSeconds.push_back(Writes);
    return Out;
  }

  /// Seconds since \p T0, less the repetitions run by spread().
  double measured(Clock::time_point T0) const {
    return secondsSince(T0) - Paused;
  }

  /// Runs the repetitions due at measured(T0): one at each of Repeats
  /// evenly spaced marks of the C.Seconds measured period.
  template <typename Fn> void spread(Clock::time_point T0, Fn &&Make) {
    while (R.SetupSeconds.size() < Repeats &&
           measured(T0) >= C.Seconds * R.SetupSeconds.size() / Repeats) {
      auto P0 = Clock::now();
      once(Make);
      Paused += secondsSince(P0);
    }
  }

  /// Runs the repetitions a short run left undone.
  template <typename Fn> void finish(Fn &&Make) {
    while (R.SetupSeconds.size() < Repeats)
      once(Make);
  }

private:
  const Config &C;
  Run &R;
  const unsigned Repeats;
  double Paused = 0;
};

/// Answers apps from disk in passes over a seeded order, each pass one
/// parallelMap batch on R.Jobs workers (at -j1 a closed loop, one app
/// after another). An untimed warm-up batch first answers \p WarmupApps.
/// In traced runs, passes alternate untraced and traced, so the trace
/// overhead is measured in the same process. Set-up repetitions \p Make
/// run between passes.
template <typename Fn>
void runDiskPasses(const Config &C, Run &R, const std::vector<Truth> &Apps,
                   size_t WarmupApps, Setup &S, Fn &&Make) {
  const fs::path Root = S.inputs() / "apps";
  std::mt19937_64 Rng(C.Seed);
  std::vector<size_t> Order(Apps.size());
  auto Pass = [&](Run &Into, size_t N, bool Traced) {
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::shuffle(Order.begin(), Order.end(), Rng);
    runBatch(Into, std::min(N, Order.size()), [&](size_t I) {
      const Truth &T = Apps[Order[I]];
      const std::string Dir = (Root / T.Name).string();
      Answer A = timedApp(Traced, [&](Answer &Out, support::TraceSink *Sink) {
        answerDirInto(Out, Dir, Sink);
      });
      A.Kept.InputBytes = T.InputBytes;
      const bool Correct = matchesTruth(T, A);
      return keep(A, Correct);
    });
  };
  Run Warmup;
  Warmup.Jobs = R.Jobs;
  Pass(Warmup, WarmupApps, false);
  auto T0 = Clock::now();
  for (unsigned P = 0; P < 2 || S.measured(T0) < C.Seconds ||
                       R.Attempted < MinSamples;
       ++P) {
    S.spread(T0, Make);
    Pass(R, Apps.size(), C.Trace && P % 2 == 1);
  }
  S.finish(Make);
}

void corpusDisk(const Config &C, Run &R) {
  auto Make = [](const fs::path &Dir, double &Writes) {
    return exportApps(corpus::paperCorpus(), Dir / "apps", Writes);
  };
  Setup S(C, R, 15);
  std::vector<Truth> Apps = S.once(Make);
  runDiskPasses(C, R, Apps, Apps.size(), S, Make);
}

void fleetDisk(const Config &C, Run &R) {
  R.Jobs = std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
  Setup S(C, R, 6);
  auto Make = [&](const fs::path &Dir, double &Writes) {
    // Only the first set-up writes its files: setup_s does not time the
    // writes, and the fleet's 7000 file creations cost seconds.
    return exportApps(corpus::makeFleet(fleetSpec(FleetApps, FleetSeed)),
                      Dir == S.inputs() ? Dir / "apps" : fs::path(), Writes);
  };
  std::vector<Truth> Apps = S.once(Make);
  runDiskPasses(C, R, Apps, FleetWarmupApps, S, Make);
}

void analysisMem(const Config &C, Run &R) {
  const std::vector<corpus::AppSpec> &Specs = corpus::paperCorpus();
  auto Make = [&](const fs::path &, double &Writes) {
    return exportApps(Specs, fs::path(), Writes);
  };
  Setup S(C, R, 15);
  std::vector<Truth> Apps = S.once(Make);
  std::vector<android::Manifest> Manifests;
  for (const corpus::AppSpec &Spec : Specs)
    Manifests.push_back(manifestOf(Spec));
  std::mt19937_64 Rng(C.Seed);
  std::vector<size_t> Order(Apps.size());
  auto T0 = Clock::now();
  for (unsigned P = 0; P < 2 || S.measured(T0) < C.Seconds ||
                       R.Attempted < MinSamples;
       ++P) {
    S.spread(T0, Make);
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::shuffle(Order.begin(), Order.end(), Rng);
    const bool Traced = C.Trace && P % 2 == 1;
    for (size_t Index : Order) {
      // A fresh bundle per sample, generated untimed: the analysis may
      // mutate its layout registry.
      std::unique_ptr<corpus::AppBundle> Bundle =
          std::move(corpus::generateApp(Specs[Index]).Bundle);
      runBatch(R, 1, [&](size_t) {
        Answer A = timedApp(Traced, [&](Answer &Out, support::TraceSink *T) {
          Out.App = std::move(Bundle);
          analyzeAndAnswer(Out, Out.App->Diags.hasErrors(), &Manifests[Index],
                           T);
        });
        A.Kept.InputBytes = Apps[Index].InputBytes;
        const bool Correct = matchesTruth(Apps[Index], A);
        return keep(A, Correct);
      });
    }
  }
  S.finish(Make);
}

/// A unique, seeded edit that keeps the app analyzing Complete: layout
/// edits append a fresh id'd view under a main layout's root; method edits
/// add a fresh local view allocation to the first onCreate.
bool applyEdit(std::string &Text, bool LayoutEdit, const std::string &Tag) {
  if (LayoutEdit) {
    size_t Pos = Text.rfind("</");
    if (Pos == std::string::npos)
      return false;
    Text.insert(Pos, "  <TextView android:id=\"@+id/" + Tag + "\" />\n");
    return true;
  }
  const std::string Head = "  method onCreate() {\n";
  size_t Pos = Text.find(Head);
  if (Pos == std::string::npos)
    return false;
  Pos += Head.size();
  size_t End = Text.find("\n  }\n", Pos);
  if (End == std::string::npos)
    return false;
  Text.insert(End + 1, "    " + Tag + " := new android.widget.TextView;\n");
  Text.insert(Pos, "    var " + Tag + ": android.widget.TextView;\n");
  return true;
}

/// The cache entry a cold answer stores: what gator_cli's cached path
/// captures, with the JSON appended to the replayed text.
analysis::CachedAnalysis entryFor(const Answer &A, const std::string &Name) {
  analysis::CachedAnalysis E;
  E.ExitCode = A.ExitCode;
  E.OutText = A.Text + A.Json;
  if (A.Result) {
    E.Stats = analysis::collectAppStats(Name, A.App->Program, *A.Result);
    E.Precision = A.Result->metrics();
    analysis::captureFlowsetHistogram(*A.Result->Sol, E.FlowHistCounts,
                                      E.FlowHistSum, E.FlowHistCount);
  }
  return E;
}

/// Answers one app directory through \p Cache: hash, lookup, and on a
/// miss a cold answer plus a store.
Answer answerCached(const std::string &Dir, const std::string &Name,
                    analysis::SolutionCache &Cache, bool Traced) {
  return timedApp(Traced, [&](Answer &A, support::TraceSink *T) {
    support::Hash128 Key;
    {
      support::TraceSpan S(T, "support.hash");
      Key = analysis::cacheKeyFor(Dir, analysis::AnalysisOptions());
    }
    analysis::CachedAnalysis Entry;
    analysis::SolutionCache::Outcome Found;
    {
      support::TraceSpan S(T, "cache.lookup");
      Found = Cache.lookup(Key, Entry);
    }
    if (Found == analysis::SolutionCache::Outcome::Hit) {
      A.Kept.CacheHit = true;
      A.ExitCode = Entry.ExitCode;
      A.Text = std::move(Entry.OutText);
      A.Kept.Receivers = Entry.Precision.AvgReceivers;
      return;
    }
    answerDirInto(A, Dir, T);
    if (!A.Result)
      return;
    support::TraceSpan S(T, "cache.store");
    Cache.store(Key, entryFor(A, Name));
  });
}

void editCache(const Config &C, Run &R) {
  struct Prepared {
    std::vector<Truth> Apps;
    /// Answers and exit code the cold pass stored, by app.
    std::vector<std::pair<std::string, int>> Reference;
  };
  auto Make = [](const fs::path &Dir, double &Writes) {
    Prepared Out;
    Out.Apps = exportApps(corpus::paperCorpus(), Dir / "apps", Writes);
    analysis::SolutionCache Cache((Dir / "cache").string());
    for (const Truth &T : Out.Apps) {
      Answer A = answerCached((Dir / "apps" / T.Name).string(), T.Name, Cache,
                              false);
      if (A.Kept.CacheHit || !matchesTruth(T, A))
        throw std::runtime_error("edit_cache set-up: cold answer of " +
                                 T.Name + " is wrong");
      Out.Reference.emplace_back(A.Text + A.Json, A.ExitCode);
    }
    return Out;
  };
  Setup S(C, R, 7);
  const Prepared P = S.once(Make);
  const fs::path Root = S.inputs();
  std::mt19937_64 Rng(C.Seed);
  std::vector<size_t> Order(P.Apps.size()), Targets(P.Apps.size());
  for (size_t I = 0; I < Targets.size(); ++I)
    Targets[I] = I;
  fs::path Edited;
  std::string Original;
  auto T0 = Clock::now();
  for (unsigned Round = 0; Round < 2 || S.measured(T0) < C.Seconds ||
                           R.EditSeconds.size() < MinSamples;
       ++Round) {
    S.spread(T0, Make);
    if (!Edited.empty())
      writeFile(Edited, Original); // revert: its content hits the cache
    // Targets cycle through a fresh seeded permutation of the apps every
    // |Apps| rounds, so every seed edits each app equally often.
    if (Round % Targets.size() == 0)
      std::shuffle(Targets.begin(), Targets.end(), Rng);
    const size_t Target = Targets[Round % Targets.size()];
    // Edit kinds alternate every two rounds and tracing every round, so
    // traced and untraced rounds both carry layout and method edits.
    const bool LayoutEdit = (Round / 2) % 2 == 0;
    const Truth &T = P.Apps[Target];
    Edited = Root / "apps" / T.Name / (LayoutEdit ? "main_0.xml" : "app.alite");
    if (!readFile(Edited, Original))
      throw std::runtime_error("cannot read " + Edited.string());
    std::string Text = Original;
    const std::string Tag =
        "pbedit" + std::to_string(C.Seed) + "x" + std::to_string(Round);
    if (!applyEdit(Text, LayoutEdit, Tag))
      throw std::runtime_error("cannot edit " + Edited.string());
    writeFile(Edited, Text);
    auto EditWritten = Clock::now();

    // The edited app first, then the rest: each through a fresh cache, so
    // hits are disk-tier reads as in each `gator_cli --cache-dir` run.
    analysis::SolutionCache Cache((Root / "cache").string());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::shuffle(Order.begin(), Order.end(), Rng);
    std::iter_swap(Order.begin(),
                   std::find(Order.begin(), Order.end(), Target));
    const bool Traced = C.Trace && Round % 2 == 1;
    for (size_t Index : Order) {
      const Truth &App = P.Apps[Index];
      const std::string Dir = (Root / "apps" / App.Name).string();
      runBatch(R, 1, [&](size_t) {
        Answer A = answerCached(Dir, App.Name, Cache, Traced);
        A.Kept.InputBytes =
            App.InputBytes +
            (Index == Target ? Text.size() - Original.size() : 0);
        if (Index != Target) {
          const bool Correct = A.Kept.CacheHit &&
                               A.Text == P.Reference[Index].first &&
                               A.ExitCode == P.Reference[Index].second;
          return keep(A, Correct);
        }
        if (!Traced)
          R.EditSeconds.push_back(secondsSince(EditWritten));
        const bool Correct = !A.Kept.CacheHit && matchesTruth(App, A);
        if (Traced && A.Result) {
          std::string Bytes;
          analysis::SolutionCache::serialize(entryFor(A, App.Name), Bytes);
          A.Kept.EntryBytes = Bytes.size();
        }
        return keep(A, Correct);
      });
    }
  }
  if (!Edited.empty())
    writeFile(Edited, Original);
  S.finish(Make);
}

//===----------------------------------------------------------------------===//
// Parity helpers and main
//===----------------------------------------------------------------------===//

int exportParityInputs(const fs::path &Dir, unsigned FleetSize,
                       uint64_t Seed) {
  double Writes = 0;
  exportApps(corpus::paperCorpus(), Dir, Writes);
  exportApps(corpus::makeFleet(fleetSpec(FleetSize, Seed)), Dir, Writes);
  return 0;
}

/// Prints one app's answer text and exit code; writes its JSON.
int printAnswers(const std::string &Dir, const fs::path &JsonFile) {
  Answer A;
  answerDirInto(A, Dir, nullptr);
  std::cout << A.Text << "exit: " << A.ExitCode << "\n";
  writeFile(JsonFile, A.Json);
  return 0;
}

int usage() {
  std::cerr << "usage: gator_perf --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work <dir>\n"
               "       gator_perf --export <dir> --fleet <n> --seed <n>\n"
               "       gator_perf --answers <appdir> <jsonfile>\n";
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Args(argv + 1, argv + argc);
  try {
    if (Args.size() == 3 && Args[0] == "--answers")
      return printAnswers(Args[1], Args[2]);
    Config C;
    std::string ExportDir;
    unsigned FleetSize = 0;
    for (size_t I = 0; I + 1 < Args.size(); I += 2) {
      const std::string &K = Args[I], &V = Args[I + 1];
      if (K == "--workload")
        C.Workload = V;
      else if (K == "--seed")
        C.Seed = std::stoull(V);
      else if (K == "--seconds")
        C.Seconds = std::stod(V);
      else if (K == "--trace")
        C.Trace = V == "1";
      else if (K == "--work")
        C.Work = V;
      else if (K == "--export")
        ExportDir = V;
      else if (K == "--fleet")
        FleetSize = static_cast<unsigned>(std::stoul(V));
      else
        return usage();
    }
    if (Args.size() % 2)
      return usage();
    if (!ExportDir.empty())
      return exportParityInputs(ExportDir, FleetSize, C.Seed);

    const std::map<std::string, void (*)(const Config &, Run &)> Workloads = {
        {"corpus_disk", corpusDisk},
        {"fleet_disk", fleetDisk},
        {"analysis_mem", analysisMem},
        {"edit_cache", editCache}};
    auto It = Workloads.find(C.Workload);
    if (It == Workloads.end() || C.Work.empty())
      return usage();
    Run R;
    R.Workload = C.Workload;
    fs::create_directories(C.Work);
    auto T0 = Clock::now();
    It->second(C, R);
    double Measured = secondsSince(T0);
    fs::remove_all(C.Work);
    ::sync();
    printReport(R, C.Trace, Measured);
    return R.Failed ? 1 : 0;
  } catch (const std::exception &E) {
    std::cerr << "gator_perf: " << E.what() << "\n";
    return 2;
  }
}
