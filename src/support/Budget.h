//===- Budget.h - Resource budgets for fail-soft analysis -------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource budgets for the analysis pipeline (docs/ROBUSTNESS.md). A
/// BudgetPolicy bundles every limit a caller may impose — work items,
/// wall-clock deadline, graph size caps, cooperative cancellation — and a
/// BudgetTracker enforces one policy over one run with a hot path cheap
/// enough for the solver's inner loop (a decrement and branch; the clock
/// and the caps are consulted only at slice refills and checkpoints).
///
/// Exhaustion is sticky and carries a reason; the solver translates it
/// into a TruncatedBudget fidelity marker on the Solution rather than
/// aborting, so a tripped budget still yields a usable partial result.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_BUDGET_H
#define GATOR_SUPPORT_BUDGET_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <optional>

namespace gator {
namespace support {

/// Why a budget tripped (None while within every limit).
enum class BudgetReason : unsigned char {
  None,
  WorkItems,  ///< the work-item budget ran out
  Deadline,   ///< the wall-clock deadline passed
  GraphNodes, ///< the constraint graph outgrew the node cap
  GraphEdges, ///< the constraint graph outgrew the edge cap
  Cancelled,  ///< the caller's cancellation flag was raised
};

/// Human-readable label ("work-items", "deadline", ...).
const char *budgetReasonName(BudgetReason Reason);

/// The deadline \p MaxWallSeconds from now, or nullopt when the knob is
/// off (not a positive number) or the deadline lies past the steady
/// clock's range (it could never trip). Batch drivers compute this once
/// before fanning out and store it in every task's
/// BudgetPolicy::SharedDeadline; BudgetTracker uses it for per-run
/// budgets.
std::optional<std::chrono::steady_clock::time_point>
makeSharedDeadline(double MaxWallSeconds);

/// The limits one analysis run must respect. Zero (or null) means
/// unlimited for every knob.
struct BudgetPolicy {
  /// Maximum solver work items (worklist pops / sweep visits). The
  /// historical MaxWorkItems safety valve, generalized. 0 = unlimited.
  unsigned long MaxWorkItems = 50'000'000;

  /// Wall-clock deadline in seconds from tracker construction; checked
  /// at slice refills and checkpoints, never per work item. <= 0 = none.
  double MaxWallSeconds = 0.0;

  /// Absolute wall-clock deadline shared by every tracker in a batch
  /// (docs/PARALLEL.md). Computed once before the fan-out so all tasks
  /// race the same clock regardless of start order or job count; takes
  /// precedence over MaxWallSeconds. Per-task limits (work items, graph
  /// caps) are NOT shared — each task gets a fresh allowance
  /// (docs/ROBUSTNESS.md, "Batch deadline semantics").
  std::optional<std::chrono::steady_clock::time_point> SharedDeadline;

  /// Constraint-graph size caps, checked at checkpoints (op firings,
  /// structure rounds, phase boundaries). 0 = unlimited.
  size_t MaxGraphNodes = 0;
  size_t MaxGraphEdges = 0;

  /// Cooperative cancellation: when non-null and set, the run winds down
  /// at the next checkpoint/refill with BudgetReason::Cancelled.
  const std::atomic<bool> *CancelFlag = nullptr;
};

/// Enforces one BudgetPolicy over one run. Work items are charged through
/// an inline slice countdown; every SliceInterval items (or sooner when
/// the work budget is nearly spent) the slow path commits the slice and
/// consults the clock and the cancellation flag.
class BudgetTracker {
public:
  explicit BudgetTracker(const BudgetPolicy &Policy);

  /// Charges one work item. Returns false once the budget is exhausted;
  /// the failing item (and everything after it) must not run.
  bool charge() {
    if (FastRemaining != 0) {
      --FastRemaining;
      return true;
    }
    return refillSlice();
  }

  /// Deadline / cancellation / graph-cap check for phase boundaries and
  /// op firings. Does not charge work. Returns false once exhausted.
  bool checkpoint(size_t GraphNodes, size_t GraphEdges);

  bool exhausted() const {
    return Reason.load(std::memory_order_relaxed) != BudgetReason::None;
  }
  BudgetReason reason() const {
    return Reason.load(std::memory_order_relaxed);
  }

  /// Work items successfully charged so far.
  unsigned long workCharged() const {
    return Committed + (SliceSize - FastRemaining);
  }

  /// Manually trips the budget (e.g. an enclosing pipeline or another
  /// thread cancelling this task). Idempotent; the first reason wins.
  /// Safe to call from any thread — Reason is atomic, and the owning
  /// thread observes the trip at its next charge slow path or checkpoint
  /// (everything else in the tracker stays thread-confined).
  void trip(BudgetReason R) {
    BudgetReason Expected = BudgetReason::None;
    Reason.compare_exchange_strong(Expected, R, std::memory_order_relaxed);
  }

private:
  /// Items handed out per slice; bounds how stale the clock check gets.
  static constexpr unsigned long SliceInterval = 1024;

  bool refillSlice();
  bool overDeadlineOrCancelled();

  BudgetPolicy Policy;
  std::atomic<BudgetReason> Reason{BudgetReason::None};
  unsigned long FastRemaining = 0; ///< charges left in the current slice
  unsigned long SliceSize = 0;     ///< size the current slice started at
  unsigned long Committed = 0;     ///< work from fully-drained slices
  std::chrono::steady_clock::time_point Deadline;
  bool HasDeadline = false;
};

} // namespace support
} // namespace gator

#endif // GATOR_SUPPORT_BUDGET_H
