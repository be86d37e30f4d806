//===- Budget.cpp - Resource budgets for fail-soft analysis -----*- C++ -*-===//

#include "support/Budget.h"

#include "support/FaultInjection.h"

#include <algorithm>

using namespace gator;
using namespace gator::support;

const char *gator::support::budgetReasonName(BudgetReason Reason) {
  switch (Reason) {
  case BudgetReason::None:
    return "none";
  case BudgetReason::WorkItems:
    return "work-items";
  case BudgetReason::Deadline:
    return "deadline";
  case BudgetReason::GraphNodes:
    return "graph-nodes";
  case BudgetReason::GraphEdges:
    return "graph-edges";
  case BudgetReason::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

BudgetTracker::BudgetTracker(const BudgetPolicy &Policy) : Policy(Policy) {
  // Fault injection: a forced trip at step N behaves exactly like a
  // work-item budget of N, deterministically.
  if (auto Forced = forcedBudgetTripStep()) {
    if (*Forced == 0)
      trip(BudgetReason::WorkItems); // step 0: no work at all
    else
      this->Policy.MaxWorkItems =
          this->Policy.MaxWorkItems == 0
              ? *Forced
              : std::min(this->Policy.MaxWorkItems, *Forced);
  }
  if (Policy.SharedDeadline) {
    // Batch-wide deadline: absolute, computed by the driver before the
    // fan-out, identical for every task in the batch.
    HasDeadline = true;
    Deadline = *Policy.SharedDeadline;
  } else if (auto D = makeSharedDeadline(Policy.MaxWallSeconds)) {
    HasDeadline = true;
    Deadline = *D;
  }
}

std::optional<std::chrono::steady_clock::time_point>
gator::support::makeSharedDeadline(double MaxWallSeconds) {
  using Clock = std::chrono::steady_clock;
  if (!(MaxWallSeconds > 0.0)) // also rejects NaN
    return std::nullopt;
  Clock::time_point Now = Clock::now();
  // Saturate: a deadline past the clock's range can never trip, so it is
  // no deadline. Converting it would overflow the tick count instead. The
  // one-second margin absorbs the rounding of the double -> ticks cast.
  double Headroom =
      std::chrono::duration<double>(Clock::time_point::max() - Now).count();
  if (MaxWallSeconds >= Headroom - 1.0)
    return std::nullopt;
  return Now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(MaxWallSeconds));
}

bool BudgetTracker::overDeadlineOrCancelled() {
  if (Policy.CancelFlag &&
      Policy.CancelFlag->load(std::memory_order_relaxed)) {
    trip(BudgetReason::Cancelled);
    return true;
  }
  if (HasDeadline && std::chrono::steady_clock::now() >= Deadline) {
    trip(BudgetReason::Deadline);
    return true;
  }
  return false;
}

bool BudgetTracker::refillSlice() {
  if (exhausted())
    return false;
  Committed += SliceSize;
  SliceSize = 0;
  if (overDeadlineOrCancelled())
    return false;
  unsigned long Slice = SliceInterval;
  if (Policy.MaxWorkItems != 0) {
    if (Committed >= Policy.MaxWorkItems) {
      trip(BudgetReason::WorkItems);
      return false;
    }
    Slice = std::min(Slice, Policy.MaxWorkItems - Committed);
  }
  // The charge that triggered the refill consumes the slice's first item.
  SliceSize = Slice;
  FastRemaining = Slice - 1;
  return true;
}

bool BudgetTracker::checkpoint(size_t GraphNodes, size_t GraphEdges) {
  if (exhausted())
    return false;
  if (Policy.MaxGraphNodes != 0 && GraphNodes > Policy.MaxGraphNodes) {
    trip(BudgetReason::GraphNodes);
    return false;
  }
  if (Policy.MaxGraphEdges != 0 && GraphEdges > Policy.MaxGraphEdges) {
    trip(BudgetReason::GraphEdges);
    return false;
  }
  return !overDeadlineOrCancelled();
}
