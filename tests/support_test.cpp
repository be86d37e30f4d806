//===- support_test.cpp - Diagnostics / interner / locations ----*- C++ -*-===//

#include "support/Budget.h"
#include "support/Diagnostics.h"
#include "support/SourceLocation.h"
#include "support/StringInterner.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

using namespace gator;

TEST(SourceLocationTest, DefaultIsInvalid) {
  SourceLocation Loc;
  EXPECT_FALSE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "<unknown>");
}

TEST(SourceLocationTest, FormatsFileLineColumn) {
  SourceLocation Loc("foo.alite", 12, 5);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "foo.alite:12:5");
  std::ostringstream OS;
  OS << Loc;
  EXPECT_EQ(OS.str(), "foo.alite:12:5");
}

TEST(SourceLocationTest, EmptyFileNameRendersAsInput) {
  SourceLocation Loc("", 3, 1);
  EXPECT_EQ(Loc.str(), "<input>:3:1");
}

TEST(SourceLocationTest, Equality) {
  SourceLocation A("f", 1, 2), B("f", 1, 2), C("f", 1, 3);
  EXPECT_TRUE(A == B);
  EXPECT_FALSE(A == C);
}

TEST(DiagnosticsTest, CountsBySeverity) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning("w1");
  Diags.note(SourceLocation(), "n1");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error("e1");
  Diags.error(SourceLocation("f", 1, 1), "e2");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 2u);
  EXPECT_EQ(Diags.warningCount(), 1u);
  EXPECT_EQ(Diags.diagnostics().size(), 4u);
}

TEST(DiagnosticsTest, PrintIncludesLocationAndSeverity) {
  DiagnosticEngine Diags;
  Diags.error(SourceLocation("m.alite", 7, 3), "bad thing");
  Diags.warning("loose end");
  std::ostringstream OS;
  Diags.print(OS);
  EXPECT_EQ(OS.str(), "m.alite:7:3: error: bad thing\nwarning: loose end\n");
}

TEST(DiagnosticsTest, ClearResetsEverything) {
  DiagnosticEngine Diags;
  Diags.error("e");
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
  EXPECT_EQ(Diags.warningCount(), 0u);
}

TEST(DiagnosticsTest, SeverityLabels) {
  EXPECT_STREQ(severityLabel(DiagSeverity::Error), "error");
  EXPECT_STREQ(severityLabel(DiagSeverity::Warning), "warning");
  EXPECT_STREQ(severityLabel(DiagSeverity::Note), "note");
}

TEST(StringInternerTest, InterningIsIdempotent) {
  StringInterner Interner;
  Symbol A = Interner.intern("hello");
  Symbol B = Interner.intern("hello");
  EXPECT_EQ(A, B);
  EXPECT_EQ(Interner.size(), 1u);
  EXPECT_EQ(Interner.text(A), "hello");
}

TEST(StringInternerTest, DistinctStringsDistinctSymbols) {
  StringInterner Interner;
  Symbol A = Interner.intern("a");
  Symbol B = Interner.intern("b");
  EXPECT_NE(A, B);
  EXPECT_EQ(Interner.text(A), "a");
  EXPECT_EQ(Interner.text(B), "b");
}

TEST(StringInternerTest, LookupWithoutInterning) {
  StringInterner Interner;
  EXPECT_FALSE(Interner.lookup("missing").isValid());
  Interner.intern("present");
  EXPECT_TRUE(Interner.lookup("present").isValid());
}

TEST(StringInternerTest, SurvivesGrowth) {
  // The string_view keys must stay valid across vector reallocation.
  StringInterner Interner;
  std::vector<Symbol> Symbols;
  for (int I = 0; I < 1000; ++I)
    Symbols.push_back(Interner.intern("sym" + std::to_string(I)));
  for (int I = 0; I < 1000; ++I) {
    EXPECT_EQ(Interner.text(Symbols[I]), "sym" + std::to_string(I));
    EXPECT_EQ(Interner.lookup("sym" + std::to_string(I)), Symbols[I]);
  }
}

TEST(StringInternerTest, DefaultSymbolIsInvalid) {
  Symbol S;
  EXPECT_FALSE(S.isValid());
}

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  std::ostringstream OS;
  {
    JsonWriter J(OS);
    J.beginObject();
    J.field("name", "gator");
    J.field("count", 3);
    J.field("ok", true);
    J.key("list");
    J.beginArray();
    J.value(1);
    J.value(2);
    J.endArray();
    J.key("nested");
    J.beginObject();
    J.key("none");
    J.nullValue();
    J.endObject();
    J.endObject();
  }
  EXPECT_EQ(OS.str(), "{\"name\":\"gator\",\"count\":3,\"ok\":true,"
                      "\"list\":[1,2],\"nested\":{\"none\":null}}");
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  std::ostringstream OS;
  {
    JsonWriter J(OS);
    J.beginObject();
    J.field("s", "a\"b\\c\nd\te");
    J.endObject();
  }
  EXPECT_EQ(OS.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(JsonWriterTest, EmptyContainers) {
  std::ostringstream OS;
  {
    JsonWriter J(OS);
    J.beginArray();
    J.beginObject();
    J.endObject();
    J.beginArray();
    J.endArray();
    J.endArray();
  }
  EXPECT_EQ(OS.str(), "[{},[]]");
}

TEST(TimerTest, MeasuresNonNegativeMonotonicTime) {
  Timer T;
  double A = T.seconds();
  double B = T.seconds();
  EXPECT_GE(A, 0.0);
  EXPECT_GE(B, A);
  T.reset();
  EXPECT_GE(T.millis(), 0.0);
}

// A wall-clock budget past the steady clock's range must mean "no
// deadline", not a tick-count overflow that lands in the past and trips
// the budget at once.
TEST(BudgetDeadlineTest, HugeWallBudgetDoesNotTrip) {
  for (double Seconds :
       {1e10, 1e12, 1e300, std::numeric_limits<double>::infinity()}) {
    support::BudgetPolicy Policy;
    Policy.MaxWallSeconds = Seconds;
    support::BudgetTracker Tracker(Policy);
    EXPECT_TRUE(Tracker.checkpoint(0, 0)) << Seconds;
    EXPECT_FALSE(Tracker.exhausted()) << Seconds;
  }
}

TEST(BudgetDeadlineTest, HugeSharedDeadlineLiesInTheFuture) {
  auto Now = std::chrono::steady_clock::now();
  for (double Seconds : {1e10, 1e300}) {
    auto D = support::makeSharedDeadline(Seconds);
    EXPECT_TRUE(!D || *D > Now) << Seconds; // nullopt = no deadline
  }
  auto Near = support::makeSharedDeadline(1e9);
  ASSERT_TRUE(Near.has_value());
  EXPECT_GT(*Near, Now);
}

TEST(BudgetDeadlineTest, NonPositiveOrNanSecondsMeanNoDeadline) {
  EXPECT_FALSE(support::makeSharedDeadline(0.0).has_value());
  EXPECT_FALSE(support::makeSharedDeadline(-1.0).has_value());
  EXPECT_FALSE(support::makeSharedDeadline(std::nan("")).has_value());
}
