/**
 * @file
 * Semantic coverage of the mini-ID language, driven through the
 * emulator: an operator-precedence evaluation matrix, deeply nested
 * control structures, scoping rules, and numeric behaviours.
 */

#include <gtest/gtest.h>
#include <ostream>

#include "common/format.hh"
#include "id/codegen.hh"
#include "ttda/emulator.hh"

namespace
{

using graph::Value;

/** Evaluate `expr` (over one int parameter x) with x = `x`. */
graph::Value
eval(const std::string &expr, std::int64_t x)
{
    id::Compiled c =
        id::compile(sim::format("def main(x) = {};", expr));
    ttda::Emulator emu(c.program);
    emu.input(c.startCb, 0, Value{x});
    auto out = emu.run();
    EXPECT_EQ(out.size(), 1u) << expr;
    return out.empty() ? Value{} : out[0].value;
}

struct PrecedenceCase
{
    const char *expr;
    std::int64_t x;
    std::int64_t expect;
};

// Without this gtest prints the case as raw bytes, pointer included, and
// the discovered test names change with every address-space layout.
void PrintTo(const PrecedenceCase &tc, std::ostream *os)
{
    *os << tc.expr << " [x=" << tc.x << "]";
}

class Precedence : public ::testing::TestWithParam<PrecedenceCase>
{
};

TEST_P(Precedence, EvaluatesLikeTheReference)
{
    const auto &tc = GetParam();
    EXPECT_EQ(eval(tc.expr, tc.x).asInt(), tc.expect) << tc.expr;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, Precedence,
    ::testing::Values(
        PrecedenceCase{"1 + 2 * 3", 0, 7},
        PrecedenceCase{"(1 + 2) * 3", 0, 9},
        PrecedenceCase{"10 - 4 - 3", 0, 3},        // left assoc
        PrecedenceCase{"100 / 10 / 2", 0, 5},      // left assoc
        PrecedenceCase{"2 * x + 3 * x", 5, 25},
        PrecedenceCase{"x % 3 + x / 3", 10, 4},
        PrecedenceCase{"-x + 1", 7, -6},
        PrecedenceCase{"- (x + 1)", 7, -8},
        PrecedenceCase{"if x < 5 and x > 1 then 1 else 0", 3, 1},
        PrecedenceCase{"if x < 5 and x > 1 then 1 else 0", 6, 0},
        PrecedenceCase{"if x < 5 or x > 10 then 1 else 0", 20, 1},
        PrecedenceCase{"if not (x = 3) then 1 else 0", 3, 0},
        PrecedenceCase{"if 1 + 1 = 2 then x else 0", 9, 9},
        PrecedenceCase{"if x <> 4 then 1 else 2", 4, 2}));

TEST(Semantics, LetShadowsParameter)
{
    EXPECT_EQ(eval("let x = x + 1 in x * 10", 4).asInt(), 50);
}

TEST(Semantics, LoopVariableShadowsOuter)
{
    EXPECT_EQ(eval("(initial s <- 0 for i from 1 to 3 do "
                   "new s <- s + x return s) + x",
                   10)
                  .asInt(),
              40);
}

TEST(Semantics, NestedIfInsideLoopInsideIf)
{
    // Count odd numbers <= x, but only when x > 0.
    const char *expr =
        "if x > 0 then (initial c <- 0 for i from 1 to x do "
        "new c <- c + (if i % 2 = 1 then 1 else 0) return c) else -1";
    EXPECT_EQ(eval(expr, 9).asInt(), 5);
    EXPECT_EQ(eval(expr, -3).asInt(), -1);
}

TEST(Semantics, LoopBoundsAreExpressions)
{
    EXPECT_EQ(eval("(initial s <- 0 for i from x / 2 to x * 2 do "
                   "new s <- s + 1 return s)",
                   4)
                  .asInt(),
              7); // i in [2, 8]
}

TEST(Semantics, MixedIntRealPromotion)
{
    EXPECT_DOUBLE_EQ(eval("x * 1.5", 4).asReal(), 6.0);
    EXPECT_DOUBLE_EQ(eval("1 / 2.0", 0).asReal(), 0.5);
    EXPECT_EQ(eval("7 / 2", 0).asInt(), 3); // int division
}

TEST(Semantics, ComparisonChainsViaAnd)
{
    EXPECT_EQ(eval("if 1 < x and x < 5 then 1 else 0", 3).asInt(), 1);
    EXPECT_EQ(eval("if 1 < x and x < 5 then 1 else 0", 5).asInt(), 0);
}

TEST(Semantics, FunctionCallInLoopBound)
{
    id::Compiled c = id::compile(R"(
        def half(v) = v / 2;
        def main(x) =
          (initial s <- 0
           for i from 1 to half(x) do
             new s <- s + i
           return s);
    )");
    ttda::Emulator emu(c.program);
    emu.input(c.startCb, 0, Value{std::int64_t{10}});
    auto out = emu.run();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].value.asInt(), 15);
}

TEST(Semantics, NegativeLoopBounds)
{
    EXPECT_EQ(eval("(initial s <- 0 for i from -3 to 3 do "
                   "new s <- s + i return s)",
                   0)
                  .asInt(),
              0);
    EXPECT_EQ(eval("(initial s <- 0 for i from -5 to -2 do "
                   "new s <- s + 1 return s)",
                   0)
                  .asInt(),
              4);
}

TEST(Semantics, NonCommutativeLiteralOnTheLeft)
{
    // 10 - x and 100 / x cannot fold the literal into the constant
    // slot (non-commutative); the compiler must materialize a LIT.
    EXPECT_EQ(eval("10 - x", 3).asInt(), 7);
    EXPECT_EQ(eval("100 / x", 4).asInt(), 25);
    EXPECT_EQ(eval("100 % x", 7).asInt(), 2);
    EXPECT_EQ(eval("2 * x", 21).asInt(), 42); // commutative: folds
}

TEST(Semantics, CommentsAreIgnored)
{
    id::Compiled c = id::compile(
        "-- leading comment\n"
        "def main(x) = -- trailing comment\n"
        "  x + 1; -- after the body\n");
    ttda::Emulator emu(c.program);
    emu.input(c.startCb, 0, Value{std::int64_t{1}});
    auto out = emu.run();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].value.asInt(), 2);
}

TEST(Semantics, FourParameterFunctions)
{
    id::Compiled c = id::compile(R"(
        def f(a, b, cc, d) = a * 1000 + b * 100 + cc * 10 + d;
        def main(x) = f(x, x + 1, x + 2, x + 3);
    )");
    ttda::Emulator emu(c.program);
    emu.input(c.startCb, 0, Value{std::int64_t{1}});
    auto out = emu.run();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].value.asInt(), 1234);
}

TEST(Semantics, FiveParametersRejected)
{
    EXPECT_THROW(id::compile("def f(a, b, c, d, e) = a;"
                             "def main(x) = x;"),
                 id::CompileError);
}

} // namespace
