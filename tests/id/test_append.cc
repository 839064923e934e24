/**
 * @file
 * Tests for APPEND (paper Section 2.2.4): functional data-structure
 * update. "An APPEND operation ... generate[s] a new data structure
 * which differs from the input structure in one selected position" —
 * and footnote 4: "some APPENDs can cause a new copy of a data
 * structure to be created."
 */

#include <gtest/gtest.h>

#include "id/codegen.hh"
#include "ttda/emulator.hh"
#include "ttda/machine.hh"

namespace
{

using graph::Value;

graph::Value
emulate(const char *source, std::vector<Value> inputs)
{
    id::Compiled c = id::compile(source);
    ttda::Emulator emu(c.program);
    for (std::size_t p = 0; p < inputs.size(); ++p)
        emu.input(c.startCb, static_cast<std::uint16_t>(p), inputs[p]);
    auto out = emu.run();
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(emu.outstandingReads(), 0u);
    return out.empty() ? Value{} : out[0].value;
}

TEST(Append, ProducesUpdatedCopy)
{
    // b = append(a, 1, 99): b[1] = 99, b[0] = a[0].
    auto v = emulate(R"(
        def main(n) =
          let a = store(store(array(2), 0, 10), 1, 20) in
          let b = append(a, 1, 99) in
          b[0] * 1000 + b[1];
    )",
                     {Value{std::int64_t{0}}});
    EXPECT_EQ(v.asInt(), 10099);
}

TEST(Append, OriginalIsUntouched)
{
    // Functional semantics: after append, the source still holds its
    // original element.
    auto v = emulate(R"(
        def main(n) =
          let a = store(store(array(2), 0, 10), 1, 20) in
          let b = append(a, 1, 99) in
          a[1] * 1000 + b[1];
    )",
                     {Value{std::int64_t{0}}});
    EXPECT_EQ(v.asInt(), 20099);
}

TEST(Append, ChainedAppendsBuildVersions)
{
    // Each append yields a new version; the sum over versions checks
    // that none aliases another.
    auto v = emulate(R"(
        def main(n) =
          let a = store(array(1), 0, 1) in
          let b = append(a, 0, 2) in
          let c = append(b, 0, 3) in
          a[0] * 100 + b[0] * 10 + c[0];
    )",
                     {Value{std::int64_t{0}}});
    EXPECT_EQ(v.asInt(), 123);
}

TEST(Append, WorksInsideLoops)
{
    // Build an n-version chain; version i differs at cell 0.
    auto v = emulate(R"(
        def main(n) =
          let a = store(array(4), 0, 0) in
          let d1 = store(a, 1, 11) in
          let d2 = store(a, 2, 22) in
          let d3 = store(a, 3, 33) in
          (initial t <- a; s <- 0
           for i from 1 to n do
             new t <- append(t, 0, i);
             new s <- s + t[0]
           return s + t[0] + t[3]);
    )",
                     {Value{std::int64_t{5}}});
    // s accumulates old t[0] each iteration: 0+1+2+3+4 = 10; final
    // t[0] = 5; t[3] copied through every version = 33.
    EXPECT_EQ(v.asInt(), 10 + 5 + 33);
}

TEST(Append, MachineMatchesEmulator)
{
    const char *src = R"(
        def main(n) =
          let a = store(store(store(array(3), 0, 1), 1, 2), 2, 3) in
          let b = append(a, 1, 42) in
          a[0] + a[1] + a[2] + b[0] + b[1] + b[2];
    )";
    auto ve = emulate(src, {Value{std::int64_t{0}}});

    id::Compiled c = id::compile(src);
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    ttda::Machine m(c.program, cfg);
    m.input(c.startCb, 0, Value{std::int64_t{0}});
    auto out = m.run();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(m.deadlocked());
    EXPECT_EQ(out[0].value.asInt(), ve.asInt());
    EXPECT_EQ(ve.asInt(), 1 + 2 + 3 + 1 + 42 + 3);

    // Chained functional updates on arrays long enough to spread
    // their cells over every PE: each APPEND's copy loop touches
    // other PEs' structure stores. Cells 3 and 5 of `a` and cell 5 of
    // `b` are never written, so their copies stay parked; both
    // engines must agree on the answer and on the parked reads.
    id::Compiled chained = id::compile(R"(
        def main(n) =
          let a = store(store(store(array(6), 0, 1), 2, 5), 4, 7) in
          let b = append(a, 1, 10) in
          let d = append(b, 3, 20) in
          let e = append(d, 5, 30) in
          e[0] + e[1] + e[2] + e[3] + e[4] + e[5] + n;
    )");
    ttda::Emulator emu(chained.program);
    emu.input(chained.startCb, 0, Value{std::int64_t{4}});
    const auto emuOut = emu.run();
    ttda::Machine cm(chained.program, cfg);
    cm.input(chained.startCb, 0, Value{std::int64_t{4}});
    const auto machineOut = cm.run();
    ASSERT_EQ(emuOut.size(), 1u);
    ASSERT_EQ(machineOut.size(), 1u);
    EXPECT_EQ(emuOut[0].value.asInt(), 1 + 10 + 5 + 20 + 7 + 30 + 4);
    EXPECT_EQ(machineOut[0].value.asInt(), emuOut[0].value.asInt());
    EXPECT_EQ(cm.outstandingReads(), emu.outstandingReads());
}

TEST(Append, CopyCostChargedOnMachine)
{
    // Appending a large array must occupy the I-structure controller
    // proportionally to the copy size.
    auto run_with = [&](const char *src) {
        id::Compiled c = id::compile(src);
        ttda::MachineConfig cfg;
        cfg.numPEs = 2;
        ttda::Machine m(c.program, cfg);
        m.input(c.startCb, 0, Value{std::int64_t{0}});
        m.run();
        return m.peStats(0).isBusyCycles.value() +
               m.peStats(1).isBusyCycles.value();
    };
    // Fill k cells then append once; bigger arrays cost more IS time.
    const char *small = R"(
        def fill(a, hi) =
          (initial t <- a for i from 0 to hi do
             new t <- store(t, i, i) return t);
        def main(n) = append(fill(array(8), 7), 0, 9)[0];
    )";
    const char *large = R"(
        def fill(a, hi) =
          (initial t <- a for i from 0 to hi do
             new t <- store(t, i, i) return t);
        def main(n) = append(fill(array(64), 63), 0, 9)[0];
    )";
    EXPECT_GT(run_with(large), run_with(small) + 100);
}

TEST(Append, NonStrictCopyWaitsForTheSource)
{
    // APPEND of a structure whose cells are not all written yet: the
    // copy is non-strict. Reading the *replaced* element works at
    // once; reading a copied element waits until the source producer
    // writes it — and then flows through to the copy.
    auto v = emulate(R"(
        def main(n) =
          let a = array(2) in
          let b = append(a, 0, 7) in    -- a[1] still unwritten here
          let d = store(a, 1, n) in     -- the producer arrives late
          b[0] * 100 + b[1];            -- b[1] must become n
    )",
                     {Value{std::int64_t{5}}});
    EXPECT_EQ(v.asInt(), 705);
}

TEST(Append, CopyOfNeverWrittenCellDeadlocksDetectably)
{
    id::Compiled c = id::compile(R"(
        def main(n) =
          let a = array(2) in
          append(a, 0, 7)[1];   -- source a[1] is never produced
    )");
    ttda::Emulator emu(c.program);
    emu.input(c.startCb, 0, Value{std::int64_t{0}});
    auto out = emu.run();
    EXPECT_TRUE(out.empty());
    EXPECT_GT(emu.outstandingReads(), 0u);
}

TEST(Append, OutOfBoundsIndexPanics)
{
    EXPECT_DEATH(emulate(R"(
        def main(n) =
          let a = store(array(2), 0, 1) in
          append(a, 5, 1)[0];
    )",
                         {Value{std::int64_t{0}}}),
                 "out of bounds");
}

} // namespace
