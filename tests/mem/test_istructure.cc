/**
 * @file
 * Tests for I-structure storage semantics (paper Section 2.1,
 * Figure 2-1): presence bits, deferred read lists, single assignment,
 * and the controller's read/write cost model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "common/snapshot.hh"
#include "mem/istructure.hh"

namespace
{

using Cont = int; // tests use integer continuations
using Out = std::vector<std::pair<Cont, mem::Word>>;

TEST(IStructure, ReadAfterWriteIsImmediate)
{
    mem::IStructure<Cont> is(16);
    Out out;
    EXPECT_TRUE(is.store(3, 42, out));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(is.presence(3), mem::Presence::Present);
    EXPECT_TRUE(is.fetch(3, 7, out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].first, 7);
    EXPECT_EQ(out[0].second, 42u);
}

TEST(IStructure, ReadBeforeWriteIsDeferredThenServed)
{
    // The paper's Figure 2-1 scenario: the read request is put aside
    // and the location marked; the write forwards the newly arrived
    // datum to the waiting instruction.
    mem::IStructure<Cont> is(16);
    Out out;
    EXPECT_FALSE(is.fetch(5, 100, out));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(is.presence(5), mem::Presence::Deferred);
    EXPECT_EQ(is.outstandingReads(), 1u);

    EXPECT_TRUE(is.store(5, 9, out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].first, 100);
    EXPECT_EQ(out[0].second, 9u);
    EXPECT_EQ(is.presence(5), mem::Presence::Present);
    EXPECT_EQ(is.outstandingReads(), 0u);
}

TEST(IStructure, MultipleDeferredReadsAllServed)
{
    // "The memory module must maintain a list of deferred read
    // requests as there may be more than one read of a particular
    // address before the corresponding write."
    mem::IStructure<Cont> is(16);
    Out out;
    for (int c = 0; c < 5; ++c)
        EXPECT_FALSE(is.fetch(2, c, out));
    EXPECT_EQ(is.outstandingReads(), 5u);
    is.store(2, 77, out);
    ASSERT_EQ(out.size(), 5u);
    for (int c = 0; c < 5; ++c) {
        EXPECT_EQ(out[c].first, c); // FIFO service order
        EXPECT_EQ(out[c].second, 77u);
    }
    EXPECT_EQ(is.stats().deferredServed.value(), 5u);
}

TEST(IStructure, SecondWriteIsRejected)
{
    mem::IStructure<Cont> is(8);
    Out out;
    EXPECT_TRUE(is.store(0, 1, out));
    EXPECT_FALSE(is.store(0, 2, out)); // single-assignment violation
    EXPECT_EQ(is.peek(0), 1u);         // original value preserved
    EXPECT_EQ(is.stats().multipleWrites.value(), 1u);
}

TEST(IStructure, AllocateBumpsAndChecksCapacity)
{
    mem::IStructure<Cont> is(10);
    EXPECT_EQ(is.allocate(4), 0u);
    EXPECT_EQ(is.allocate(4), 4u);
    EXPECT_EQ(is.freeWords(), 2u);
    EXPECT_EQ(is.allocate(4), ~std::uint64_t{0}); // exhausted
    EXPECT_EQ(is.allocate(2), 8u);
}

TEST(IStructure, ClearResetsCells)
{
    mem::IStructure<Cont> is(8);
    Out out;
    is.store(1, 5, out);
    is.fetch(2, 9, out); // deferred on cell 2
    is.clear(0, 8);
    EXPECT_EQ(is.presence(1), mem::Presence::Empty);
    EXPECT_EQ(is.presence(2), mem::Presence::Empty);
    EXPECT_EQ(is.outstandingReads(), 0u);
}

/** A continuation and a value with snapshot codecs, so the storage
 *  can round-trip through a sim::snapshot envelope. */
struct SnapCont
{
    std::uint32_t id = 0;
};

struct SnapVal
{
    std::uint64_t v = 0;
    bool operator==(const SnapVal &o) const { return v == o.v; }
};

template <typename W>
void
snapSave(W &w, const SnapCont &c)
{
    w.u32(c.id);
}

template <typename R>
void
snapLoad(R &r, SnapCont &c)
{
    c.id = r.u32();
}

template <typename W>
void
snapSave(W &w, const SnapVal &x)
{
    w.u64(x.v);
}

template <typename R>
void
snapLoad(R &r, SnapVal &x)
{
    x.v = r.u64();
}

TEST(IStructure, OutstandingReadsCounterMatchesFullWalk)
{
    // Addresses span several storage chunks so the walk crosses
    // materialized and unmaterialized ones.
    constexpr std::size_t kWords = 3 * 4096 + 17;
    using Storage = mem::IStructure<SnapCont, SnapVal>;
    std::vector<std::pair<SnapCont, SnapVal>> out;
    auto walk = [](const Storage &is) {
        std::size_t n = 0;
        for (std::uint64_t a = 0; a < is.size(); ++a)
            n += is.deferredList(a).size();
        return n;
    };
    auto expectConsistent = [&](const Storage &is, std::size_t want) {
        EXPECT_EQ(is.outstandingReads(), want);
        EXPECT_EQ(walk(is), want);
    };

    Storage is(kWords);
    std::uint32_t next = 0;
    const std::uint64_t parkAt[] = {0,    5,    5,    5,
                                    4096, 8200, 8200, kWords - 1};
    for (const std::uint64_t a : parkAt)
        EXPECT_FALSE(is.fetch(a, SnapCont{next++}, out));
    expectConsistent(is, 8);

    EXPECT_TRUE(is.store(5, SnapVal{1}, out)); // serves three readers
    expectConsistent(is, 5);
    EXPECT_TRUE(is.fetch(5, SnapCont{next++}, out)); // present: no park
    EXPECT_FALSE(is.store(5, SnapVal{2}, out));      // rejected rewrite
    expectConsistent(is, 5);

    is.clear(8190, 20); // drops the two readers parked on 8200
    expectConsistent(is, 3);

    std::ostringstream bytes;
    {
        sim::snapshot::Writer w;
        is.save(w);
        w.finish(bytes);
    }
    Storage restored(kWords);
    EXPECT_FALSE(restored.fetch(7, SnapCont{99}, out)); // load replaces
    std::istringstream in(bytes.str());
    sim::snapshot::Reader r(in);
    restored.load(r);
    expectConsistent(restored, 3);
    EXPECT_TRUE(restored.store(kWords - 1, SnapVal{3}, out));
    expectConsistent(restored, 2);

    is.reset();
    expectConsistent(is, 0);
    EXPECT_FALSE(is.fetch(4096, SnapCont{next++}, out));
    expectConsistent(is, 1);
}

TEST(IStructure, OutOfRangePanics)
{
    mem::IStructure<Cont> is(4);
    Out out;
    EXPECT_DEATH(is.fetch(4, 0, out), "beyond");
}

TEST(IStructure, DeferredListLengthStat)
{
    mem::IStructure<Cont> is(8);
    Out out;
    is.fetch(0, 1, out);
    is.fetch(0, 2, out);
    is.fetch(0, 3, out);
    is.store(0, 1, out);
    is.store(1, 1, out); // no waiters
    EXPECT_DOUBLE_EQ(is.stats().deferredListLen.max(), 3.0);
    EXPECT_DOUBLE_EQ(is.stats().deferredListLen.min(), 0.0);
}

// ---------------------------------------------------------------------
// Controller timing.

TEST(IStructureController, ReadCostOneWriteCostTwo)
{
    // Paper: "A read operation is as efficient as in a traditional
    // memory. Write operations take twice as long."
    mem::IStructureController<Cont> ctl(16, 1, 2);
    Out served;

    // Preload a value, then time a read.
    ctl.request({mem::IStructureRequest<Cont>::Kind::Store, 0, 11, 0});
    sim::Cycle cycle = 0;
    while (!ctl.idle()) {
        ctl.step(cycle);
        ++cycle;
        while (auto r = ctl.pollResponse())
            served.push_back(*r);
    }
    const sim::Cycle write_time = cycle;
    EXPECT_EQ(write_time, 2u);

    ctl.request({mem::IStructureRequest<Cont>::Kind::Fetch, 0, 0, 42});
    sim::Cycle read_start = cycle;
    while (!ctl.idle()) {
        ctl.step(cycle);
        ++cycle;
        while (auto r = ctl.pollResponse())
            served.push_back(*r);
    }
    EXPECT_EQ(cycle - read_start, 1u);
    ASSERT_EQ(served.size(), 1u);
    EXPECT_EQ(served[0].first, 42);
    EXPECT_EQ(served[0].second, 11u);
}

TEST(IStructureController, DeferredReadParksWithoutBlockingQueue)
{
    // A deferred read must not stall the controller: later requests to
    // other cells are still served (no busy-waiting, unlike the HEP).
    mem::IStructureController<Cont> ctl(16);
    Out served;
    ctl.request({mem::IStructureRequest<Cont>::Kind::Fetch, 0, 0, 1});
    ctl.request({mem::IStructureRequest<Cont>::Kind::Store, 1, 50, 0});
    ctl.request({mem::IStructureRequest<Cont>::Kind::Fetch, 1, 0, 2});
    sim::Cycle cycle = 0;
    while (!ctl.idle() && cycle < 100) {
        ctl.step(cycle);
        ++cycle;
        while (auto r = ctl.pollResponse())
            served.push_back(*r);
    }
    // The read of cell 1 completed even though cell 0's read waits.
    ASSERT_EQ(served.size(), 1u);
    EXPECT_EQ(served[0].first, 2);
    EXPECT_EQ(served[0].second, 50u);
    EXPECT_EQ(ctl.storage().outstandingReads(), 1u);

    // The write to cell 0 releases the parked reader.
    ctl.request({mem::IStructureRequest<Cont>::Kind::Store, 0, 60, 0});
    while (!ctl.idle() && cycle < 200) {
        ctl.step(cycle);
        ++cycle;
        while (auto r = ctl.pollResponse())
            served.push_back(*r);
    }
    ASSERT_EQ(served.size(), 2u);
    EXPECT_EQ(served[1].first, 1);
    EXPECT_EQ(served[1].second, 60u);
}

TEST(IStructureController, DedupAbsorbsReplayedIdenticalStore)
{
    // With a lossy fabric the same STORE can arrive twice (a retry
    // whose original survived). Re-storing the *same* value into a
    // Present cell is a replay, not a single-assignment violation —
    // but only when dedup is on, and only for an identical value.
    auto drain = [](mem::IStructureController<Cont> &ctl, Out &served) {
        sim::Cycle cycle = 0;
        while (!ctl.idle() && cycle < 100) {
            ctl.step(cycle);
            ++cycle;
            while (auto r = ctl.pollResponse())
                served.push_back(*r);
        }
    };

    mem::IStructureController<Cont> ctl(16);
    ctl.enableDedup();
    Out served;
    ctl.request({mem::IStructureRequest<Cont>::Kind::Store, 0, 11, 0});
    ctl.request({mem::IStructureRequest<Cont>::Kind::Store, 0, 11, 0});
    drain(ctl, served);
    EXPECT_EQ(ctl.dupStores(), 1u);
    EXPECT_EQ(ctl.storage().stats().multipleWrites.value(), 0u);
    EXPECT_EQ(ctl.storage().peek(0), 11u);

    // A *different* value is still a real violation.
    ctl.request({mem::IStructureRequest<Cont>::Kind::Store, 0, 12, 0});
    drain(ctl, served);
    EXPECT_EQ(ctl.dupStores(), 1u);
    EXPECT_EQ(ctl.storage().stats().multipleWrites.value(), 1u);
    EXPECT_EQ(ctl.storage().peek(0), 11u);

    // Without dedup, even an identical re-store counts as a violation
    // (the fault-free semantics are unchanged).
    mem::IStructureController<Cont> bare(16);
    Out served2;
    bare.request({mem::IStructureRequest<Cont>::Kind::Store, 0, 11, 0});
    bare.request({mem::IStructureRequest<Cont>::Kind::Store, 0, 11, 0});
    drain(bare, served2);
    EXPECT_EQ(bare.dupStores(), 0u);
    EXPECT_EQ(bare.storage().stats().multipleWrites.value(), 1u);
}

} // namespace
