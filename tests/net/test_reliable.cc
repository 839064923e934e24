/**
 * @file
 * net::ReliableNet: the end-to-end reliability decorator. Exactly-once
 * delivery over a lossy fabric, retransmission with bounded backoff,
 * abandonment after maxAttempts, and zero protocol overhead besides
 * ACKs when nothing is lost.
 */

#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/snapshot.hh"
#include "net/ideal.hh"
#include "net/reliable.hh"

namespace
{

using net::Envelope;
using net::ReliableNet;
using net::RetryConfig;

std::unique_ptr<ReliableNet<int>>
makeReliable(std::uint32_t ports, RetryConfig cfg = {})
{
    return std::make_unique<ReliableNet<int>>(
        std::make_unique<net::IdealNetwork<Envelope<int>>>(
            ports, /*latency=*/2, /*jitter=*/0, /*seed=*/1),
        cfg);
}

/** Step `rel` until idle (or `maxCycles`), draining every port into
 *  per-port delivery logs. */
std::vector<std::vector<int>>
drain(ReliableNet<int> &rel, std::uint32_t ports,
      sim::Cycle maxCycles = 100000)
{
    std::vector<std::vector<int>> got(ports);
    for (sim::Cycle c = 0; c < maxCycles; ++c) {
        rel.step(c);
        for (std::uint32_t p = 0; p < ports; ++p)
            while (auto v = rel.receive(p))
                got[p].push_back(*v);
        if (rel.idle())
            break;
    }
    return got;
}

TEST(ReliableNet, LosslessDeliversInOrderWithoutRetransmits)
{
    auto rel = makeReliable(2);
    for (int i = 0; i < 20; ++i)
        rel->send(0, 1, i);
    const auto got = drain(*rel, 2);
    ASSERT_EQ(got[1].size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(got[1][i], i);
    EXPECT_TRUE(got[0].empty()); // ACKs are consumed, not delivered
    EXPECT_EQ(rel->relStats().retransmits.value(), 0u);
    EXPECT_EQ(rel->relStats().abandoned.value(), 0u);
    EXPECT_EQ(rel->relStats().acksSent.value(), 20u);
    EXPECT_TRUE(rel->idle());
}

TEST(ReliableNet, BackoffDoublesUpToCap)
{
    RetryConfig cfg;
    cfg.timeout = 8;
    cfg.backoffCap = 3;
    EXPECT_EQ(net::backoffDelay(cfg, 1), 8u);
    EXPECT_EQ(net::backoffDelay(cfg, 2), 16u);
    EXPECT_EQ(net::backoffDelay(cfg, 3), 32u);
    EXPECT_EQ(net::backoffDelay(cfg, 4), 64u);
    EXPECT_EQ(net::backoffDelay(cfg, 5), 64u); // capped
    EXPECT_EQ(net::backoffDelay(cfg, 100), 64u);
}

TEST(ReliableNet, RecoversEveryPayloadFromHeavyLoss)
{
    // 30% drop + duplicates + delay spikes on the inner fabric: every
    // payload must still arrive exactly once. Order may differ — the
    // wrapper is at-most-once, not in-order.
    sim::fault::FaultPlan plan;
    plan.seed = 99;
    plan.dropRate = 0.3;
    plan.dupRate = 0.1;
    plan.delayRate = 0.1;
    plan.delaySpike = 8;
    sim::fault::FaultInjector inj(plan);

    RetryConfig cfg;
    cfg.timeout = 16;
    cfg.maxAttempts = 20;
    auto rel = makeReliable(4, cfg);
    rel->setFaultInjector(&inj);

    const int n = 100;
    for (int i = 0; i < n; ++i)
        rel->send(0, 1 + (i % 3), i);
    const auto got = drain(*rel, 4);

    std::map<int, int> seen;
    for (std::uint32_t p = 1; p < 4; ++p)
        for (int v : got[p])
            ++seen[v];
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(n));
    for (const auto &[v, count] : seen)
        EXPECT_EQ(count, 1) << "payload " << v;
    EXPECT_EQ(rel->relStats().abandoned.value(), 0u);
    EXPECT_GT(rel->relStats().retransmits.value(), 0u);
    EXPECT_GT(inj.stats().drops, 0u);
    EXPECT_TRUE(rel->idle());
    EXPECT_EQ(rel->pendingCount(), 0u);
}

TEST(ReliableNet, DeterministicUnderSamePlan)
{
    auto run = [] {
        sim::fault::FaultPlan plan;
        plan.seed = 7;
        plan.dropRate = 0.25;
        plan.dupRate = 0.05;
        sim::fault::FaultInjector inj(plan);
        RetryConfig cfg;
        cfg.timeout = 16;
        auto rel = makeReliable(2, cfg);
        rel->setFaultInjector(&inj);
        for (int i = 0; i < 50; ++i)
            rel->send(0, 1, i);
        const auto got = drain(*rel, 2);
        return std::make_tuple(got[1],
                               rel->relStats().retransmits.value(),
                               inj.stats().decisions);
    };
    EXPECT_EQ(run(), run());
}

TEST(ReliableNet, AbandonsAfterMaxAttempts)
{
    // A link-down window longer than every retry: all Data envelopes
    // 0->1 die, ACKs never exist, and the sender must eventually give
    // up rather than retry (or block idle()) forever.
    sim::fault::FaultPlan plan;
    plan.events.push_back(
        {sim::fault::Event::Kind::LinkDown, 0, 1000000, 0, 1});
    sim::fault::FaultInjector inj(plan);

    RetryConfig cfg;
    cfg.timeout = 8;
    cfg.maxAttempts = 4;
    cfg.backoffCap = 2;
    auto rel = makeReliable(2, cfg);
    rel->setFaultInjector(&inj);

    for (int i = 0; i < 5; ++i)
        rel->send(0, 1, i);
    const auto got = drain(*rel, 2);
    EXPECT_TRUE(got[1].empty());
    EXPECT_TRUE(rel->idle());
    EXPECT_EQ(rel->relStats().abandoned.value(), 5u);
    // Each send was transmitted maxAttempts times in total.
    EXPECT_EQ(rel->relStats().retransmits.value(),
              5u * (cfg.maxAttempts - 1));
    EXPECT_EQ(inj.stats().linkDownDrops,
              5u * cfg.maxAttempts);
    EXPECT_EQ(rel->pendingCount(), 0u);
}

// ---- protocol edge cases under a scripted drop plan ------------------
//
// Timing over the 2-cycle IdealNetwork: a send made once step(c) has
// run leaves at c + 1 and meets the injector at c + 3; a LinkDown
// window over that cycle destroys it. Each case checks the protocol
// state at the interesting moment and at the end.

/** Link-down windows on single cycles: {cycle, src, dst} each. */
sim::fault::FaultPlan
dropsAt(std::initializer_list<std::array<std::uint32_t, 3>> drops)
{
    sim::fault::FaultPlan plan;
    for (const auto &[at, src, dst] : drops)
        plan.events.push_back(
            {sim::fault::Event::Kind::LinkDown, at, at, src, dst});
    return plan;
}

/** Steps a ReliableNet one cycle at a time, draining every port, and
 *  checks the wake-up contract on every cycle: while a send is
 *  pending the net must name a next event, or a skip-ahead machine
 *  would sleep through its retransmit. */
struct Stepper
{
    ReliableNet<int> &rel;
    std::vector<std::vector<int>> got =
        std::vector<std::vector<int>>(rel.numPorts());
    sim::Cycle now = 0;

    void
    tick()
    {
        rel.step(now);
        for (std::uint32_t p = 0; p < rel.numPorts(); ++p)
            while (auto v = rel.receive(p))
                got[p].push_back(*v);
        if (rel.pendingCount() != 0) {
            EXPECT_NE(rel.nextDelivery(), sim::neverCycle)
                << "pending sends but no wake-up at cycle " << now;
        }
        ++now;
    }

    void
    runTo(sim::Cycle c)
    {
        while (now < c)
            tick();
    }

    void
    runIdle()
    {
        for (sim::Cycle n = 0; n < 10000 && !rel.idle(); ++n)
            tick();
        ASSERT_TRUE(rel.idle());
    }
};

void
expectStats(const ReliableNet<int> &rel, std::uint64_t retransmits,
            std::uint64_t acksSent, std::uint64_t staleAcks,
            std::uint64_t rxDuplicates, std::uint64_t abandoned)
{
    EXPECT_EQ(rel.relStats().retransmits.value(), retransmits);
    EXPECT_EQ(rel.relStats().acksSent.value(), acksSent);
    EXPECT_EQ(rel.relStats().staleAcks.value(), staleAcks);
    EXPECT_EQ(rel.relStats().rxDuplicates.value(), rxDuplicates);
    EXPECT_EQ(rel.relStats().abandoned.value(), abandoned);
}

TEST(ReliableNet, MiddleAckBeforeFrontHoldsTheGapUntilRetransmit)
{
    sim::fault::FaultInjector inj(dropsAt({{2, 0, 1}}));
    RetryConfig cfg;
    cfg.timeout = 16;
    auto rel = makeReliable(2, cfg);
    rel->setFaultInjector(&inj);
    Stepper d{*rel};

    rel->send(0, 1, 10); // seq 1: destroyed at cycle 2
    d.tick();
    rel->send(0, 1, 11); // seq 2
    d.tick();
    rel->send(0, 1, 12); // seq 3
    d.runTo(6);          // both later ACKs are back

    EXPECT_EQ(d.got[1], (std::vector<int>{11, 12}));
    EXPECT_EQ(rel->pendingCount(), 1u);
    EXPECT_EQ(rel->windowGaps(), 2u);
    EXPECT_FALSE(rel->idle());
    EXPECT_EQ(rel->nextDelivery(), cfg.timeout - 1); // seq 1's timer
    expectStats(*rel, 0, 2, 0, 0, 0);

    d.runIdle();
    EXPECT_EQ(d.got[1], (std::vector<int>{11, 12, 10}));
    EXPECT_EQ(rel->pendingCount(), 0u);
    EXPECT_EQ(rel->windowGaps(), 0u);
    expectStats(*rel, 1, 3, 0, 0, 0);

    // The window reopens cleanly behind the healed gap.
    rel->send(0, 1, 13);
    d.runIdle();
    EXPECT_EQ(d.got[1], (std::vector<int>{11, 12, 10, 13}));
    expectStats(*rel, 1, 4, 0, 0, 0);
    EXPECT_EQ(inj.stats().linkDownDrops, 1u);
}

TEST(ReliableNet, AbandonedFrontReleasesItsAckedTail)
{
    // Both transmissions of seq 1 die; seq 2 gets through and is
    // acked while seq 1 still waits for its last timer.
    sim::fault::FaultInjector inj(dropsAt({{2, 0, 1}, {10, 0, 1}}));
    RetryConfig cfg;
    cfg.timeout = 8;
    cfg.maxAttempts = 2;
    cfg.backoffCap = 0;
    auto rel = makeReliable(2, cfg);
    rel->setFaultInjector(&inj);
    Stepper d{*rel};

    rel->send(0, 1, 20); // seq 1
    d.tick();
    rel->send(0, 1, 21); // seq 2
    d.runTo(6);
    EXPECT_EQ(d.got[1], (std::vector<int>{21}));
    EXPECT_EQ(rel->pendingCount(), 1u);
    EXPECT_EQ(rel->windowGaps(), 1u);
    EXPECT_FALSE(rel->idle());
    expectStats(*rel, 0, 1, 0, 0, 0);

    d.runTo(12); // the retransmit went out and died too
    EXPECT_EQ(rel->pendingCount(), 1u);
    expectStats(*rel, 1, 1, 0, 0, 0);

    d.runIdle();
    EXPECT_EQ(rel->pendingCount(), 0u);
    EXPECT_EQ(rel->windowGaps(), 0u);
    expectStats(*rel, 1, 1, 0, 0, 1);
    EXPECT_EQ(inj.stats().linkDownDrops, 2u);

    // Later sends on the stream still flow; the receiver never sees
    // seq 1 and delivers each later seq exactly once.
    rel->send(0, 1, 22);
    rel->send(0, 1, 23);
    d.runIdle();
    EXPECT_EQ(d.got[1], (std::vector<int>{21, 22, 23}));
    EXPECT_EQ(rel->pendingCount(), 0u);
    expectStats(*rel, 1, 3, 0, 0, 1);
}

TEST(ReliableNet, LostAckMakesADuplicateThatIsAckedNotDelivered)
{
    // Seq 1 arrives, its ACK dies at cycle 4, and the retransmit is a
    // duplicate at the receiver: dropped there but acked again.
    sim::fault::FaultInjector inj(dropsAt({{4, 1, 0}}));
    RetryConfig cfg;
    cfg.timeout = 16;
    auto rel = makeReliable(2, cfg);
    rel->setFaultInjector(&inj);
    Stepper d{*rel};

    rel->send(0, 1, 30);
    d.runTo(6);
    EXPECT_EQ(d.got[1], (std::vector<int>{30}));
    EXPECT_EQ(rel->pendingCount(), 1u);
    EXPECT_FALSE(rel->idle());
    expectStats(*rel, 0, 1, 0, 0, 0);

    d.runIdle();
    EXPECT_EQ(d.got[1], (std::vector<int>{30}));
    EXPECT_EQ(rel->pendingCount(), 0u);
    expectStats(*rel, 1, 2, 0, 1, 0);
}

TEST(ReliableNet, EarlyRetransmitYieldsADuplicateAndAStaleAck)
{
    // No loss at all: a timeout shorter than the round trip resends
    // seq 1 before its ACK is back, so the receiver sees it twice and
    // the second ACK finds the send already complete.
    RetryConfig cfg;
    cfg.timeout = 3;
    auto rel = makeReliable(2, cfg);
    Stepper d{*rel};

    rel->send(0, 1, 40);
    d.runTo(4); // first ACK consumed; the resend is still in flight
    EXPECT_EQ(rel->pendingCount(), 0u);
    EXPECT_FALSE(rel->idle());
    expectStats(*rel, 1, 1, 0, 0, 0);

    d.runIdle();
    EXPECT_EQ(d.got[1], (std::vector<int>{40}));
    EXPECT_TRUE(d.got[0].empty());
    EXPECT_EQ(rel->pendingCount(), 0u);
    expectStats(*rel, 1, 2, 1, 1, 0);

    // A stale ACK leaves no trace in the window: the next send is
    // delivered without another retransmit.
    rel->send(0, 1, 41);
    d.runTo(d.now + 4);
    EXPECT_EQ(d.got[1], (std::vector<int>{40, 41}));
    EXPECT_EQ(rel->pendingCount(), 0u);
}

/** A payload with checkpoint codecs, so the protocol state can be
 *  saved and restored on its own. */
struct Word
{
    std::uint64_t v = 0;
};

template <typename W>
void
snapSave(W &w, const Word &x)
{
    w.u64(x.v);
}

template <typename R>
void
snapLoad(R &r, Word &x)
{
    x.v = r.u64();
}

TEST(ReliableNet, RestoreRejectsATxWindowTooWideToHold)
{
    // Snapshot bytes are untrusted: a stream's txSeq far above its
    // first pending seq would size the restored window's ring.
    auto make = [] {
        return std::make_unique<ReliableNet<Word>>(
            std::make_unique<net::IdealNetwork<Envelope<Word>>>(2, 2));
    };
    auto src = make();
    for (int i = 0; i < 5; ++i)
        src->send(1, 0, Word{7});
    sim::snapshot::Writer w;
    src->saveState(w);
    std::ostringstream os;
    w.finish(os);
    std::string bytes = os.str();

    // Raise txSeq of stream 1->0 (key 1 << 32, txSeq 5) to 2^40 and
    // reseal the envelope: 22 header bytes, payload, CRC-32.
    auto le64 = [](std::uint64_t v) {
        std::string out(8, '\0');
        for (int i = 0; i < 8; ++i)
            out[i] = static_cast<char>(v >> (8 * i));
        return out;
    };
    constexpr std::size_t kHead = 22;
    const std::size_t at =
        bytes.find(le64(std::uint64_t{1} << 32) + le64(5), kHead);
    ASSERT_NE(at, std::string::npos);
    bytes.replace(at + 8, 8, le64(std::uint64_t{1} << 40));
    const std::size_t len = bytes.size() - kHead - 4;
    const std::uint32_t crc = sim::snapshot::crc32(
        reinterpret_cast<const unsigned char *>(bytes.data() + kHead), len);
    for (int i = 0; i < 4; ++i)
        bytes[kHead + len + i] = static_cast<char>(crc >> (8 * i));

    std::istringstream is(bytes);
    sim::snapshot::Reader r(is); // the resealed envelope is valid
    auto dst = make();
    EXPECT_THROW(dst->loadState(r), sim::snapshot::Error);
}

} // namespace
