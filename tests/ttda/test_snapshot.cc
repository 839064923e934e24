/**
 * @file
 * Checkpoint/restore tests: pausing a run (runUntil/serveUntil),
 * snapshotting the paused machine, and restoring it in a different
 * machine object must be bit-identical to the uninterrupted run: same
 * outputs, same cycle count, same full stats JSON. Plus the robustness contract: a
 * truncated, corrupted, version-skewed or mismatched snapshot is
 * rejected with sim::snapshot::Error, never undefined behavior.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/snapshot.hh"
#include "graph/snapcodec.hh"
#include "ttda/machine.hh"
#include "workloads/arrivals.hh"
#include "workloads/dfg_programs.hh"

namespace
{

using graph::Value;

/** The acceptance configuration: lossy fabric under ReliableNet, so a
 *  mid-epoch snapshot captures retransmit timers, dedup windows,
 *  fault-injector RNG state and admission-control state all at once. */
ttda::MachineConfig
servingConfig()
{
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    cfg.topology = ttda::MachineConfig::Topology::Ideal;
    cfg.netLatency = 2;
    cfg.reliableNet = true;
    cfg.faults.seed = 5;
    cfg.faults.dropRate = 0.05;
    cfg.wmHighWatermark = 24;
    cfg.wmLowWatermark = 12;
    cfg.latencyStats = true; // exercise seq/born stamping + histograms
    return cfg;
}

void
submitFibs(ttda::Machine &m, std::uint16_t cb,
           const std::vector<sim::Cycle> &arrivals)
{
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const std::int64_t n = 4 + static_cast<std::int64_t>(i % 5);
        m.submit(cb, {Value{n}}, arrivals[i]);
    }
}

std::string
statsJson(const ttda::Machine &m)
{
    std::ostringstream os;
    m.dumpStatsJson(os);
    return os.str();
}

void
expectSameRun(const ttda::Machine &a, const ttda::Machine &b)
{
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.deadlocked(), b.deadlocked());
    ASSERT_EQ(a.outputs().size(), b.outputs().size());
    for (std::size_t i = 0; i < a.outputs().size(); ++i) {
        EXPECT_EQ(a.outputs()[i].tag, b.outputs()[i].tag);
        EXPECT_EQ(a.outputs()[i].value, b.outputs()[i].value);
    }
    EXPECT_EQ(statsJson(a), statsJson(b));
}

TEST(Snapshot, MidServeRoundTripBitIdentical)
{
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    workloads::ArrivalConfig ac;
    ac.meanGap = 48.0;
    ac.seed = 23;
    const auto arrivals = workloads::arrivalSchedule(ac, 16);

    // The uninterrupted reference epoch.
    ttda::Machine ref(program, servingConfig());
    submitFibs(ref, cb, arrivals);
    ref.serve();
    ASSERT_FALSE(ref.deadlocked());
    ASSERT_EQ(ref.requestsCompleted(), 16u);
    const sim::Cycle pauseAt = ref.cycles() / 2;
    ASSERT_GT(pauseAt, 0u);

    // Pause a serving epoch mid-flight and snapshot it.
    ttda::Machine src(program, servingConfig());
    submitFibs(src, cb, arrivals);
    ASSERT_TRUE(src.serveUntil(pauseAt))
        << "epoch finished before the pause cycle; lower pauseAt";
    ASSERT_TRUE(src.paused());
    std::ostringstream snap;
    src.saveSnapshot(snap);
    const sim::Cycle pausedCycle = src.cycles();

    // The paused source machine itself must also resume exactly.
    ASSERT_FALSE(src.serveUntil(sim::neverCycle));
    expectSameRun(src, ref);

    // So must a second machine restored from the snapshot.
    ttda::Machine dst(program, servingConfig());
    std::istringstream is(snap.str());
    dst.restoreSnapshot(is);
    EXPECT_EQ(dst.cycles(), pausedCycle);
    ASSERT_FALSE(dst.serveUntil(sim::neverCycle))
        << "restored epoch failed to finish";
    expectSameRun(dst, ref);
}

TEST(Snapshot, GappedReliableWindowRoundTripBitIdentical)
{
    // Cut where a ReliableNet tx window holds a gap: an unacked send
    // below later sends of its stream that are already acked. The
    // restore must rebuild the window around the gap so that later
    // sends land in their own slots and the timers fire in order.
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    workloads::ArrivalConfig ac;
    ac.meanGap = 48.0;
    ac.seed = 23;
    const auto arrivals = workloads::arrivalSchedule(ac, 16);

    ttda::Machine ref(program, servingConfig());
    submitFibs(ref, cb, arrivals);
    ref.serve();
    ASSERT_FALSE(ref.deadlocked());

    // The protocol's own checkpoint section, alone.
    auto protocolBytes = [](const ttda::Machine &m) {
        sim::snapshot::Writer w;
        m.reliableNet()->saveState(w);
        std::ostringstream os;
        w.finish(os);
        return os.str();
    };

    std::string snap, protocol;
    sim::Cycle pausedCycle = 0;
    for (sim::Cycle cut = 1; cut < ref.cycles() && snap.empty();
         cut += 7) {
        ttda::Machine src(program, servingConfig());
        submitFibs(src, cb, arrivals);
        ASSERT_TRUE(src.serveUntil(cut));
        if (src.reliableNet()->windowGaps() == 0)
            continue;
        std::ostringstream os;
        src.saveSnapshot(os);
        snap = os.str();
        protocol = protocolBytes(src);
        pausedCycle = src.cycles();
    }
    ASSERT_FALSE(snap.empty()) << "no cut held a gapped window";

    // Restore into a machine paused with sends of its own in flight,
    // so the reused windows hold stale live slots.
    ttda::Machine dst(program, servingConfig());
    submitFibs(dst, cb, arrivals);
    ASSERT_TRUE(dst.serveUntil(ref.cycles() / 2));
    ASSERT_GT(dst.reliableNet()->pendingCount(), 0u);
    std::istringstream is(snap);
    dst.restoreSnapshot(is);
    EXPECT_EQ(dst.cycles(), pausedCycle);
    EXPECT_GT(dst.reliableNet()->windowGaps(), 0u);
    EXPECT_TRUE(protocolBytes(dst) == protocol)
        << "save -> load -> save changed the protocol's bytes";

    ASSERT_FALSE(dst.serveUntil(sim::neverCycle));
    expectSameRun(dst, ref);
}

TEST(Snapshot, PlainRunPauseRoundTrip)
{
    graph::Program program;
    const auto cb = workloads::buildTrapezoid(program);
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;

    auto feed = [&](ttda::Machine &m) {
        m.input(cb, 0, Value{0.0});
        m.input(cb, 1, Value{2.0});
        m.input(cb, 2, Value{std::int64_t{64}});
    };

    ttda::Machine ref(program, cfg);
    feed(ref);
    ref.run();

    ttda::Machine src(program, cfg);
    feed(src);
    ASSERT_TRUE(src.runUntil(ref.cycles() / 2));
    std::ostringstream snap;
    src.saveSnapshot(snap);

    ttda::Machine dst(program, cfg);
    std::istringstream is(snap.str());
    dst.restoreSnapshot(is);
    ASSERT_FALSE(dst.runUntil(sim::neverCycle));
    expectSameRun(dst, ref);
}

TEST(Snapshot, RepeatedPausesAccumulateHistogramsExactlyOnce)
{
    // Pausing every few hundred cycles must not double-count any
    // latency-histogram sample; the final document must still match
    // the uninterrupted run exactly.
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    auto cfg = servingConfig();

    workloads::ArrivalConfig ac;
    ac.meanGap = 40.0;
    ac.seed = 31;
    const auto arrivals = workloads::arrivalSchedule(ac, 8);

    ttda::Machine ref(program, servingConfig());
    submitFibs(ref, cb, arrivals);
    ref.serve();

    ttda::Machine stepped(program, cfg);
    submitFibs(stepped, cb, arrivals);
    sim::Cycle stop = 97;
    int pauses = 0;
    while (stepped.serveUntil(stop)) {
        stop += 97;
        ++pauses;
        ASSERT_LT(pauses, 100000) << "run failed to converge";
    }
    EXPECT_GT(pauses, 0);
    expectSameRun(stepped, ref);
}

TEST(Snapshot, QuiescentMachineRoundTrips)
{
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    auto cfg = servingConfig();

    ttda::Machine src(program, cfg);
    submitFibs(src, cb, {0, 10, 20, 30});
    src.serve();
    std::ostringstream snap;
    src.saveSnapshot(snap);

    ttda::Machine dst(program, cfg);
    std::istringstream is(snap.str());
    dst.restoreSnapshot(is);
    expectSameRun(dst, src);
    EXPECT_EQ(dst.requestsCompleted(), src.requestsCompleted());
    EXPECT_EQ(dst.watermarkHits(), src.watermarkHits());
}

// ---- robustness: malformed snapshots are rejected, not UB ----------

class SnapshotRobustness : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cb_ = workloads::buildFib(program_);
        cfg_ = servingConfig();
        ttda::Machine src(program_, cfg_);
        submitFibs(src, cb_, {0, 16, 32, 48, 64, 80});
        ASSERT_TRUE(src.serveUntil(200));
        std::ostringstream os;
        src.saveSnapshot(os);
        bytes_ = os.str();
        ASSERT_GT(bytes_.size(), 64u);
    }

    void
    expectRejected(const std::string &mutated)
    {
        ttda::Machine m(program_, cfg_);
        std::istringstream is(mutated);
        EXPECT_THROW(m.restoreSnapshot(is), sim::snapshot::Error);
        // The failed restore must leave a usable, reset machine.
        submitFibs(m, cb_, {0});
        const auto out = m.serve();
        EXPECT_EQ(out.size(), 1u);
    }

    graph::Program program_;
    std::uint16_t cb_ = 0;
    ttda::MachineConfig cfg_;
    std::string bytes_;
};

TEST_F(SnapshotRobustness, TruncatedAtEveryRegionRejected)
{
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, std::size_t{21},
          std::size_t{22}, std::size_t{40}, bytes_.size() / 2,
          bytes_.size() - 1})
        expectRejected(bytes_.substr(0, keep));
}

TEST_F(SnapshotRobustness, CorruptPayloadByteRejectedByChecksum)
{
    for (const std::size_t at :
         {std::size_t{22}, std::size_t{23} + bytes_.size() / 3,
          bytes_.size() - 5}) {
        std::string mutated = bytes_;
        mutated[at] = static_cast<char>(mutated[at] ^ 0x40);
        expectRejected(mutated);
    }
}

TEST_F(SnapshotRobustness, WrongMagicRejected)
{
    std::string mutated = bytes_;
    mutated[0] = 'X';
    expectRejected(mutated);
}

TEST_F(SnapshotRobustness, UnsupportedVersionRejected)
{
    std::string mutated = bytes_;
    mutated[8] = static_cast<char>(0x7f); // version field (LE u32)
    expectRejected(mutated);
}

TEST_F(SnapshotRobustness, ForeignEndiannessRejected)
{
    std::string mutated = bytes_;
    // The endian tag bytes {0x02, 0x01} live right after the version.
    mutated[12] = 0x01;
    mutated[13] = 0x02;
    expectRejected(mutated);
}

TEST_F(SnapshotRobustness, AbsurdLengthReadsAsTruncated)
{
    std::string mutated = bytes_;
    // Payload length is a LE u64 at offset 14: claim ~2^56 bytes. The
    // reader must fail cleanly (chunked reads), not allocate it.
    mutated[20] = static_cast<char>(0xff);
    expectRejected(mutated);
}

TEST_F(SnapshotRobustness, MismatchedMachineRejected)
{
    auto other = cfg_;
    other.numPEs = 8;
    ttda::Machine m(program_, other);
    std::istringstream is(bytes_);
    EXPECT_THROW(m.restoreSnapshot(is), sim::snapshot::Error);

    auto noFaults = cfg_;
    noFaults.faults = sim::fault::FaultPlan{};
    ttda::Machine m2(program_, noFaults);
    std::istringstream is2(bytes_);
    EXPECT_THROW(m2.restoreSnapshot(is2), sim::snapshot::Error);
}

TEST_F(SnapshotRobustness, MismatchedProgramRejected)
{
    graph::Program other;
    workloads::buildTrapezoid(other);
    ttda::Machine m(other, cfg_);
    std::istringstream is(bytes_);
    EXPECT_THROW(m.restoreSnapshot(is), sim::snapshot::Error);
}

} // namespace
