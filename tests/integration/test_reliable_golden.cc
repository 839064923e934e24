/**
 * @file
 * Golden wire behaviour of net::ReliableNet on both machine styles.
 *
 * The bench_faults sweep (the row-pipeline program on a 4-PE TTDA,
 * the uniform reference trace on a 4-core von Neumann machine) at
 * drop rates {0, 0.1%, 1%, 5%} under fault seed 64023, with the
 * protocol's counters pinned to literal values: simulated cycles,
 * retransmits, ACKs sent, stale ACKs, deduplicated Data envelopes,
 * abandoned sends and envelopes put on the inner fabric. Any change
 * to the protocol's host-side bookkeeping must leave every one of
 * them unchanged; a change to the protocol itself must re-record
 * them (a mismatch prints the measured row in table syntax).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "id/codegen.hh"
#include "ttda/machine.hh"
#include "vn/machine.hh"
#include "workloads/vn_programs.hh"

namespace
{

struct Row
{
    const char *machine; //!< "ttda" or "vn"
    double rate;
    std::uint64_t simCycles;
    std::uint64_t retransmits;
    std::uint64_t acksSent;
    std::uint64_t staleAcks;
    std::uint64_t rxDuplicates;
    std::uint64_t abandoned;
    std::uint64_t envelopesSent;

    bool
    operator==(const Row &o) const
    {
        return simCycles == o.simCycles &&
               retransmits == o.retransmits && acksSent == o.acksSent &&
               staleAcks == o.staleAcks &&
               rxDuplicates == o.rxDuplicates &&
               abandoned == o.abandoned &&
               envelopesSent == o.envelopesSent;
    }
};

std::string
show(const Row &r)
{
    std::ostringstream os;
    os << "{\"" << r.machine << "\", " << r.rate << ", " << r.simCycles
       << ", " << r.retransmits << ", " << r.acksSent << ", "
       << r.staleAcks << ", " << r.rxDuplicates << ", " << r.abandoned
       << ", " << r.envelopesSent << "}";
    return os.str();
}

/** The bench_faults plan at one drop rate. */
sim::fault::FaultPlan
planAt(double rate)
{
    sim::fault::FaultPlan plan;
    plan.seed = 64023;
    plan.dropRate = rate;
    plan.dupRate = rate / 2.0;
    plan.corruptRate = rate / 10.0;
    plan.delayRate = rate;
    plan.delaySpike = 16;
    return plan;
}

/** The numeric value of the first `"key": N` in a stats document. */
std::uint64_t
statField(const std::string &json, const std::string &key)
{
    const std::size_t at = json.find("\"" + key + "\"");
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos)
        return 0;
    const std::size_t colon = json.find(':', at);
    return static_cast<std::uint64_t>(
        std::strtod(json.c_str() + colon + 1, nullptr));
}

template <typename M>
Row
measured(const char *machine, double rate, const M &m)
{
    std::ostringstream os;
    m.dumpStatsJson(os);
    const std::string js = os.str();
    Row r{machine, rate, m.cycles(), 0, 0, 0, 0, 0, 0};
    r.retransmits = statField(js, "retransmits");
    r.acksSent = statField(js, "acksSent");
    r.staleAcks = statField(js, "staleAcks");
    r.rxDuplicates = statField(js, "rxDuplicates");
    r.abandoned = statField(js, "abandoned");
    r.envelopesSent = statField(js, "envelopesSent");
    return r;
}

Row
runTtda(double rate)
{
    static const id::Compiled compiled = id::compile(R"(
        def fillrow(a, n, r) =
          (initial t <- a
           for j from 0 to n - 1 do
             new t <- store(t, r * n + j, 2 * (r * n + j))
           return t);
        def sumrow(a, n, r) =
          (initial s <- 0
           for j from 0 to n - 1 do
             new s <- s + a[r * n + j]
           return s);
        def main(n) =
          let a = array(n * n) in
          let launch = (initial z <- 0
                        for r from 0 to n - 1 do
                          new z <- z + 0 * fillrow(a, n, r)[r * n]
                        return z) in
          (initial s <- 0
           for r from 0 to n - 1 do
             new s <- s + sumrow(a, n, r)
           return s);
    )");
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    cfg.netLatency = 2;
    cfg.faults = planAt(rate);
    cfg.reliableNet = true;
    ttda::Machine m(compiled.program, cfg);
    m.input(compiled.startCb, 0, graph::Value{std::int64_t{12}});
    m.run();
    EXPECT_FALSE(m.deadlocked());
    return measured("ttda", rate, m);
}

Row
runVn(double rate)
{
    vn::VnMachineConfig cfg;
    cfg.numCores = 4;
    cfg.topology = vn::VnMachineConfig::Topology::Ideal;
    cfg.netLatency = 8;
    cfg.core.numContexts = 1;
    cfg.wordsPerModule = 4096;
    cfg.faults = planAt(rate);
    cfg.reliableNet = true;
    vn::VnMachine m(cfg);
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        workloads::TraceConfig tc;
        tc.coreId = c;
        tc.numCores = cfg.numCores;
        tc.wordsPerModule = cfg.wordsPerModule;
        tc.references = 500;
        tc.computePerRef = 3;
        tc.remoteFraction = 1.0;
        tc.seed = 7;
        m.core(c).attachTrace(workloads::makeUniformTrace(tc));
    }
    m.run();
    EXPECT_FALSE(m.deadlocked());
    return measured("vn", rate, m);
}

// Recorded from the std::map + per-packet timer heap implementation
// the stream-table bookkeeping replaced. simCycles and retransmits
// equal BENCH_faults.json's *_rel_* rows.
const Row kGolden[] = {
    {"ttda", 0, 3154, 0, 9218, 0, 0, 0, 18436},
    {"ttda", 0.001, 3245, 19, 9112, 3, 9, 0, 18234},
    {"ttda", 0.01, 3229, 185, 9273, 98, 143, 0, 18588},
    {"ttda", 0.05, 3498, 1058, 9861, 472, 769, 0, 20011},
    {"vn", 0, 10011, 0, 4000, 0, 0, 0, 8000},
    {"vn", 0.001, 10195, 7, 4004, 2, 4, 0, 8011},
    {"vn", 0.01, 11257, 85, 4055, 39, 55, 0, 8140},
    {"vn", 0.05, 14818, 458, 4337, 188, 337, 0, 8795},
};

TEST(ReliableGolden, ProtocolCountersMatchRecordedWireBehaviour)
{
    for (const Row &want : kGolden) {
        const std::string m = want.machine;
        const Row got = m == "ttda" ? runTtda(want.rate) : runVn(want.rate);
        EXPECT_TRUE(got == want)
            << "measured " << show(got) << "\n  golden " << show(want);
    }
}

} // namespace
