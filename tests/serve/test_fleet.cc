/**
 * @file
 * Machine-fleet determinism: K independent serving jobs across W
 * warm replicas must produce bit-identical per-job results — outputs,
 * cycle counts, stats JSON, latency histograms — for any worker
 * count, replica assignment, or steal order. This is the acceptance
 * gate of the fleet subsystem, so the comparisons are exact, never
 * approximate.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/fleet.hh"
#include "workloads/arrivals.hh"
#include "workloads/dfg_programs.hh"

namespace
{

using graph::Value;

ttda::MachineConfig
machineConfig()
{
    ttda::MachineConfig cfg;
    cfg.numPEs = 4;
    cfg.netLatency = 2;
    cfg.seed = 1;
    return cfg;
}

/** Heterogeneous jobs: per-job schedules, arg mixes, and (on every
 *  third job) a delay-only fault plan — jitter without token loss, so
 *  every epoch completes without a recovery protocol. */
std::vector<serve::FleetJob>
makeJobs(std::uint16_t cb, std::size_t count)
{
    std::vector<serve::FleetJob> jobs(count);
    for (std::size_t j = 0; j < count; ++j) {
        workloads::ArrivalConfig ac;
        ac.meanGap = 32.0 + 8.0 * static_cast<double>(j % 3);
        ac.seed = sim::deriveJobSeed(42, j);
        const auto arrivals =
            workloads::arrivalSchedule(ac, 6 + (j % 4));
        serve::FleetJob &job = jobs[j];
        job.cb = cb;
        for (std::size_t i = 0; i < arrivals.size(); ++i) {
            serve::FleetRequest req;
            req.arrival = arrivals[i];
            req.args = {Value{static_cast<std::int64_t>(
                4 + (i + j) % 5)}};
            job.requests.push_back(std::move(req));
        }
        if (j % 3 == 0) {
            // Delay faults only: jitter the fabric without losing
            // tokens, so the epoch completes without a recovery
            // protocol. seed 0 exercises the per-job derivation.
            job.faults.delayRate = 0.2;
            job.faults.delaySpike = 3;
            job.faults.seed = j == 0 ? 77 : 0;
        }
    }
    return jobs;
}

std::vector<serve::FleetJobResult>
runFleet(const graph::Program &program, unsigned workers,
         const std::vector<serve::FleetJob> &jobs)
{
    serve::FleetConfig fc;
    fc.workers = workers;
    fc.captureStatsJson = true;
    serve::TtdaFleet fleet(program, machineConfig(), fc);
    return fleet.run(jobs);
}

void
expectIdentical(const std::vector<serve::FleetJobResult> &a,
                const std::vector<serve::FleetJobResult> &b,
                const std::string &label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t j = 0; j < a.size(); ++j) {
        SCOPED_TRACE(label + ": job " + std::to_string(j));
        EXPECT_EQ(a[j].cycles, b[j].cycles);
        EXPECT_EQ(a[j].deadlocked, b[j].deadlocked);
        EXPECT_EQ(a[j].submitted, b[j].submitted);
        EXPECT_EQ(a[j].completed, b[j].completed);
        EXPECT_EQ(a[j].watermarkHits, b[j].watermarkHits);
        ASSERT_EQ(a[j].outputs.size(), b[j].outputs.size());
        for (std::size_t i = 0; i < a[j].outputs.size(); ++i) {
            EXPECT_EQ(a[j].outputs[i].tag, b[j].outputs[i].tag);
            EXPECT_EQ(a[j].outputs[i].value, b[j].outputs[i].value);
        }
        EXPECT_EQ(a[j].latency.bins(), b[j].latency.bins());
        EXPECT_EQ(a[j].statsJson, b[j].statsJson);
        EXPECT_FALSE(a[j].statsJson.empty());
    }
}

TEST(TtdaFleet, BitIdenticalAcrossWorkerCounts)
{
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    const auto jobs = makeJobs(cb, 8);

    const auto w1 = runFleet(program, 1, jobs);
    ASSERT_EQ(w1.size(), jobs.size());
    for (std::size_t j = 0; j < w1.size(); ++j) {
        EXPECT_FALSE(w1[j].deadlocked) << "job " << j;
        EXPECT_EQ(w1[j].completed, w1[j].submitted) << "job " << j;
        EXPECT_EQ(w1[j].completed, jobs[j].requests.size())
            << "job " << j;
    }
    expectIdentical(w1, runFleet(program, 2, jobs), "w2 vs w1");
    expectIdentical(w1, runFleet(program, 4, jobs), "w4 vs w1");

    // One job at a time on any replica (the daemon's per-worker
    // dispatch) serves it exactly as run() does.
    serve::FleetConfig fc;
    fc.workers = 4;
    fc.captureStatsJson = true;
    serve::TtdaFleet fleet(program, machineConfig(), fc);
    for (unsigned w = 0; w < fleet.workers(); ++w) {
        std::vector<serve::FleetJobResult> one;
        for (std::size_t j = 0; j < jobs.size(); ++j)
            one.push_back(fleet.runOne(w, jobs[j], j));
        expectIdentical(w1, one, "runOne on replica " + std::to_string(w));
    }
}

TEST(TtdaFleet, MatchesSingleMachineServing)
{
    // A fleet job's result must equal the same epoch served on a
    // plain, directly-driven machine: the fleet adds distribution,
    // never semantics.
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    const auto jobs = makeJobs(cb, 4);
    const auto results = runFleet(program, 2, jobs);

    for (std::size_t j = 0; j < jobs.size(); ++j) {
        SCOPED_TRACE("job " + std::to_string(j));
        auto cfg = machineConfig();
        cfg.faults = jobs[j].faults;
        if (cfg.faults.enabled() && cfg.faults.seed == 0)
            cfg.faults.seed = sim::deriveJobSeed(cfg.seed, j);
        ttda::Machine m(program, cfg);
        for (const auto &req : jobs[j].requests)
            m.submit(jobs[j].cb, req.args, req.arrival);
        const auto out = m.serve();
        EXPECT_EQ(results[j].cycles, m.cycles());
        ASSERT_EQ(results[j].outputs.size(), out.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(results[j].outputs[i].value, out[i].value);
        EXPECT_EQ(results[j].latency.bins(),
                  m.requestLatency().bins());
    }
}

TEST(TtdaFleet, ReplicaAssignmentCannotLeakAcrossJobs)
{
    // Two consecutive batches on ONE fleet: a dirty replica (batch 1
    // ran jobs on it) must serve batch 2 exactly as a brand-new
    // fleet would — reset() is what makes replica reuse sound.
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    const auto batch1 = makeJobs(cb, 5);
    const auto batch2 = makeJobs(cb, 7);

    serve::FleetConfig fc;
    fc.workers = 2;
    fc.captureStatsJson = true;
    serve::TtdaFleet reused(program, machineConfig(), fc);
    reused.run(batch1);
    const auto dirty = reused.run(batch2);

    serve::TtdaFleet pristine(program, machineConfig(), fc);
    expectIdentical(dirty, pristine.run(batch2), "reused vs pristine");
}

TEST(TtdaFleet, MergedLatencyFoldsInJobIndexOrder)
{
    graph::Program program;
    const auto cb = workloads::buildFib(program);
    const auto jobs = makeJobs(cb, 6);

    const auto a = runFleet(program, 1, jobs);
    const auto b = runFleet(program, 4, jobs);
    const auto ha = serve::TtdaFleet::mergedLatency(a);
    const auto hb = serve::TtdaFleet::mergedLatency(b);
    std::uint64_t total = 0;
    for (const auto &r : a)
        total += r.completed;
    EXPECT_EQ(ha.summary().count(), total);
    EXPECT_EQ(ha.bins(), hb.bins());
    EXPECT_EQ(ha.quantile(0.99), hb.quantile(0.99));
}

TEST(VnFleet, BitIdenticalAcrossWorkerCounts)
{
    vn::VnMachineConfig cfg;
    cfg.numCores = 2;
    cfg.core.numContexts = 2;
    cfg.wordsPerModule = 1024;

    std::vector<serve::VnFleetJob> jobs(6);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        workloads::ArrivalConfig ac;
        ac.meanGap = 64.0;
        ac.seed = sim::deriveJobSeed(9, j);
        const auto arrivals = workloads::arrivalSchedule(ac, 8);
        for (std::size_t i = 0; i < arrivals.size(); ++i) {
            workloads::VnRequest r;
            r.arrival = arrivals[i];
            r.loads = 2 + (j % 3);
            r.computePerLoad = 4;
            r.addr = (i * 13) % (cfg.numCores * cfg.wordsPerModule);
            r.stride = 5;
            r.addrSpace = cfg.numCores * cfg.wordsPerModule;
            jobs[j].requests.push_back(r);
        }
    }

    const auto runAt = [&](unsigned workers) {
        serve::FleetConfig fc;
        fc.workers = workers;
        serve::VnFleet fleet(cfg, fc);
        return fleet.run(jobs);
    };
    const auto w1 = runAt(1);
    ASSERT_EQ(w1.size(), jobs.size());
    for (const auto &r : w1)
        EXPECT_EQ(r.completed, r.submitted);
    const serve::VnFleet fleet(cfg);
    std::vector<serve::VnFleetJobResult> one;
    for (const auto &job : jobs)
        one.push_back(fleet.runOne(job));
    const std::pair<std::string, std::vector<serve::VnFleetJobResult>>
        runs[] = {{"w2", runAt(2)}, {"w4", runAt(4)}, {"runOne", one}};
    for (const auto &[label, wn] : runs) {
        ASSERT_EQ(wn.size(), w1.size());
        for (std::size_t j = 0; j < w1.size(); ++j) {
            SCOPED_TRACE(label + " job " + std::to_string(j));
            EXPECT_EQ(wn[j].cycles, w1[j].cycles);
            EXPECT_EQ(wn[j].completed, w1[j].completed);
            EXPECT_EQ(wn[j].latency.bins(), w1[j].latency.bins());
        }
    }
}

} // namespace
