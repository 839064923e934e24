/**
 * @file
 * In-process replays of the daemon_mixed job list: the correctness
 * oracle for the socket results, and the serve / ttda / net / vn layer
 * probes that show where a daemon job's host time goes without the
 * socket in the way.
 */

#include <algorithm>
#include <optional>
#include <sstream>

#include "bench.hh"
#include "common/json.hh"
#include "replay.hh"
#include "spans.hh"
#include "workloads/vn_serve.hh"

namespace pb
{

namespace
{

double
msSince(std::uint64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e6;
}

double
statOf(const std::string &statsJson, const char *group, const char *key)
{
    const auto v = sim::json::parse(statsJson);
    if (!v.has(group) || !v.get(group).has(key))
        return 0.0;
    return v.get(group).get(key).asDouble();
}

/** One vn job on a fresh machine, as VnFleet runs it. */
struct VnRun
{
    std::uint64_t cycles = 0, instructions = 0;
    double constructMs = 0.0;
};

VnRun
runVnJob(const DaemonModel &model, const serve::VnFleetJob &job)
{
    VnRun r;
    std::optional<vn::VnMachine> m;
    const std::uint64_t t0 = nowNs();
    {
        Span s("vn", "VnMachine::VnMachine");
        m.emplace(model.vnMachine);
    }
    r.constructMs = msSince(t0);
    workloads::VnServeDriver drv(*m, job.requests);
    drv.attach();
    {
        Span s("vn", "VnMachine::run");
        m->run();
    }
    r.cycles = m->cycles();
    for (std::uint32_t c = 0; c < m->numCores(); ++c)
        r.instructions += m->core(c).stats().instructions.value();
    return r;
}

void
splitJobs(const DaemonModel &model, const std::vector<Job> &jobs,
          std::vector<serve::FleetJob> &ttda,
          std::vector<serve::VnFleetJob> &vn,
          std::vector<std::size_t> &ttdaIdx,
          std::vector<std::size_t> &vnIdx)
{
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].vn) {
            vn.push_back(model.vnFleetJob(jobs[i]));
            vnIdx.push_back(i);
        } else {
            ttda.push_back(model.fleetJob(jobs[i]));
            ttdaIdx.push_back(i);
        }
    }
}

bool
sameResult(const serve::FleetJobResult &a, const serve::FleetJobResult &b)
{
    return a.cycles == b.cycles && a.completed == b.completed &&
           a.statsJson == b.statsJson && a.outputs.size() == b.outputs.size();
}

} // namespace

std::vector<Expected>
replayExpected(const DaemonModel &model, const std::vector<Job> &jobs)
{
    std::vector<serve::FleetJob> ttda;
    std::vector<serve::VnFleetJob> vn;
    std::vector<std::size_t> ttdaIdx, vnIdx;
    splitJobs(model, jobs, ttda, vn, ttdaIdx, vnIdx);

    std::vector<Expected> out(jobs.size());
    serve::TtdaFleet fleet(model.program, model.machine, model.fleet);
    const auto results = fleet.run(ttda);
    for (std::size_t k = 0; k < results.size(); ++k) {
        Expected &e = out[ttdaIdx[k]];
        e.cycles = results[k].cycles;
        e.statsJson = results[k].statsJson;
        e.workItems = static_cast<std::uint64_t>(
            statOf(e.statsJson, "machine", "activities"));
    }
    serve::VnFleet vnFleet(model.vnMachine, model.fleet);
    const auto vnResults = vnFleet.run(vn);
    for (std::size_t k = 0; k < vnResults.size(); ++k) {
        Expected &e = out[vnIdx[k]];
        e.cycles = vnResults[k].cycles;
        // VnFleet results carry no instruction count; rerun the job
        // on a machine of our own and keep it only if it agrees.
        const VnRun own = runVnJob(model, vn[k]);
        e.workItems = own.cycles == e.cycles ? own.instructions : 0;
    }
    return out;
}

void
runDaemonProbes(const Options &opt, Report &rep)
{
    const DaemonModel model;
    std::vector<Job> flat;
    for (const auto &l : makeJobLists(opt.seed, kJobsPerConn))
        flat.insert(flat.end(), l.begin(), l.end());
    std::vector<serve::FleetJob> ttda;
    std::vector<serve::VnFleetJob> vn;
    std::vector<std::size_t> ttdaIdx, vnIdx;
    splitJobs(model, flat, ttda, vn, ttdaIdx, vnIdx);

    // ---- serve: the daemon's fleets, in-process, w1 and w2 ---------
    serve::FleetConfig w2 = model.fleet;
    w2.workers = kDaemonWorkers;
    std::vector<serve::FleetJobResult> r1, r2;
    double ttda1 = 0, ttda2 = 0, vn1 = 0, vn2 = 0;
    std::uint64_t steals = 0;
    double imbalance = 0;
    {
        std::optional<serve::TtdaFleet> f1, f2;
        {
            Span s("serve", "TtdaFleet::TtdaFleet");
            f1.emplace(model.program, model.machine, model.fleet);
            f2.emplace(model.program, model.machine, w2);
        }
        // Warm both fleets' replicas on a prefix first, so w1 and w2
        // are timed alike.
        const std::vector<serve::FleetJob> warm(
            ttda.begin(), ttda.begin() + std::min<std::size_t>(
                                             ttda.size(), 2 * kDaemonWorkers));
        f1->run(warm);
        f2->run(warm);
        std::uint64_t t0 = nowNs();
        {
            Span run("serve", "TtdaFleet::run(w1)");
            r1 = f1->run(ttda);
        }
        ttda1 = msSince(t0);
        t0 = nowNs();
        {
            Span run("serve", "TtdaFleet::run(w2)");
            r2 = f2->run(ttda);
        }
        ttda2 = msSince(t0);
        steals += f2->steals();
        const auto &per = f2->jobsPerWorker();
        if (!per.empty()) {
            const double total = static_cast<double>(ttda.size());
            imbalance = static_cast<double>(
                            *std::max_element(per.begin(), per.end())) /
                        (total / static_cast<double>(per.size()));
        }
    }
    for (std::size_t k = 0; k < r1.size(); ++k)
        if (!sameResult(r1[k], r2[k]))
            rep.mismatch("serve: w2 result of ttda job " +
                         std::to_string(ttdaIdx[k]) + " differs from w1");
    {
        serve::VnFleet f1(model.vnMachine, model.fleet);
        serve::VnFleet f2(model.vnMachine, w2);
        std::uint64_t t0 = nowNs();
        std::vector<serve::VnFleetJobResult> a, b;
        {
            Span run("serve", "VnFleet::run(w1)");
            a = f1.run(vn);
        }
        vn1 = msSince(t0);
        t0 = nowNs();
        {
            Span run("serve", "VnFleet::run(w2)");
            b = f2.run(vn);
        }
        vn2 = msSince(t0);
        steals += f2.steals();
        for (std::size_t k = 0; k < a.size(); ++k)
            if (a[k].cycles != b[k].cycles)
                rep.mismatch("serve: w2 result of vn job " +
                             std::to_string(vnIdx[k]) + " differs");
    }
    rep.layer("serve.ttda_batch_ms", ttda1, "ms");
    rep.layer("serve.vn_batch_ms", vn1, "ms");
    rep.layer("serve.steals", static_cast<double>(steals), "count");
    rep.layer("serve.worker_imbalance", imbalance, "ratio");
    rep.layer("serve.scaling_w2", (ttda1 + vn1) / (ttda2 + vn2), "ratio");

    // ---- ttda: one warm replica, job by job ------------------------
    std::vector<double> resetMs, serveMs;
    std::uint64_t packets = 0, retransmits = 0;
    {
        ttda::Machine m(model.program, model.machine);
        for (std::size_t k = 0; k < ttda.size(); ++k) {
            std::uint64_t t0 = nowNs();
            {
                Span s("ttda", "Machine::reset");
                m.reset();
            }
            resetMs.push_back(msSince(t0));
            m.setFaultPlan(ttda[k].faults);
            for (const auto &req : ttda[k].requests)
                m.submit(ttda[k].cb, req.args, req.arrival);
            t0 = nowNs();
            {
                Span s("ttda", "Machine::serve");
                m.serve();
            }
            serveMs.push_back(msSince(t0));
            if (m.cycles() != r1[k].cycles)
                rep.mismatch("ttda: replica replay of job " +
                             std::to_string(ttdaIdx[k]) +
                             " differs from the fleet");
            packets += static_cast<std::uint64_t>(
                statOf(r1[k].statsJson, "machine", "netPacketsSent"));
            retransmits += static_cast<std::uint64_t>(
                statOf(r1[k].statsJson, "faults", "retransmits"));
        }
        // Snapshot cost on the quiescent machine the last job left.
        std::vector<double> save, restore;
        std::size_t bytes = 0;
        for (int rep_ = 0; rep_ < 5; ++rep_) {
            std::ostringstream os;
            std::uint64_t t0 = nowNs();
            {
                Span s("ttda", "Machine::saveSnapshot");
                m.saveSnapshot(os);
            }
            save.push_back(msSince(t0));
            const std::string blob = os.str();
            bytes = blob.size();
            std::istringstream is(blob);
            t0 = nowNs();
            {
                Span s("ttda", "Machine::restoreSnapshot");
                m.restoreSnapshot(is);
            }
            restore.push_back(msSince(t0));
        }
        rep.layer("ttda.snapshot_save_ms", median(save), "ms");
        rep.layer("ttda.snapshot_restore_ms", median(restore), "ms");
        rep.layer("ttda.snapshot_bytes", static_cast<double>(bytes),
                  "bytes");
    }
    rep.layer("ttda.reset_ms.p50", median(resetMs), "ms");
    rep.layer("ttda.serve_ms.p50", median(serveMs), "ms");

    // ---- net: ReliableNet against the bare fabric, no faults -------
    double netMs[2] = {0, 0};
    for (const bool reliable : {false, true}) {
        ttda::MachineConfig cfg = model.machine;
        cfg.reliableNet = reliable;
        ttda::Machine m(model.program, cfg);
        for (const serve::FleetJob &job : ttda) {
            m.reset();
            m.setFaultPlan({});
            for (const auto &req : job.requests)
                m.submit(job.cb, req.args, req.arrival);
            const std::uint64_t t0 = nowNs();
            Span s("ttda", reliable ? "Machine::serve(reliable)"
                                    : "Machine::serve(bare)");
            m.serve();
            netMs[reliable] += msSince(t0);
        }
    }
    rep.layer("net.rel_overhead", netMs[1] / netMs[0], "ratio");
    rep.layer("net.packets_sent", static_cast<double>(packets), "count");
    rep.layer("net.retransmits", static_cast<double>(retransmits),
              "count");

    // ---- vn: the fresh machine VnFleet builds per job --------------
    std::vector<double> construct;
    for (const serve::VnFleetJob &job : vn)
        construct.push_back(runVnJob(model, job).constructMs);
    rep.layer("vn.construct_ms", median(construct), "ms");
}

} // namespace pb
