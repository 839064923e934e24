#include "serve/fleet.hh"

#include <sstream>
#include <utility>

#include "common/logging.hh"

namespace serve
{

namespace
{

sim::Fleet::Config
engineConfig(const FleetConfig &cfg)
{
    sim::Fleet::Config ec;
    ec.workers = cfg.workers;
    ec.queueShards = cfg.queueShards;
    ec.spinBudget = cfg.spinBudget;
    return ec;
}

/** Resolve a job's fault plan: seed 0 becomes a (machine seed, job
 *  id) derivation so two jobs with the same plan shape still draw
 *  independent fault streams — and the derivation is stable whatever
 *  worker picks the job up. */
sim::fault::FaultPlan
jobPlan(const FleetJob &job, std::size_t jobIndex,
        std::uint64_t machineSeed)
{
    sim::fault::FaultPlan plan = job.faults;
    if (plan.enabled() && plan.seed == 0)
        plan.seed = sim::deriveJobSeed(machineSeed, jobIndex);
    return plan;
}

} // namespace

TtdaFleet::TtdaFleet(const graph::Program &program,
                     const ttda::MachineConfig &machine,
                     const FleetConfig &cfg)
    : cfg_(cfg), fleet_(engineConfig(cfg))
{
    ttda::MachineConfig replicaCfg = machine;
    // W replicas interleaving events into one sink would be
    // host-ordered; fleets run dark and report deterministic results.
    replicaCfg.trace = nullptr;
    replicaCfg.tracer = nullptr;
    replicaCfg.metrics = nullptr;
    replicas_.reserve(fleet_.workers());
    for (unsigned w = 0; w < fleet_.workers(); ++w)
        replicas_.push_back(
            std::make_unique<ttda::Machine>(program, replicaCfg));
}

std::vector<FleetJobResult>
TtdaFleet::run(const std::vector<FleetJob> &jobs)
{
    std::vector<FleetJobResult> results(jobs.size());
    fleet_.run(jobs.size(), [&](unsigned worker, std::size_t j) {
        results[j] = runOne(worker, jobs[j], j);
    });
    return results;
}

FleetJobResult
TtdaFleet::runOne(unsigned worker, const FleetJob &job,
                  std::size_t jobIndex)
{
    SIM_ASSERT_MSG(worker < replicas_.size(),
                   "worker {} out of range ({} replicas)", worker,
                   replicas_.size());
    ttda::Machine &m = *replicas_[worker];
    m.reset();
    m.setFaultPlan(jobPlan(job, jobIndex, m.config().seed));
    for (const FleetRequest &req : job.requests)
        m.submit(job.cb, req.args, req.arrival);

    FleetJobResult r;
    r.worker = worker;
    r.outputs = m.serve();
    r.cycles = m.cycles();
    r.deadlocked = m.deadlocked();
    r.submitted = m.requestsSubmitted();
    r.completed = m.requestsCompleted();
    r.watermarkHits = m.watermarkHits();
    r.latency = m.requestLatency();
    if (cfg_.captureStatsJson) {
        std::ostringstream os;
        m.dumpStatsJson(os);
        r.statsJson = os.str();
    }
    return r;
}

sim::Histogram
TtdaFleet::mergedLatency(const std::vector<FleetJobResult> &results)
{
    sim::Histogram merged;
    for (const FleetJobResult &r : results)
        merged.merge(r.latency);
    return merged;
}

VnFleet::VnFleet(const vn::VnMachineConfig &machine,
                 const FleetConfig &cfg)
    : cfg_(cfg), fleet_(engineConfig(cfg)), machineCfg_(machine)
{
    machineCfg_.metrics = nullptr; // same darkness rule as TtdaFleet
}

std::vector<VnFleetJobResult>
VnFleet::run(const std::vector<VnFleetJob> &jobs)
{
    std::vector<VnFleetJobResult> results(jobs.size());
    fleet_.run(jobs.size(), [&](unsigned, std::size_t j) {
        results[j] = runOne(jobs[j]);
    });
    return results;
}

VnFleetJobResult
VnFleet::runOne(const VnFleetJob &job) const
{
    vn::VnMachine m(machineCfg_);
    workloads::VnServeDriver drv(m, job.requests);
    drv.attach();
    m.run();

    VnFleetJobResult r;
    r.cycles = m.cycles();
    r.submitted = drv.submitted();
    r.completed = drv.completed();
    r.latency = drv.latency();
    return r;
}

} // namespace serve
