/**
 * @file
 * Machine fleets: warm simulator replicas serving independent jobs.
 *
 * The generic engine (sim::Fleet) knows nothing about machines; this
 * layer binds it to the tiers:
 *
 *  - TtdaFleet — W warm ttda::Machine replicas, constructed once and
 *    recycled per job through Machine::reset(). A job is a seeded
 *    (workload, args, fault-plan) tuple: one serving epoch — submit
 *    every request, serve() to quiescence, harvest outputs, counters,
 *    the latency histogram, and (optionally) the stats JSON. Because
 *    reset()-then-run is bit-identical to a fresh machine and every
 *    replica is constructed from the same config, *which* replica
 *    serves a job cannot affect its result — the fleet's determinism
 *    contract reduces to the machine's reset contract plus per-job
 *    seed derivation (sim::deriveJobSeed; fault plans with seed 0 get
 *    their injector seed from (machine seed, job id), never from the
 *    worker).
 *
 *  - VnFleet — the von Neumann tier has no reset() fast path, so its
 *    fleet constructs a fresh vn::VnMachine per job inside the worker.
 *    Still deterministic: construction is pure, jobs are independent.
 *
 * Results come back in job-index order; merged views (aggregate
 *  latency) fold per-job histograms in that order, so aggregates are
 * as bit-identical as the per-job rows.
 */

#ifndef TTDA_SERVE_FLEET_HH
#define TTDA_SERVE_FLEET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fleet.hh"
#include "common/stats.hh"
#include "ttda/machine.hh"
#include "vn/machine.hh"
#include "workloads/vn_serve.hh"

namespace serve
{

/** Shared fleet knobs (both tiers). */
struct FleetConfig
{
    /** Workers, including the calling thread. */
    unsigned workers = 1;
    /** Capture each job's dumpStatsJson() into the result (TtdaFleet
     *  only) — the bit-identity witness; costs a serialization per
     *  job. */
    bool captureStatsJson = false;
};

/** One open-loop request inside a job. */
struct FleetRequest
{
    std::vector<graph::Value> args;
    sim::Cycle arrival = 0;
};

/** One fleet job: a whole serving epoch for one machine replica. */
struct FleetJob
{
    std::uint16_t cb = 0; //!< code block every request applies
    std::vector<FleetRequest> requests; //!< arrival-sorted
    /** Per-job fault plan. Empty = faultless. seed == 0 derives the
     *  injector seed from (machine seed, job index) — per job id,
     *  never per worker. */
    sim::fault::FaultPlan faults;
};

/** Everything a job's epoch produced, in deterministic form. */
struct FleetJobResult
{
    std::vector<ttda::OutputRecord> outputs;
    sim::Cycle cycles = 0;
    bool deadlocked = false;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t watermarkHits = 0;
    sim::Histogram latency{16.0, 4096}; //!< Machine::requestLatency
    std::string statsJson; //!< when FleetConfig::captureStatsJson
    /** Which worker served the job — host-order observability, never
     *  part of the deterministic result fields above. */
    unsigned worker = 0;
};

/**
 * A pool of warm ttda::Machine replicas behind a sim::Fleet.
 *
 * Replicas (one per worker) are built once from (program, config) —
 * observability sinks (trace, tracer, metrics) are forced off, since
 * W replicas interleaving into one stream would be host-ordered — and
 * reused across jobs and across run() batches via reset().
 */
class TtdaFleet
{
  public:
    TtdaFleet(const graph::Program &program,
              const ttda::MachineConfig &machine,
              const FleetConfig &cfg = {});

    /** Serve every job; results[j] belongs to jobs[j]. Bit-identical
     *  for any worker count / steal order. */
    std::vector<FleetJobResult> run(const std::vector<FleetJob> &jobs);

    /** Serve one job on replica `worker` (< workers()): the result
     *  run() would give the job at index `jobIndex` (which seeds a
     *  seed-0 fault plan). Calls for distinct workers may run
     *  concurrently; calls for one worker must not overlap, and none
     *  may overlap run(). */
    FleetJobResult runOne(unsigned worker, const FleetJob &job,
                          std::size_t jobIndex);

    unsigned workers() const { return fleet_.workers(); }
    /** Host-order observability from the last run() (informational). */
    std::uint64_t steals() const { return fleet_.steals(); }
    const std::vector<std::uint64_t> &jobsPerWorker() const
    {
        return fleet_.jobsPerWorker();
    }

    /** Fold the per-job latency histograms in job-index order: the
     *  fleet-wide distribution, deterministic like its inputs. */
    static sim::Histogram
    mergedLatency(const std::vector<FleetJobResult> &results);

  private:
    FleetConfig cfg_;
    sim::Fleet fleet_;
    std::vector<std::unique_ptr<ttda::Machine>> replicas_;
};

/** One von Neumann fleet job: a request list for a fresh machine. */
struct VnFleetJob
{
    std::vector<workloads::VnRequest> requests; //!< arrival-sorted
};

/** A von Neumann epoch's deterministic result. */
struct VnFleetJobResult
{
    sim::Cycle cycles = 0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    sim::Histogram latency{16.0, 4096}; //!< VnServeDriver::latency
};

/**
 * The von Neumann tier's fleet: same engine, fresh machine per job
 * (vn::VnMachine has no warm-reset path — the contrast is part of the
 * experiment: the dataflow tier's reset() is what makes warm replica
 * reuse cheap).
 */
class VnFleet
{
  public:
    VnFleet(const vn::VnMachineConfig &machine,
            const FleetConfig &cfg = {});

    std::vector<VnFleetJobResult>
    run(const std::vector<VnFleetJob> &jobs);

    /** Serve one job on a fresh machine. Safe to call from any number
     *  of threads at once. */
    VnFleetJobResult runOne(const VnFleetJob &job) const;

    unsigned workers() const { return fleet_.workers(); }
    std::uint64_t steals() const { return fleet_.steals(); }

  private:
    FleetConfig cfg_;
    sim::Fleet fleet_;
    vn::VnMachineConfig machineCfg_;
};

} // namespace serve

#endif // TTDA_SERVE_FLEET_HH
