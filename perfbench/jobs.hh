/**
 * @file
 * The daemon_mixed job list: generated from the seed, submitted to
 * ttda_simd over the socket, and replayed in-process through the same
 * fleets the daemon uses (the correctness oracle and the serve / ttda
 * / net / vn layer probes).
 */

#ifndef PERFBENCH_JOBS_HH
#define PERFBENCH_JOBS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/program.hh"
#include "graph/value.hh"
#include "serve/fleet.hh"
#include "ttda/machine.hh"
#include "vn/machine.hh"

namespace pb
{

/** The daemon's command line; DaemonModel mirrors it in-process. */
inline constexpr unsigned kDaemonWorkers = 2;
inline constexpr std::uint32_t kDaemonPes = 8;
/** Submitting connections; one more holds the watch. */
inline constexpr int kSubmitConns = 3;
/** Jobs per submitting connection in one round. */
inline constexpr int kJobsPerConn = 40;

struct Job
{
    bool vn = false;
    std::string workload; //!< ttda tier
    std::vector<graph::Value> args;
    std::uint64_t requests = 1;
    double meanGap = 64.0;
    std::uint64_t arrivalSeed = 1;
    double dropRate = 0.0; //!< > 0 only on ttda jobs
    std::uint64_t faultSeed = 0;
    std::uint32_t loads = 4; //!< vn tier request shape
    std::uint32_t computePerLoad = 8;
    std::uint64_t stride = 1;

    /** The newline-terminated submit request. */
    std::string submitLine() const;
    /** Closed-form output of every request of a ttda job. */
    double expected() const;
};

/** kSubmitConns lists of `perConn` jobs each, from `seed`. */
std::vector<std::vector<Job>> makeJobLists(std::uint64_t seed,
                                           int perConn);

/** The deterministic result fields the daemon reports per job. */
struct Expected
{
    std::uint64_t cycles = 0;
    std::string statsJson; //!< ttda tier only
    std::uint64_t workItems = 0; //!< activities / vn instructions
};

/** Machine configuration and program the daemon serves with. */
struct DaemonModel
{
    DaemonModel();
    graph::Program program;
    std::map<std::string, std::uint16_t> cbs;
    ttda::MachineConfig machine;
    vn::VnMachineConfig vnMachine;
    serve::FleetConfig fleet; //!< workers = 1

    serve::FleetJob fleetJob(const Job &job) const;
    serve::VnFleetJob vnFleetJob(const Job &job) const;
};

} // namespace pb

#endif // PERFBENCH_JOBS_HH
