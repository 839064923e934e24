/**
 * @file
 * Shared types for the perfbench binary: options, the report each
 * workload fills, and small statistics helpers.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string daemonPath; //!< the ttda_simd binary
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one workload pass measured. */
struct Report
{
    /** The headline metrics of the pass (the end-to-end set). */
    std::map<std::string, Metric> metrics;
    /** Per-layer metrics (filled by traced passes and probes). */
    std::map<std::string, Metric> layers;
    /** Printed for the reader only: metrics that do not apply to
     *  every workload, sample counts, host facts. */
    std::map<std::string, Metric> info;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> mismatches;

    void
    set(const std::string &name, double v, const std::string &unit)
    {
        metrics[name] = {v, unit};
    }
    void
    layer(const std::string &name, double v, const std::string &unit)
    {
        layers[name] = {v, unit};
    }
    void
    note(const std::string &name, double v, const std::string &unit)
    {
        info[name] = {v, unit};
    }
    /** Record a correctness failure; any one fails the run. */
    void mismatch(const std::string &what);
};

/** Linear-interpolated quantile, q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}
double mean(const std::vector<double> &v);

/** The time figures of one run, for setTimeMetrics. */
struct RunTimes
{
    double unitSec = 0;           //!< wall s per unit (round or sweep)
    double p50Ms = 0, p95Ms = 0;  //!< job latency
    double samples = 0;           //!< job latencies measured
    double setupSec = 0;          //!< wall s of one set-up
    double jobs = 0, contexts = 0, workItems = 0; //!< per unit
};

/** The quantile of a job kind's times that KindTimes takes. */
inline constexpr double kFloorQuantile = 0.1;

/**
 * Job times of an in-process workload, by job kind (a machine config,
 * an emulator tier on one kind of input). Every sweep runs each kind
 * once on the same inputs, so a kind's times within one run differ
 * only by the host's interference, which on a shared host comes in
 * phases of seconds that slow a core by up to 2x. Which share of a run
 * those phases cover decides its median, so a kind's time is taken
 * as its kFloorQuantile quantile over the run's sweeps instead: its
 * cost when least disturbed, less at the mercy of one lucky sample
 * than the minimum (NOTES.md has the measured spreads). Each sweep
 * also repeats the same set-up, which is taken the same way.
 */
struct KindTimes
{
    std::map<std::string, std::vector<double>> byKind; //!< wall ms
    std::vector<double> setupSec; //!< wall s, one per sweep

    void add(const std::string &kind, double ms) { byKind[kind].push_back(ms); }
    /** Set t's unitSec (the kind times summed: a sweep runs each kind
     *  once), p50Ms and p95Ms (over the kind times), samples and
     *  setupSec. */
    void fill(RunTimes &t) const;
};

/** Set the end-to-end time metrics (jobs_per_s, job_p50_ms,
 *  job_p95_ms, contexts_per_s, work_items_per_s, setup_s). */
void setTimeMetrics(Report &rep, const RunTimes &t);

/** This process's peak resident set, MiB. */
double selfPeakRssMb();

/** Seconds on a monotonic clock. */
double nowSec();

// ---- workloads (each runs for about opt.seconds) -------------------

/** Closed-loop jobs against a ttda_simd child over loopback. */
Report runDaemonMixed(const Options &opt);
/** In-process Machine / VnMachine runs on the bench_core configs. */
Report runMachineSweep(const Options &opt);
/** The emul scalar compiled tier and the lane VM. */
Report runEmulLanes(const Options &opt);

/** In-process replays behind the daemon (serve, ttda, net, vn layer
 *  numbers); fills report.layers. */
void runDaemonProbes(const Options &opt, Report &report);

} // namespace pb

#endif // PERFBENCH_BENCH_HH
