/**
 * @file
 * perfbench: runs one benchmark workload and prints its metrics.
 *
 *   perfbench --workload daemon_mixed|machine_sweep|emul_lanes
 *                    --seed N --seconds S --trace 0|1
 *                    --daemon path/to/ttda_simd [--commit ID]
 *
 * Untraced (--trace 0): the workload runs for S seconds with spans off
 * and the end-to-end metrics are reported.
 *
 * Traced (--trace 1): the workload runs S/2 seconds untraced and S/2
 * seconds traced (the difference is the tracing overhead), the other
 * two workloads run one brief traced pass each, and the in-process
 * daemon replays run traced; the per-layer metrics are reported,
 * including span counts, total and self time per layer.
 *
 * Human-readable lines go first; the last line of stdout is one JSON
 * object {"correct", "attempted", "failed", "metrics"}. Any output
 * mismatch makes "correct" false and the exit status 1.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench.hh"
#include "common/json.hh"
#include "spans.hh"

namespace pb
{

void
Report::mismatch(const std::string &what)
{
    if (mismatches.size() < 20)
        mismatches.push_back(what);
    else if (mismatches.size() == 20)
        mismatches.push_back("... further mismatches not shown");
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    if (i + 1 >= v.size())
        return v.back();
    return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (const double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void
KindTimes::fill(RunTimes &t) const
{
    std::vector<double> kindMs;
    t.samples = 0;
    for (const auto &[kind, v] : byKind) {
        kindMs.push_back(quantile(v, kFloorQuantile));
        t.samples += static_cast<double>(v.size());
    }
    double ms = 0;
    for (const double x : kindMs)
        ms += x;
    t.unitSec = ms / 1e3;
    t.p50Ms = quantile(kindMs, 0.5);
    t.p95Ms = quantile(kindMs, 0.95);
    t.setupSec = quantile(setupSec, kFloorQuantile);
}

void
setTimeMetrics(Report &rep, const RunTimes &t)
{
    rep.set("jobs_per_s", t.jobs / t.unitSec, "1/s");
    rep.set("job_p50_ms", t.p50Ms, "ms");
    rep.set("job_p95_ms", t.p95Ms, "ms");
    rep.set("contexts_per_s", t.contexts / t.unitSec, "1/s");
    rep.set("work_items_per_s", t.workItems / t.unitSec, "1/s");
    rep.set("setup_s", t.setupSec, "s");
    rep.note("job_latency_samples", t.samples, "count");
}

double
selfPeakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace pb

namespace
{

using pb::Options;
using pb::Report;

const char *const kWorkloads[] = {"daemon_mixed", "machine_sweep",
                                  "emul_lanes"};

Report
runWorkload(const std::string &name, const Options &opt)
{
    if (name == "daemon_mixed")
        return pb::runDaemonMixed(opt);
    if (name == "machine_sweep")
        return pb::runMachineSweep(opt);
    return pb::runEmulLanes(opt);
}

/** Take `from`'s mismatches, and its per-layer metrics that `into`
 *  does not have yet. */
void
absorb(Report &into, const Report &from)
{
    into.layers.insert(from.layers.begin(), from.layers.end());
    for (const auto &m : from.mismatches)
        into.mismatch(m);
}

std::string
loadAvg()
{
    std::ifstream is("/proc/loadavg");
    std::string a, b, c;
    is >> a >> b >> c;
    return a + " " + b + " " + c;
}

sim::json::Value
metricsJson(const std::map<std::string, pb::Metric> &m)
{
    auto obj = sim::json::Value::obj();
    for (const auto &[name, metric] : m) {
        auto e = sim::json::Value::obj();
        e.set("value", sim::json::Value::num(metric.value));
        e.set("unit", sim::json::Value::str(metric.unit));
        obj.set(name, std::move(e));
    }
    return obj;
}

void
printLines(const std::string &workload,
           const std::map<std::string, pb::Metric> &m)
{
    for (const auto &[name, metric] : m)
        std::printf("%s %-34s %.6g %s\n", workload.c_str(), name.c_str(),
                    metric.value, metric.unit.c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --daemon PATH [--commit ID]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string commit = "unknown";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            opt.workload = v;
        else if (k == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            opt.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            opt.trace = v == "1";
        else if (k == "--daemon")
            opt.daemonPath = v;
        else if (k == "--commit")
            commit = v;
        else
            return usage();
    }
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  opt.workload) == std::end(kWorkloads) ||
        opt.daemonPath.empty() || !(opt.seconds > 0))
        return usage();

    auto host = sim::json::Value::obj();
    host.set("nproc", sim::json::Value::intNum(static_cast<std::uint64_t>(
                          ::sysconf(_SC_NPROCESSORS_ONLN))));
    host.set("loadavg_start", sim::json::Value::str(loadAvg()));
    host.set("compiler", sim::json::Value::str(PERFBENCH_COMPILER));
    host.set("build_type", sim::json::Value::str(PERFBENCH_BUILD_TYPE));
    host.set("commit", sim::json::Value::str(commit));
    host.set("workload", sim::json::Value::str(opt.workload));
    host.set("seed", sim::json::Value::intNum(opt.seed));
    host.set("seconds", sim::json::Value::num(opt.seconds));
    host.set("trace", sim::json::Value::boolean(opt.trace));
    host.set("client_connections",
             sim::json::Value::intNum(opt.workload == "daemon_mixed" ? 4
                                                                      : 0));

    Report out;
    try {
        if (!opt.trace) {
            out = runWorkload(opt.workload, opt);
            const double attempted =
                static_cast<double>(std::max<std::uint64_t>(out.attempted, 1));
            out.note("error_rate",
                     static_cast<double>(out.failed) / attempted, "ratio");
            printLines(opt.workload, out.metrics);
            printLines(opt.workload, out.info);
        } else {
            Options half = opt;
            half.seconds = opt.seconds / 2;
            const Report base = runWorkload(opt.workload, half);
            pb::trace::enable(true);
            out = runWorkload(opt.workload, half);
            absorb(out, base);
            Options brief = opt;
            brief.seconds = 1e-9; // one round / one sweep
            for (const char *w : kWorkloads)
                if (opt.workload != w)
                    absorb(out, runWorkload(w, brief));
            pb::runDaemonProbes(opt, out);
            pb::trace::enable(false);

            const auto summary = pb::summarize(pb::trace::collect());
            for (const char *layer :
                 {"daemon", "serve", "ttda", "vn", "emul", "id"}) {
                const auto it = summary.find(layer);
                const pb::LayerSummary s =
                    it == summary.end() ? pb::LayerSummary{} : it->second;
                const std::string L = layer;
                out.layer(L + ".spans", static_cast<double>(s.spans),
                          "count");
                out.layer(L + ".total_ms", s.totalMs, "ms");
                out.layer(L + ".self_ms", s.selfMs, "ms");
            }
            const double untraced = base.metrics.at("jobs_per_s").value;
            const double traced = out.metrics.at("jobs_per_s").value;
            out.layer("trace.overhead_pct",
                      100.0 * (untraced - traced) / untraced, "%");
            printLines(opt.workload, out.layers);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }

    host.set("loadavg_end", sim::json::Value::str(loadAvg()));
    std::printf("host %s\n", host.dump().c_str());
    for (const auto &m : out.mismatches)
        std::printf("MISMATCH %s\n", m.c_str());

    auto result = sim::json::Value::obj();
    result.set("correct", sim::json::Value::boolean(out.mismatches.empty()));
    result.set("attempted", sim::json::Value::intNum(out.attempted));
    result.set("failed", sim::json::Value::intNum(out.failed));
    result.set("metrics",
               metricsJson(opt.trace ? out.layers : out.metrics));
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return out.mismatches.empty() ? 0 : 1;
}
