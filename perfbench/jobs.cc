#include "jobs.hh"

#include <cstdio>

#include "workloads/arrivals.hh"
#include "workloads/dfg_programs.hh"
#include "workloads/vn_serve.hh"

namespace pb
{

namespace
{

/** SplitMix64: a fixed generator, so a seed means the same inputs on
 *  every host and standard library. */
struct Rng
{
    std::uint64_t s;
    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /** Uniform in [lo, hi]. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + next() % (hi - lo + 1);
    }
};

/** A double as a JSON token the daemon parses back as a real. */
std::string
realToken(double d)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    std::string s = buf;
    if (s.find_first_of(".eE") == std::string::npos)
        s += ".0";
    return s;
}

std::string
argToken(const graph::Value &v)
{
    return v.isReal() ? realToken(v.asReal())
                      : std::to_string(v.asInt());
}

} // namespace

std::string
Job::submitLine() const
{
    std::string s = "{\"op\":\"submit\",\"tier\":\"";
    s += vn ? "vn\"" : "ttda\",\"workload\":\"" + workload + "\"";
    if (!vn) {
        s += ",\"args\":[";
        for (std::size_t i = 0; i < args.size(); ++i)
            s += (i ? "," : "") + argToken(args[i]);
        s += "]";
    }
    s += ",\"requests\":" + std::to_string(requests);
    s += ",\"seed\":" + std::to_string(arrivalSeed);
    s += ",\"arrival\":{\"kind\":\"poisson\",\"meanGap\":" +
         realToken(meanGap) + "}";
    if (dropRate > 0.0)
        s += ",\"faults\":{\"dropRate\":" + realToken(dropRate) +
             ",\"seed\":" + std::to_string(faultSeed) + "}";
    if (vn)
        s += ",\"loads\":" + std::to_string(loads) +
             ",\"computePerLoad\":" + std::to_string(computePerLoad) +
             ",\"stride\":" + std::to_string(stride);
    return s + "}\n";
}

double
Job::expected() const
{
    if (workload == "trapezoid")
        return workloads::trapezoidReference(
            args[0].asReal(), args[1].asReal(), args[2].asInt());
    const std::int64_t n = args[0].asInt();
    if (workload == "fib") {
        std::int64_t a = 0, b = 1;
        for (std::int64_t i = 0; i < n; ++i) {
            const std::int64_t t = a + b;
            a = b;
            b = t;
        }
        return static_cast<double>(a);
    }
    if (workload == "producer-consumer")
        return static_cast<double>(n * (n - 1));
    return static_cast<double>(n * (n - 1) / 2); // vector-sum
}

std::vector<std::vector<Job>>
makeJobLists(std::uint64_t seed, int perConn)
{
    // Every connection works through a seeded permutation of the same
    // job shapes, so the work in a round is the same for every seed;
    // the seed sets the order, arrivals, fault streams and trapezoid
    // bounds. Shapes: 20% vn; the rest split evenly over the four ttda
    // workloads, at four sizes and two request counts; one shape in
    // ten drops packets (ReliableNet retransmits them).
    static const char *const kTtda[] = {"fib", "trapezoid",
                                        "producer-consumer",
                                        "vector-sum"};
    static const std::uint64_t kRequests[] = {4, 12};
    std::vector<Job> shapes;
    const int vnShapes = perConn / 5;
    for (int i = 0; static_cast<int>(shapes.size()) < perConn; ++i) {
        Job j;
        if (i < vnShapes) {
            j.vn = true;
            j.requests = kRequests[(i / 4) % 2];
            j.loads = static_cast<std::uint32_t>(2 + 2 * (i % 4));
            j.computePerLoad = 8;
        } else {
            const int t = i - vnShapes;
            const std::int64_t size = (t / 8) % 4;
            j.workload = kTtda[t % 4];
            j.requests = kRequests[(t / 4) % 2];
            if (j.workload == "fib")
                j.args = {graph::Value{6 + size}};
            else if (j.workload == "trapezoid")
                j.args = {graph::Value{0.0}, graph::Value{1.0},
                          graph::Value{12 + 12 * size}};
            else
                j.args = {graph::Value{12 + 12 * size}};
            if (t % 9 == 3)
                j.dropRate = 0.01;
        }
        shapes.push_back(std::move(j));
    }

    Rng rng{seed * 0x2545f4914f6cdd1dULL + 11};
    std::vector<std::vector<Job>> lists(kSubmitConns);
    for (auto &list : lists) {
        list = shapes;
        for (std::size_t i = list.size() - 1; i > 0; --i)
            std::swap(list[i], list[rng.range(0, i)]);
        for (Job &j : list) {
            j.meanGap = static_cast<double>(rng.range(32, 128));
            j.arrivalSeed = rng.range(1, 1u << 30);
            if (j.vn)
                j.stride = rng.range(1, 8);
            if (j.dropRate > 0.0)
                j.faultSeed = rng.range(1, 1u << 30);
            if (j.workload == "trapezoid") {
                j.args[0] = graph::Value{
                    0.25 * static_cast<double>(rng.range(0, 8))};
                j.args[1] = graph::Value{
                    4.0 + 0.5 * static_cast<double>(rng.range(0, 8))};
            }
        }
    }
    return lists;
}

DaemonModel::DaemonModel()
{
    // Same build order as srv::Daemon, so the code-block ids (which
    // appear in outputs and stats) agree.
    cbs["trapezoid"] = workloads::buildTrapezoid(program);
    cbs["producer-consumer"] = workloads::buildProducerConsumer(program);
    cbs["fib"] = workloads::buildFib(program);
    cbs["vector-sum"] = workloads::buildVectorSum(program);
    // ttda_simd's defaults plus the flags the benchmark passes.
    machine.numPEs = kDaemonPes;
    machine.threads = 1;
    machine.latencyStats = true;
    machine.reliableNet = true;
    fleet.workers = 1;
    fleet.captureStatsJson = true;
}

serve::FleetJob
DaemonModel::fleetJob(const Job &job) const
{
    serve::FleetJob fj;
    fj.cb = cbs.at(job.workload);
    if (job.dropRate > 0.0) {
        fj.faults.dropRate = job.dropRate;
        fj.faults.seed = job.faultSeed;
    }
    workloads::ArrivalConfig ac;
    ac.meanGap = job.meanGap;
    ac.seed = job.arrivalSeed;
    for (const sim::Cycle at : workloads::arrivalSchedule(
             ac, static_cast<std::size_t>(job.requests)))
        fj.requests.push_back({job.args, at});
    return fj;
}

serve::VnFleetJob
DaemonModel::vnFleetJob(const Job &job) const
{
    serve::VnFleetJob vj;
    workloads::ArrivalConfig ac;
    ac.meanGap = job.meanGap;
    ac.seed = job.arrivalSeed;
    const auto arrivals = workloads::arrivalSchedule(
        ac, static_cast<std::size_t>(job.requests));
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        workloads::VnRequest r;
        r.arrival = arrivals[i];
        r.loads = job.loads;
        r.computePerLoad = job.computePerLoad;
        r.addr = i * job.stride;
        r.stride = job.stride;
        r.addrSpace = vnMachine.wordsPerModule * vnMachine.numCores;
        vj.requests.push_back(r);
    }
    return vj;
}

} // namespace pb
