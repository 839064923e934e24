/**
 * @file
 * Workload machine_sweep: single-thread in-process Machine::run and
 * VnMachine::run on the bench_core configurations, with a bare network
 * and no `threads` knob. No socket, JSON, fleet or ReliableNet is on
 * the path, so this is where WM matching, ALU fire, network routing,
 * I-structures and skip-ahead show.
 *
 * A sweep compiles the two ID programs, constructs one machine per
 * config (the set-up sample), then runs them in a seeded order. The
 * simulated cycles and work items of every config are pinned: they
 * must equal the bench_core values whatever the host does.
 */

#include <algorithm>
#include <memory>
#include <sstream>

#include "bench.hh"
#include "common/json.hh"
#include "id/codegen.hh"
#include "spans.hh"
#include "ttda/machine.hh"
#include "vn/machine.hh"
#include "workloads/vn_programs.hh"

namespace pb
{

namespace
{

/** The E1 workload: 24 row pipelines over an I-structure array;
 *  main(n) = sum of 2k for k < n*n. */
const char *const kRowPipeline = R"(
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
)";

/** Serial chain: a fresh one-word I-structure per iteration, stored
 *  and fetched back through the loop-carried s; main(n) = n. */
const char *const kSerialChain = R"(
    def main(n) =
      (initial s <- 0
       for j from 0 to n - 1 do
         new s <- store(array(1), 0, s + 1)[0]
       return s);
)";

struct Config
{
    const char *name;
    bool vn;
    sim::Cycle netLatency;
    std::uint32_t pes;      //!< ttda PEs
    bool serial;            //!< ttda: serial chain instead of E1
    std::uint32_t contexts; //!< vn contexts per core
    std::uint64_t cycles;   //!< pinned simulated cycles
    std::uint64_t items;    //!< pinned fires / instructions
};

const Config kConfigs[] = {
    {"ttda_net2", false, 2, 4, false, 0, 11541, 29954},
    {"ttda_net64", false, 64, 4, false, 0, 16580, 29954},
    {"ttda_net256", false, 256, 4, false, 0, 56528, 29954},
    {"ttda_pe64_net64", false, 64, 64, false, 0, 16993, 29954},
    {"ttda_serial_net256", false, 256, 4, true, 0, 554514, 7620},
    {"vn_blocking_net64", true, 64, 0, false, 1, 264004, 32000},
    {"vn_blocking_net256", true, 256, 0, false, 1, 1032004, 32000},
    {"vn_k8_net64", true, 64, 0, false, 8, 264032, 256000},
};
constexpr std::size_t kNumConfigs = std::size(kConfigs);
constexpr std::int64_t kRows = 24;
constexpr std::int64_t kChain = 400;

std::unique_ptr<vn::VnMachine>
makeVn(const Config &c)
{
    vn::VnMachineConfig cfg;
    cfg.numCores = 4;
    cfg.topology = vn::VnMachineConfig::Topology::Ideal;
    cfg.netLatency = c.netLatency;
    cfg.core.numContexts = c.contexts;
    cfg.wordsPerModule = 4096;
    std::unique_ptr<vn::VnMachine> m;
    {
        Span s("vn", "VnMachine::VnMachine");
        m = std::make_unique<vn::VnMachine>(cfg);
    }
    for (std::uint32_t core = 0; core < cfg.numCores; ++core) {
        workloads::TraceConfig tc;
        tc.coreId = core;
        tc.numCores = cfg.numCores;
        tc.wordsPerModule = cfg.wordsPerModule;
        tc.references = 2000;
        tc.computePerRef = 3;
        tc.remoteFraction = 1.0;
        tc.seed = 7;
        m->core(core).attachTrace(workloads::makeUniformTrace(tc));
    }
    return m;
}

/** Machines for one sweep, built from freshly compiled programs. */
struct Sweep
{
    std::unique_ptr<id::Compiled> rows, chain;
    std::vector<std::unique_ptr<ttda::Machine>> ttda; //!< by config
    std::vector<std::unique_ptr<vn::VnMachine>> vn;   //!< by config
    double compileMs = 0, ttdaConstructMs = 0;
};

Sweep
setUp()
{
    Sweep s;
    std::uint64_t t0 = nowNs();
    {
        Span sp("id", "id::compile");
        s.rows = std::make_unique<id::Compiled>(id::compile(kRowPipeline));
        s.chain =
            std::make_unique<id::Compiled>(id::compile(kSerialChain));
    }
    s.compileMs = static_cast<double>(nowNs() - t0) / 1e6;
    s.ttda.resize(kNumConfigs);
    s.vn.resize(kNumConfigs);
    for (std::size_t i = 0; i < kNumConfigs; ++i) {
        const Config &c = kConfigs[i];
        if (c.vn) {
            s.vn[i] = makeVn(c);
            continue;
        }
        ttda::MachineConfig cfg;
        cfg.numPEs = c.pes;
        cfg.netLatency = c.netLatency;
        const id::Compiled &prog = c.serial ? *s.chain : *s.rows;
        t0 = nowNs();
        {
            Span sp("ttda", "Machine::Machine");
            s.ttda[i] = std::make_unique<ttda::Machine>(prog.program, cfg);
        }
        s.ttdaConstructMs += static_cast<double>(nowNs() - t0) / 1e6;
        s.ttda[i]->input(prog.startCb, 0,
                         graph::Value{c.serial ? kChain : kRows});
    }
    return s;
}

} // namespace

Report
runMachineSweep(const Options &opt)
{
    Report rep;
    std::uint64_t order = opt.seed * 0x9e3779b97f4a7c15ULL + 1;
    std::vector<std::size_t> idx(kNumConfigs);
    for (std::size_t i = 0; i < kNumConfigs; ++i)
        idx[i] = i;

    std::vector<double> compile, construct;
    RunTimes times;
    KindTimes kinds;
    std::vector<std::vector<double>> runMs(kNumConfigs);
    std::uint64_t attempted = 0, failed = 0;
    bool counted = false;
    std::uint64_t perSweepItems = 0, perSweepCycles = 0;
    for (const Config &c : kConfigs) {
        perSweepItems += c.items;
        perSweepCycles += c.cycles;
    }
    // The ttda runs reuse one warm machine per config through reset(),
    // as a serving replica does: runs on fresh machines swung 5x more
    // from run to run (NOTES.md). Each sweep still builds a fresh set,
    // for the set-up time and the vn runs (VnMachine has no reset).
    const Sweep warm = setUp();
    const double t0 = nowSec();
    while (kinds.setupSec.empty() || nowSec() - t0 < opt.seconds) {
        const double s0 = nowSec();
        Sweep sw = setUp();
        kinds.setupSec.push_back(nowSec() - s0);
        compile.push_back(sw.compileMs);
        construct.push_back(sw.ttdaConstructMs);

        // Seeded Fisher-Yates: the run order differs per seed and
        // per sweep, the configs and their inputs never do.
        for (std::size_t i = kNumConfigs - 1; i > 0; --i) {
            order = order * 6364136223846793005ULL + 1442695040888963407ULL;
            std::swap(idx[i], idx[(order >> 33) % (i + 1)]);
        }
        for (const std::size_t i : idx) {
            const Config &c = kConfigs[i];
            ++attempted;
            std::uint64_t gotCycles = 0, gotItems = 0;
            bool valueOk = true;
            if (!c.vn) {
                warm.ttda[i]->reset();
                warm.ttda[i]->input(
                    c.serial ? warm.chain->startCb : warm.rows->startCb, 0,
                    graph::Value{c.serial ? kChain : kRows});
            }
            const std::uint64_t r0 = nowNs();
            if (c.vn) {
                vn::VnMachine &m = *sw.vn[i];
                {
                    Span s("vn", "VnMachine::run");
                    m.run();
                }
                const double ms = static_cast<double>(nowNs() - r0) / 1e6;
                runMs[i].push_back(ms);
                gotCycles = m.cycles();
                for (std::uint32_t k = 0; k < m.numCores(); ++k)
                    gotItems += m.core(k).stats().instructions.value();
            } else {
                ttda::Machine &m = *warm.ttda[i];
                std::vector<ttda::OutputRecord> out;
                {
                    Span s("ttda", "Machine::run");
                    out = m.run();
                }
                const double ms = static_cast<double>(nowNs() - r0) / 1e6;
                runMs[i].push_back(ms);
                gotCycles = m.cycles();
                gotItems = m.totalFired();
                const std::int64_t want =
                    c.serial ? kChain : kRows * kRows * (kRows * kRows - 1);
                valueOk = out.size() == 1 && out[0].value.isInt() &&
                          out[0].value.asInt() == want && !m.deadlocked();
                if (!counted) {
                    // Exact counts, once: the same every sweep.
                    std::ostringstream os;
                    m.dumpStatsJson(os);
                    const auto st = sim::json::parse(os.str()).get("machine");
                    const auto add = [&](const char *metric,
                                         const char *key) {
                        rep.layers[metric].unit = "count";
                        rep.layers[metric].value +=
                            st.get(key).asDouble();
                    };
                    add("ttda.activities", "activities");
                    add("ttda.contexts_created", "contextsCreated");
                    add("ttda.sim_cycles", "cycles");
                    add("mem.is_fetches", "isFetches");
                    add("mem.is_fetches_deferred", "isFetchesDeferred");
                    add("mem.is_stores", "isStores");
                }
            }
            kinds.add(c.name, runMs[i].back());
            if (gotCycles != c.cycles || gotItems != c.items || !valueOk) {
                ++failed;
                rep.mismatch(std::string(c.name) + ": " +
                             std::to_string(gotCycles) + " cycles / " +
                             std::to_string(gotItems) +
                             " work items (pinned " +
                             std::to_string(c.cycles) + " / " +
                             std::to_string(c.items) + ")" +
                             (valueOk ? "" : ", wrong output"));
            }
        }
        counted = true;
    }

    rep.attempted = attempted;
    rep.failed = failed;
    // Every sweep does the same work: the pinned totals (a sweep whose
    // counts differed has already failed the run).
    times.jobs = kNumConfigs;
    times.contexts = kNumConfigs; // one program evaluation per run
    times.workItems = static_cast<double>(perSweepItems);
    kinds.fill(times);
    setTimeMetrics(rep, times);
    const double cycleRate =
        static_cast<double>(perSweepCycles) / times.unitSec;
    rep.set("peak_rss_mb", selfPeakRssMb(), "MB");
    rep.note("sim_cycles_per_s", cycleRate, "1/s");
    rep.note("sweeps", static_cast<double>(kinds.setupSec.size()), "count");

    for (std::size_t i = 0; i < kNumConfigs; ++i) {
        const Config &c = kConfigs[i];
        const std::string name = c.name;
        // "ttda_net64" -> "ttda.run_ms.net64"; "vn_k8_net64" ->
        // "vn.run_ms.k8_net64".
        const std::size_t us = name.find('_');
        rep.layer(name.substr(0, us) + ".run_ms." + name.substr(us + 1),
                  quantile(runMs[i], kFloorQuantile), "ms");
    }
    rep.layer("ttda.construct_ms", median(construct), "ms");
    rep.layer("id.compile_ms", median(compile), "ms");
    rep.layer("sim_cycles_per_s.machine_sweep", cycleRate, "1/s");
    return rep;
}

} // namespace pb
