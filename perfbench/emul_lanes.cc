/**
 * @file
 * Workload emul_lanes: the emul scalar compiled tier and the lane VM
 * at batches 16, 64 and 256 over trapezoid, rowsum and matmul. Half
 * the batches give every lane the same input; the other half give each
 * lane its own seeded trip count, so lanes diverge and the masked
 * paths run. The cycle-level machine is never touched.
 *
 * Every lane's result must be bit-equal to the scalar compiled tier
 * and to ttda::Emulator on the same input (computed once per run).
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "bench.hh"
#include "emul/compile.hh"
#include "emul/vm.hh"
#include "id/codegen.hh"
#include "spans.hh"
#include "ttda/emulator.hh"
#include "workloads/id_sources.hh"
#include "workloads/rowsum.hh"

namespace pb
{

namespace
{

constexpr std::size_t kBatches[] = {16, 64, 256};
constexpr std::size_t kScalarContexts = 16; //!< per compiled-tier job
constexpr std::size_t kChoices = 8; //!< distinct inputs per program

struct Program
{
    const char *name;
    std::string source;
    std::uint16_t param; //!< the parameter lanes vary
    std::uint64_t lo, hi; //!< its range
};

const std::vector<Program> &
programs()
{
    static const std::vector<Program> p = {
        {"trapezoid", workloads::src::trapezoid, 2, 64, 256},
        {"rowsum", workloads::rowSumIdSource(), 0, 6, 16},
        {"matmul", workloads::src::matmul, 0, 3, 8},
    };
    return p;
}

/** What one input must produce, from both reference tiers. */
struct Reference
{
    std::vector<graph::Value> outputs;
    std::uint64_t fired = 0;
    std::uint64_t executed = 0; //!< scalar threaded-code instructions
};

/** One program's inputs for the whole run, all from the seed. */
struct Inputs
{
    std::vector<graph::Value> base; //!< uniforms; `param` overwritten
    std::vector<graph::Value> choices;
    std::size_t uniformChoice = 0;
    /** Per batch size: the lane -> choice map of the divergent batch
     *  (its first kScalarContexts lanes feed the compiled tier). */
    std::map<std::size_t, std::vector<std::size_t>> divergent;
    std::vector<Reference> refs; //!< by choice
};

struct Rng
{
    std::uint64_t s;
    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
    }
};

Inputs
makeInputs(const Program &p, Rng &rng)
{
    // The trip counts are spread evenly over the program's range and
    // every divergent batch uses each of them equally often, so the
    // work per sweep is the same for every seed; the seed sets which
    // lane gets which count (and the trapezoid's upper bound).
    Inputs in;
    if (std::string(p.name) == "trapezoid")
        in.base = {graph::Value{0.0},
                   graph::Value{1.0 + static_cast<double>(rng.next() % 4)},
                   graph::Value{std::int64_t{0}}};
    else
        in.base = {graph::Value{std::int64_t{0}}};
    for (std::size_t k = 0; k < kChoices; ++k)
        in.choices.push_back(graph::Value{static_cast<std::int64_t>(
            p.lo + (p.hi - p.lo) * k / (kChoices - 1))});
    in.uniformChoice = kChoices / 2;
    for (const std::size_t b : kBatches) {
        auto &lanes = in.divergent[b];
        for (std::size_t l = 0; l < b; ++l)
            lanes.push_back(l % kChoices);
        for (std::size_t l = b - 1; l > 0; --l)
            std::swap(lanes[l], lanes[rng.next() % (l + 1)]);
    }
    return in;
}

std::vector<graph::Value>
withChoice(const Inputs &in, std::uint16_t param, std::size_t choice)
{
    std::vector<graph::Value> v = in.base;
    v[param] = in.choices[choice];
    return v;
}

/** Compiled programs for one sweep (the set-up sample). */
struct Compiled
{
    std::vector<id::Compiled> id;
    std::vector<emul::CompiledProgram> emul;
    double emulCompileMs = 0;
};

Compiled
compileAll()
{
    Compiled c;
    for (const Program &p : programs()) {
        Span s("id", "id::compile");
        c.id.push_back(id::compile(p.source));
    }
    const std::uint64_t t0 = nowNs();
    for (const id::Compiled &ic : c.id) {
        Span s("emul", "emul::compile");
        c.emul.push_back(emul::compile(ic.program, ic.startCb));
    }
    c.emulCompileMs = static_cast<double>(nowNs() - t0) / 1e6;
    return c;
}

/** Throughput tally of one (program, tier). */
struct Tally
{
    double contexts = 0, seconds = 0;
};

} // namespace

Report
runEmulLanes(const Options &opt)
{
    Report rep;
    const auto &progs = programs();
    Rng rng{opt.seed * 0x9e3779b97f4a7c15ULL + 5};
    std::vector<Inputs> inputs;
    for (const Program &p : progs)
        inputs.push_back(makeInputs(p, rng));

    // References, once per run: interpreter and scalar compiled tier
    // must agree before either is trusted.
    {
        const Compiled c = compileAll();
        for (std::size_t pi = 0; pi < progs.size(); ++pi) {
            Inputs &in = inputs[pi];
            for (std::size_t k = 0; k < kChoices; ++k) {
                const auto args = withChoice(in, progs[pi].param, k);
                ttda::Emulator interp(c.id[pi].program);
                for (std::size_t a = 0; a < args.size(); ++a)
                    interp.input(c.id[pi].startCb,
                                 static_cast<std::uint16_t>(a), args[a]);
                Reference ref;
                for (const auto &rec : interp.run())
                    ref.outputs.push_back(rec.value);
                ref.fired = interp.stats().fired;
                const auto sr = emul::run(c.emul[pi], args);
                if (sr.deadlocked || sr.outputs != ref.outputs ||
                    sr.fired != ref.fired)
                    rep.mismatch(std::string(progs[pi].name) +
                                 ": compiled tier differs from "
                                 "ttda::Emulator on input " +
                                 in.choices[k].toString());
                ref.executed = sr.executed;
                in.refs.push_back(std::move(ref));
            }
        }
    }

    std::map<std::string, Tally> tiers; // "<program>.<tier>"
    std::vector<double> emulCompile;
    double perSweepJobs = 0, perSweepCtx = 0, perSweepItems = 0;
    RunTimes times;
    KindTimes kinds;
    double useful = 0, offered = 0; // lane slots, divergent batches
    std::uint64_t attempted = 0, failed = 0;
    const double t0 = nowSec();
    while (kinds.setupSec.empty() || nowSec() - t0 < opt.seconds) {
        const double s0 = nowSec();
        const Compiled c = compileAll();
        kinds.setupSec.push_back(nowSec() - s0);
        emulCompile.push_back(c.emulCompileMs);

        double sweepCtx = 0, sweepItems = 0;
        std::size_t sweepJobs = 0;
        const auto job = [&](const std::string &tier, bool diverge,
                             std::size_t ctx,
                             std::uint64_t fired, double sec, bool ok,
                             const std::string &what) {
            kinds.add(tier + (diverge ? ".divergent" : ".uniform"),
                      sec * 1e3);
            ++attempted;
            ++sweepJobs;
            sweepCtx += static_cast<double>(ctx);
            sweepItems += static_cast<double>(fired);
            tiers[tier].contexts += static_cast<double>(ctx);
            tiers[tier].seconds += sec;
            if (!ok) {
                ++failed;
                rep.mismatch(what);
            }
        };

        for (std::size_t pi = 0; pi < progs.size(); ++pi) {
            const Program &p = progs[pi];
            const Inputs &in = inputs[pi];
            const emul::CompiledProgram &prog = c.emul[pi];
            const std::string name = p.name;
            for (const bool diverge : {false, true}) {
                const auto choiceOf = [&](std::size_t b, std::size_t l) {
                    return diverge ? in.divergent.at(b)[l]
                                   : in.uniformChoice;
                };

                // Scalar compiled tier: one context per call.
                bool ok = true;
                std::uint64_t fired = 0;
                std::uint64_t r0 = nowNs();
                for (std::size_t l = 0; l < kScalarContexts; ++l) {
                    const std::size_t k = choiceOf(kBatches[0], l);
                    Span s("emul", "emul::run");
                    const auto r = emul::run(prog, withChoice(in, p.param, k));
                    ok = ok && r.outputs == in.refs[k].outputs;
                    fired += r.fired;
                }
                job(name + ".compiled", diverge, kScalarContexts, fired,
                    static_cast<double>(nowNs() - r0) / 1e9, ok,
                    name + ": compiled tier output differs");

                // Lane VM.
                for (const std::size_t b : kBatches) {
                    std::vector<emul::VaryingInput> varying;
                    std::vector<graph::Value> uniforms =
                        withChoice(in, p.param, in.uniformChoice);
                    std::uint64_t wantFired = 0;
                    double wantExec = 0;
                    if (diverge) {
                        emul::VaryingInput v;
                        v.param = p.param;
                        for (std::size_t l = 0; l < b; ++l)
                            v.values.push_back(in.choices[choiceOf(b, l)]);
                        varying.push_back(std::move(v));
                    }
                    for (std::size_t l = 0; l < b; ++l) {
                        wantFired += in.refs[choiceOf(b, l)].fired;
                        wantExec += static_cast<double>(
                            in.refs[choiceOf(b, l)].executed);
                    }
                    r0 = nowNs();
                    std::optional<emul::BatchResult> br;
                    {
                        Span s("emul", "CompiledProgram::execute");
                        br.emplace(prog.execute(b, uniforms, varying));
                    }
                    const double sec =
                        static_cast<double>(nowNs() - r0) / 1e9;
                    ok = br->outputs.size() == b && br->fired == wantFired;
                    for (std::size_t l = 0; ok && l < b; ++l)
                        ok = br->outputs[l] ==
                             in.refs[choiceOf(b, l)].outputs;
                    if (diverge) {
                        useful += wantExec;
                        offered += static_cast<double>(b) *
                                   static_cast<double>(br->executed);
                    }
                    job(name + ".b" + std::to_string(b), diverge, b,
                        br->fired, sec,
                        ok,
                        name + ": lane VM b" + std::to_string(b) +
                            (diverge ? " (divergent)" : " (uniform)") +
                            " differs from the reference tiers");
                }
            }
        }
        // Every sweep does the same work (checked above lane by lane).
        perSweepJobs = static_cast<double>(sweepJobs);
        perSweepCtx = sweepCtx;
        perSweepItems = sweepItems;
    }

    rep.attempted = attempted;
    rep.failed = failed;
    times.jobs = perSweepJobs;
    times.contexts = perSweepCtx;
    times.workItems = perSweepItems;
    kinds.fill(times);
    setTimeMetrics(rep, times);
    rep.set("peak_rss_mb", selfPeakRssMb(), "MB");
    rep.note("sweeps", static_cast<double>(kinds.setupSec.size()), "count");

    double logRatio = 0;
    for (const Program &p : progs) {
        for (const char *tier : {"compiled", "b16", "b64", "b256"}) {
            const Tally &t = tiers[std::string(p.name) + "." + tier];
            rep.layer(std::string("emul.ctx_per_s.") + p.name + "." + tier,
                      t.contexts / t.seconds, "1/s");
        }
        logRatio += std::log(rep.layers[std::string("emul.ctx_per_s.") +
                                        p.name + ".b256"]
                                 .value /
                             rep.layers[std::string("emul.ctx_per_s.") +
                                        p.name + ".b64"]
                                 .value);
    }
    rep.layer("emul.b256_over_b64",
              std::exp(logRatio / static_cast<double>(progs.size())),
              "ratio");
    rep.layer("emul.lane_util", offered > 0 ? useful / offered : 0.0,
              "ratio");
    rep.layer("emul.compile_ms", median(emulCompile), "ms");
    return rep;
}

} // namespace pb
