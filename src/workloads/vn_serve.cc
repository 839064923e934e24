#include "workloads/vn_serve.hh"

#include "common/logging.hh"

namespace workloads
{

VnServeDriver::VnServeDriver(vn::VnMachine &machine,
                             std::vector<VnRequest> requests)
    : machine_(machine), requests_(std::move(requests)),
      ctxsPerCore_(machine.config().core.numContexts)
{
    const std::uint32_t total = machine_.numCores() * ctxsPerCore_;
    ctxs_.resize(total);
    for (std::uint32_t i = 0; i < requests_.size(); ++i) {
        SIM_ASSERT_MSG(requests_[i].loads >= 1,
                       "request {} issues no loads", i);
        SIM_ASSERT_MSG(i == 0 || requests_[i - 1].arrival <=
                                     requests_[i].arrival,
                       "requests must be sorted by arrival");
        ctxs_[i % total].assigned.push_back(i);
    }
}

void
VnServeDriver::attach()
{
    for (std::uint32_t c = 0; c < machine_.numCores(); ++c)
        machine_.core(c).attachTrace(
            [this, c](std::uint32_t ctx) { return pull(c, ctx); });
}

std::optional<vn::TraceOp>
VnServeDriver::pull(std::uint32_t core, std::uint32_t ctx)
{
    CtxState &cs = ctxs_[core * ctxsPerCore_ + ctx];
    // Trace sources are pulled from inside VnCore::step(now), and now_
    // only advances at the end of the machine's step — reading it here
    // gives the cycle being stepped.
    const sim::Cycle now = machine_.cycles();

    if (!cs.active) {
        if (cs.pos >= cs.assigned.size())
            return std::nullopt; // list exhausted: context is Done
        const VnRequest &next = requests_[cs.assigned[cs.pos]];
        if (next.arrival > now) {
            vn::TraceOp op;
            op.kind = vn::TraceOp::Kind::Idle;
            op.addr = next.arrival;
            return op;
        }
        cs.active = true;
        cs.opIndex = 0;
    }

    const VnRequest &req = requests_[cs.assigned[cs.pos]];
    const std::uint32_t k = cs.opIndex++;
    vn::TraceOp op;
    if (k % 2 == 0) {
        op.kind = vn::TraceOp::Kind::Load;
        op.addr = req.addr + (k / 2) * req.stride;
        if (req.addrSpace)
            op.addr %= req.addrSpace;
    } else {
        op.kind = vn::TraceOp::Kind::Compute;
        op.cycles = req.computePerLoad;
    }
    if (cs.opIndex >= 2 * req.loads) {
        // The last op is issuing this cycle: date the completion here.
        // Latency includes any queueing behind the context's previous
        // request (now - arrival grows when requests back up).
        cs.lat.sample(static_cast<double>(now - req.arrival));
        ++cs.done;
        cs.active = false;
        ++cs.pos;
    }
    return op;
}

sim::Histogram
VnServeDriver::latency() const
{
    sim::Histogram merged{16.0, 4096};
    for (const CtxState &cs : ctxs_)
        merged.merge(cs.lat);
    return merged;
}

std::uint64_t
VnServeDriver::completed() const
{
    std::uint64_t total = 0;
    for (const CtxState &cs : ctxs_)
        total += cs.done;
    return total;
}

} // namespace workloads
