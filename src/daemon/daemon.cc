#include "daemon/daemon.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/fleet.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "graph/snapcodec.hh"
#include "workloads/dfg_programs.hh"

namespace srv
{

namespace
{

/** Daemon-checkpoint payload revision (inside the common envelope). */
constexpr std::uint32_t kCheckpointVersion = 1;

/** A line longer than this is a protocol violation, not a request. */
constexpr std::size_t kMaxLineBytes = 1u << 20;

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throw std::runtime_error("fcntl(O_NONBLOCK) failed");
}

void
closeIf(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

sim::json::Value
jerr(const std::string &what)
{
    auto v = sim::json::Value::obj();
    v.set("ok", sim::json::Value::boolean(false));
    v.set("error", sim::json::Value::str(what));
    return v;
}

sim::json::Value
jok()
{
    auto v = sim::json::Value::obj();
    v.set("ok", sim::json::Value::boolean(true));
    return v;
}

sim::json::Value
jnum(std::uint64_t n)
{
    return sim::json::Value::intNum(n);
}

/** Latency digest every result/status consumer wants. */
sim::json::Value
latencyJson(const sim::Histogram &h)
{
    auto v = sim::json::Value::obj();
    v.set("count", jnum(h.summary().count()));
    v.set("mean", sim::json::Value::num(h.summary().mean()));
    v.set("p50", sim::json::Value::num(h.quantile(0.5)));
    v.set("p99", sim::json::Value::num(h.quantile(0.99)));
    return v;
}

sim::json::Value
valueJson(const graph::Value &v)
{
    using sim::json::Value;
    if (v.isBool())
        return Value::boolean(v.asBool());
    if (v.isInt()) {
        const std::int64_t i = v.asInt();
        return i < 0 ? Value::intNum(
                           static_cast<std::uint64_t>(-(i + 1)) + 1, true)
                     : Value::intNum(static_cast<std::uint64_t>(i));
    }
    if (v.isReal())
        return Value::num(v.asReal());
    return Value::str(v.toString());
}

graph::Value
valueFromJson(const sim::json::Value &v)
{
    using sim::json::Value;
    switch (v.kind()) {
    case Value::Kind::Bool:
        return graph::Value{v.asBool()};
    case Value::Kind::Int:
        return graph::Value{v.asI64()};
    case Value::Kind::Num:
        return graph::Value{v.asDouble()};
    default:
        throw sim::json::Error("json: argument is not a number");
    }
}

const char *
stateName(JobState s)
{
    switch (s) {
    case JobState::Queued:
        return "queued";
    case JobState::Running:
        return "running";
    case JobState::Done:
        return "done";
    case JobState::Failed:
        return "failed";
    }
    return "?";
}

workloads::ArrivalKind
arrivalKindFromName(const std::string &name)
{
    if (name == "poisson")
        return workloads::ArrivalKind::Poisson;
    if (name == "bursty")
        return workloads::ArrivalKind::Bursty;
    if (name == "diurnal")
        return workloads::ArrivalKind::Diurnal;
    throw sim::json::Error("json: unknown arrival kind \"" + name +
                           "\"");
}

} // namespace

sim::fault::FaultPlan
resolveJobFaults(const sim::fault::FaultPlan &plan,
                 std::uint64_t machineSeed, std::uint64_t jobId)
{
    sim::fault::FaultPlan resolved = plan;
    if (resolved.enabled() && resolved.seed == 0)
        resolved.seed = sim::deriveJobSeed(
            machineSeed, static_cast<std::size_t>(jobId));
    return resolved;
}

Daemon::Daemon(const DaemonConfig &cfg) : cfg_(cfg)
{
    workloadCb_["trapezoid"] = workloads::buildTrapezoid(program_);
    workloadCb_["producer-consumer"] =
        workloads::buildProducerConsumer(program_);
    workloadCb_["fib"] = workloads::buildFib(program_);
    workloadCb_["vector-sum"] = workloads::buildVectorSum(program_);
}

Daemon::~Daemon()
{
    joinExecutors();
    closeAll();
}

void
Daemon::start()
{
    if (::pipe(sigPipe_) < 0 || ::pipe(wakePipe_) < 0)
        throw std::runtime_error("pipe() failed");
    setNonBlocking(sigPipe_[0]);
    setNonBlocking(wakePipe_[0]);
    setNonBlocking(wakePipe_[1]);

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) < 0)
        throw std::runtime_error(std::string("bind() failed: ") +
                                 std::strerror(errno));
    if (::listen(listenFd_, 64) < 0)
        throw std::runtime_error("listen() failed");
    socklen_t len = sizeof addr;
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) < 0)
        throw std::runtime_error("getsockname() failed");
    port_ = ntohs(addr.sin_port);
    setNonBlocking(listenFd_);

    // Warm replicas: built once, reused for every job.
    fleet_ = std::make_unique<serve::TtdaFleet>(program_, cfg_.machine,
                                                cfg_.fleet);
    vnFleet_ =
        std::make_unique<serve::VnFleet>(cfg_.vnMachine, cfg_.fleet);
    jobsPerWorker_.assign(fleet_->workers(), 0);

    for (unsigned w = 0; w < fleet_->workers(); ++w)
        executors_.emplace_back([this, w] { executorLoop(w); });
}

void
Daemon::requestShutdown()
{
    const char byte = '!';
    [[maybe_unused]] const ssize_t n = ::write(sigPipe_[1], &byte, 1);
}

void
Daemon::wakeLoop()
{
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wakePipe_[1], &byte, 1);
}

// ---- executors -----------------------------------------------------

void
Daemon::executorLoop(unsigned worker)
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cv_.wait(lk, [this] {
            return stop_ != Stop::None || !queue_.empty();
        });
        // A signal leaves queued jobs to the autosave; a drain leaves
        // once the queue is empty.
        if (stop_ == Stop::Immediate || queue_.empty())
            break;
        const std::uint64_t id = queue_.front();
        queue_.pop_front();
        ++jobsPerWorker_[worker];
        runJob(worker, id, lk);
    }
    ++execExited_;
    lk.unlock();
    wakeLoop();
}

void
Daemon::runJob(unsigned worker, std::uint64_t id,
               std::unique_lock<std::mutex> &lk)
{
    // jobs_ nodes are never erased, so rec stays valid while the lock
    // is dropped; its spec is immutable after admission.
    JobRecord &rec = jobs_.at(id);
    rec.state = JobState::Running;
    const JobSpec &spec = rec.spec;
    lk.unlock();

    serve::FleetJobResult result;
    serve::VnFleetJobResult vnResult;
    std::string error;
    try {
        const auto arrivals = workloads::arrivalSchedule(
            spec.arrival, static_cast<std::size_t>(spec.requests));
        if (spec.tier == Tier::Vn) {
            serve::VnFleetJob job;
            job.requests.reserve(arrivals.size());
            for (std::size_t i = 0; i < arrivals.size(); ++i) {
                workloads::VnRequest req;
                req.arrival = arrivals[i];
                req.loads = spec.vnLoads;
                req.computePerLoad = spec.vnComputePerLoad;
                req.addr = i * spec.vnStride;
                req.stride = spec.vnStride;
                req.addrSpace = cfg_.vnMachine.wordsPerModule *
                                cfg_.vnMachine.numCores;
                job.requests.push_back(req);
            }
            vnResult = vnFleet_->runOne(job);
        } else {
            serve::FleetJob job;
            job.cb = workloadCb_.at(spec.workload);
            job.faults = spec.faults; // already resolved at admission
            job.requests.reserve(arrivals.size());
            for (const sim::Cycle at : arrivals)
                job.requests.push_back({spec.args, at});
            result = fleet_->runOne(worker, job, id);
        }
    } catch (const std::exception &e) {
        error = e.what();
    }

    lk.lock();
    const bool vn = spec.tier == Tier::Vn;
    if (vn)
        rec.vnResult = std::move(vnResult);
    else
        rec.result = std::move(result);
    auto frame = sim::json::Value::obj();
    frame.set("frame", sim::json::Value::str("job"));
    frame.set("id", jnum(id));
    if (error.empty()) {
        const std::uint64_t completed =
            vn ? rec.vnResult.completed : rec.result.completed;
        rec.state = JobState::Done;
        requestsCompleted_ += completed;
        frame.set("state", sim::json::Value::str("done"));
        frame.set("cycles", jnum(vn ? rec.vnResult.cycles
                                    : rec.result.cycles));
        frame.set("completed", jnum(completed));
    } else {
        rec.state = JobState::Failed;
        rec.error = std::move(error);
        frame.set("state", sim::json::Value::str("failed"));
    }
    pushFrame(frame);
    wakeLoop();
}

void
Daemon::joinExecutors()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_ == Stop::None)
            stop_ = Stop::Immediate;
    }
    cv_.notify_all();
    for (std::thread &t : executors_)
        t.join();
    executors_.clear();
}

// ---- request handling ----------------------------------------------

sim::json::Value
Daemon::opSubmit(const sim::json::Value &req)
{
    // Validation failures count as rejections in the srv.* gauges.
    const auto reject = [this](const std::string &what) {
        std::lock_guard<std::mutex> lk(mu_);
        ++rejected_;
        return jerr(what);
    };
    JobSpec spec;
    if (req.has("tier")) {
        const std::string tier = req.get("tier").asStr();
        if (tier == "ttda")
            spec.tier = Tier::Ttda;
        else if (tier == "vn")
            spec.tier = Tier::Vn;
        else
            return reject("unknown tier \"" + tier + "\"");
    }
    if (req.has("workload"))
        spec.workload = req.get("workload").asStr();
    if (spec.tier == Tier::Ttda && !workloadCb_.count(spec.workload))
        return reject("unknown workload \"" + spec.workload + "\"");
    if (req.has("args")) {
        const auto &args = req.get("args");
        for (std::size_t i = 0; i < args.size(); ++i)
            spec.args.push_back(valueFromJson(args.at(i)));
    }
    if (spec.tier == Tier::Ttda) {
        const std::size_t params =
            program_.codeBlock(workloadCb_.at(spec.workload)).numParams;
        if (spec.args.size() != params)
            return reject(sim::format(
                "workload \"{}\" takes {} args, got {}", spec.workload,
                params, spec.args.size()));
    }
    if (req.has("requests"))
        spec.requests = req.get("requests").asU64();
    if (spec.requests == 0)
        return reject("requests must be >= 1");
    if (spec.requests > cfg_.maxRequestsPerJob)
        return reject(
            sim::format("requests exceed the per-job cap ({} > {})",
                        spec.requests, cfg_.maxRequestsPerJob));
    if (req.has("seed"))
        spec.arrival.seed = req.get("seed").asU64();
    if (req.has("arrival")) {
        const auto &a = req.get("arrival");
        if (a.has("kind"))
            spec.arrival.kind =
                arrivalKindFromName(a.get("kind").asStr());
        if (a.has("meanGap"))
            spec.arrival.meanGap = a.get("meanGap").asDouble();
        if (spec.arrival.meanGap <= 0.0)
            return reject("arrival meanGap must be > 0");
        if (a.has("start"))
            spec.arrival.start = a.get("start").asU64();
        if (a.has("burstLen"))
            spec.arrival.burstLen =
                static_cast<std::uint32_t>(a.get("burstLen").asU64());
        if (a.has("burstScale"))
            spec.arrival.burstScale = a.get("burstScale").asDouble();
        if (a.has("diurnalPeriod"))
            spec.arrival.diurnalPeriod =
                a.get("diurnalPeriod").asDouble();
        if (a.has("diurnalDepth"))
            spec.arrival.diurnalDepth =
                a.get("diurnalDepth").asDouble();
    }
    if (req.has("faults")) {
        const auto &f = req.get("faults");
        if (f.has("seed"))
            spec.faults.seed = f.get("seed").asU64();
        if (f.has("dropRate"))
            spec.faults.dropRate = f.get("dropRate").asDouble();
        if (f.has("dupRate"))
            spec.faults.dupRate = f.get("dupRate").asDouble();
        if (f.has("corruptRate"))
            spec.faults.corruptRate = f.get("corruptRate").asDouble();
        if (f.has("delayRate"))
            spec.faults.delayRate = f.get("delayRate").asDouble();
        if (f.has("delaySpike"))
            spec.faults.delaySpike = f.get("delaySpike").asU64();
    }
    if (req.has("loads"))
        spec.vnLoads =
            static_cast<std::uint32_t>(req.get("loads").asU64());
    if (req.has("computePerLoad"))
        spec.vnComputePerLoad = static_cast<std::uint32_t>(
            req.get("computePerLoad").asU64());
    if (req.has("stride"))
        spec.vnStride = req.get("stride").asU64();

    std::lock_guard<std::mutex> lk(mu_);
    if (draining_) {
        ++rejected_;
        return jerr("daemon is draining; not admitting jobs");
    }
    if (queue_.size() >= cfg_.maxQueuedJobs) {
        ++rejected_;
        return jerr(sim::format("admission queue full ({} queued)",
                                queue_.size()));
    }
    const std::uint64_t id = nextId_++;
    // Resolve seed-0 fault plans against the daemon-global job id so
    // re-running this job (now, or from a restored checkpoint) draws
    // the identical fault stream regardless of batch composition.
    spec.faults =
        resolveJobFaults(spec.faults, cfg_.machine.seed, id);
    JobRecord rec;
    rec.id = id;
    rec.spec = std::move(spec);
    jobs_.emplace(id, std::move(rec));
    queue_.push_back(id);
    ++admitted_;
    cv_.notify_one();

    auto resp = jok();
    resp.set("id", jnum(id));
    return resp;
}

sim::json::Value
Daemon::opStatus()
{
    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t queued = 0, running = 0, done = 0, failed = 0;
    for (const auto &[id, rec] : jobs_) {
        switch (rec.state) {
        case JobState::Queued:
            ++queued;
            break;
        case JobState::Running:
            ++running;
            break;
        case JobState::Done:
            ++done;
            break;
        case JobState::Failed:
            ++failed;
            break;
        }
    }
    auto resp = jok();
    resp.set("draining", sim::json::Value::boolean(draining_));
    auto srvGauges = sim::json::Value::obj();
    srvGauges.set("queued", jnum(queued));
    srvGauges.set("running", jnum(running));
    srvGauges.set("done", jnum(done));
    srvGauges.set("failed", jnum(failed));
    srvGauges.set("admitted", jnum(admitted_));
    srvGauges.set("rejected", jnum(rejected_));
    srvGauges.set("requestsCompleted", jnum(requestsCompleted_));
    // One dispatch per job, under the status protocol's existing name.
    srvGauges.set("batches",
                  jnum(std::accumulate(jobsPerWorker_.begin(),
                                       jobsPerWorker_.end(),
                                       std::uint64_t{0})));
    resp.set("srv", std::move(srvGauges));
    auto fleet = sim::json::Value::obj();
    fleet.set("workers", jnum(fleet_ ? fleet_->workers() : 0));
    auto perWorker = sim::json::Value::arr();
    for (const std::uint64_t n : jobsPerWorker_)
        perWorker.push(jnum(n));
    fleet.set("jobsPerWorker", std::move(perWorker));
    resp.set("fleet", std::move(fleet));
    return resp;
}

sim::json::Value
Daemon::opResult(const sim::json::Value &req)
{
    const std::uint64_t id = req.get("id").asU64();
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return jerr(sim::format("no such job {}", id));
    const JobRecord &rec = it->second;
    auto resp = jok();
    resp.set("id", jnum(id));
    resp.set("state", sim::json::Value::str(stateName(rec.state)));
    resp.set("tier", sim::json::Value::str(
                         rec.spec.tier == Tier::Vn ? "vn" : "ttda"));
    if (rec.state == JobState::Failed)
        resp.set("error", sim::json::Value::str(rec.error));
    if (rec.state != JobState::Done)
        return resp;

    if (rec.spec.tier == Tier::Vn) {
        resp.set("cycles", jnum(rec.vnResult.cycles));
        resp.set("submitted", jnum(rec.vnResult.submitted));
        resp.set("completed", jnum(rec.vnResult.completed));
        resp.set("latency", latencyJson(rec.vnResult.latency));
        return resp;
    }
    const serve::FleetJobResult &r = rec.result;
    resp.set("cycles", jnum(r.cycles));
    resp.set("deadlocked", sim::json::Value::boolean(r.deadlocked));
    resp.set("submitted", jnum(r.submitted));
    resp.set("completed", jnum(r.completed));
    resp.set("watermarkHits", jnum(r.watermarkHits));
    resp.set("worker", jnum(r.worker));
    resp.set("latency", latencyJson(r.latency));
    auto outputs = sim::json::Value::arr();
    for (const ttda::OutputRecord &out : r.outputs) {
        auto o = sim::json::Value::obj();
        o.set("ctx", jnum(out.tag.ctx));
        o.set("cb", jnum(out.tag.codeBlock));
        o.set("stmt", jnum(out.tag.stmt));
        o.set("iter", jnum(out.tag.iter));
        o.set("value", valueJson(out.value));
        outputs.push(std::move(o));
    }
    resp.set("outputs", std::move(outputs));
    if (!r.statsJson.empty())
        resp.set("statsJson", sim::json::Value::str(r.statsJson));
    return resp;
}

sim::json::Value
Daemon::opCheckpoint(const sim::json::Value &req)
{
    const std::string path = req.get("path").asStr();
    saveCheckpoint(path);
    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t pending = 0;
    for (const auto &[id, rec] : jobs_)
        if (rec.state != JobState::Done &&
            rec.state != JobState::Failed)
            ++pending;
    auto resp = jok();
    resp.set("path", sim::json::Value::str(path));
    resp.set("jobs", jnum(jobs_.size()));
    resp.set("pending", jnum(pending));
    return resp;
}

sim::json::Value
Daemon::opRestore(const sim::json::Value &req)
{
    const std::string path = req.get("path").asStr();
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!jobs_.empty())
            return jerr("restore requires an empty job table");
        if (draining_)
            return jerr("daemon is draining");
    }
    const std::size_t pending = loadCheckpoint(path);
    std::lock_guard<std::mutex> lk(mu_);
    auto resp = jok();
    resp.set("jobs", jnum(jobs_.size()));
    resp.set("pending", jnum(pending));
    return resp;
}

sim::json::Value
Daemon::opShutdown()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        draining_ = true;
        if (stop_ == Stop::None)
            stop_ = Stop::Drain;
    }
    cv_.notify_all();
    auto resp = jok();
    resp.set("draining", sim::json::Value::boolean(true));
    return resp;
}

std::string
Daemon::handleLine(Conn &conn, const std::string &line)
{
    sim::json::Value resp;
    try {
        const auto req = sim::json::parse(line);
        const std::string op = req.get("op").asStr();
        if (op == "submit")
            resp = opSubmit(req);
        else if (op == "status")
            resp = opStatus();
        else if (op == "result")
            resp = opResult(req);
        else if (op == "watch") {
            conn.watching = true;
            resp = jok();
            resp.set("watching", sim::json::Value::boolean(true));
        } else if (op == "checkpoint")
            resp = opCheckpoint(req);
        else if (op == "restore")
            resp = opRestore(req);
        else if (op == "shutdown")
            resp = opShutdown();
        else
            resp = jerr("unknown op \"" + op + "\"");
    } catch (const std::exception &e) {
        resp = jerr(e.what());
    }
    return resp.dump() + "\n";
}

// ---- frames --------------------------------------------------------

void
Daemon::pushFrame(const sim::json::Value &frame)
{
    pendingFrames_.push_back(frame.dump() + "\n");
}

void
Daemon::deliverFrames()
{
    std::vector<std::string> frames;
    {
        std::lock_guard<std::mutex> lk(mu_);
        frames.swap(pendingFrames_);
    }
    if (frames.empty())
        return;
    for (Conn &conn : conns_)
        if (conn.watching && !conn.closing)
            for (const std::string &f : frames)
                conn.outbox += f;
}

// ---- network loop --------------------------------------------------

void
Daemon::serve()
{
    bool stopping = false;
    Stop stopMode = Stop::None;
    int graceTicks = 0;
    std::vector<pollfd> pfds;

    for (;;) {
        pfds.clear();
        pfds.push_back({listenFd_, POLLIN, 0});
        pfds.push_back({sigPipe_[0], POLLIN, 0});
        pfds.push_back({wakePipe_[0], POLLIN, 0});
        for (const Conn &conn : conns_) {
            short ev = POLLIN;
            if (!conn.outbox.empty())
                ev |= POLLOUT;
            pfds.push_back({conn.fd, ev, 0});
        }

        const int timeout = stopping ? 50 : -1;
        const int nready =
            ::poll(pfds.data(), pfds.size(), timeout);
        if (nready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }

        if (pfds[1].revents & POLLIN) { // signal self-pipe
            char buf[64];
            while (::read(sigPipe_[0], buf, sizeof buf) > 0) {
            }
            std::lock_guard<std::mutex> lk(mu_);
            draining_ = true;
            stop_ = Stop::Immediate; // finish in-flight jobs only
            cv_.notify_all();
        }
        if (pfds[2].revents & POLLIN) { // executor wakeup
            char buf[64];
            while (::read(wakePipe_[0], buf, sizeof buf) > 0) {
            }
        }
        deliverFrames();

        if (pfds[0].revents & POLLIN) {
            for (;;) {
                const int fd = ::accept(listenFd_, nullptr, nullptr);
                if (fd < 0)
                    break;
                setNonBlocking(fd);
                // Replies and done frames are small writes; without
                // this, each waits for the peer's delayed ACK (Nagle).
                const int one = 1;
                ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof one);
                Conn conn;
                conn.fd = fd;
                conns_.push_back(std::move(conn));
            }
        }

        // pfds[3..] track conns_ by index at build time; conns_ only
        // grows (accept) after the snapshot, so index math holds.
        const std::size_t tracked = pfds.size() - 3;
        for (std::size_t i = 0; i < tracked; ++i) {
            Conn &conn = conns_[i];
            const short rev = pfds[3 + i].revents;
            if (rev & (POLLERR | POLLHUP | POLLNVAL)) {
                conn.closing = true;
                conn.outbox.clear();
                continue;
            }
            if (rev & POLLIN) {
                char buf[4096];
                for (;;) {
                    const ssize_t n =
                        ::recv(conn.fd, buf, sizeof buf, 0);
                    if (n > 0) {
                        conn.inbox.append(buf, n);
                        if (conn.inbox.size() > kMaxLineBytes) {
                            conn.outbox +=
                                jerr("request line too long")
                                    .dump() +
                                "\n";
                            conn.closing = true;
                            conn.inbox.clear();
                            break;
                        }
                    } else if (n == 0) {
                        conn.closing = true;
                        break;
                    } else {
                        break; // EAGAIN or error; poll again
                    }
                }
                std::size_t nl;
                while ((nl = conn.inbox.find('\n')) !=
                       std::string::npos) {
                    std::string line = conn.inbox.substr(0, nl);
                    conn.inbox.erase(0, nl + 1);
                    if (!line.empty() && line.back() == '\r')
                        line.pop_back();
                    if (line.empty())
                        continue;
                    conn.outbox += handleLine(conn, line);
                }
                deliverFrames(); // a submit may have raced a frame
            }
            if (!conn.outbox.empty()) {
                const ssize_t n =
                    ::send(conn.fd, conn.outbox.data(),
                           conn.outbox.size(), MSG_NOSIGNAL);
                if (n > 0)
                    conn.outbox.erase(0, static_cast<std::size_t>(n));
                else if (n < 0 && errno != EAGAIN &&
                         errno != EWOULDBLOCK)
                    conn.closing = true;
            }
        }

        conns_.erase(
            std::remove_if(conns_.begin(), conns_.end(),
                           [](Conn &conn) {
                               if (conn.closing &&
                                   conn.outbox.empty()) {
                                   closeIf(conn.fd);
                                   return true;
                               }
                               return false;
                           }),
            conns_.end());

        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!stopping && stop_ != Stop::None &&
                execExited_ == executors_.size()) {
                stopping = true;
                stopMode = stop_;
            }
        }
        if (stopping) {
            deliverFrames();
            const bool flushed = std::all_of(
                conns_.begin(), conns_.end(),
                [](const Conn &c) { return c.outbox.empty(); });
            if (flushed || ++graceTicks > 40) // ~2s of 50ms ticks
                break;
        }
    }

    // No executor may touch the wake pipe once closeAll() runs.
    joinExecutors();

    // Signal-path exit: still-queued jobs were never started; persist
    // them so a restored daemon can re-run them deterministically.
    if (stopMode == Stop::Immediate && !cfg_.autosavePath.empty()) {
        bool pending = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            pending = !queue_.empty();
        }
        if (pending) {
            try {
                saveCheckpoint(cfg_.autosavePath);
            } catch (const std::exception &e) {
                sim::warn("autosave failed: {}", e.what());
            }
        }
    }
    closeAll();
}

void
Daemon::closeAll()
{
    for (Conn &conn : conns_)
        closeIf(conn.fd);
    conns_.clear();
    closeIf(listenFd_);
    closeIf(sigPipe_[0]);
    closeIf(sigPipe_[1]);
    closeIf(wakePipe_[0]);
    closeIf(wakePipe_[1]);
}

// ---- checkpoint ----------------------------------------------------

namespace
{

void
saveSpec(sim::snapshot::Writer &w, const JobSpec &spec)
{
    w.u8(static_cast<std::uint8_t>(spec.tier));
    w.str(spec.workload);
    w.u64(spec.args.size());
    for (const graph::Value &v : spec.args)
        snapSave(w, v);
    w.u64(spec.requests);
    w.u8(static_cast<std::uint8_t>(spec.arrival.kind));
    w.f64(spec.arrival.meanGap);
    w.u64(spec.arrival.seed);
    w.u64(spec.arrival.start);
    w.u32(spec.arrival.burstLen);
    w.f64(spec.arrival.burstScale);
    w.f64(spec.arrival.diurnalPeriod);
    w.f64(spec.arrival.diurnalDepth);
    w.u64(spec.faults.seed);
    w.f64(spec.faults.dropRate);
    w.f64(spec.faults.dupRate);
    w.f64(spec.faults.corruptRate);
    w.f64(spec.faults.delayRate);
    w.u64(spec.faults.delaySpike);
    w.u32(spec.vnLoads);
    w.u32(spec.vnComputePerLoad);
    w.u64(spec.vnStride);
}

JobSpec
loadSpec(sim::snapshot::Reader &r)
{
    JobSpec spec;
    const std::uint8_t tier = r.u8();
    if (tier > static_cast<std::uint8_t>(Tier::Vn))
        r.fail("unknown job tier");
    spec.tier = static_cast<Tier>(tier);
    spec.workload = r.str();
    const std::uint64_t nargs = r.u64();
    for (std::uint64_t i = 0; i < nargs; ++i) {
        graph::Value v;
        snapLoad(r, v);
        spec.args.push_back(v);
    }
    spec.requests = r.u64();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(
                   workloads::ArrivalKind::Diurnal))
        r.fail("unknown arrival kind");
    spec.arrival.kind = static_cast<workloads::ArrivalKind>(kind);
    spec.arrival.meanGap = r.f64();
    spec.arrival.seed = r.u64();
    spec.arrival.start = r.u64();
    spec.arrival.burstLen = r.u32();
    spec.arrival.burstScale = r.f64();
    spec.arrival.diurnalPeriod = r.f64();
    spec.arrival.diurnalDepth = r.f64();
    spec.faults.seed = r.u64();
    spec.faults.dropRate = r.f64();
    spec.faults.dupRate = r.f64();
    spec.faults.corruptRate = r.f64();
    spec.faults.delayRate = r.f64();
    spec.faults.delaySpike = r.u64();
    spec.vnLoads = r.u32();
    spec.vnComputePerLoad = r.u32();
    spec.vnStride = r.u64();
    return spec;
}

} // namespace

void
Daemon::saveCheckpoint(const std::string &path)
{
    sim::snapshot::Writer w;
    std::lock_guard<std::mutex> lk(mu_);
    w.u32(kCheckpointVersion);
    // Fingerprint: results are only reproducible on a daemon with the
    // same machine configuration.
    w.u32(cfg_.machine.numPEs);
    w.u64(cfg_.machine.seed);
    w.u8(static_cast<std::uint8_t>(cfg_.machine.topology));
    w.b(cfg_.machine.reliableNet);
    w.u32(cfg_.vnMachine.numCores);
    w.u64(cfg_.vnMachine.seed);

    w.u64(nextId_);
    w.u64(admitted_);
    w.u64(rejected_);
    w.u64(requestsCompleted_);
    w.u64(jobs_.size());
    for (const auto &[id, rec] : jobs_) {
        w.u64(id);
        saveSpec(w, rec.spec);
        // Running jobs persist as Queued: their batch's results are
        // not in the table yet, and re-running them is deterministic.
        const JobState state = rec.state == JobState::Running
                                   ? JobState::Queued
                                   : rec.state;
        w.u8(static_cast<std::uint8_t>(state));
        if (state == JobState::Failed)
            w.str(rec.error);
        if (state != JobState::Done)
            continue;
        if (rec.spec.tier == Tier::Vn) {
            w.u64(rec.vnResult.cycles);
            w.u64(rec.vnResult.submitted);
            w.u64(rec.vnResult.completed);
            snapSave(w, rec.vnResult.latency);
            continue;
        }
        const serve::FleetJobResult &r = rec.result;
        w.u64(r.outputs.size());
        for (const ttda::OutputRecord &out : r.outputs) {
            snapSave(w, out.tag);
            snapSave(w, out.value);
        }
        w.u64(r.cycles);
        w.b(r.deadlocked);
        w.u64(r.submitted);
        w.u64(r.completed);
        w.u64(r.watermarkHits);
        snapSave(w, r.latency);
        w.str(r.statsJson);
        w.u32(r.worker);
    }

    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        throw std::runtime_error("cannot open \"" + path +
                                 "\" for writing");
    w.finish(os);
    os.flush();
    if (!os)
        throw std::runtime_error("short write to \"" + path + "\"");
}

std::size_t
Daemon::loadCheckpoint(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot open \"" + path + "\"");
    sim::snapshot::Reader r(is);

    if (r.u32() != kCheckpointVersion)
        r.fail("unsupported daemon checkpoint version");
    if (r.u32() != cfg_.machine.numPEs)
        r.fail("checkpoint machine mismatch (numPEs)");
    if (r.u64() != cfg_.machine.seed)
        r.fail("checkpoint machine mismatch (seed)");
    if (r.u8() != static_cast<std::uint8_t>(cfg_.machine.topology))
        r.fail("checkpoint machine mismatch (topology)");
    if (r.b() != cfg_.machine.reliableNet)
        r.fail("checkpoint machine mismatch (reliableNet)");
    if (r.u32() != cfg_.vnMachine.numCores)
        r.fail("checkpoint machine mismatch (vn numCores)");
    if (r.u64() != cfg_.vnMachine.seed)
        r.fail("checkpoint machine mismatch (vn seed)");

    std::map<std::uint64_t, JobRecord> jobs;
    std::deque<std::uint64_t> queue;
    const std::uint64_t nextId = r.u64();
    const std::uint64_t admitted = r.u64();
    const std::uint64_t rejected = r.u64();
    const std::uint64_t requestsCompleted = r.u64();
    const std::uint64_t njobs = r.u64();
    for (std::uint64_t i = 0; i < njobs; ++i) {
        JobRecord rec;
        rec.id = r.u64();
        if (rec.id >= nextId)
            r.fail("job id past the id counter");
        rec.spec = loadSpec(r);
        if (rec.spec.tier == Tier::Ttda) {
            const auto cb = workloadCb_.find(rec.spec.workload);
            if (cb == workloadCb_.end())
                r.fail("checkpoint references an unknown workload");
            if (rec.spec.args.size() !=
                program_.codeBlock(cb->second).numParams)
                r.fail("checkpoint job has the wrong argument count");
        }
        const std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(JobState::Failed) ||
            state == static_cast<std::uint8_t>(JobState::Running))
            r.fail("invalid job state");
        rec.state = static_cast<JobState>(state);
        if (rec.state == JobState::Failed)
            rec.error = r.str();
        if (rec.state == JobState::Done) {
            if (rec.spec.tier == Tier::Vn) {
                rec.vnResult.cycles = r.u64();
                rec.vnResult.submitted = r.u64();
                rec.vnResult.completed = r.u64();
                snapLoad(r, rec.vnResult.latency);
            } else {
                const std::uint64_t nout = r.u64();
                for (std::uint64_t o = 0; o < nout; ++o) {
                    ttda::OutputRecord out;
                    snapLoad(r, out.tag);
                    snapLoad(r, out.value);
                    rec.result.outputs.push_back(out);
                }
                rec.result.cycles = r.u64();
                rec.result.deadlocked = r.b();
                rec.result.submitted = r.u64();
                rec.result.completed = r.u64();
                rec.result.watermarkHits = r.u64();
                snapLoad(r, rec.result.latency);
                rec.result.statsJson = r.str();
                rec.result.worker = r.u32();
            }
        }
        const std::uint64_t id = rec.id;
        if (!jobs.emplace(id, std::move(rec)).second)
            r.fail("duplicate job id");
        if (jobs.at(id).state == JobState::Queued)
            queue.push_back(id);
    }
    r.expectEnd();

    std::size_t pending = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!jobs_.empty())
            throw std::runtime_error(
                "restore requires an empty job table");
        pending = queue.size();
        jobs_ = std::move(jobs);
        queue_ = std::move(queue);
        nextId_ = nextId;
        admitted_ = admitted;
        rejected_ = rejected;
        requestsCompleted_ = requestsCompleted;
        cv_.notify_all();
    }
    if (wakePipe_[1] >= 0)
        wakeLoop();
    return pending;
}

} // namespace srv
