/**
 * @file
 * Workload daemon_mixed: a closed loop against a ttda_simd child.
 *
 * One daemon serves the whole run. One watch connection takes the
 * job-done frames and asks for status now and then; in each round
 * kSubmitConns submitting connections each work through their fixed
 * job list: submit, wait for the done frame, fetch the result. Rounds
 * repeat the same lists until the time budget is spent, so the job mix
 * never depends on host speed, while the daemon's job table grows as
 * it would in a long-running service. Every result is checked against
 * the closed form and against an in-process replay of the same jobs.
 * The client is a plain one, like scripts/simctl.py: it leaves the
 * kernel's delayed ACKs alone.
 */

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hh"
#include "common/json.hh"
#include "jobs.hh"
#include "replay.hh"
#include "spans.hh"

namespace pb
{

namespace
{

/** The watch connection asks for status this often. */
constexpr double kStatusEverySec = 0.05;
/** Daemon starts timed for setup_s; the last one serves the run. */
constexpr int kSetupSpawns = 15;
/** peak_rss_mb is the daemon's VmHWM after this many rounds (or after
 *  the last, in a shorter run), so that it reads the same job-table
 *  size however fast the host is. */
constexpr std::size_t kRssRound = 8;

/** A blocking newline-delimited JSON connection to the daemon. */
class Conn
{
  public:
    explicit Conn(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket() failed");
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) < 0)
            throw std::runtime_error(std::string("connect(): ") +
                                     std::strerror(errno));
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    void
    send(const std::string &line)
    {
        std::size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::send(fd_, line.data() + off,
                                     line.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("daemon connection lost (send)");
            off += static_cast<std::size_t>(n);
        }
    }

    /** A complete buffered line, if any (without the newline). */
    bool
    takeLine(std::string &out)
    {
        const auto nl = buf_.find('\n');
        if (nl == std::string::npos)
            return false;
        out.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
    }

    /** Read what the socket has; false on timeout. */
    bool
    fill(int timeoutMs)
    {
        pollfd p{fd_, POLLIN, 0};
        const int r = ::poll(&p, 1, timeoutMs);
        if (r < 0 && errno == EINTR)
            return false;
        if (r <= 0)
            return false;
        char chunk[1 << 16];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n <= 0)
            throw std::runtime_error("daemon connection lost (recv)");
        buf_.append(chunk, static_cast<std::size_t>(n));
        return true;
    }

    std::string
    readLine()
    {
        std::string line;
        const double deadline = nowSec() + 60.0;
        while (!takeLine(line)) {
            if (nowSec() > deadline)
                throw std::runtime_error("daemon reply timed out");
            fill(1000);
        }
        return line;
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

/** A ttda_simd child process, killed with us if we die. */
class DaemonProc
{
  public:
    DaemonProc(const std::string &path)
    {
        int out[2];
        if (::pipe(out) < 0)
            throw std::runtime_error("pipe() failed");
        const std::string workers = std::to_string(kDaemonWorkers);
        const std::string pes = std::to_string(kDaemonPes);
        const char *argv[] = {path.c_str(),   "--workers",
                              workers.c_str(), "--pes",
                              pes.c_str(),     "--reliable-net",
                              nullptr};
        const double t0 = nowSec();
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork() failed");
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(out[1], 1);
            ::close(out[0]);
            ::close(out[1]);
            ::execv(path.c_str(), const_cast<char *const *>(argv));
            ::_exit(127);
        }
        ::close(out[1]);
        std::string got;
        const double deadline = t0 + 30.0;
        while (got.find('\n') == std::string::npos) {
            pollfd p{out[0], POLLIN, 0};
            if (nowSec() > deadline ||
                (::poll(&p, 1, 1000) > 0 && [&] {
                    char c[256];
                    const ssize_t n = ::read(out[0], c, sizeof c);
                    if (n > 0)
                        got.append(c, static_cast<std::size_t>(n));
                    return n <= 0;
                }())) {
                ::close(out[0]);
                throw std::runtime_error("ttda_simd did not start");
            }
        }
        setupSec_ = nowSec() - t0;
        ::close(out[0]);
        if (std::sscanf(got.c_str(), "LISTENING %hu", &port_) != 1)
            throw std::runtime_error("unexpected daemon banner: " + got);
    }

    ~DaemonProc()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    std::uint16_t port() const { return port_; }
    double setupSec() const { return setupSec_; }

    /** VmHWM (peak resident set) of the daemon, MiB. */
    double
    peakRssMb() const
    {
        std::ifstream is("/proc/" + std::to_string(pid_) + "/status");
        std::string key;
        while (is >> key) {
            if (key == "VmHWM:") {
                double kb = 0;
                is >> kb;
                return kb / 1024.0;
            }
            is.ignore(1 << 12, '\n');
        }
        return 0.0;
    }

    /** Wait for the exit a shutdown op started; true when clean. */
    bool
    waitExit(double timeoutSec)
    {
        const double deadline = nowSec() + timeoutSec;
        int status = 0;
        while (nowSec() < deadline) {
            const pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_) {
                pid_ = -1;
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            ::usleep(2000);
        }
        return false;
    }

  private:
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
    double setupSec_ = 0.0;
};

/** Socket timestamps of one job (ns). */
struct JobTimes
{
    std::uint64_t submit = 0, ack = 0, done = 0, resultSent = 0,
                  result = 0;
    std::size_t resultBytes = 0;
    std::uint64_t id = 0;
};

struct RoundResult
{
    double wallSec = 0;
    std::vector<JobTimes> jobs;
    std::vector<double> statusMs;
    /** The daemon's tallies at the end of the round (cumulative). */
    std::uint64_t batches = 0, done = 0, rejected = 0;
};

/** Check one result reply against the closed form and the replay. */
void
checkResult(const Job &job, const Expected &want,
            const sim::json::Value &r, Report &rep,
            const std::string &where)
{
    if (!r.has("state") || r.get("state").asStr() != "done") {
        rep.mismatch(where + ": job not done");
        return;
    }
    const std::uint64_t submitted = r.get("submitted").asU64();
    const std::uint64_t completed = r.get("completed").asU64();
    if (submitted != job.requests || completed != submitted)
        rep.mismatch(where + ": completed " + std::to_string(completed) +
                     " of " + std::to_string(submitted) + " submitted, " +
                     std::to_string(job.requests) + " sent");
    if (r.get("cycles").asU64() != want.cycles)
        rep.mismatch(where + ": cycles " +
                     std::to_string(r.get("cycles").asU64()) +
                     " != replay " + std::to_string(want.cycles));
    if (job.vn)
        return;
    if (r.get("deadlocked").asBool())
        rep.mismatch(where + ": deadlocked");
    if (!r.has("statsJson") || r.get("statsJson").asStr() != want.statsJson)
        rep.mismatch(where + ": statsJson differs from the replay");
    const auto &outs = r.get("outputs");
    if (outs.size() != job.requests)
        rep.mismatch(where + ": " + std::to_string(outs.size()) +
                     " outputs for " + std::to_string(job.requests) +
                     " requests");
    const double x = job.expected();
    for (std::size_t i = 0; i < outs.size(); ++i)
        if (outs.at(i).get("value").asDouble() != x) {
            rep.mismatch(where + ": output " +
                         outs.at(i).get("value").dump() +
                         " != closed form " + std::to_string(x));
            break;
        }
}

RoundResult
runRound(std::uint16_t port, Conn &watch,
         const std::vector<std::vector<Job>> &lists,
         const std::vector<std::vector<Expected>> &want, Report &rep,
         int roundNo)
{
    RoundResult rr;
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, std::uint64_t> doneAt; // id -> ns
    int finished = 0;
    std::string error;

    std::vector<std::vector<JobTimes>> times(lists.size());
    std::vector<Report> checks(lists.size());
    std::vector<std::thread> submitters;
    for (std::size_t c = 0; c < lists.size(); ++c) {
        submitters.emplace_back([&, c] {
            try {
                Conn conn(port);
                for (std::size_t k = 0; k < lists[c].size(); ++k) {
                    const Job &job = lists[c][k];
                    const std::string where =
                        "round " + std::to_string(roundNo) + " conn " +
                        std::to_string(c) + " job " + std::to_string(k);
                    JobTimes t;
                    t.submit = nowNs();
                    conn.send(job.submitLine());
                    const std::string ackLine = conn.readLine();
                    t.ack = nowNs();
                    if (!sim::json::parse(ackLine).get("ok").asBool()) {
                        // Three jobs in flight never fill a healthy
                        // daemon's queue: a rejection is a fault.
                        checks[c].mismatch(where + ": rejected: " +
                                           ackLine);
                        continue;
                    }
                    const auto ack = sim::json::parse(ackLine);

                    t.id = ack.get("id").asU64();
                    {
                        std::unique_lock<std::mutex> lk(mu);
                        cv.wait(lk, [&] {
                            return doneAt.count(t.id) || !error.empty();
                        });
                        if (!error.empty())
                            return;
                        // The done frame can beat the ack, on the
                        // other connection: then the job never waited.
                        t.done = std::max(doneAt[t.id], t.ack);
                    }
                    t.resultSent = nowNs();
                    conn.send("{\"op\":\"result\",\"id\":" +
                              std::to_string(t.id) + "}\n");
                    const std::string reply = conn.readLine();
                    t.result = nowNs();
                    t.resultBytes = reply.size() + 1;
                    checkResult(job, want[c][k], sim::json::parse(reply),
                                checks[c], where);
                    times[c].push_back(t);
                }
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lk(mu);
                if (error.empty())
                    error = e.what();
            }
            std::lock_guard<std::mutex> lk(mu);
            ++finished;
            cv.notify_all();
        });
    }

    // The watch connection: done frames, plus a status now and then.
    // After the last job one final status gives the round's tallies.
    sim::json::Value lastStatus;
    try {
        std::uint64_t statusSent = 0;
        double nextStatus = nowSec() + kStatusEverySec;
        bool finalSent = false, finalSeen = false;
        while (!finalSeen) {
            std::string line;
            while (!finalSeen && watch.takeLine(line)) {
                const std::uint64_t at = nowNs();
                const auto v = sim::json::parse(line);
                if (v.has("frame")) {
                    if (v.get("state").asStr() == "done") {
                        std::lock_guard<std::mutex> lk(mu);
                        doneAt[v.get("id").asU64()] = at;
                        cv.notify_all();
                    }
                } else if (statusSent) {
                    rr.statusMs.push_back(
                        static_cast<double>(at - statusSent) / 1e6);
                    trace::record("daemon", "status", statusSent, at, 0);
                    statusSent = 0;
                    lastStatus = v;
                    finalSeen = finalSent;
                }
            }
            if (finalSeen)
                break;
            bool allDone;
            {
                std::lock_guard<std::mutex> lk(mu);
                allDone = finished == static_cast<int>(lists.size());
            }
            if (!statusSent && (allDone || nowSec() >= nextStatus)) {
                statusSent = nowNs();
                watch.send("{\"op\":\"status\"}\n");
                nextStatus = nowSec() + kStatusEverySec;
                finalSent = allDone;
            }
            watch.fill(5);
        }
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lk(mu);
        if (error.empty())
            error = e.what();
        cv.notify_all();
    }
    for (auto &t : submitters)
        t.join();
    if (!error.empty())
        throw std::runtime_error(error);

    const auto &srvG = lastStatus.get("srv");
    rr.batches = srvG.get("batches").asU64();
    rr.done = srvG.get("done").asU64();
    rr.rejected = srvG.get("rejected").asU64();

    std::uint64_t first = ~0ull, last = 0;
    for (std::size_t c = 0; c < lists.size(); ++c) {
        for (const JobTimes &t : times[c]) {
            first = std::min(first, t.submit);
            last = std::max(last, t.result);
            rr.jobs.push_back(t);
        }
        for (const auto &m : checks[c].mismatches)
            rep.mismatch(m);
    }
    rr.wallSec = last > first ? static_cast<double>(last - first) / 1e9
                              : 0.0;
    return rr;
}

} // namespace

Report
runDaemonMixed(const Options &opt)
{
    Report rep;
    const auto lists = makeJobLists(opt.seed, kJobsPerConn);

    // The oracle: the same jobs through in-process w1 fleets.
    const DaemonModel model;
    std::vector<Job> flat;
    for (const auto &l : lists)
        flat.insert(flat.end(), l.begin(), l.end());
    const std::vector<Expected> flatWant = replayExpected(model, flat);
    std::vector<std::vector<Expected>> want(lists.size());
    std::uint64_t requests = 0, items = 0, cycles = 0;
    for (std::size_t c = 0, i = 0; c < lists.size(); ++c)
        for (std::size_t k = 0; k < lists[c].size(); ++k, ++i) {
            want[c].push_back(flatWant[i]);
            requests += flat[i].requests;
            items += flatWant[i].workItems;
            cycles += flatWant[i].cycles;
        }

    // Set-up: daemon start to LISTENING, several times; the last daemon
    // started serves every round of the run.
    RunTimes times;
    std::unique_ptr<DaemonProc> daemon;
    std::vector<double> setups;
    for (int i = 0; i < kSetupSpawns; ++i) {
        daemon.reset();
        daemon = std::make_unique<DaemonProc>(opt.daemonPath);
        setups.push_back(daemon->setupSec());
    }
    times.setupSec = median(setups);
    Conn watch(daemon->port());
    watch.send("{\"op\":\"watch\"}\n");
    (void)watch.readLine();

    std::vector<RoundResult> rounds;
    double peakRssMb = 0;
    const double t0 = nowSec();
    do {
        rounds.push_back(runRound(daemon->port(), watch, lists, want, rep,
                                  static_cast<int>(rounds.size())));
        if (rounds.size() <= kRssRound)
            peakRssMb = daemon->peakRssMb();
        const double spent = nowSec() - t0;
        const double per = spent / static_cast<double>(rounds.size());
        if (spent + per > opt.seconds)
            break;
    } while (true);
    watch.send("{\"op\":\"shutdown\"}\n");
    if (!daemon->waitExit(30.0))
        rep.mismatch("daemon did not shut down cleanly");

    std::vector<double> roundSec, latency, batches, admit, wait, result,
        resultBytes, status;
    std::uint64_t prevBatches = 0;
    for (const RoundResult &r : rounds) {
        roundSec.push_back(r.wallSec);
        batches.push_back(static_cast<double>(r.batches - prevBatches));
        prevBatches = r.batches;
        status.insert(status.end(), r.statusMs.begin(), r.statusMs.end());
        for (const JobTimes &t : r.jobs) {
            const auto ms = [](std::uint64_t a, std::uint64_t b) {
                return static_cast<double>(b - a) / 1e6;
            };
            latency.push_back(ms(t.submit, t.result));
            admit.push_back(ms(t.submit, t.ack));
            wait.push_back(ms(t.ack, t.done));
            result.push_back(ms(t.resultSent, t.result));
            resultBytes.push_back(static_cast<double>(t.resultBytes));
            const std::uint64_t root = trace::record(
                "daemon", "job", t.submit, t.result, 0);
            trace::record("daemon", "admit", t.submit, t.ack, root);
            trace::record("daemon", "wait", t.ack, t.done, root);
            trace::record("daemon", "result", t.resultSent, t.result,
                          root);
        }
    }

    const std::uint64_t attempted =
        rounds.size() * static_cast<std::uint64_t>(flat.size());
    rep.attempted = attempted;
    // Rejected submits (each also a mismatch, above).
    times.samples = static_cast<double>(latency.size());
    rep.failed = attempted - latency.size();
    times.unitSec = mean(roundSec);
    times.p50Ms = quantile(latency, 0.5);
    times.p95Ms = quantile(latency, 0.95);
    times.jobs = static_cast<double>(flat.size());
    times.contexts = static_cast<double>(requests);
    times.workItems = static_cast<double>(items);
    setTimeMetrics(rep, times);
    const double cycleRate = static_cast<double>(cycles) / times.unitSec;
    rep.set("peak_rss_mb", peakRssMb, "MB");
    rep.note("sim_cycles_per_s", cycleRate, "1/s");
    rep.note("rounds", static_cast<double>(rounds.size()), "count");

    rep.layer("daemon.job_ms.p99", quantile(latency, 0.99), "ms");
    rep.layer("daemon.admit_ms.p50", quantile(admit, 0.5), "ms");
    rep.layer("daemon.admit_ms.p99", quantile(admit, 0.99), "ms");
    rep.layer("daemon.wait_ms.p50", quantile(wait, 0.5), "ms");
    rep.layer("daemon.wait_ms.p99", quantile(wait, 0.99), "ms");
    rep.layer("daemon.result_ms.p50", quantile(result, 0.5), "ms");
    rep.layer("daemon.result_bytes.mean", mean(resultBytes), "bytes");
    rep.layer("daemon.status_ms.p50", quantile(status, 0.5), "ms");
    rep.layer("daemon.status_ms.p99", quantile(status, 0.99), "ms");
    const RoundResult &last = rounds.back();
    rep.layer("daemon.jobs_per_batch.mean",
              last.batches ? static_cast<double>(last.done) /
                                 static_cast<double>(last.batches)
                           : 0.0,
              "count");
    rep.layer("daemon.batches", median(batches), "count");
    rep.layer("daemon.rejected", static_cast<double>(last.rejected),
              "count");
    rep.layer("sim_cycles_per_s.daemon_mixed", cycleRate, "1/s");
    return rep;
}

} // namespace pb
