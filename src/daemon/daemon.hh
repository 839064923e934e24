/**
 * @file
 * Simulation-as-a-service: a persistent daemon serving simulation jobs
 * over a newline-delimited JSON protocol on a local TCP socket.
 *
 * One process holds warm machine fleets (serve::TtdaFleet replicas
 * constructed once, recycled per job through Machine::reset(); a
 * serve::VnFleet for the von Neumann tier) and runs submitted jobs on
 * one executor thread per fleet worker: each executor pops the next
 * queued job, runs it on its own replica, and publishes the result,
 * so a free worker never waits for a busy one. A poll()-based network
 * loop keeps accepting requests meanwhile, so status/result queries
 * stay responsive while jobs run, and every accepted socket sets
 * TCP_NODELAY so a job's reply and done frame leave at once.
 *
 * Protocol (one JSON object per line, one reply per line):
 *
 *   {"op":"submit","workload":"fib","args":[7],"requests":8,
 *    "seed":1,"arrival":{"kind":"poisson","meanGap":64},
 *    "faults":{"dropRate":0.01},"tier":"ttda"}   -> {"ok":true,"id":1}
 *   {"op":"status"}                  -> srv.* gauges + fleet tallies
 *   {"op":"result","id":1}           -> job state / full result
 *   {"op":"watch"}                   -> subscribe to job-event frames
 *   {"op":"checkpoint","path":"x.snap"} -> persist the job table
 *   {"op":"restore","path":"x.snap"}    -> load a checkpoint (idle only)
 *   {"op":"shutdown"}                -> drain everything, then exit
 *
 * Determinism: a job's result is a pure function of its spec and the
 * daemon's machine configuration. Fault plans with seed 0 are resolved
 * against the *daemon-global job id* at admission (never the dispatch
 * order or the worker), so re-running a checkpointed pending job — in
 * this process or a restored one — reproduces the original result
 * bit-for-bit. Checkpoints store completed results verbatim and
 * pending specs for deterministic re-execution; the checkpoint file
 * uses the same versioned envelope (common/snapshot.hh) as machine
 * snapshots, so truncation/corruption/version skew is rejected with a
 * clear error.
 *
 * Shutdown paths:
 *  - {"op":"shutdown"}: stop admitting, run every queued job, exit.
 *  - SIGINT/SIGTERM (self-pipe): stop admitting, finish the in-flight
 *    jobs (at most one per worker), auto-checkpoint still-queued jobs
 *    to cfg.autosavePath.
 */

#ifndef TTDA_DAEMON_DAEMON_HH
#define TTDA_DAEMON_DAEMON_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "common/json.hh"
#include "serve/fleet.hh"
#include "ttda/machine.hh"
#include "vn/machine.hh"
#include "workloads/arrivals.hh"

namespace srv
{

/** Which machine tier a job runs on. */
enum class Tier : std::uint8_t { Ttda = 0, Vn = 1 };

/** A submitted job: one serving epoch, reproducible from this alone. */
struct JobSpec
{
    Tier tier = Tier::Ttda;
    std::string workload = "fib"; //!< ttda tier: workload name
    std::vector<graph::Value> args; //!< per-request arguments (ttda)
    std::uint64_t requests = 1;
    workloads::ArrivalConfig arrival; //!< seed lives here
    sim::fault::FaultPlan faults;     //!< resolved at admission

    // von Neumann request shape (vn tier only).
    std::uint32_t vnLoads = 4;
    std::uint32_t vnComputePerLoad = 8;
    std::uint64_t vnStride = 1;
};

enum class JobState : std::uint8_t
{
    Queued = 0,
    Running = 1,
    Done = 2,
    Failed = 3
};

/** One row of the daemon's job table. */
struct JobRecord
{
    std::uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::Queued;
    serve::FleetJobResult result;    //!< ttda tier, when Done
    serve::VnFleetJobResult vnResult; //!< vn tier, when Done
    std::string error;               //!< when Failed
};

/** Daemon construction parameters. */
struct DaemonConfig
{
    /** TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back
     *  from Daemon::port()). */
    std::uint16_t port = 0;
    ttda::MachineConfig machine;    //!< replica configuration
    vn::VnMachineConfig vnMachine;  //!< vn tier configuration
    serve::FleetConfig fleet;       //!< workers etc. (both tiers)
    /** Admission control: at most this many jobs Queued at once. */
    std::size_t maxQueuedJobs = 64;
    /** Admission control: per-job request-count cap. */
    std::uint64_t maxRequestsPerJob = 4096;
    /** Where SIGINT/SIGTERM auto-checkpoints unfinished jobs
     *  (empty = don't). */
    std::string autosavePath;
};

/**
 * The daemon. Usage: construct, start() (binds the socket and spawns
 * the executors; port() is valid after), then serve() on the thread
 * that should block in the network loop. requestShutdown() is the
 * programmatic SIGTERM — signal handlers call signalFd() writes.
 */
class Daemon
{
  public:
    explicit Daemon(const DaemonConfig &cfg);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Bind + listen + spawn one executor thread per fleet worker.
     *  Throws std::runtime_error on socket failure. */
    void start();

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return port_; }

    /** Run the poll() loop; returns when the daemon has shut down. */
    void serve();

    /** Trigger the signal-path shutdown (finish in-flight jobs,
     *  auto-checkpoint queued jobs). Async-signal-safe. */
    void requestShutdown();

    /** Write end of the self-pipe, for sigaction handlers: a one-byte
     *  write() here triggers graceful shutdown. */
    int signalFd() const { return sigPipe_[1]; }

    /** Persist the job table (snapshot envelope). Throws
     *  sim::snapshot::Error / std::runtime_error on failure. */
    void saveCheckpoint(const std::string &path);

    /** Load a checkpoint into an idle daemon (call before serve(), or
     *  via the restore op while the job table is empty). Returns the
     *  number of unfinished jobs it queued, counted under the same
     *  lock that installs them. */
    std::size_t loadCheckpoint(const std::string &path);

  private:
    struct Conn
    {
        int fd = -1;
        std::string inbox;  //!< bytes received, not yet line-split
        std::string outbox; //!< bytes queued for send
        bool watching = false;
        bool closing = false; //!< close once outbox drains
    };

    enum class Stop : std::uint8_t
    {
        None = 0,
        Drain = 1,    //!< shutdown op: run every queued job first
        Immediate = 2 //!< signal: finish in-flight jobs only
    };

    void executorLoop(unsigned worker);
    void runJob(unsigned worker, std::uint64_t id,
                std::unique_lock<std::mutex> &lk);
    void joinExecutors();
    void wakeLoop();

    // Request handling (network thread; lock taken inside).
    std::string handleLine(Conn &conn, const std::string &line);
    sim::json::Value opSubmit(const sim::json::Value &req);
    sim::json::Value opStatus();
    sim::json::Value opResult(const sim::json::Value &req);
    sim::json::Value opCheckpoint(const sim::json::Value &req);
    sim::json::Value opRestore(const sim::json::Value &req);
    sim::json::Value opShutdown();

    void pushFrame(const sim::json::Value &frame); //!< callers hold mu_
    void deliverFrames();
    void closeAll();

    DaemonConfig cfg_;
    graph::Program program_; //!< all named workloads, built once
    std::map<std::string, std::uint16_t> workloadCb_;
    std::unique_ptr<serve::TtdaFleet> fleet_;
    std::unique_ptr<serve::VnFleet> vnFleet_;

    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    int sigPipe_[2] = {-1, -1};  //!< signal self-pipe
    int wakePipe_[2] = {-1, -1}; //!< executors -> network loop
    std::vector<Conn> conns_;

    std::vector<std::thread> executors_; //!< executor w runs replica w

    // Shared state; everything below is guarded by mu_.
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::uint64_t, JobRecord> jobs_;
    std::deque<std::uint64_t> queue_; //!< Queued job ids, FIFO
    std::uint64_t nextId_ = 1;
    Stop stop_ = Stop::None;
    bool draining_ = false;  //!< no further admissions
    unsigned execExited_ = 0; //!< executors that have left their loop
    std::uint64_t admitted_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t requestsCompleted_ = 0;
    std::vector<std::uint64_t> jobsPerWorker_; //!< jobs each executor took
    std::vector<std::string> pendingFrames_;
};

/** Resolve a fault plan at admission: seed 0 becomes a stable
 *  derivation from (machine seed, daemon job id). */
sim::fault::FaultPlan resolveJobFaults(const sim::fault::FaultPlan &plan,
                                       std::uint64_t machineSeed,
                                       std::uint64_t jobId);

} // namespace srv

#endif // TTDA_DAEMON_DAEMON_HH
