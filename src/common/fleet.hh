/**
 * @file
 * Deterministic job-level parallelism: the fleet engine.
 *
 * The WorkerPool parallelizes *within* one machine's tick — PEs
 * sharded across host threads, two barrier crossings per simulated
 * cycle. That shape saturates quickly on small configurations: an
 * 8-PE machine cannot keep 8 host threads busy through a barrier
 * every few microseconds. Serving workloads offer the missing layer:
 * *independent* jobs (whole simulation epochs) that need no
 * cross-job synchronization at all, the replica-pool shape inference
 * serving stacks use.
 *
 * sim::Fleet runs K jobs across W workers:
 *
 *  - a sharded MPMC job queue hands out job indices: jobs are dealt
 *    round-robin across shards, each worker drains its home shard
 *    through an atomic cursor, and an empty-handed worker *steals*
 *    from the other shards in a deterministic scan order — the
 *    scalable-synchronization recipe (distribute the hot counter,
 *    contend only when idle) rather than one global ticket lock;
 *  - a lock-free completion ring records (job, worker) completion
 *    order for observability — host-order data stays out of every
 *    deterministic result by construction;
 *  - the existing WorkerPool supplies the threads: one run() call
 *    per batch, each shard looping jobs until the queue is dry.
 *
 * Determinism contract
 * --------------------
 * Which worker runs a job, and in what order, is host-scheduling
 * noise. Results stay bit-identical for any worker count because:
 *
 *  1. every job's computation must be a pure function of (replica
 *     construction state, job index) — per-job randomness derives
 *     from the job id via deriveJobSeed, never from the worker id or
 *     a shared stream;
 *  2. workers write results only into per-job slots (index = job id),
 *     so aggregation happens after the barrier, in job-index order;
 *  3. anything inherently host-ordered (the completion ring, steal
 *     counts, wall times) is segregated as informational.
 *
 * serve::TtdaFleet (src/serve) layers warm machine replicas on top.
 */

#ifndef TTDA_COMMON_FLEET_HH
#define TTDA_COMMON_FLEET_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/parallel.hh"

namespace sim
{

/** SplitMix64-mix a base seed with a job index: the per-job seed for
 *  fault plans, arrival schedules, and workload randomness. Never
 *  derive per-worker — that would tie results to the steal order. */
inline std::uint64_t
deriveJobSeed(std::uint64_t base, std::uint64_t job)
{
    std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (job + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Sharded MPMC queue of job indices [0, jobs) with work stealing.
 *
 * Jobs are dealt round-robin across `shards` lanes; each lane is an
 * implicit arithmetic sequence consumed through one atomic cursor, so
 * pop() is a fetch_add — no locks, no per-job storage. A worker
 * drains its home lane first (cursor contention 1/shards of a single
 * shared counter), then scans the other lanes for leftovers. The
 * cursors over-advance benignly: a failed claim on a dry lane costs
 * one increment, bounded by the number of poppers.
 */
class JobQueue
{
  public:
    /** @param jobs   total job count (indices 0..jobs-1)
     *  @param shards lane count, clamped to [1, jobs] (0 picks one
     *                lane per expected worker — pass the worker
     *                count). */
    JobQueue(std::size_t jobs, std::size_t shards);

    std::size_t jobs() const { return jobs_; }
    std::size_t shards() const { return shards_.size(); }

    /**
     * Claim the next job for `worker`: its home lane first, then the
     * other lanes in cyclic scan order. Returns std::nullopt when
     * every lane is dry. Thread-safe; each job index is returned
     * exactly once.
     */
    std::optional<std::size_t> pop(unsigned worker);

    /** Jobs claimed from a non-home lane (informational: proves the
     *  stealing path ran; never feeds a deterministic result). */
    std::uint64_t steals() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

  private:
    /** One lane: jobs shard, shard+S, shard+2S, ... consumed through
     *  an atomic position. Padded to its own cache line so cursor
     *  traffic never false-shares across lanes. */
    struct alignas(64) Lane
    {
        std::atomic<std::size_t> cursor{0};
        std::size_t count = 0; //!< jobs dealt into this lane
    };

    std::size_t jobs_;
    std::vector<Lane> shards_;
    std::atomic<std::uint64_t> steals_{0};
};

/**
 * Lock-free MPMC ring recording job completions in host order.
 * Capacity is fixed at construction (the fleet sizes it to the job
 * count, so pushes never wrap). Drained single-threaded after the
 * pool barrier.
 */
class CompletionRing
{
  public:
    struct Entry
    {
        std::uint32_t job = 0;
        std::uint32_t worker = 0;
    };

    explicit CompletionRing(std::size_t capacity);

    /** Record one completion. Lock-free: a fetch_add claims a slot.
     *  Asserts the ring was sized for every push (the fleet's ring
     *  is). */
    void push(std::uint32_t job, std::uint32_t worker);

    /** Completions recorded so far. Exact only after all pushers have
     *  passed a barrier (the fleet reads it after WorkerPool::run). */
    std::size_t size() const
    {
        return tail_.load(std::memory_order_acquire);
    }

    /** Entry i in completion (host) order. Valid for i < size() after
     *  the barrier. */
    const Entry &operator[](std::size_t i) const { return ring_[i]; }

    void clear() { tail_.store(0, std::memory_order_relaxed); }

  private:
    std::vector<Entry> ring_;
    std::atomic<std::size_t> tail_{0};
};

/**
 * The fleet engine: a persistent WorkerPool draining a JobQueue.
 *
 * One Fleet is built per worker count and reused across batches (the
 * pool's threads persist, like the machines' intra-tick pool). Each
 * run() deals the batch across the queue lanes, runs every worker's
 * pull loop to quiescence, and leaves the completion ring and steal
 * count readable until the next run().
 */
class Fleet
{
  public:
    struct Config
    {
        /** Worker count, including the calling thread (it runs jobs
         *  too, as worker 0). Clamped below by 1. */
        unsigned workers = 1;
        /** Queue lanes; 0 = one per worker. */
        std::size_t queueShards = 0;
        /** Spin budget handed to the WorkerPool (kSpinAuto resolves
         *  from SIM_SPIN_BUDGET / oversubscription; fleet workers park
         *  at one barrier per *batch*, not per tick, so parking is
         *  nearly free here). */
        int spinBudget = WorkerPool::kSpinAuto;
    };

    explicit Fleet(Config cfg);

    unsigned workers() const { return pool_.size(); }

    /**
     * Run jobs 0..numJobs-1 to completion across the workers.
     * `runJob(worker, job)` is called exactly once per job, from an
     * unspecified worker and in an unspecified order; it must write
     * its result into storage indexed by `job` and touch no state
     * another job reads (machine replicas are per-worker, results
     * per-job). Exceptions thrown by a job propagate out of run()
     * (lowest-indexed throwing worker wins, per WorkerPool).
     */
    void run(std::size_t numJobs,
             const std::function<void(unsigned worker,
                                      std::size_t job)> &runJob);

    /** Completion order of the last run() — host scheduling truth,
     *  informational only. */
    const CompletionRing *completions() const { return ring_.get(); }

    /** Cross-lane claims during the last run(). */
    std::uint64_t steals() const
    {
        return queue_ ? queue_->steals() : 0;
    }

    /** Jobs each worker ran in the last run() (informational load
     *  balance; sums to the job count). */
    const std::vector<std::uint64_t> &jobsPerWorker() const
    {
        return jobsPerWorker_;
    }

  private:
    Config cfg_;
    WorkerPool pool_;
    std::unique_ptr<JobQueue> queue_;
    std::unique_ptr<CompletionRing> ring_;
    std::vector<std::uint64_t> jobsPerWorker_;
};

} // namespace sim

#endif // TTDA_COMMON_FLEET_HH
