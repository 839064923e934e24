/**
 * @file
 * A persistent worker pool: the threads behind sim::Fleet.
 *
 * Host parallelism in this simulator is job-level: a fleet runs whole,
 * independent machine jobs side by side (common/fleet.hh); every
 * machine steps its own cycles on one thread. The pool provides the
 * primitive the fleet needs: run(fn) executes fn(shard) once per
 * shard, with the caller participating as shard 0, and returns only
 * when every shard has finished. The fleet calls it once per batch,
 * and each shard loops over jobs until the queue is dry.
 *
 * Design points:
 *  - Workers are created once and parked between runs; a run costs
 *    two generation-counted barrier crossings, not thread creation.
 *  - Waiting spins briefly and then parks in std::atomic::wait; the
 *    code that advances a barrier counter calls notify_all. An idle
 *    pool (a fleet between batches, a daemon with no jobs) sleeps
 *    instead of burning a core per worker.
 *  - The spin adapts to the host: when the pool has more shards than
 *    the machine has hardware threads (a CI container pinned to one
 *    CPU), spinning only steals cycles from the thread that would let
 *    the barrier complete, so an oversubscribed pool parks at once.
 *  - Exceptions thrown by shard functions are captured and the
 *    lowest-indexed shard's exception is rethrown from run() after the
 *    barrier, so a failing run cannot leave workers running.
 *  - The destructor joins all workers; it must not be called from a
 *    shard function.
 */

#ifndef TTDA_COMMON_PARALLEL_HH
#define TTDA_COMMON_PARALLEL_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace sim
{

/** Persistent thread team executing one function per shard. */
class WorkerPool
{
  public:
    /**
     * @param threads total shard count, including the calling thread;
     *                clamped below by 1. `threads - 1` host threads are
     *                spawned. Waits spin kDefaultSpin iterations before
     *                parking when the host has a hardware thread per
     *                shard, and park at once otherwise.
     */
    explicit WorkerPool(unsigned threads);

    /** Spin iterations used when every shard has a hardware thread. */
    static constexpr int kDefaultSpin = 4096;

    /** Spin iterations before a wait parks (tests and diagnostics). */
    int spinIterations() const { return spin_; }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    ~WorkerPool();

    /** Shard count (spawned workers + the caller). */
    unsigned size() const { return threads_; }

    /**
     * Run fn(shard) for every shard in [0, size()), the caller
     * executing shard 0, and block until all shards complete. If any
     * invocation threw, the exception of the lowest-indexed throwing
     * shard is rethrown here (the others are discarded).
     *
     * Not reentrant: must not be called from inside a shard function.
     */
    void run(const std::function<void(unsigned)> &fn);

  private:
    void workerLoop(unsigned shard);
    void runShard(unsigned shard);

    /** Spin-then-park wait until `flag` reaches `target`. Whoever
     *  advances `flag` must call notify_all() on it. */
    void await(const std::atomic<std::uint64_t> &flag,
               std::uint64_t target) const;

    unsigned threads_;
    int spin_ = kDefaultSpin;
    std::vector<std::thread> workers_;

    // Barrier state: epoch_ advances to publish a new task to the
    // workers; done_ counts shards that finished the current epoch.
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::uint64_t> done_{0};
    std::atomic<bool> stop_{false};
    const std::function<void(unsigned)> *task_ = nullptr;

    std::vector<std::exception_ptr> errors_;
};

} // namespace sim

#endif // TTDA_COMMON_PARALLEL_HH
