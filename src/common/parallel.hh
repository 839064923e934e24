/**
 * @file
 * A persistent worker pool for deterministic parallel simulation.
 *
 * The machines shard their processing elements across host threads and
 * run each simulated cycle as a two-phase tick: phase A computes every
 * shard's cycle into thread-local staging buffers, then — after the
 * pool's barrier — phase B commits the buffered effects in shard-index
 * order on the caller's thread. The pool provides exactly the primitive
 * that shape needs: run(fn) executes fn(shard) once per shard, with the
 * caller participating as shard 0, and returns only when every shard
 * has finished.
 *
 * Design points:
 *  - Workers are created once and parked between ticks; a tick costs
 *    two generation-counted barrier crossings, not thread creation.
 *  - Waiting spins briefly and then parks in std::atomic::wait; the
 *    code that advances a barrier counter calls notify_all. Short
 *    cycles finish inside the spin, and an idle pool (a fleet between
 *    batches, a daemon with no jobs) sleeps instead of burning a core
 *    per worker.
 *  - The spin budget adapts to the host: when the pool asks for more
 *    shards than the machine has hardware threads (a fleet of
 *    machines nesting intra-machine pools, or a CI container pinned
 *    to one CPU), spinning only steals cycles from the thread that
 *    would let the barrier complete, so oversubscribed pools park
 *    at once. `SIM_SPIN_BUDGET` overrides the budget explicitly
 *    (0 = never spin), for experiments and stubborn hosts.
 *  - Exceptions thrown by shard functions are captured and the
 *    lowest-indexed shard's exception is rethrown from run() after the
 *    barrier, so a failing cycle cannot leave workers running.
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
     *                spawned.
     * @param spinBudget barrier spin iterations before parking;
     *                kSpinAuto (the default) resolves to the
     *                SIM_SPIN_BUDGET environment variable when set,
     *                otherwise to 0 (park immediately) when `threads`
     *                exceeds the hardware concurrency and to
     *                kDefaultSpin on a machine with a core per shard.
     */
    explicit WorkerPool(unsigned threads, int spinBudget = kSpinAuto);

    /** Sentinel: resolve the spin budget from the environment and the
     *  host's core count (see the constructor). */
    static constexpr int kSpinAuto = -1;
    /** Spin iterations used when every shard has a hardware thread. */
    static constexpr int kDefaultSpin = 4096;

    /** The budget this pool resolved to (tests and diagnostics). */
    int spinBudget() const { return spin_; }

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
