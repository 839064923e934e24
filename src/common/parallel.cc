#include "common/parallel.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace sim
{

namespace
{

/** Resolve kSpinAuto: SIM_SPIN_BUDGET wins, else spin only when the
 *  host has a hardware thread for every shard. A shard spinning on a
 *  core its barrier partner needs is pure livelock fuel — fleets
 *  nesting intra-machine pools oversubscribe routinely, and a 1-CPU
 *  CI container always does. */
int
resolveSpin(unsigned threads)
{
    if (const char *env = std::getenv("SIM_SPIN_BUDGET")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        SIM_ASSERT_MSG(end != env && *end == '\0' && v >= 0,
                       "SIM_SPIN_BUDGET must be a non-negative "
                       "integer, got '{}'",
                       env);
        return static_cast<int>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw != 0 && threads > hw)
        return 0;
    return WorkerPool::kDefaultSpin;
}

} // namespace

WorkerPool::WorkerPool(unsigned threads, int spinBudget)
    : threads_(threads < 1 ? 1 : threads),
      spin_(spinBudget == kSpinAuto ? resolveSpin(threads_)
                                    : spinBudget),
      errors_(threads_)
{
    SIM_ASSERT_MSG(spin_ >= 0, "spin budget must be >= 0, got {}",
                   spin_);
    workers_.reserve(threads_ - 1);
    for (unsigned s = 1; s < threads_; ++s)
        workers_.emplace_back([this, s] { workerLoop(s); });
}

WorkerPool::~WorkerPool()
{
    stop_.store(true, std::memory_order_relaxed);
    // Wake parked workers: they re-check stop_ whenever the epoch
    // advances.
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
WorkerPool::await(const std::atomic<std::uint64_t> &flag,
                  std::uint64_t target) const
{
    // Spin briefly (a tick is typically microseconds away), then park
    // until the flag moves, so an idle pool costs no CPU. spin_ is 0
    // when the pool is oversubscribed: park at once and hand the core
    // to whichever shard still has work.
    for (int spin = 0; spin < spin_; ++spin) {
        if (flag.load(std::memory_order_acquire) >= target)
            return;
    }
    std::uint64_t seen = flag.load(std::memory_order_acquire);
    while (seen < target) {
        flag.wait(seen, std::memory_order_acquire);
        seen = flag.load(std::memory_order_acquire);
    }
}

void
WorkerPool::runShard(unsigned shard)
{
    try {
        (*task_)(shard);
    } catch (...) {
        errors_[shard] = std::current_exception();
    }
}

void
WorkerPool::workerLoop(unsigned shard)
{
    std::uint64_t seen = 0;
    for (;;) {
        await(epoch_, seen + 1);
        seen = epoch_.load(std::memory_order_acquire);
        if (stop_.load(std::memory_order_relaxed))
            return;
        runShard(shard);
        done_.fetch_add(1, std::memory_order_release);
        done_.notify_all();
    }
}

void
WorkerPool::run(const std::function<void(unsigned)> &fn)
{
    SIM_ASSERT_MSG(task_ == nullptr,
                   "WorkerPool::run is not reentrant");
    if (threads_ == 1) {
        // No barrier needed; still propagate exceptions uniformly.
        fn(0);
        return;
    }
    done_.store(0, std::memory_order_relaxed);
    task_ = &fn;
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    runShard(0);
    await(done_, threads_ - 1);
    task_ = nullptr;
    for (unsigned s = 0; s < threads_; ++s) {
        if (errors_[s]) {
            std::exception_ptr e = errors_[s];
            for (unsigned t = s; t < threads_; ++t)
                errors_[t] = nullptr;
            std::rethrow_exception(e);
        }
    }
}

} // namespace sim
