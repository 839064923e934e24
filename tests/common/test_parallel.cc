/**
 * @file
 * WorkerPool unit tests: every shard runs exactly once per tick, the
 * barrier really is a barrier, exceptions propagate (lowest shard
 * wins), and the pool survives many reuse cycles and clean shutdown.
 */

#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hh"

namespace
{

TEST(WorkerPool, SingleThreadRunsInline)
{
    sim::WorkerPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    int runs = 0;
    pool.run([&](unsigned shard) {
        EXPECT_EQ(shard, 0u);
        ++runs;
    });
    EXPECT_EQ(runs, 1);
}

TEST(WorkerPool, EveryShardRunsExactlyOnce)
{
    constexpr unsigned kThreads = 4;
    sim::WorkerPool pool(kThreads);
    std::vector<std::atomic<int>> counts(kThreads);
    pool.run([&](unsigned shard) { counts[shard].fetch_add(1); });
    for (unsigned s = 0; s < kThreads; ++s)
        EXPECT_EQ(counts[s].load(), 1) << "shard " << s;
}

TEST(WorkerPool, RunIsABarrier)
{
    // After run() returns, every shard's side effects must be visible
    // to the caller — sum per-shard partial results serially.
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerShard = 100000;
    sim::WorkerPool pool(kThreads);
    std::vector<std::uint64_t> partial(kThreads, 0);
    pool.run([&](unsigned shard) {
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < kPerShard; ++i)
            acc += i * (shard + 1);
        partial[shard] = acc;
    });
    std::uint64_t expect = 0;
    const std::uint64_t tri = kPerShard * (kPerShard - 1) / 2;
    for (unsigned s = 0; s < kThreads; ++s)
        expect += tri * (s + 1);
    EXPECT_EQ(std::accumulate(partial.begin(), partial.end(),
                              std::uint64_t{0}),
              expect);
}

TEST(WorkerPool, ReusableAcrossManyTicks)
{
    constexpr unsigned kThreads = 3;
    constexpr int kTicks = 2000;
    sim::WorkerPool pool(kThreads);
    std::vector<int> ticks(kThreads, 0);
    for (int t = 0; t < kTicks; ++t)
        pool.run([&](unsigned shard) { ++ticks[shard]; });
    for (unsigned s = 0; s < kThreads; ++s)
        EXPECT_EQ(ticks[s], kTicks) << "shard " << s;
}

TEST(WorkerPool, LowestShardExceptionWins)
{
    sim::WorkerPool pool(4);
    try {
        pool.run([](unsigned shard) {
            if (shard >= 1)
                throw std::runtime_error("shard " +
                                         std::to_string(shard));
        });
        FAIL() << "run() should have rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "shard 1");
    }
    // The pool must stay usable after a throwing tick.
    std::atomic<int> runs{0};
    pool.run([&](unsigned) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), 4);
}

TEST(WorkerPool, CallerExceptionPropagates)
{
    sim::WorkerPool pool(2);
    EXPECT_THROW(pool.run([](unsigned shard) {
        if (shard == 0)
            throw std::logic_error("caller shard");
    }),
                 std::logic_error);
}

TEST(WorkerPool, DestructionJoinsCleanly)
{
    // Construct, use once, destroy — repeatedly. Leaked or wedged
    // workers would hang this test (ctest's timeout catches it).
    for (int i = 0; i < 20; ++i) {
        sim::WorkerPool pool(3);
        std::atomic<int> runs{0};
        pool.run([&](unsigned) { runs.fetch_add(1); });
        EXPECT_EQ(runs.load(), 3);
    }
}

TEST(WorkerPool, DestructionWithoutAnyRun)
{
    sim::WorkerPool pool(4); // park and immediately shut down
}

/** CPU time used so far by every thread of this process, in ms. */
double
processCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

TEST(WorkerPool, IdleWorkersPark)
{
    // Past the spin budget an idle worker sleeps until the next run():
    // three idle workers must not burn three cores between batches.
    sim::WorkerPool pool(4);
    pool.run([](unsigned) {});
    const double before = processCpuMs();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_LT(processCpuMs() - before, 20.0);
}

// ---- spin-budget resolution --------------------------------------

/** Scoped SIM_SPIN_BUDGET override, restored on destruction. */
class ScopedSpinEnv
{
  public:
    explicit ScopedSpinEnv(const char *value)
    {
        if (const char *old = std::getenv("SIM_SPIN_BUDGET"))
            saved_ = old;
        if (value)
            setenv("SIM_SPIN_BUDGET", value, 1);
        else
            unsetenv("SIM_SPIN_BUDGET");
    }
    ~ScopedSpinEnv()
    {
        if (saved_.has_value())
            setenv("SIM_SPIN_BUDGET", saved_->c_str(), 1);
        else
            unsetenv("SIM_SPIN_BUDGET");
    }

  private:
    std::optional<std::string> saved_;
};

TEST(WorkerPoolSpin, ExplicitBudgetWins)
{
    ScopedSpinEnv env("123"); // an explicit arg beats the env
    sim::WorkerPool pool(2, 7);
    EXPECT_EQ(pool.spinBudget(), 7);
    sim::WorkerPool zero(2, 0);
    EXPECT_EQ(zero.spinBudget(), 0);
}

TEST(WorkerPoolSpin, EnvOverridesAuto)
{
    ScopedSpinEnv env("123");
    sim::WorkerPool pool(2);
    EXPECT_EQ(pool.spinBudget(), 123);
}

TEST(WorkerPoolSpin, AutoYieldsWhenOversubscribed)
{
    ScopedSpinEnv env(nullptr);
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        GTEST_SKIP() << "hardware_concurrency unknown";
    // More shards than cores: spinning would steal the very cycles
    // the barrier is waiting on.
    sim::WorkerPool over(hw + 1);
    EXPECT_EQ(over.spinBudget(), 0);
    // At or under the core count the default budget applies.
    sim::WorkerPool fit(hw);
    EXPECT_EQ(fit.spinBudget(), sim::WorkerPool::kDefaultSpin);
}

TEST(WorkerPoolSpin, YieldOnlyPoolStillCompletes)
{
    // Force the pure-yield path and prove the barrier still works —
    // the oversubscribed-CI configuration, pinned explicitly.
    sim::WorkerPool pool(4, 0);
    std::vector<int> ticks(4, 0);
    for (int t = 0; t < 200; ++t)
        pool.run([&](unsigned shard) { ++ticks[shard]; });
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(ticks[s], 200) << "shard " << s;
}

} // namespace
