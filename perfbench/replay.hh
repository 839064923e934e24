/**
 * @file
 * In-process replays of the daemon_mixed job list.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <vector>

#include "jobs.hh"

namespace pb
{

/** Run every job through w1 TtdaFleet / VnFleet (ttda jobs in one
 *  batch, vn jobs in another, as the daemon would if it batched them
 *  all) and return the deterministic result fields, in `jobs` order. */
std::vector<Expected> replayExpected(const DaemonModel &model,
                                     const std::vector<Job> &jobs);

} // namespace pb

#endif // PERFBENCH_REPLAY_HH
