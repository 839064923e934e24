/**
 * @file
 * Host-time spans recorded by the benchmark around its calls into the
 * simulator's modules. Nothing here reaches into src/: a span brackets
 * one public call (Machine::run, TtdaFleet::run, emul::compile, a
 * socket round trip to the daemon, ...) and is tagged with the module
 * ("layer") that owns the call.
 *
 * Spans are kept in per-thread buffers while tracing is on and
 * collected once at the end. A span opened while another is open on
 * the same thread becomes its child; summarize() subtracts children
 * from their parent to get each layer's self time. With tracing off a
 * Span costs one relaxed load.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb
{

/** Monotonic host clock, nanoseconds. */
std::uint64_t nowNs();

struct SpanRec
{
    const char *layer = "";
    const char *name = "";
    std::uint64_t start = 0; //!< ns
    std::uint64_t end = 0;   //!< ns
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
};

namespace trace
{

void enable(bool on);
bool enabled();

/** Record a span measured by hand (socket round trips, where start
 *  and end are seen at different call sites). Returns its id. */
std::uint64_t record(const char *layer, const char *name,
                     std::uint64_t start, std::uint64_t end,
                     std::uint64_t parent);

/** Take every span recorded so far, from all threads. */
std::vector<SpanRec> collect();

} // namespace trace

/** RAII span around one call into `layer`. */
class Span
{
  public:
    Span(const char *layer, const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *layer_;
    const char *name_;
    std::uint64_t start_ = 0;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
};

struct LayerSummary
{
    std::uint64_t spans = 0;
    double totalMs = 0.0; //!< spans not nested in a span of the layer
    double selfMs = 0.0;  //!< minus time covered by child spans
};

std::map<std::string, LayerSummary>
summarize(const std::vector<SpanRec> &spans);

} // namespace pb

#endif // PERFBENCH_SPANS_HH
