#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace pb
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace
{

struct Buffer
{
    std::vector<SpanRec> spans;
    std::vector<std::uint64_t> open; //!< stack of open span ids
};

std::atomic<bool> gOn{false};
std::atomic<std::uint64_t> gNextId{1};
std::mutex gMu;
std::vector<std::shared_ptr<Buffer>> gBuffers; // guarded by gMu

Buffer &
local()
{
    thread_local std::shared_ptr<Buffer> buf = [] {
        auto b = std::make_shared<Buffer>();
        std::lock_guard<std::mutex> lk(gMu);
        gBuffers.push_back(b);
        return b;
    }();
    return *buf;
}

} // namespace

namespace trace
{

void
enable(bool on)
{
    gOn.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return gOn.load(std::memory_order_relaxed);
}

std::uint64_t
record(const char *layer, const char *name, std::uint64_t start,
       std::uint64_t end, std::uint64_t parent)
{
    if (!enabled())
        return 0;
    const std::uint64_t id = gNextId.fetch_add(1);
    local().spans.push_back(
        SpanRec{layer, name, start, end, id, parent});
    return id;
}

std::vector<SpanRec>
collect()
{
    std::vector<SpanRec> all;
    std::lock_guard<std::mutex> lk(gMu);
    for (const auto &b : gBuffers) {
        all.insert(all.end(), b->spans.begin(), b->spans.end());
        b->spans.clear();
    }
    return all;
}

} // namespace trace

Span::Span(const char *layer, const char *name)
    : layer_(layer), name_(name)
{
    if (!trace::enabled())
        return;
    Buffer &b = local();
    id_ = gNextId.fetch_add(1);
    parent_ = b.open.empty() ? 0 : b.open.back();
    b.open.push_back(id_);
    start_ = nowNs();
}

Span::~Span()
{
    if (id_ == 0)
        return;
    const std::uint64_t end = nowNs();
    Buffer &b = local();
    b.open.pop_back();
    b.spans.push_back(
        SpanRec{layer_, name_, start_, end, id_, parent_});
}

std::map<std::string, LayerSummary>
summarize(const std::vector<SpanRec> &spans)
{
    std::unordered_map<std::uint64_t, const SpanRec *> byId;
    std::unordered_map<std::uint64_t, std::vector<const SpanRec *>> kids;
    for (const SpanRec &s : spans) {
        byId[s.id] = &s;
        if (s.parent)
            kids[s.parent].push_back(&s);
    }

    std::map<std::string, LayerSummary> out;
    for (const SpanRec &s : spans) {
        LayerSummary &L = out[s.layer];
        ++L.spans;
        const double dur = static_cast<double>(s.end - s.start) / 1e6;

        // Time covered by children: the union of their intervals,
        // clipped to this span.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
        if (const auto it = kids.find(s.id); it != kids.end())
            for (const SpanRec *c : it->second)
                iv.emplace_back(std::max(c->start, s.start),
                                std::min(c->end, s.end));
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, reach = s.start;
        for (const auto &[a, e] : iv) {
            const std::uint64_t from = std::max(a, reach);
            if (e > from) {
                covered += e - from;
                reach = e;
            }
        }
        L.selfMs += dur - static_cast<double>(covered) / 1e6;

        bool nested = false;
        for (std::uint64_t p = s.parent; p && !nested;) {
            const auto it = byId.find(p);
            if (it == byId.end())
                break;
            nested = std::strcmp(it->second->layer, s.layer) == 0;
            p = it->second->parent;
        }
        if (!nested)
            L.totalMs += dur;
    }
    return out;
}

} // namespace pb
