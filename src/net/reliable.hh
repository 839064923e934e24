/**
 * @file
 * End-to-end reliability decorator for lossy fabrics.
 *
 * ReliableNet wraps any Network<Envelope<Payload>> and presents the
 * plain Network<Payload> interface, adding the protocol a machine
 * needs to survive the sim::fault injector:
 *
 *  - every logical send becomes a sequence-numbered Data envelope on a
 *    per-(src,dst) stream;
 *  - the receiver acknowledges every Data envelope (including
 *    duplicates, so a lost ACK cannot strand the sender) and delivers
 *    each sequence number at most once, tolerating reordering via a
 *    low-watermark + seen-set window;
 *  - the sender retransmits unacknowledged envelopes after a timeout
 *    with bounded exponential backoff, giving up (and counting the
 *    abandonment) after maxAttempts — the hook deadlock forensics use
 *    to tell "stranded by loss" from a genuine protocol deadlock.
 *
 * The fault injector is attached to the *inner* network, so Data and
 * Ack envelopes are equally at risk; the wrapper is the recovery layer
 * the paper's transaction-style memory requests (Section 2.3) assume.
 *
 * Determinism: the protocol consumes no randomness. Retransmit order
 * is fixed by each timer's (deadline, insertion-order) key, and the
 * machines call the wrapper in a fixed order, so runs replay
 * bit-identically.
 *
 * Host-side state. A packet that is not lost costs O(1) bookkeeping
 * and no allocation:
 *
 *  - Streams. A dense table holds one small record per (src,dst)
 *    stream, numPorts()^2 of them: the tx sequence counter, the rx
 *    low watermark, and the unacknowledged sends as a seq-indexed ring
 *    window [base, txSeq]. An ACK marks its slot dead and base moves
 *    past the dead slots at the front. The rx out-of-order set is
 *    allocated on a stream's first out-of-order arrival and touched
 *    only off the in-order fast path (seq == watermark with nothing
 *    parked above it).
 *  - Timers. A first transmission's deadline is now + timeout and now
 *    never decreases, so first-send timers are created in (deadline,
 *    insertion-order) order and wait in a FIFO. Only backed-off
 *    retransmits, whose deadlines jump ahead, go in a small EventHeap.
 *    Both take their insertion order from one counter, and step()
 *    always fires the smaller (deadline, order) head of the two: the
 *    merge of two ordered sequences, which is exactly the pop order of
 *    one heap holding every timer. Timers of sends already acked stay
 *    queued until due and are skipped then, so nextDelivery() wakes
 *    the machine on the same cycles as that single heap did.
 */

#ifndef TTDA_NET_RELIABLE_HH
#define TTDA_NET_RELIABLE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/eventheap.hh"
#include "common/logging.hh"
#include "common/ringqueue.hh"
#include "net/network.hh"

namespace net
{

/** Retransmission policy for ReliableNet. */
struct RetryConfig
{
    sim::Cycle timeout = 64;       //!< cycles before first retransmit
    std::uint32_t maxAttempts = 10; //!< total transmissions before giving up
    std::uint32_t backoffCap = 5;  //!< max doublings of the timeout
};

/** Backoff before the next retransmit once `attempts` transmissions
 *  of an envelope have been made: timeout << min(attempts-1, cap). */
sim::Cycle backoffDelay(const RetryConfig &cfg, std::uint32_t attempts);

/** Protocol-level counters kept by ReliableNet. */
struct RelStats
{
    sim::Counter retransmits;  //!< Data envelopes resent on timeout
    sim::Counter abandoned;    //!< sends given up after maxAttempts
    sim::Counter rxDuplicates; //!< Data envelopes deduplicated at rx
    sim::Counter acksSent;
    sim::Counter staleAcks;    //!< ACKs for already-completed sends
};

/** The wire format: a payload plus the protocol header. */
template <typename Payload>
struct Envelope
{
    enum class Kind : std::uint8_t { Data, Ack };

    Kind kind = Kind::Data;
    sim::NodeId origin = sim::invalidNode; //!< sender of this envelope
    sim::NodeId target = sim::invalidNode;
    std::uint64_t seq = 0;  //!< per-(src,dst)-stream sequence number
    sim::Cycle issued = 0;  //!< original logical send cycle
    Payload payload{};
};

/** Checkpoint codecs for envelopes riding an inner fabric. */
template <typename W, typename Payload>
void
snapSave(W &w, const Envelope<Payload> &e)
{
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u32(e.origin);
    w.u32(e.target);
    w.u64(e.seq);
    w.u64(e.issued);
    snapSave(w, e.payload);
}

template <typename R, typename Payload>
void
snapLoad(R &r, Envelope<Payload> &e)
{
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(Envelope<Payload>::Kind::Ack))
        r.fail("bad envelope kind");
    e.kind = static_cast<typename Envelope<Payload>::Kind>(kind);
    e.origin = r.u32();
    e.target = r.u32();
    e.seq = r.u64();
    e.issued = r.u64();
    snapLoad(r, e.payload);
}

/** Reliability decorator: at-most-once delivery with retransmission. */
template <typename Payload>
class ReliableNet : public Network<Payload>
{
    static_assert(std::is_copy_constructible_v<Payload>,
                  "ReliableNet keeps a copy of each unacknowledged "
                  "payload for retransmission");

  public:
    using Env = Envelope<Payload>;

    explicit ReliableNet(std::unique_ptr<Network<Env>> inner,
                         RetryConfig cfg = {})
        : inner_(std::move(inner)), cfg_(cfg)
    {
        SIM_ASSERT(inner_ != nullptr);
        SIM_ASSERT(cfg_.timeout >= 1);
        SIM_ASSERT(cfg_.maxAttempts >= 1);
        ports_ = inner_->numPorts();
        streams_.resize(std::size_t{ports_} * ports_);
    }

    sim::NodeId numPorts() const override { return ports_; }

    void
    send(sim::NodeId src, sim::NodeId dst, Payload payload) override
    {
        SIM_ASSERT(src < ports_ && dst < ports_);
        const std::uint32_t sid = streamId(src, dst);
        Stream &s = streams_[sid];
        const std::uint64_t seq = ++s.txSeq;
        Packet<Payload> logical;
        logical.src = src;
        logical.dst = dst;
        logical.issued = now_;
        this->noteSend(logical);

        s.fit();
        PendingTx &p = s.slot(seq);
        p.payload = payload; // retransmission copy
        p.issued = now_;
        p.attempts = 1;
        p.deadline = now_ + cfg_.timeout;
        p.live = true;
        ++pending_;
        firstSends_.push_back(Timer{p.deadline, nextOrder_++, seq, sid});

        Env env;
        env.kind = Env::Kind::Data;
        env.origin = src;
        env.target = dst;
        env.seq = seq;
        env.issued = now_;
        env.payload = std::move(payload);
        inner_->send(src, dst, std::move(env));
    }

    void
    step(sim::Cycle now) override
    {
        now_ = now + 1;
        inner_->step(now);
        // Fire expired retransmission timers in (deadline, order)
        // order. A timer whose send was acked, abandoned or already
        // rescheduled is stale and skipped.
        Timer t;
        while (popDue(t)) {
            Stream &s = streams_[t.stream];
            PendingTx *p = s.find(t.seq);
            if (p == nullptr || p->deadline != t.deadline)
                continue;
            if (p->attempts >= cfg_.maxAttempts) {
                relStats_.abandoned.inc();
                retire(s, *p);
                continue;
            }
            p->attempts += 1;
            relStats_.retransmits.inc();
            p->deadline = now_ + backoffDelay(cfg_, p->attempts);
            retries_.push(p->deadline,
                          Timer{p->deadline, nextOrder_++, t.seq,
                                t.stream});

            Env env;
            env.kind = Env::Kind::Data;
            env.origin = t.stream / ports_;
            env.target = t.stream % ports_;
            env.seq = t.seq;
            env.issued = p->issued;
            env.payload = p->payload; // copy; may need to resend again
            inner_->send(env.origin, env.target, std::move(env));
        }
    }

    std::optional<Payload>
    receive(sim::NodeId dst) override
    {
        // ACKs and duplicates are protocol overhead, not deliveries:
        // consume them without charging the port's one-arrival budget
        // and hand the machine the first fresh Data payload.
        for (;;) {
            std::optional<Env> env = inner_->receive(dst);
            if (!env)
                return std::nullopt;
            // Restored in-flight envelopes are untrusted bytes; the
            // origin indexes the stream table.
            SIM_ASSERT(env->origin < ports_);
            if (env->kind == Env::Kind::Ack) {
                // The ACK's origin is the data receiver, so the acked
                // stream is (dst -> origin).
                Stream &s = streams_[streamId(dst, env->origin)];
                if (PendingTx *p = s.find(env->seq))
                    retire(s, *p);
                else
                    relStats_.staleAcks.inc();
                continue;
            }
            // Data on stream (origin -> dst). Acknowledge every copy:
            // a duplicate usually means our previous ACK was lost.
            Env ack;
            ack.kind = Env::Kind::Ack;
            ack.origin = dst;
            ack.target = env->origin;
            ack.seq = env->seq;
            ack.issued = now_;
            inner_->send(dst, env->origin, std::move(ack));
            relStats_.acksSent.inc();

            if (!accept(streams_[streamId(env->origin, dst)], env->seq)) {
                relStats_.rxDuplicates.inc();
                continue;
            }
            Packet<Payload> logical;
            logical.src = env->origin;
            logical.dst = dst;
            logical.issued = env->issued;
            this->noteDeliver(logical, now_);
            return std::move(env->payload);
        }
    }

    bool
    idle() const override
    {
        return inner_->idle() && pending_ == 0;
    }

    sim::Cycle
    nextDelivery() const override
    {
        sim::Cycle next = inner_->nextDelivery();
        // Stale timers can only wake the machine early (step() skips
        // them), never late, so the earliest deadline is a safe bound.
        if (pending_ != 0) {
            if (!firstSends_.empty())
                next = std::min(next, firstSends_.front().deadline - 1);
            if (!retries_.empty())
                next = std::min(next, retries_.minKey() - 1);
        }
        return next;
    }

    /** Occupancy of the wrapped fabric, in envelopes (Data + Ack).
     *  Unacked sends awaiting retransmission are a protocol-level
     *  quantity, reported separately via pendingCount(). */
    NetOccupancy
    occupancy() const override
    {
        return inner_->occupancy();
    }

    void
    setTracer(sim::Tracer *tracer, std::uint32_t pid) override
    {
        Network<Payload>::setTracer(tracer, pid);
        inner_->setTracer(tracer, pid);
    }

    /** Faults are injected on the inner fabric so both Data and Ack
     *  envelopes are exposed; this wrapper is the recovery layer. */
    void
    setFaultInjector(sim::fault::FaultInjector *faults) override
    {
        inner_->setFaultInjector(faults);
    }

    void
    reset() override
    {
        Network<Payload>::reset();
        inner_->reset();
        now_ = 0;
        clearProtocol();
        relStats_.retransmits.reset();
        relStats_.abandoned.reset();
        relStats_.rxDuplicates.reset();
        relStats_.acksSent.reset();
        relStats_.staleAcks.reset();
    }

    const RelStats &relStats() const { return relStats_; }
    /** Envelope-level traffic statistics of the wrapped fabric. */
    const NetStats &innerStats() const { return inner_->stats(); }
    /** Sends still awaiting acknowledgement (forensics hook). */
    std::size_t pendingCount() const { return pending_; }

    /** Acked sends still held in a tx window behind an older unacked
     *  send of the same stream, over all streams: the gaps that an
     *  out-of-order ACK leaves until the front is acked or abandoned. */
    std::size_t
    windowGaps() const
    {
        std::size_t span = 0;
        for (const Stream &s : streams_)
            span += s.txSeq + 1 - s.base;
        return span - pending_;
    }

    /** The wrapped fabric, for checkpointing: the owner knows the
     *  concrete topology and dispatches its saveState statically. */
    Network<Env> &inner() { return *inner_; }
    const Network<Env> &inner() const { return *inner_; }

    /** Checkpoint the protocol state — per-stream tx sequence
     *  numbers, rx dedup windows, unacknowledged sends, retransmit
     *  timers, counters — plus this decorator's own base slice. The
     *  inner fabric is saved separately by the owner. Streams are
     *  written in (src,dst) order, sends in seq order, and timers in
     *  (deadline, order) order; a sorted array is a valid binary heap,
     *  so the layout is the one the single-heap format used. */
    template <typename W>
    void
    saveState(W &w) const
    {
        this->saveBase(w);
        w.u64(now_);
        std::uint64_t nt = 0, nr = 0;
        for (const Stream &s : streams_) {
            nt += s.txSeq != 0;
            nr += s.watermark != 1 || s.parked();
        }
        w.u64(nt);
        for (std::uint32_t sid = 0; sid < streams_.size(); ++sid) {
            if (streams_[sid].txSeq == 0)
                continue;
            w.u64(streamKey(sid));
            w.u64(streams_[sid].txSeq);
        }
        w.u64(nr);
        for (std::uint32_t sid = 0; sid < streams_.size(); ++sid) {
            const Stream &s = streams_[sid];
            if (s.watermark == 1 && !s.parked())
                continue;
            w.u64(streamKey(sid));
            w.u64(s.watermark);
            w.u64(s.parked() ? s.seen->size() : 0);
            if (s.seen)
                for (const std::uint64_t q : *s.seen)
                    w.u64(q);
        }
        w.u64(pending_);
        for (std::uint32_t sid = 0; sid < streams_.size(); ++sid) {
            const Stream &s = streams_[sid];
            for (std::uint64_t q = s.base; q <= s.txSeq; ++q) {
                const PendingTx &p = s.slot(q);
                if (!p.live)
                    continue;
                w.u32(sid / ports_);
                w.u32(sid % ports_);
                w.u64(q);
                snapSave(w, p.payload);
                w.u64(p.issued);
                w.u64(p.deadline);
                w.u32(p.attempts);
            }
        }
        std::vector<Timer> timers;
        timers.reserve(firstSends_.size() + retries_.size());
        for (std::size_t i = 0; i < firstSends_.size(); ++i)
            timers.push_back(firstSends_.at(i));
        retries_.forEachNode([&](sim::Cycle, std::uint64_t,
                                 const Timer &t) { timers.push_back(t); });
        std::sort(timers.begin(), timers.end());
        w.u64(timers.size());
        for (const Timer &t : timers) {
            w.u64(t.deadline);
            w.u64(t.order);
            w.u32(t.stream / ports_);
            w.u32(t.stream % ports_);
            w.u64(t.seq);
        }
        w.u64(nextOrder_);
        snapSave(w, relStats_.retransmits);
        snapSave(w, relStats_.abandoned);
        snapSave(w, relStats_.rxDuplicates);
        snapSave(w, relStats_.acksSent);
        snapSave(w, relStats_.staleAcks);
    }

    /** Restore a saveState() stream. The timers arrive as a valid
     *  binary heap: sorted from this format, or in the array order of
     *  the single-heap format. They all go to the retry heap, which
     *  pops them in (deadline, order) order, while new first sends
     *  queue behind them in the FIFO. */
    template <typename R>
    void
    loadState(R &r)
    {
        this->loadBase(r);
        now_ = r.u64();
        clearProtocol();
        const std::uint64_t nt = r.u64();
        for (std::uint64_t i = 0; i < nt; ++i) {
            Stream &s = streams_[loadStream(r, r.u64())];
            s.txSeq = r.u64();
            s.base = s.txSeq + 1; // empty window until sends load
        }
        const std::uint64_t nr = r.u64();
        for (std::uint64_t i = 0; i < nr; ++i) {
            Stream &s = streams_[loadStream(r, r.u64())];
            s.watermark = r.u64();
            const std::uint64_t ns = r.u64();
            for (std::uint64_t k = 0; k < ns; ++k) {
                if (!s.seen)
                    s.seen = std::make_unique<std::set<std::uint64_t>>();
                s.seen->insert(r.u64());
            }
        }
        const std::uint64_t np = r.u64();
        std::uint32_t lastSid = 0;
        std::uint64_t lastSeq = 0;
        for (std::uint64_t i = 0; i < np; ++i) {
            const std::uint32_t src = r.u32();
            const std::uint32_t dst = r.u32();
            const std::uint32_t sid = loadStream(r, src, dst);
            const std::uint64_t seq = r.u64();
            Stream &s = streams_[sid];
            if (seq == 0 || seq > s.txSeq)
                r.fail("reliable-net pending seq outside its stream");
            if (s.base > s.txSeq) {
                // First unacked send of this stream: the window opens
                // here, every later seq up to txSeq dead until loaded.
                if (s.txSeq - seq >= kMaxRestoredWindow)
                    r.fail("reliable-net tx window too wide");
                s.base = seq;
                s.fit();
                for (std::uint64_t q = seq; q <= s.txSeq; ++q)
                    s.slot(q).live = false;
            } else if (sid != lastSid || seq <= lastSeq) {
                r.fail("reliable-net pending sends out of order");
            }
            lastSid = sid;
            lastSeq = seq;
            PendingTx &p = s.slot(seq);
            snapLoad(r, p.payload);
            p.issued = r.u64();
            p.deadline = r.u64();
            p.attempts = r.u32();
            p.live = true;
            ++pending_;
        }
        const std::uint64_t nk = r.u64();
        for (std::uint64_t i = 0; i < nk; ++i) {
            Timer t;
            t.deadline = r.u64();
            t.order = r.u64();
            const std::uint32_t src = r.u32();
            const std::uint32_t dst = r.u32();
            t.stream = loadStream(r, src, dst);
            t.seq = r.u64();
            retries_.restoreNode(t.deadline, t.order, t);
        }
        nextOrder_ = r.u64();
        // The heap breaks deadline ties by its own counter; restart it
        // above every loaded order so it keeps agreeing with `order`.
        retries_.setNextSeq(nextOrder_);
        snapLoad(r, relStats_.retransmits);
        snapLoad(r, relStats_.abandoned);
        snapLoad(r, relStats_.rxDuplicates);
        snapLoad(r, relStats_.acksSent);
        snapLoad(r, relStats_.staleAcks);
    }

  private:
    /** Widest tx window a restore accepts. The ring is sized to the
     *  window, so an untrusted txSeq far above a stream's first
     *  pending seq must not size an allocation; a run that far behind
     *  would already hold gigabytes of unacked payloads. */
    static constexpr std::uint64_t kMaxRestoredWindow = std::uint64_t{1}
                                                        << 24;

    struct PendingTx
    {
        Payload payload{};
        sim::Cycle issued = 0;
        sim::Cycle deadline = 0;
        std::uint32_t attempts = 0;
        bool live = false; //!< sent and neither acked nor abandoned
    };

    /** One (src,dst) stream: the sender's window and the receiver's
     *  dedup state. Seqs start at 1. */
    struct Stream
    {
        std::uint64_t txSeq = 0;     //!< last seq sent
        std::uint64_t base = 1;      //!< oldest seq in the tx window
        std::uint64_t watermark = 1; //!< rx: every seq below delivered
        /** rx: seqs above the watermark already delivered; allocated
         *  on the first out-of-order arrival and kept for reuse. */
        std::unique_ptr<std::set<std::uint64_t>> seen;
        std::vector<PendingTx> ring; //!< tx window [base, txSeq]

        bool parked() const { return seen && !seen->empty(); }

        PendingTx &
        slot(std::uint64_t seq)
        {
            return ring[seq & (ring.size() - 1)];
        }

        const PendingTx &
        slot(std::uint64_t seq) const
        {
            return ring[seq & (ring.size() - 1)];
        }

        /** The unacked send `seq`, or null if it was acked, abandoned
         *  or never sent. */
        PendingTx *
        find(std::uint64_t seq)
        {
            if (seq < base || seq > txSeq)
                return nullptr;
            PendingTx &p = slot(seq);
            return p.live ? &p : nullptr;
        }

        /** Grow the ring (a power of two) to hold [base, txSeq]. */
        void
        fit()
        {
            const std::uint64_t span = txSeq - base + 1;
            if (span <= ring.size())
                return;
            std::size_t cap = ring.empty() ? 4 : 2 * ring.size();
            while (cap < span)
                cap *= 2;
            std::vector<PendingTx> next(cap);
            if (!ring.empty())
                for (std::uint64_t q = base; q < txSeq; ++q)
                    next[q & (cap - 1)] = std::move(slot(q));
            ring = std::move(next);
        }
    };
    static_assert(sizeof(Stream) <= 64,
                  "numPorts()^2 stream records must stay small");

    /** A retransmission deadline for send `seq` of stream `stream`;
     *  `order` is its insertion order across both timer queues. */
    struct Timer
    {
        sim::Cycle deadline = 0;
        std::uint64_t order = 0;
        std::uint64_t seq = 0;
        std::uint32_t stream = 0;

        bool
        operator<(const Timer &o) const
        {
            return deadline != o.deadline ? deadline < o.deadline
                                          : order < o.order;
        }
    };

    std::uint32_t
    streamId(sim::NodeId src, sim::NodeId dst) const
    {
        return src * ports_ + dst;
    }

    /** The pre-table snapshot key of a stream: src << 32 | dst. */
    std::uint64_t
    streamKey(std::uint32_t sid) const
    {
        return (static_cast<std::uint64_t>(sid / ports_) << 32) |
               (sid % ports_);
    }

    template <typename R>
    std::uint32_t
    loadStream(R &r, std::uint64_t src, std::uint64_t dst) const
    {
        if (src >= ports_ || dst >= ports_)
            r.fail("reliable-net stream endpoint out of range");
        return streamId(static_cast<sim::NodeId>(src),
                        static_cast<sim::NodeId>(dst));
    }

    template <typename R>
    std::uint32_t
    loadStream(R &r, std::uint64_t key) const
    {
        return loadStream(r, key >> 32, key & 0xffffffffu);
    }

    /** Pop the earliest timer into `t` if it is due by now_. */
    bool
    popDue(Timer &t)
    {
        const bool fifo = !firstSends_.empty();
        if (fifo && (retries_.empty() ||
                     firstSends_.front() < retries_.top())) {
            if (firstSends_.front().deadline > now_)
                return false;
            t = firstSends_.front();
            firstSends_.pop_front();
            return true;
        }
        if (retries_.empty() || retries_.minKey() > now_)
            return false;
        t = retries_.pop();
        return true;
    }

    /** Drop a send from its window: acked or abandoned. */
    void
    retire(Stream &s, PendingTx &p)
    {
        p.live = false;
        --pending_;
        while (s.base <= s.txSeq && !s.slot(s.base).live)
            ++s.base;
    }

    /** Receiver dedup: true the first time `seq` arrives. */
    bool
    accept(Stream &rx, std::uint64_t seq)
    {
        if (seq == rx.watermark && !rx.parked()) {
            ++rx.watermark; // in order, nothing parked above
            return true;
        }
        if (seq < rx.watermark)
            return false;
        if (!rx.seen)
            rx.seen = std::make_unique<std::set<std::uint64_t>>();
        std::set<std::uint64_t> &seen = *rx.seen;
        if (!seen.insert(seq).second)
            return false;
        while (!seen.empty() && *seen.begin() == rx.watermark) {
            seen.erase(seen.begin());
            ++rx.watermark;
        }
        return true;
    }

    /** Every stream back to its just-constructed state; ring and
     *  seen-set allocations are kept for the next run. */
    void
    clearProtocol()
    {
        for (Stream &s : streams_) {
            s.txSeq = 0;
            s.base = 1;
            s.watermark = 1;
            if (s.seen)
                s.seen->clear();
        }
        pending_ = 0;
        firstSends_.clear();
        retries_.clear();
        nextOrder_ = 0;
    }

    std::unique_ptr<Network<Env>> inner_;
    RetryConfig cfg_;
    sim::NodeId ports_ = 0;
    sim::Cycle now_ = 0;
    std::vector<Stream> streams_;             //!< index src * ports_ + dst
    std::size_t pending_ = 0;                 //!< live sends, all streams
    sim::RingQueue<Timer> firstSends_;        //!< (deadline, order) sorted
    sim::EventHeap<Timer> retries_;           //!< backed-off retransmits
    std::uint64_t nextOrder_ = 0;             //!< shared insertion order
    RelStats relStats_;
};

} // namespace net

#endif // TTDA_NET_RELIABLE_HH
