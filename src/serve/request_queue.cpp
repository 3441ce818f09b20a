#include "serve/request_queue.hpp"

#include "common/check.hpp"
#include "serve/scheduler.hpp"

namespace efld::serve {

bool RequestQueue::push(PendingRequest&& req) {
    {
        const std::lock_guard<std::mutex> lock(m_);
        if (q_.size() >= capacity_) return false;
        q_.push_back(std::move(req));
    }
    cv_.notify_all();  // wake an idle serve driver
    return true;
}

std::optional<PendingRequest> RequestQueue::try_pop() {
    const std::lock_guard<std::mutex> lock(m_);
    if (q_.empty()) return std::nullopt;
    PendingRequest req = std::move(q_.front());
    q_.pop_front();
    return req;
}

std::optional<PendingRequest> RequestQueue::pop_with(const Scheduler& scheduler) {
    const std::lock_guard<std::mutex> lock(m_);
    if (q_.empty()) return std::nullopt;
    const std::size_t idx = scheduler.pick(q_);
    check(idx < q_.size(), "RequestQueue: scheduler pick out of range");
    PendingRequest req = std::move(q_[idx]);
    q_.erase(q_.begin() + static_cast<std::ptrdiff_t>(idx));
    return req;
}

RequestQueue::PopOutcome RequestQueue::pop_if(
    const Scheduler& scheduler,
    const std::function<bool(PendingRequest&)>& admissible,
    std::size_t max_deferrals) {
    const std::lock_guard<std::mutex> lock(m_);
    PopOutcome out;
    if (q_.empty()) return out;
    // Starvation guard: a request at the deferral bound outranks the
    // scheduler (most-deferred first; the scan order breaks ties FIFO).
    std::size_t idx = q_.size();
    for (std::size_t i = 0; i < q_.size(); ++i) {
        if (q_[i].times_deferred < max_deferrals) continue;
        if (idx == q_.size() || q_[i].times_deferred > q_[idx].times_deferred) {
            idx = i;
        }
    }
    const bool promoted = idx != q_.size();
    if (!promoted) {
        idx = scheduler.pick(q_);
        check(idx < q_.size(), "RequestQueue: scheduler pick out of range");
    }
    if (!admissible(q_[idx])) {
        out.deferred = true;  // pick stays queued, in place
        return out;
    }
    out.req = std::move(q_[idx]);
    q_.erase(q_.begin() + static_cast<std::ptrdiff_t>(idx));
    // Passed-over accounting: every earlier-submitted request still queued
    // just watched a younger one get admitted ahead of it.
    for (PendingRequest& r : q_) {
        if (r.id < out.req->id) ++r.times_deferred;
    }
    out.promoted = promoted;
    return out;
}

void RequestQueue::wait_for_work(const std::function<bool()>& wake) {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [&] { return !q_.empty() || wake(); });
}

void RequestQueue::notify_all() {
    // Pass through m_ first: a waiter that evaluated its predicate before the
    // caller flipped its flag is then either already blocked (and gets this
    // notify) or not yet past the lock (and re-reads the flag). Without it
    // the notify can land in that gap and the driver sleeps forever.
    { const std::lock_guard<std::mutex> lock(m_); }
    cv_.notify_all();
}

std::vector<PendingRequest> RequestQueue::remove_if(
    const std::function<bool(const PendingRequest&)>& pred) {
    const std::lock_guard<std::mutex> lock(m_);
    std::vector<PendingRequest> removed;
    for (auto it = q_.begin(); it != q_.end();) {
        if (pred(*it)) {
            removed.push_back(std::move(*it));
            it = q_.erase(it);
        } else {
            ++it;
        }
    }
    return removed;
}

void RequestQueue::for_each(
    const std::function<void(const PendingRequest&)>& fn) const {
    const std::lock_guard<std::mutex> lock(m_);
    for (const PendingRequest& r : q_) fn(r);
}

std::size_t RequestQueue::size() const {
    const std::lock_guard<std::mutex> lock(m_);
    return q_.size();
}

}  // namespace efld::serve
