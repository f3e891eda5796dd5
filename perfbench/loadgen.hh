/**
 * @file
 * The benchmark's own open-loop load generator and the small
 * statistics helpers every workload shares.
 *
 * The in-tree open-loop drivers (service/open_loop.hh,
 * net/open_loop_net.hh) do not report how late they sent, and a run
 * whose generator falls behind measures the generator, not the
 * system. This one sends each request at its scheduled time from a
 * single thread, stamps when it actually sent, and reaps completions
 * on a second thread, so every request yields the span chain
 * scheduled -> sent -> submit returned -> completed. Latency is
 * timed from the *scheduled* send, so a stall also charges the
 * requests queued behind it.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/latency.hh"
#include "common/rng.hh"
#include "service/index_service.hh"

namespace perfbench {

using widx::u64;

inline u64
nowNs()
{
    return widx::monotonicNowNs();
}

/** Poisson arrival offsets (ns from the run's start) for `n`
 *  requests at `ratePerSec`. */
inline std::vector<u64>
poissonSchedule(u64 n, double ratePerSec, widx::Rng &rng)
{
    std::vector<u64> due(n);
    double t = 0.0;
    for (u64 i = 0; i < n; ++i) {
        t += -std::log(1.0 - rng.uniform()) / ratePerSec;
        due[i] = u64(t * 1e9);
    }
    return due;
}

/** One request's timestamps (absolute steady-clock ns) and outcome.
 *  The generator thread writes due/sent/submitted, the reaper
 *  thread done/status/ok; readers look only after both joined. */
struct RequestRecord
{
    u64 due = 0;
    u64 sent = 0;      ///< clock read just before the submit call
    u64 submitted = 0; ///< clock read after it returned (traced only)
    u64 done = 0;      ///< completion time the caller observes
    widx::sw::Status status = widx::sw::Status::Ok;
    bool reaped = false;
    bool correct = false; ///< Ok and the result matched the oracle
};

struct OpenLoopRun
{
    std::vector<RequestRecord> reqs;
    u64 scheduled = 0;
    u64 sent = 0;
    u64 startNs = 0;
    u64 endNs = 0; ///< last completion reaped (or give-up time)
};

/**
 * Run one open loop. `submit(i)` issues request i (tag i) and must
 * not block on its completion; completions arrive on `cq` and
 * `check(i, result)` says whether result i is right. Sending stops
 * early if the generator falls more than 5 s behind schedule (unsent
 * requests count as not reaped); reaping gives up 30 s after the
 * last send.
 */
template <typename Submit, typename Check>
OpenLoopRun
runOpenLoop(widx::sw::CompletionQueue &cq,
            const std::vector<u64> &schedule, bool stampSubmit,
            Submit &&submit, Check &&check)
{
    constexpr u64 giveUpLateNs = 5'000'000'000ull;
    constexpr u64 drainNs = 30'000'000'000ull;

    // Default timer slack (50 us) would make every sleep-until-due
    // wake up late; 1 ns slack lets the short spin below finish the
    // wait.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

    OpenLoopRun run;
    run.scheduled = schedule.size();
    run.reqs.resize(schedule.size());
    std::atomic<u64> sentCount{0};
    std::atomic<bool> sending{true};

    std::thread reaper([&] {
        std::vector<widx::sw::Completion> batch;
        u64 reaped = 0;
        u64 giveUpAt = 0;
        for (;;) {
            const bool still = sending.load(std::memory_order_acquire);
            const u64 target = sentCount.load(std::memory_order_acquire);
            if (!still && reaped >= target)
                break;
            if (!still) {
                if (giveUpAt == 0)
                    giveUpAt = nowNs() + drainNs;
                else if (nowNs() > giveUpAt)
                    break;
            }
            if (cq.closed() && cq.size() == 0 && !still)
                break;
            batch.clear();
            cq.reap(batch, 1024, std::chrono::milliseconds(5));
            for (widx::sw::Completion &c : batch) {
                if (c.tag >= run.reqs.size())
                    continue;
                RequestRecord &r = run.reqs[c.tag];
                r.done = c.result.completedAtNs ? c.result.completedAtNs
                                                : nowNs();
                r.status = c.result.status;
                r.reaped = true;
                r.correct = c.result.status == widx::sw::Status::Ok &&
                            check(std::size_t(c.tag), c.result);
                ++reaped;
            }
        }
    });

    run.startNs = nowNs() + 1'000'000; // 1 ms head start for the reaper
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        RequestRecord &r = run.reqs[i];
        r.due = run.startNs + schedule[i];
        u64 now = nowNs();
        if (r.due > now + 20'000)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(r.due - now - 10'000));
        while ((now = nowNs()) < r.due) {
        }
        if (now - r.due > giveUpLateNs)
            break;
        r.sent = now;
        submit(i);
        if (stampSubmit)
            r.submitted = nowNs();
        sentCount.store(i + 1, std::memory_order_release);
    }
    run.sent = sentCount.load(std::memory_order_relaxed);
    sending.store(false, std::memory_order_release);
    reaper.join();
    run.endNs = nowNs();
    for (const RequestRecord &r : run.reqs)
        if (r.reaped)
            run.endNs = std::max(run.endNs, r.done);
    return run;
}

/** Exact percentile (nearest rank) of an unsorted sample, in the
 *  sample's unit; 0 for an empty sample. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(std::ceil(p / 100.0 * double(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/**
 * Percentile `p` of a latency sample kept in scheduled-send order,
 * taken as the median over consecutive equal groups of each group's
 * percentile. Groups hold at least kMinGroup samples (ten beyond a
 * p99) and there are at most kMaxGroups; a sample too small for two
 * groups gets the plain percentile. On a shared host a vCPU
 * preemption stalls every request in flight for milliseconds; with
 * groups shorter than the gap between such stalls, the median over
 * groups keeps them from deciding the run's figure, while a slowdown
 * that lasts through most of the run still moves it.
 */
inline constexpr std::size_t kMinGroup = 1000;
inline constexpr std::size_t kMaxGroups = 100;

inline double
groupedPercentile(const std::vector<double> &inOrder, double p)
{
    const std::size_t groups =
        std::min(kMaxGroups, inOrder.size() / kMinGroup);
    if (groups < 2)
        return percentile(inOrder, p);
    std::vector<double> per;
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t lo = inOrder.size() * g / groups;
        const std::size_t hi = inOrder.size() * (g + 1) / groups;
        per.push_back(percentile(
            std::vector<double>(inOrder.begin() + lo, inOrder.begin() + hi),
            p));
    }
    return percentile(std::move(per), 50.0);
}

inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / double(v.size());
}

inline double
maxOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
