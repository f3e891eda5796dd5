/**
 * @file
 * widx_perfbench: the repo benchmark's workload program.
 *
 *   widx_perfbench --workload point_tcp|join_dram|churn_rw
 *                  --seed N --seconds S --trace 0|1 [--spans PATH]
 *
 * Builds the workload's inputs from the seed, sets the system up
 * several times (setup_s is the median), measures for S seconds,
 * checks every result against an oracle built at generation, and
 * prints one JSON line: correct / attempted / failed / metrics /
 * record. With --trace 0 the metrics are the end-to-end set; with
 * --trace 1 the run repeats the measured pass with spans recorded
 * around every call into a layer and reports the per-layer set (see
 * README.md for the metric -> layer -> workload table). run.py
 * builds this program, adds the host record and prints the final
 * line (correct / attempted / failed / metrics).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/arena.hh"
#include "common/rng.hh"
#include "db/column.hh"
#include "db/hash_fn.hh"
#include "db/hash_index.hh"
#include "db/hash_join.hh"
#include "loadgen.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "service/index_service.hh"
#include "swwalkers/probers.hh"

using namespace widx;
using namespace perfbench;

namespace {

// --- Workload constants (fixed here; every later claim cites them) ---

constexpr std::size_t kReadKeys = 32;  ///< keys per point read
constexpr unsigned kShards = 4;
/** point_tcp / churn_rw offered rate (the in-tree ladders' mid row). */
constexpr double kRatePerSec = 8000.0;
/** max_rate_rps latency limit on the read p99 (see README.md). */
constexpr double kLatencyLimitUs = 5000.0;
/** join_dram: build keys (16M: index ~7x the 105 MiB LLC of the
 *  reference host), probe columns cycled per call, keys per probeAll
 *  call (long calls, so a host stall is a small share of one). */
constexpr u64 kJoinBuildKeys = u64(1) << 24;
constexpr unsigned kJoinProbeCols = 4;
constexpr u64 kJoinCallKeys = u64(1) << 20;
/** churn_rw mix (per request) and write request size. */
constexpr double kChurnReadShare = 0.90;
constexpr double kChurnInsertShare = 0.06;
constexpr double kChurnUpsertShare = 0.02;
constexpr std::size_t kWriteKeys = 16;
/** churn_rw: each shard's expected crossing of the rebuild watermark
 *  sits this far into the measured window. */
constexpr double kChurnCrossAt = 0.35;
constexpr double kRebuildLoadFactor = 0.75;
/** Closed-loop passes (probe_mkeys_s on point_tcp and churn_rw, the
 *  ladder's service and TCP columns): depth, length, and completions
 *  per throughput sample. */
constexpr std::size_t kClosedDepth = 64;
constexpr double kClosedSeconds = 3.0;
constexpr std::size_t kClosedGroup = 4096;
/** Requests timed in the ladder's kernel column. */
constexpr std::size_t kLadderRequests = 20000;
/** Set-ups per run of the 1M-key workloads (setup_s is the median);
 *  join_dram's 16M build runs 3 times. */
constexpr int kSetupReps = 7;

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
};

// --- Result assembly -------------------------------------------------

class Report
{
  public:
    void
    metric(const char *name, double v, const char *unit)
    {
        metrics_.push_back({name, v, unit});
    }

    void
    record(const char *name, double v)
    {
        record_.push_back({name, v, ""});
    }

    /** Count finished operations; wrong ones also fail the run. */
    void
    count(u64 attempted, u64 failed, u64 wrong)
    {
        attempted_ += attempted;
        failed_ += failed;
        if (wrong > 0)
            correct_ = false;
    }

    /** A failed check (a wrong result, or a workload that did not
     *  exercise what it exists for) fails the run. */
    void
    fail(const std::string &what)
    {
        correct_ = false;
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }

    u64 attempted() const { return attempted_; }
    u64 failed() const { return failed_; }

    void
    print() const
    {
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
                    correct_ ? "true" : "false", attempted_, failed_);
        for (std::size_t i = 0; i < metrics_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics_[i].name.c_str(),
                        finite(metrics_[i].v), metrics_[i].unit.c_str());
        std::printf("}, \"record\": {");
        for (std::size_t i = 0; i < record_.size(); ++i)
            std::printf("%s\"%s\": %.17g", i ? ", " : "",
                        record_[i].name.c_str(), finite(record_[i].v));
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    struct Entry
    {
        std::string name;
        double v;
        std::string unit;
    };

    static double
    finite(double v)
    {
        return std::isfinite(v) ? v : 0.0;
    }

    std::vector<Entry> metrics_;
    std::vector<Entry> record_;
    u64 attempted_ = 0;
    u64 failed_ = 0;
    bool correct_ = true;
};

/** Every end-to-end metric; each workload fills all of them. */
struct EndToEnd
{
    double setupS = 0;
    double readP50Us = 0;
    double probeMkeysS = 0;
    double peakRssMib = 0;

    void
    emit(Report &r) const
    {
        const double ok = r.attempted()
                              ? double(r.attempted() - r.failed()) /
                                    double(r.attempted())
                              : 0.0;
        r.metric("setup_s", setupS, "s");
        r.metric("read_p50_us", readP50Us, "us");
        r.metric("probe_mkeys_s", probeMkeysS, "Mkeys/s");
        r.metric("ok_frac", ok, "frac");
        r.metric("peak_rss_mib", peakRssMib, "MiB");
    }
};

/** Every per-layer metric; a layer a workload does not exercise
 *  reports 0 (see README.md for which). */
struct Layers
{
    double lateP50Us = 0, lateP99Us = 0, sentFrac = 0;
    double readsN = 0, writesN = 0;
    double netSubmitMeanUs = 0, netSelfMeanUs = 0;
    double netDropped = 0, netProtocolErrors = 0;
    double svcSubmitMeanUs = 0, svcSubmitMaxMs = 0;
    double queueMeanUs = 0, queueP99Us = 0;
    double drainMeanUs = 0, drainP99Us = 0;
    double keysPerWindow = 0, coalescedFrac = 0;
    double rejected = 0, expired = 0;
    double amacMkeysS = 0, batchMkeysS = 0, drainNsPerKey = 0;
    double tagPassFrac = 0, buildS = 0, indexMib = 0;
    double applyMeanUs = 0, applyMaxMs = 0;
    double rebuilds = 0, keysApplied = 0;
    double overheadFrac = 0;
    double ladderKernel = 0, ladderService = 0, ladderTcp = 0;
    double readP90Us = 0, readP99Us = 0;
    double maxRateRps = 0, writeP50Us = 0, writeP99Us = 0;

    void
    emit(Report &r) const
    {
        r.metric("loadgen.late_p50_us", lateP50Us, "us");
        r.metric("loadgen.late_p99_us", lateP99Us, "us");
        r.metric("loadgen.sent_frac", sentFrac, "frac");
        r.metric("loadgen.reads_n", readsN, "count");
        r.metric("loadgen.writes_n", writesN, "count");
        r.metric("net.client_submit_mean_us", netSubmitMeanUs, "us");
        r.metric("net.self_mean_us", netSelfMeanUs, "us");
        r.metric("net.dropped_responses", netDropped, "count");
        r.metric("net.protocol_errors", netProtocolErrors, "count");
        r.metric("service.submit_mean_us", svcSubmitMeanUs, "us");
        r.metric("service.submit_max_ms", svcSubmitMaxMs, "ms");
        r.metric("service.queue_mean_us", queueMeanUs, "us");
        r.metric("service.queue_p99_us", queueP99Us, "us");
        r.metric("service.drain_mean_us", drainMeanUs, "us");
        r.metric("service.drain_p99_us", drainP99Us, "us");
        r.metric("service.keys_per_window", keysPerWindow, "keys");
        r.metric("service.coalesced_frac", coalescedFrac, "frac");
        r.metric("service.rejected", rejected, "count");
        r.metric("service.expired", expired, "count");
        r.metric("kernel.amac_mkeys_s", amacMkeysS, "Mkeys/s");
        r.metric("kernel.batch_mkeys_s", batchMkeysS, "Mkeys/s");
        r.metric("kernel.drain_ns_per_key", drainNsPerKey, "ns");
        r.metric("db.tag_pass_frac", tagPassFrac, "frac");
        r.metric("db.build_s", buildS, "s");
        r.metric("db.index_mib", indexMib, "MiB");
        r.metric("mut.apply_mean_us", applyMeanUs, "us");
        r.metric("mut.apply_max_ms", applyMaxMs, "ms");
        r.metric("mut.rebuilds", rebuilds, "count");
        r.metric("mut.keys_applied", keysApplied, "count");
        r.metric("trace.overhead_frac", overheadFrac, "frac");
        r.metric("ladder.kernel_mkeys_s", ladderKernel, "Mkeys/s");
        r.metric("ladder.service_mkeys_s", ladderService, "Mkeys/s");
        r.metric("ladder.tcp_mkeys_s", ladderTcp, "Mkeys/s");
        r.metric("e2e.read_p90_us", readP90Us, "us");
        r.metric("e2e.read_p99_us", readP99Us, "us");
        r.metric("e2e.max_rate_rps", maxRateRps, "1/s");
        r.metric("e2e.write_p50_us", writeP50Us, "us");
        r.metric("e2e.write_p99_us", writeP99Us, "us");
    }
};

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

double
usOf(u64 ns)
{
    return double(ns) / 1e3;
}

// --- Spans -----------------------------------------------------------

/** Span names: one per layer boundary the benchmark's code crosses.
 *  A request's spans share its id; `request` is the root. */
enum SpanKind : u8
{
    kSpanRequest,   ///< scheduled send -> completion observed
    kSpanLate,      ///< scheduled send -> actual send (generator)
    kSpanNetSubmit, ///< inside TcpIndexClient::submitAsync
    kSpanSvcSubmit, ///< inside IndexService::submitAsync (reads)
    kSpanMutApply,  ///< inside IndexService::submitAsync (writes)
    kSpanProbeAll,  ///< one db::probeAll call
};

const char *const kSpanNames[] = {"request",        "loadgen.late",
                                  "net.submit",     "service.submit",
                                  "mut.apply",      "db.probe_all"};

/** In-memory span log, written out once the run ends. */
class SpanLog
{
  public:
    void
    add(u64 id, SpanKind kind, u64 start, u64 end)
    {
        spans_.push_back({id, start, end, kind});
    }

    /** Record an open-loop pass: root, lateness and submit spans. */
    void
    addRun(const OpenLoopRun &run, const std::vector<SpanKind> &submitKind)
    {
        for (std::size_t i = 0; i < run.reqs.size(); ++i) {
            const RequestRecord &r = run.reqs[i];
            if (r.sent == 0)
                continue;
            const u64 id = nextId_ + i;
            add(id, kSpanRequest, r.due, r.reaped ? r.done : r.sent);
            add(id, kSpanLate, r.due, r.sent);
            add(id, submitKind[i], r.sent, r.submitted);
        }
        nextId_ += run.reqs.size();
    }

    u64 nextId() { return nextId_++; }

    /** CSV: id,span,parent,start_ns,end_ns (parent empty = root). */
    void
    write(const std::string &path) const
    {
        if (path.empty())
            return;
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return;
        }
        std::fprintf(f, "id,span,parent,start_ns,end_ns\n");
        for (const Span &s : spans_)
            std::fprintf(f, "%" PRIu64 ",%s,%s,%" PRIu64 ",%" PRIu64 "\n",
                         s.id, kSpanNames[s.kind],
                         s.kind == kSpanRequest ? "" : "request",
                         s.start, s.end);
        std::fclose(f);
    }

  private:
    struct Span
    {
        u64 id, start, end;
        SpanKind kind;
    };
    std::vector<Span> spans_;
    u64 nextId_ = 0;
};

// --- Inputs ----------------------------------------------------------

/** Dense keys 0..n-1 in seeded random order as the build column;
 *  build row r stores key column[r] with payload r. */
struct Dataset
{
    Dataset(u64 n, Rng &rng, bool keepRows)
        : build("build", db::ValueKind::U64, arena, n)
    {
        std::vector<u32> perm(n);
        std::iota(perm.begin(), perm.end(), 0u);
        for (u64 i = n; i > 1; --i)
            std::swap(perm[i - 1], perm[rng.below(i)]);
        if (keepRows)
            rowOf.resize(n);
        for (u64 r = 0; r < n; ++r) {
            build.push(perm[r]);
            if (keepRows)
                rowOf[perm[r]] = u32(r);
        }
    }

    Arena arena;
    db::Column build;
    std::vector<u32> rowOf; ///< key -> build row
};

db::IndexSpec
specFor(u64 buckets)
{
    db::IndexSpec spec;
    spec.buckets = buckets;
    spec.hashFn = db::HashFn::monetdbRobust();
    return spec;
}

// --- Shared measurement pieces --------------------------------------

struct Lat
{
    std::vector<double> us;
    double p50() const { return groupedPercentile(us, 50.0); }
    double p90() const { return groupedPercentile(us, 90.0); }
    double p99() const { return groupedPercentile(us, 99.0); }
};

/** Latency (scheduled -> done) of the correct requests selected by
 *  `want`, in scheduled order. */
template <typename Want>
Lat
latencies(const OpenLoopRun &run, Want &&want)
{
    Lat l;
    for (std::size_t i = 0; i < run.reqs.size(); ++i) {
        const RequestRecord &r = run.reqs[i];
        if (want(i) && r.reaped && r.correct)
            l.us.push_back(usOf(r.done - r.due));
    }
    return l;
}

/** Requests that completed Ok with a result the oracle rejects. */
u64
wrongIn(const OpenLoopRun &run)
{
    u64 wrong = 0;
    for (const RequestRecord &r : run.reqs)
        wrong += r.reaped && r.status == sw::Status::Ok && !r.correct;
    return wrong;
}

void
countRun(Report &rep, const OpenLoopRun &run)
{
    u64 failed = 0;
    for (const RequestRecord &r : run.reqs)
        failed += !r.reaped || !r.correct;
    const u64 wrong = wrongIn(run);
    rep.count(run.reqs.size(), failed, wrong);
    if (wrong)
        rep.fail("open-loop results disagree with the oracle");
}

void
loadgenLayer(Layers &L, const OpenLoopRun &run)
{
    std::vector<double> late;
    late.reserve(run.reqs.size());
    for (const RequestRecord &r : run.reqs)
        if (r.sent)
            late.push_back(usOf(r.sent - r.due));
    L.lateP50Us = percentile(late, 50.0);
    L.lateP99Us = percentile(late, 99.0);
    L.sentFrac = run.scheduled ? double(run.sent) / double(run.scheduled)
                               : 0.0;
}

/** Submit-call durations (us) of the requests selected by `want`. */
template <typename Want>
std::vector<double>
submitTimes(const OpenLoopRun &run, Want &&want)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < run.reqs.size(); ++i) {
        const RequestRecord &r = run.reqs[i];
        if (want(i) && r.sent && r.submitted >= r.sent)
            v.push_back(usOf(r.submitted - r.sent));
    }
    return v;
}

/** Service-side read-path figures over one pass (stats deltas; the
 *  latency histograms were reset before the pass). */
void
serviceLayer(Layers &L, const sw::ServiceStats &before,
             const sw::ServiceStats &after, sw::RequestKind readKind,
             u64 readKeys)
{
    const sw::KindLatency &k = after.latencyFor(readKind);
    L.queueMeanUs = k.queueWait.meanNs() / 1e3;
    L.queueP99Us = usOf(k.queueWait.p99Ns);
    L.drainMeanUs = k.drainTime.meanNs() / 1e3;
    L.drainP99Us = usOf(k.drainTime.p99Ns);
    const u64 windows = after.windows - before.windows;
    L.keysPerWindow = windows ? double(readKeys) / double(windows) : 0.0;
    L.coalescedFrac =
        windows ? double(after.coalescedWindows - before.coalescedWindows) /
                      double(windows)
                : 0.0;
    L.rejected = double(after.rejected - before.rejected);
    L.expired = double(after.expired - before.expired);
    L.drainNsPerKey =
        readKeys ? double(k.drainTime.sumNs) / double(readKeys) : 0.0;
    L.rebuilds = double(after.rebuilds - before.rebuilds);
    L.keysApplied = double(after.mutations - before.mutations);
}

/** Keys of `keys` that hash to each shard of `idx`. */
std::vector<std::vector<u64>>
byShard(const sw::ShardedIndex &idx, std::span<const u64> keys)
{
    std::vector<u64> h(keys.size());
    idx.hashBatch(keys, h);
    std::vector<std::vector<u64>> out(idx.shards());
    for (std::size_t i = 0; i < keys.size(); ++i)
        out[idx.shardOf(h[i])].push_back(keys[i]);
    return out;
}

/**
 * Single-thread kernel figures over shard 0 of the service's index
 * (a flat db::HashIndex) with the workload's read keys that hash to
 * it: AmacProber::probeAll and HashIndex::probeBatch Mkeys/s (median
 * of repeats), and the tag filter's pass share over every shard.
 */
void
kernelLayer(Layers &L, Report &rep, const sw::ShardedIndex &idx,
            std::span<const u64> keys)
{
    auto parts = byShard(idx, keys.subspan(0, std::min<std::size_t>(
                                                  keys.size(), 4u << 20)));
    u64 pass = 0, total = 0;
    for (unsigned s = 0; s < idx.shards(); ++s) {
        const std::vector<u64> &k = parts[s];
        std::vector<u64> h(k.size()), bits((k.size() + 63) / 64);
        idx.shard(s).hashBatch(k, h);
        pass += idx.shard(s).tagFilterBatchScalar(h.data(), h.size(),
                                                  bits.data());
        total += k.size();
    }
    L.tagPassFrac = total ? double(pass) / double(total) : 0.0;

    const db::HashIndex &flat = idx.shard(0);
    const std::vector<u64> &k0 = parts[0];
    sw::AmacProber amac(flat, 8);
    std::vector<double> amacRate, batchRate;
    u64 amacMatches = 0, batchMatches = 0;
    const u64 until = nowNs() + 1'000'000'000ull;
    for (int rep_ = 0; rep_ < 3 || nowNs() < until; ++rep_) {
        u64 t0 = nowNs();
        amacMatches = amac.probeAll(k0);
        u64 t1 = nowNs();
        batchMatches =
            flat.probeBatch(k0, [](std::size_t, u64, u64) {}, true);
        u64 t2 = nowNs();
        amacRate.push_back(double(k0.size()) / double(t1 - t0) * 1e3);
        batchRate.push_back(double(k0.size()) / double(t2 - t1) * 1e3);
        if (rep_ >= 15)
            break;
    }
    if (amacMatches != batchMatches)
        rep.fail("AmacProber and probeBatch disagree on shard 0");
    L.amacMkeysS = median(amacRate);
    L.batchMkeysS = median(batchRate);
}

/**
 * Closed loop at depth kClosedDepth from one thread for
 * kClosedSeconds: submit(j) sends request j (tag j, kReadKeys keys)
 * and check(j, result) says whether its Ok result is right. Returns
 * read keys answered per second, in millions: the median over
 * consecutive groups of kClosedGroup completions, so a host stall
 * spoils a few groups and not the figure.
 */
template <typename Submit, typename Check>
double
closedLoopMkeys(sw::CompletionQueue &cq, Submit &&submit, Check &&check,
                Report &rep)
{
    std::vector<sw::Completion> batch;
    std::vector<double> rates;
    u64 sent = 0, done = 0, failed = 0, wrong = 0;
    const u64 t0 = nowNs();
    const u64 stopAt = t0 + u64(kClosedSeconds * 1e9);
    const u64 giveUp = stopAt + 60'000'000'000ull;
    u64 groupStart = t0;
    for (;;) {
        const u64 now = nowNs();
        const bool sending = now < stopAt;
        if ((!sending && done == sent) || now > giveUp)
            break;
        while (sending && sent - done < kClosedDepth)
            submit(std::size_t(sent++));
        batch.clear();
        cq.reap(batch, kClosedDepth, std::chrono::milliseconds(10));
        for (sw::Completion &c : batch) {
            if (c.result.status != sw::Status::Ok)
                ++failed;
            else if (!check(std::size_t(c.tag), c.result))
                ++failed, ++wrong;
            if (++done % kClosedGroup == 0) {
                const u64 t = nowNs();
                rates.push_back(double(kClosedGroup * kReadKeys) /
                                double(t - groupStart) * 1e3);
                groupStart = t;
            }
        }
    }
    failed += sent - done;
    rep.count(sent, failed, wrong);
    if (wrong)
        rep.fail("closed-loop results disagree with the oracle");
    if (rates.empty())
        rates.push_back(double(done * kReadKeys) / double(nowNs() - t0) *
                        1e3);
    return median(rates);
}

// --- point_tcp -------------------------------------------------------

/**
 * OLTP point reads over loopback TCP: 1M dense keys, 4 shards, 2
 * walkers; 32-key Probe requests, Poisson open loop at 8k req/s on
 * one TcpIndexClient. Every response is checked record by record.
 */
class PointTcp
{
  public:
    PointTcp(const Args &a, Rng &rng)
        : args_(a), data_(kKeys, rng, true)
    {
        const u64 reqs = u64(kRatePerSec * a.seconds);
        pool_.resize(reqs * kReadKeys);
        for (u64 &k : pool_)
            k = rng.below(kKeys);
        schedule_ = poissonSchedule(reqs, kRatePerSec, rng);
        cfg_.shards = kShards;
        cfg_.walkers = 2;
    }

    void
    run(Report &rep)
    {
        EndToEnd e;
        Layers L;
        std::vector<double> setups, builds;
        for (int r = 0; r < kSetupReps; ++r) {
            client_.reset();
            server_.reset();
            svc_.reset();
            const u64 t0 = nowNs();
            svc_ = std::make_unique<sw::IndexService>(
                data_.build, specFor(kKeys), cfg_);
            const u64 t1 = nowNs();
            server_ = std::make_unique<net::TcpIndexServer>(*svc_);
            client_ = std::make_unique<net::TcpIndexClient>(
                "127.0.0.1", server_->port());
            const u64 t2 = nowNs();
            setups.push_back(double(t2 - t0) / 1e9);
            builds.push_back(double(t1 - t0) / 1e9);
        }
        e.setupS = median(setups);
        L.buildS = median(builds);
        L.indexMib = double(svc_->index().footprintBytes()) / 1048576.0;
        rep.record("index_mib", L.indexMib);
        rep.record("shards", svc_->shards());
        rep.record("walkers", svc_->walkers());
        rep.record("rate_rps", kRatePerSec);

        OpenLoopRun plain = pass(rep, *client_, schedule_, false);
        Lat lat = latencies(plain, [](std::size_t) { return true; });
        e.readP50Us = lat.p50();
        L.readP90Us = lat.p90();
        L.readP99Us = lat.p99();
        rep.record("reads_n", double(lat.us.size()));
        rep.record("read_p99_whole_us", percentile(lat.us, 99.0));

        if (!args_.trace) {
            e.probeMkeysS = tcpMkeys(rep);
            e.peakRssMib = peakRssMib();
            e.emit(rep);
            return;
        }

        // Traced pass on a fresh connection (fresh tag space).
        client_.reset();
        client_ = std::make_unique<net::TcpIndexClient>(
            "127.0.0.1", server_->port());
        svc_->resetLatencyStats();
        const sw::ServiceStats before = svc_->stats();
        OpenLoopRun traced = pass(rep, *client_, schedule_, true);
        const sw::ServiceStats after = svc_->stats();
        client_->close();
        spans_.addRun(traced, std::vector<SpanKind>(traced.reqs.size(),
                                                    kSpanNetSubmit));
        Lat tl = latencies(traced, [](std::size_t) { return true; });
        L.overheadFrac = tl.p50() / e.readP50Us - 1.0;
        L.readsN = double(tl.us.size());
        loadgenLayer(L, traced);
        serviceLayer(L, before, after, sw::RequestKind::Probe,
                     traced.sent * kReadKeys);
        const std::vector<double> sub =
            submitTimes(traced, [](std::size_t) { return true; });
        L.netSubmitMeanUs = mean(sub);
        std::vector<double> observed;
        for (const RequestRecord &r : traced.reqs)
            if (r.reaped && r.correct)
                observed.push_back(usOf(r.done - r.sent));
        L.netSelfMeanUs =
            mean(observed) -
            after.latencyFor(sw::RequestKind::Probe).endToEnd.meanNs() / 1e3;

        ladder(L, rep);
        const net::TcpServerStats server = server_->stats();
        L.netDropped = double(server.droppedResponses);
        L.netProtocolErrors = double(server.protocolErrors);
        kernelLayer(L, rep, svc_->index(), pool_);
        L.maxRateRps = maxRate(rep);
        spans_.write(args_.spans);
        L.emit(rep);
    }

  private:
    static constexpr u64 kKeys = u64(1) << 20;

    /** The workload's read stream, closed loop over a fresh
     *  TcpIndexClient: the wire's read capacity in Mkeys/s. */
    double
    tcpMkeys(Report &rep)
    {
        net::TcpIndexClient client("127.0.0.1", server_->port());
        const double mkeys = closedLoopMkeys(
            *client.queue(),
            [&](std::size_t j) {
                client.submitAsync(sw::RequestKind::Probe, keysOf(j), 0, j);
            },
            [&](std::size_t j, const sw::ServiceResult &r) {
                return checkProbe(j, r);
            },
            rep);
        client.close();
        return mkeys;
    }

    /**
     * Layer-cost ladder: the workload's read stream through the bare
     * AMAC kernel (each request's keys split by shard beforehand, one
     * AmacProber per shard: the service's drains minus the service),
     * through IndexService::submitAsync in-process, and through TCP.
     * Each column is a layer's read throughput in Mkeys/s; the
     * service column also times the submit call.
     */
    void
    ladder(Layers &L, Report &rep)
    {
        const sw::ShardedIndex &idx = svc_->index();
        std::vector<sw::AmacProber> probers;
        probers.reserve(idx.shards());
        for (unsigned s = 0; s < idx.shards(); ++s)
            probers.emplace_back(idx.shard(s), 8);
        std::vector<std::vector<std::vector<u64>>> parts;
        parts.reserve(kLadderRequests);
        for (std::size_t j = 0; j < kLadderRequests; ++j)
            parts.push_back(byShard(idx, keysOf(j)));
        u64 wrong = 0;
        const u64 t0 = nowNs();
        for (const auto &req : parts) {
            u64 m = 0;
            for (unsigned s = 0; s < idx.shards(); ++s)
                if (!req[s].empty())
                    m += probers[s].probeAll(req[s]);
            wrong += m != kReadKeys;
        }
        L.ladderKernel =
            double(kLadderRequests * kReadKeys) / double(nowNs() - t0) * 1e3;
        rep.count(kLadderRequests, wrong, wrong);
        if (wrong)
            rep.fail("kernel ladder column missed resident keys");

        // Shared ownership: a request still in flight after a give-up
        // keeps its queue alive.
        auto cq = std::make_shared<sw::CompletionQueue>();
        std::vector<double> submitUs;
        L.ladderService = closedLoopMkeys(
            *cq,
            [&](std::size_t j) {
                const u64 t = nowNs();
                svc_->submitAsync(sw::RequestKind::Probe, keysOf(j), {}, cq,
                                  j);
                submitUs.push_back(usOf(nowNs() - t));
            },
            [&](std::size_t j, const sw::ServiceResult &r) {
                return checkProbe(j, r);
            },
            rep);
        L.svcSubmitMeanUs = mean(submitUs);
        L.svcSubmitMaxMs = maxOf(submitUs) / 1e3;
        L.ladderTcp = tcpMkeys(rep);
    }

    OpenLoopRun
    pass(Report &rep, net::TcpIndexClient &client,
         const std::vector<u64> &schedule, bool stamp, bool count = true)
    {
        OpenLoopRun run = runOpenLoop(
            *client.queue(), schedule, stamp,
            [&](std::size_t i) {
                client.submitAsync(sw::RequestKind::Probe, keysOf(i), 0, i);
            },
            [&](std::size_t i, const sw::ServiceResult &r) {
                return checkProbe(i, r);
            });
        if (count)
            countRun(rep, run);
        return run;
    }

    std::span<const u64>
    keysOf(std::size_t i) const
    {
        return std::span<const u64>(pool_).subspan(
            (i % (pool_.size() / kReadKeys)) * kReadKeys, kReadKeys);
    }

    bool
    checkProbe(std::size_t i, const sw::ServiceResult &r) const
    {
        std::span<const u64> k = keysOf(i);
        if (r.recs.size() != k.size() || r.matches != k.size())
            return false;
        for (std::size_t j = 0; j < k.size(); ++j) {
            const sw::MatchRec &m = r.recs[j];
            if (m.i != j || m.key != k[j] || m.payload != data_.rowOf[k[j]])
                return false;
        }
        return true;
    }

    /** Does a 1-second open loop at `rate` keep the read p99 within
     *  the limit, fail nothing, and drain within the limit after its
     *  last scheduled send (no growing backlog)? */
    bool
    meets(Report &rep, double rate, u64 seed)
    {
        Rng rng(seed);
        const std::vector<u64> sched =
            poissonSchedule(u64(rate), rate, rng);
        net::TcpIndexClient client("127.0.0.1", server_->port());
        OpenLoopRun run = pass(rep, client, sched, false, false);
        client.close();
        if (wrongIn(run)) {
            rep.count(0, 0, wrongIn(run));
            rep.fail("max-rate step results disagree with the oracle");
        }
        Lat lat = latencies(run, [](std::size_t) { return true; });
        const bool allOk = lat.us.size() == run.reqs.size();
        const u64 lastDue = run.reqs.empty() ? 0 : run.reqs.back().due;
        const double tailUs = usOf(run.endNs - lastDue);
        std::fprintf(stderr,
                     "perfbench: max-rate step %.0f/s: p99 %.0f us, "
                     "drain tail %.0f us, ok %s\n",
                     rate, lat.p99(), tailUs, allOk ? "yes" : "no");
        return allOk && lat.p99() <= kLatencyLimitUs &&
               tailUs <= kLatencyLimitUs;
    }

    /** Highest offered rate meeting the limit: double from the
     *  nominal rate until a step fails, then bisect three times. */
    double
    maxRate(Report &rep)
    {
        u64 seed = args_.seed * 7919 + 1;
        double good = 0.0, bad = 0.0;
        for (double r = kRatePerSec; r <= 1e6; r *= 2) {
            if (!meets(rep, r, seed++)) {
                bad = r;
                break;
            }
            good = r;
        }
        if (good == 0.0) {
            for (double r = kRatePerSec / 2; r >= 250.0; r /= 2)
                if (meets(rep, r, seed++)) {
                    good = r;
                    bad = 2 * r;
                    break;
                }
        }
        for (int i = 0; i < 3 && good > 0.0 && bad > 0.0; ++i) {
            const double mid = (good + bad) / 2;
            (meets(rep, mid, seed++) ? good : bad) = mid;
        }
        return good;
    }

    const Args &args_;
    Dataset data_;
    std::vector<u64> pool_;
    std::vector<u64> schedule_;
    sw::ServiceConfig cfg_;
    // Destroyed client -> server -> service (reverse order).
    std::unique_ptr<sw::IndexService> svc_;
    std::unique_ptr<net::TcpIndexServer> server_;
    std::unique_ptr<net::TcpIndexClient> client_;
    SpanLog spans_;
};

// --- join_dram -------------------------------------------------------

/**
 * The analytic probe phase of a hash join over a DRAM-resident
 * index: 16M dense build keys (index about 7x the reference LLC), 4
 * shards, 3 walkers; probe columns of uniform keys over twice the
 * build range (about half misses), each probed by one
 * db::probeAll(IndexService&, Column) call, closed loop. Each call's
 * match count is checked against the count known at generation.
 */
class JoinDram
{
  public:
    JoinDram(const Args &a, Rng &rng)
        : args_(a), data_(kJoinBuildKeys, rng, false)
    {
        for (unsigned c = 0; c < kJoinProbeCols; ++c) {
            probes_.emplace_back(std::make_unique<db::Column>(
                "probe", db::ValueKind::U64, probeArena_, kJoinCallKeys));
            u64 hits = 0;
            for (u64 i = 0; i < kJoinCallKeys; ++i) {
                const u64 k = rng.below(2 * kJoinBuildKeys);
                probes_.back()->push(k);
                hits += k < kJoinBuildKeys;
                stream_.push_back(k);
            }
            expected_.push_back(hits);
        }
        cfg_.shards = kShards;
        cfg_.walkers = 3;
    }

    void
    run(Report &rep)
    {
        EndToEnd e;
        Layers L;
        std::vector<double> builds;
        for (int r = 0; r < 3; ++r) {
            svc_.reset();
            const u64 t0 = nowNs();
            svc_ = std::make_unique<sw::IndexService>(
                data_.build, specFor(kJoinBuildKeys), cfg_);
            builds.push_back(double(nowNs() - t0) / 1e9);
        }
        e.setupS = median(builds);
        L.buildS = e.setupS;
        L.indexMib = double(svc_->index().footprintBytes()) / 1048576.0;
        rep.record("index_mib", L.indexMib);
        rep.record("shards", svc_->shards());
        rep.record("walkers", svc_->walkers());

        Calls plain = pass(rep, false);
        e.readP50Us = groupedPercentile(plain.latUs, 50.0);
        L.readP90Us = groupedPercentile(plain.latUs, 90.0);
        L.readP99Us = groupedPercentile(plain.latUs, 99.0);
        e.probeMkeysS = plain.keys / plain.busyUs;
        rep.record("calls_n", double(plain.latUs.size()));

        if (!args_.trace) {
            e.peakRssMib = peakRssMib();
            e.emit(rep);
            return;
        }

        svc_->resetLatencyStats();
        const sw::ServiceStats before = svc_->stats();
        Calls traced = pass(rep, true);
        const sw::ServiceStats after = svc_->stats();
        L.overheadFrac =
            groupedPercentile(traced.latUs, 50.0) / e.readP50Us - 1.0;
        L.readsN = double(traced.latUs.size());
        L.lateP50Us = median(traced.gapUs);
        L.lateP99Us = percentile(traced.gapUs, 99.0);
        L.sentFrac = 1.0; // closed loop: every call is sent when due
        serviceLayer(L, before, after, sw::RequestKind::Count,
                     u64(traced.keys));
        kernelLayer(L, rep, svc_->index(), stream_);
        spans_.write(args_.spans);
        L.emit(rep);
    }

  private:
    struct Calls
    {
        std::vector<double> latUs, gapUs;
        double keys = 0, busyUs = 0;
    };

    /** probeAll calls, closed loop, for args.seconds. */
    Calls
    pass(Report &rep, bool trace)
    {
        Calls c;
        u64 failed = 0, wrong = 0;
        const u64 end = nowNs() + u64(args_.seconds * 1e9);
        u64 prevEnd = 0;
        for (std::size_t n = 0; nowNs() < end || n == 0; ++n) {
            const db::Column &col = *probes_[n % kJoinProbeCols];
            const u64 t0 = nowNs();
            db::JoinResult r = db::probeAll(*svc_, col, false);
            const u64 t1 = nowNs();
            if (trace) {
                spans_.add(spans_.nextId(), kSpanProbeAll, t0, t1);
                if (prevEnd)
                    c.gapUs.push_back(usOf(t0 - prevEnd));
            }
            prevEnd = t1;
            if (r.status != sw::Status::Ok) {
                ++failed;
                continue;
            }
            if (r.matches != expected_[n % kJoinProbeCols]) {
                ++failed, ++wrong;
                continue;
            }
            c.latUs.push_back(usOf(t1 - t0));
            c.keys += double(col.size());
            c.busyUs += usOf(t1 - t0);
        }
        rep.count(c.latUs.size() + failed, failed, wrong);
        if (wrong)
            rep.fail("probeAll match count differs from generation");
        return c;
    }

    const Args &args_;
    Dataset data_;
    Arena probeArena_;
    std::vector<std::unique_ptr<db::Column>> probes_;
    std::vector<u64> expected_;
    std::vector<u64> stream_; ///< every probe key, in call order
    sw::ServiceConfig cfg_;
    std::unique_ptr<sw::IndexService> svc_;
    SpanLog spans_;
};

// --- churn_rw --------------------------------------------------------

/**
 * Live mutation in-process: the 1M-bucket shape with mutation on,
 * open loop at 8k req/s; 90% 32-key Count reads, 6% Insert of fresh
 * keys, 2% Upsert of resident keys, 2% Delete of keys this run
 * inserted earlier (16 keys per write). The start load factor is set
 * from the generated mix so every shard crosses its rebuild
 * watermark about a third of the way into the measured window; a
 * pass in which any shard did not rebuild fails the run, since the
 * workload exists to measure that path.
 * Reads touch only keys no write changes, so every Count is exact;
 * after the run a sample of inserted, deleted, upserted and
 * untouched keys is probed against the sequential oracle.
 */
class ChurnRw
{
  public:
    ChurnRw(const Args &a, Rng &rng) : args_(a)
    {
        const u64 reqs = u64(kRatePerSec * a.seconds);
        // Pass 1: the op mix, and the net insert count it implies.
        kinds_.resize(reqs);
        u64 live = 0, net = 0;
        for (u64 i = 0; i < reqs; ++i) {
            const double u = rng.uniform();
            sw::RequestKind k = sw::RequestKind::Count;
            if (u >= kChurnReadShare + kChurnInsertShare +
                         kChurnUpsertShare)
                k = live >= kWriteKeys ? sw::RequestKind::Delete
                                       : sw::RequestKind::Insert;
            else if (u >= kChurnReadShare + kChurnInsertShare)
                k = sw::RequestKind::Upsert;
            else if (u >= kChurnReadShare)
                k = sw::RequestKind::Insert;
            if (k == sw::RequestKind::Insert)
                live += kWriteKeys, net += kWriteKeys;
            if (k == sw::RequestKind::Delete)
                live -= kWriteKeys, net -= kWriteKeys;
            kinds_[i] = k;
        }
        const double watermark = kRebuildLoadFactor * double(kBuckets);
        base_ = u64(watermark - kChurnCrossAt * double(net));
        data_ = std::make_unique<Dataset>(base_, rng, true);

        // Pass 2: keys, payloads and oracles, in submission order.
        std::vector<u64> insertedLive;
        u64 nextFresh = base_;
        off_.resize(reqs + 1);
        for (u64 i = 0; i < reqs; ++i) {
            off_[i] = keys_.size();
            switch (kinds_[i]) {
            case sw::RequestKind::Count: {
                u64 hits = 0;
                for (std::size_t j = 0; j < kReadKeys; ++j) {
                    const bool hit = rng.chance(0.9);
                    keys_.push_back(hit ? rng.below(base_)
                                        : kMissBase + rng.below(base_));
                    pays_.push_back(0);
                    hits += hit;
                }
                expect_.push_back(hits);
                reads_.push_back(i);
                readKeys_.insert(readKeys_.end(), keys_.end() - kReadKeys,
                                 keys_.end());
                break;
            }
            case sw::RequestKind::Insert:
                for (std::size_t j = 0; j < kWriteKeys; ++j) {
                    const u64 k = nextFresh++;
                    keys_.push_back(k);
                    pays_.push_back(insertPayload(k));
                    insertedLive.push_back(k);
                    oracle_[k] = insertPayload(k);
                }
                expect_.push_back(kWriteKeys);
                break;
            case sw::RequestKind::Upsert:
                for (std::size_t j = 0; j < kWriteKeys; ++j) {
                    u64 k;
                    do
                        k = rng.below(base_);
                    while (std::find(keys_.begin() + off_[i], keys_.end(),
                                     k) != keys_.end());
                    const u64 p = (u64(1) << 40) | rng.below(u64(1) << 32);
                    keys_.push_back(k);
                    pays_.push_back(p);
                    oracle_[k] = p;
                }
                expect_.push_back(kWriteKeys); // every key is resident
                break;
            default: // Delete
                for (std::size_t j = 0; j < kWriteKeys; ++j) {
                    const std::size_t at = rng.below(insertedLive.size());
                    const u64 k = insertedLive[at];
                    insertedLive[at] = insertedLive.back();
                    insertedLive.pop_back();
                    keys_.push_back(k);
                    pays_.push_back(0);
                    oracle_[k] = kDeleted;
                }
                expect_.push_back(kWriteKeys); // one node per key
                break;
            }
        }
        off_[reqs] = keys_.size();
        schedule_ = poissonSchedule(reqs, kRatePerSec, rng);
        sampleKeys(rng);
        cfg_.shards = kShards;
        cfg_.walkers = 2;
        cfg_.mutation.enabled = true;
        cfg_.mutation.rebuildLoadFactor = kRebuildLoadFactor;
    }

    void
    run(Report &rep)
    {
        EndToEnd e;
        Layers L;
        std::vector<double> builds;
        for (int r = 0; r < kSetupReps; ++r) {
            svc_.reset();
            const u64 t0 = nowNs();
            svc_ = std::make_unique<sw::IndexService>(
                data_->build, specFor(kBuckets), cfg_);
            builds.push_back(double(nowNs() - t0) / 1e9);
        }
        e.setupS = median(builds);
        L.buildS = e.setupS;
        L.indexMib = double(svc_->index().footprintBytes()) / 1048576.0;
        rep.record("index_mib", L.indexMib);
        rep.record("shards", svc_->shards());
        rep.record("walkers", svc_->walkers());
        rep.record("rate_rps", kRatePerSec);
        rep.record("start_keys", double(base_));

        OpenLoopRun plain = pass(rep, false);
        Lat reads = latencies(plain, [&](std::size_t i) { return isRead(i); });
        Lat writes =
            latencies(plain, [&](std::size_t i) { return !isRead(i); });
        e.readP50Us = reads.p50();
        L.readP90Us = reads.p90();
        L.readP99Us = reads.p99();
        L.writeP50Us = writes.p50();
        L.writeP99Us = writes.p99();
        rep.record("reads_n", double(reads.us.size()));
        rep.record("read_p99_whole_us", percentile(reads.us, 99.0));
        rep.record("writes_n", double(writes.us.size()));

        if (!args_.trace) {
            e.probeMkeysS = readMkeys(rep);
            e.peakRssMib = peakRssMib();
            e.emit(rep);
            return;
        }

        // Traced pass: a fresh service, so the index starts from the
        // same shape and the rebuilds land inside this pass too.
        svc_.reset();
        svc_ = std::make_unique<sw::IndexService>(data_->build,
                                                  specFor(kBuckets), cfg_);
        const sw::ServiceStats before = svc_->stats();
        OpenLoopRun traced = pass(rep, true);
        const sw::ServiceStats after = svc_->stats();
        std::vector<SpanKind> kinds(traced.reqs.size());
        for (std::size_t i = 0; i < kinds.size(); ++i)
            kinds[i] = isRead(i) ? kSpanSvcSubmit : kSpanMutApply;
        spans_.addRun(traced, kinds);

        Lat tr = latencies(traced, [&](std::size_t i) { return isRead(i); });
        Lat tw = latencies(traced, [&](std::size_t i) { return !isRead(i); });
        L.overheadFrac = tr.p50() / e.readP50Us - 1.0;
        L.readsN = double(tr.us.size());
        L.writesN = double(tw.us.size());
        loadgenLayer(L, traced);
        u64 readKeys = 0;
        for (std::size_t i = 0; i < traced.sent; ++i)
            readKeys += isRead(i) ? kReadKeys : 0;
        serviceLayer(L, before, after, sw::RequestKind::Count, readKeys);
        const std::vector<double> rs =
            submitTimes(traced, [&](std::size_t i) { return isRead(i); });
        const std::vector<double> ws =
            submitTimes(traced, [&](std::size_t i) { return !isRead(i); });
        L.svcSubmitMeanUs = mean(rs);
        L.svcSubmitMaxMs = maxOf(rs) / 1e3;
        L.applyMeanUs = mean(ws);
        L.applyMaxMs = maxOf(ws) / 1e3;
        kernelLayer(L, rep, svc_->index(), readKeys_);
        spans_.write(args_.spans);
        L.emit(rep);
    }

  private:
    static constexpr u64 kBuckets = u64(1) << 20;
    static constexpr u64 kMissBase = u64(1) << 40;
    static constexpr u64 kDeleted = ~u64(0);

    static u64 insertPayload(u64 k) { return k * 3 + 1; }

    bool
    isRead(std::size_t i) const
    {
        return kinds_[i] == sw::RequestKind::Count;
    }

    std::span<const u64>
    span(const std::vector<u64> &v, std::size_t i) const
    {
        return std::span<const u64>(v).subspan(off_[i], off_[i + 1] - off_[i]);
    }

    /** The workload's Count requests, closed loop in-process on the
     *  index the open loop left: the service's read capacity after
     *  the churn, in Mkeys/s. */
    double
    readMkeys(Report &rep)
    {
        auto cq = std::make_shared<sw::CompletionQueue>();
        auto req = [&](std::size_t j) { return reads_[j % reads_.size()]; };
        return closedLoopMkeys(
            *cq,
            [&](std::size_t j) {
                svc_->submitAsync(sw::RequestKind::Count, span(keys_, req(j)),
                                  {}, cq, j);
            },
            [&](std::size_t j, const sw::ServiceResult &r) {
                return r.matches == expect_[req(j)];
            },
            rep);
    }

    OpenLoopRun
    pass(Report &rep, bool stamp)
    {
        auto cq = std::make_shared<sw::CompletionQueue>();
        OpenLoopRun run = runOpenLoop(
            *cq, schedule_, stamp,
            [&](std::size_t i) {
                sw::SubmitOptions opt;
                if (!isRead(i))
                    opt.payloads = span(pays_, i);
                svc_->submitAsync(kinds_[i], span(keys_, i), opt, cq, i);
            },
            [&](std::size_t i, const sw::ServiceResult &r) {
                return r.matches == expect_[i];
            });
        countRun(rep, run);

        std::string perShard;
        unsigned rebuilt = 0;
        for (unsigned s = 0; s < svc_->shards(); ++s) {
            const u64 n = svc_->index().rebuildsTotal(s);
            rebuilt += n > 0;
            if (s)
                perShard += ',';
            perShard += std::to_string(n);
        }
        rep.record("rebuilt_shards", rebuilt);
        if (rebuilt < svc_->shards())
            rep.fail("churn_rw: only " + std::to_string(rebuilt) + " of " +
                     std::to_string(svc_->shards()) +
                     " shards rebuilt inside the window (per shard: " +
                     perShard + ")");
        checkSample(rep);
        return run;
    }

    /** Up to 512 keys each of: inserted and live, deleted, upserted,
     *  untouched. */
    void
    sampleKeys(Rng &rng)
    {
        std::vector<u64> ins, del, ups;
        for (const auto &[k, p] : oracle_)
            (p == kDeleted ? del : k >= base_ ? ins : ups).push_back(k);
        for (std::vector<u64> *v : {&ins, &del, &ups}) {
            std::sort(v->begin(), v->end());
            for (std::size_t j = 0; j < 512 && !v->empty(); ++j)
                sample_.push_back((*v)[rng.below(v->size())]);
        }
        for (std::size_t j = 0; j < 512; ++j) {
            const u64 k = rng.below(base_);
            if (!oracle_.count(k))
                sample_.push_back(k);
        }
    }

    /** Probe the sample and compare with the sequential oracle. */
    void
    checkSample(Report &rep)
    {
        const sw::ServiceResult r = svc_->probe(sample_);
        std::vector<std::vector<u64>> got(sample_.size());
        for (const sw::MatchRec &m : r.recs)
            if (m.i < got.size())
                got[m.i].push_back(m.payload);
        u64 wrong = 0;
        for (std::size_t j = 0; j < sample_.size(); ++j) {
            const u64 k = sample_[j];
            auto it = oracle_.find(k);
            std::vector<u64> want;
            if (it == oracle_.end())
                want.push_back(data_->rowOf[k]);
            else if (it->second != kDeleted)
                want.push_back(it->second);
            wrong += got[j] != want;
        }
        const u64 failed = r.status == sw::Status::Ok ? wrong : sample_.size();
        rep.count(sample_.size(), failed, wrong);
        if (wrong)
            rep.fail("post-run sample differs from the sequential oracle");
    }

    const Args &args_;
    std::vector<sw::RequestKind> kinds_;
    u64 base_ = 0; ///< resident keys at start: 0..base_-1
    std::unique_ptr<Dataset> data_;
    std::vector<u64> keys_, pays_, expect_, off_;
    std::vector<u64> readKeys_;
    std::vector<std::size_t> reads_; ///< indices of the Count requests
    std::vector<u64> schedule_;
    std::unordered_map<u64, u64> oracle_; ///< key -> last payload
    std::vector<u64> sample_;
    sw::ServiceConfig cfg_;
    std::unique_ptr<sw::IndexService> svc_;
    SpanLog spans_;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--spans")
            a.spans = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload point_tcp|join_dram|churn_rw "
                     "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
                     argv[0]);
        return 2;
    }
    Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 1);
    Report rep;
    rep.record("seed", double(args.seed));
    rep.record("seconds", args.seconds);
    if (args.workload == "point_tcp") {
        PointTcp w(args, rng);
        w.run(rep);
    } else if (args.workload == "join_dram") {
        JoinDram w(args, rng);
        w.run(rep);
    } else if (args.workload == "churn_rw") {
        ChurnRw w(args, rng);
        w.run(rep);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    rep.print();
    return 0;
}
