#include "common/topology.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <fstream>
#include <iterator>
#include <thread>

#include "common/logging.hh"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace widx {

namespace {

/** Parse a kernel cpulist ("0-3,8,10-11\n") into ascending CPU ids.
 *  Malformed tails are dropped rather than fatal — sysfs is an
 *  external input. */
std::vector<unsigned>
parseCpuList(const std::string &list)
{
    std::vector<unsigned> cpus;
    std::size_t i = 0;
    const auto digit = [&] {
        return i < list.size() && std::isdigit(
                                      static_cast<unsigned char>(
                                          list[i]));
    };
    while (i < list.size()) {
        if (!digit()) {
            ++i;
            continue;
        }
        unsigned lo = 0;
        while (digit())
            lo = lo * 10 + unsigned(list[i++] - '0');
        unsigned hi = lo;
        if (i < list.size() && list[i] == '-') {
            ++i;
            if (!digit())
                break; // malformed range tail
            hi = 0;
            while (digit())
                hi = hi * 10 + unsigned(list[i++] - '0');
        }
        for (unsigned c = lo; c <= hi && cpus.size() < 4096; ++c)
            cpus.push_back(c);
    }
    std::sort(cpus.begin(), cpus.end());
    cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
    return cpus;
}

/** CPUs the process may run on (sched_getaffinity); empty when the
 *  platform can't say. */
std::vector<unsigned>
affinityCpus()
{
    std::vector<unsigned> cpus;
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (unsigned c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
#endif
    return cpus;
}

std::vector<unsigned>
intersect(const std::vector<unsigned> &a,
          std::span<const unsigned> b)
{
    if (b.empty())
        return a;
    std::vector<unsigned> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
}

} // namespace

Topology::Topology(std::vector<std::vector<unsigned>> nodeCpus)
    : nodeCpus_(std::move(nodeCpus))
{
    // Drop CPU-less nodes (memory-only nodes host no walkers), then
    // guarantee the never-empty invariant every query relies on.
    std::erase_if(nodeCpus_,
                  [](const auto &cpus) { return cpus.empty(); });
    if (nodeCpus_.empty())
        nodeCpus_.push_back({0});
    for (const auto &cpus : nodeCpus_)
        allCpus_.insert(allCpus_.end(), cpus.begin(), cpus.end());
    std::sort(allCpus_.begin(), allCpus_.end());
    allCpus_.erase(std::unique(allCpus_.begin(), allCpus_.end()),
                   allCpus_.end());
    nCpus_ = unsigned(allCpus_.size());
}

Topology
Topology::fromNodes(std::vector<std::vector<unsigned>> nodeCpus)
{
    for (auto &cpus : nodeCpus) {
        std::sort(cpus.begin(), cpus.end());
        cpus.erase(std::unique(cpus.begin(), cpus.end()),
                   cpus.end());
    }
    return Topology(std::move(nodeCpus));
}

Topology
Topology::fromSysfs(const std::string &nodeRoot,
                    std::span<const unsigned> allowed)
{
    std::vector<std::vector<unsigned>> nodes;
    // Node ids are dense in practice but sysfs allows holes
    // (offlined sockets); scan a generous id range and keep going
    // past gaps.
    constexpr unsigned kMaxNodeId = 1024;
    unsigned misses = 0;
    for (unsigned n = 0; n < kMaxNodeId && misses < 64; ++n) {
        std::ifstream f(nodeRoot + "/node" + std::to_string(n) +
                        "/cpulist");
        if (!f) {
            ++misses;
            continue;
        }
        misses = 0;
        std::string list((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
        nodes.push_back(intersect(parseCpuList(list), allowed));
    }
    const bool usable =
        std::any_of(nodes.begin(), nodes.end(),
                    [](const auto &cpus) { return !cpus.empty(); });
    if (usable)
        return Topology(std::move(nodes));
    // No tree (non-Linux, stripped container): one node over the
    // affinity mask, or hardware_concurrency as the last resort.
    std::vector<unsigned> flat(allowed.begin(), allowed.end());
    if (flat.empty()) {
        const unsigned hw =
            std::max(1u, std::thread::hardware_concurrency());
        for (unsigned c = 0; c < hw; ++c)
            flat.push_back(c);
    }
    return Topology({std::move(flat)});
}

const Topology &
Topology::host()
{
    static const Topology topo = [] {
        const std::vector<unsigned> allowed = affinityCpus();
        return fromSysfs("/sys/devices/system/node", allowed);
    }();
    return topo;
}

int
Topology::nodeOfCpu(unsigned cpu) const
{
    for (unsigned n = 0; n < nodes(); ++n) {
        const auto &cpus = nodeCpus_[n];
        if (std::binary_search(cpus.begin(), cpus.end(), cpu))
            return int(n);
    }
    return -1;
}

bool
pinThreadToCpu(const Topology &topo, unsigned cpu)
{
    if (topo.nodeOfCpu(cpu) < 0)
        return false;
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    // Best effort: an unpinnable host (exotic schedulers, masks
    // shifting underneath us) just leaves the thread floating.
    return pthread_setaffinity_np(pthread_self(), sizeof(set),
                                  &set) == 0;
#else
    return false;
#endif
}

void
pinCurrentThread(unsigned slot)
{
    const Topology &topo = Topology::host();
    if (topo.folds(slot)) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true, std::memory_order_relaxed))
            warn("pin request for slot %u folded onto %u usable "
                 "CPUs (further folds not reported)",
                 slot, topo.cpus());
    }
    pinThreadToCpu(topo, topo.cpuForSlot(slot));
}

} // namespace widx
