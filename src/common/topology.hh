/**
 * @file
 * Host memory topology: which CPUs exist, which NUMA node each one
 * belongs to, and which of them this process is actually allowed to
 * run on.
 *
 * The walkers win by keeping a traversal on-die-close to the memory
 * it walks; on a multi-socket host that requires knowing the real
 * node/CPU map instead of the "CPU i ~ node i" round-robin the
 * service used before. Topology parses the kernel's sysfs view
 *
 *     /sys/devices/system/node/node<N>/cpulist   ("0-3,8-11\n")
 *
 * intersects every node's CPU list with the calling process's
 * affinity mask (sched_getaffinity — a cgroup-restricted host must
 * never be pinned to CPUs it doesn't own), and exposes the result
 * as a placement query: cpuForSlot(slot) folds a logical slot onto
 * the usable CPU list (round-robin when slots outnumber CPUs).
 *
 * Tests inject synthetic trees: fromSysfs() takes any directory
 * laid out like the kernel's `node/` dir (1-node, multi-node,
 * sparse/offline-CPU layouts), and fromNodes() builds a topology
 * from explicit per-node CPU lists with no filesystem at all.
 * host() is the cached singleton for the real machine; it never
 * fails — a host without sysfs (non-Linux, stripped containers)
 * degrades to one node holding the affinity mask, or ultimately
 * hardware_concurrency CPUs.
 */

#ifndef WIDX_COMMON_TOPOLOGY_HH
#define WIDX_COMMON_TOPOLOGY_HH

#include <span>
#include <string>
#include <vector>

#include "common/types.hh"

namespace widx {

class Topology
{
  public:
    /** The real host: sysfs nodes intersected with the process
     *  affinity mask, computed once and cached. Always has at least
     *  one node and one CPU. */
    static const Topology &host();

    /**
     * Parse a sysfs-style node directory (the injection point for
     * tests and for non-standard sysfs mounts).
     *
     * @param nodeRoot directory containing node<N>/cpulist entries
     *        (the kernel's is /sys/devices/system/node).
     * @param allowed CPUs the process may run on, ascending; empty
     *        = no restriction. Nodes whose CPU list intersects to
     *        empty are dropped (CPU-less memory nodes don't host
     *        walkers).
     *
     * Falls back to a single node over `allowed` (or
     * hardware_concurrency CPUs) when the tree is absent or yields
     * no usable CPU.
     */
    static Topology fromSysfs(const std::string &nodeRoot,
                              std::span<const unsigned> allowed = {});

    /** Synthetic topology from explicit per-node CPU lists (tests).
     *  Empty nodes are dropped; an all-empty input degrades to one
     *  node holding CPU 0. */
    static Topology
    fromNodes(std::vector<std::vector<unsigned>> nodeCpus);

    unsigned nodes() const { return unsigned(nodeCpus_.size()); }

    /** Total usable CPUs across all nodes. */
    unsigned cpus() const { return nCpus_; }

    /** Usable CPUs of one node, ascending. */
    std::span<const unsigned>
    cpusOnNode(unsigned node) const
    {
        return nodeCpus_[node];
    }

    /** Node owning a CPU id, or -1 when the CPU is not usable. */
    int nodeOfCpu(unsigned cpu) const;

    /** Fold a logical slot onto the usable-CPU list (round-robin
     *  past the end). folds(slot) tells whether folding happened. */
    unsigned
    cpuForSlot(unsigned slot) const
    {
        return allCpus_[slot % allCpus_.size()];
    }

    bool folds(unsigned slot) const { return slot >= cpus(); }

  private:
    explicit Topology(std::vector<std::vector<unsigned>> nodeCpus);

    std::vector<std::vector<unsigned>> nodeCpus_;
    std::vector<unsigned> allCpus_; ///< ascending, all nodes merged
    unsigned nCpus_ = 0;
};

/**
 * Pin the calling thread to one exact CPU (which must be usable in
 * `topo`); best-effort — returns false and leaves the thread
 * floating when the host refuses. No-op off Linux.
 */
bool pinThreadToCpu(const Topology &topo, unsigned cpu);

/**
 * Pin the calling thread to the CPU of a logical slot, folding onto
 * the host's usable CPUs (Topology::host().cpuForSlot). Replaces
 * the old `cpu % hardware_concurrency` helper, which ignored the
 * affinity mask (cgroup-restricted hosts got pinned to CPUs they
 * don't own) and silently folded shard builders onto low CPUs.
 * Folding still happens when slots outnumber usable CPUs — but over
 * the *usable* list, and it warns once per process.
 */
void pinCurrentThread(unsigned slot);

} // namespace widx

#endif // WIDX_COMMON_TOPOLOGY_HH
