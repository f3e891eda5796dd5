/**
 * @file
 * Tests for widx::Topology (src/common/topology.{hh,cc}): sysfs
 * cpulist parsing against injected fake trees (1-node, 2-node,
 * sparse/offline-CPU layouts), affinity-mask intersection, the
 * slot -> CPU placement query, and the folding behavior of the
 * pinning helpers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#include <unistd.h>
#endif

#include "common/topology.hh"

using namespace widx;
namespace fs = std::filesystem;

namespace {

/** A throwaway sysfs-style node tree: node<N>/cpulist files under a
 *  temp dir, removed on destruction. */
class FakeSysfs
{
  public:
    explicit FakeSysfs(
        const std::vector<std::string> &cpulists)
    {
#if defined(__linux__)
        const long uniq = long(::getpid());
#else
        const long uniq = 0;
#endif
        root_ = fs::temp_directory_path() /
                ("widx_topo_" + std::to_string(uniq) + "_" +
                 std::to_string(counter_++));
        fs::remove_all(root_); // stale leftovers from crashed runs
        for (std::size_t n = 0; n < cpulists.size(); ++n) {
            const fs::path dir =
                root_ / ("node" + std::to_string(n));
            fs::create_directories(dir);
            std::ofstream f(dir / "cpulist");
            f << cpulists[n];
        }
        fs::create_directories(root_); // 0-node trees still exist
    }

    ~FakeSysfs() { fs::remove_all(root_); }

    std::string path() const { return root_.string(); }

  private:
    fs::path root_;
    static inline int counter_ = 0;
};

} // namespace

TEST(Topology, ParsesSingleNodeTree)
{
    FakeSysfs tree({"0-3\n"});
    const Topology t = Topology::fromSysfs(tree.path());
    EXPECT_EQ(t.nodes(), 1u);
    EXPECT_EQ(t.cpus(), 4u);
    ASSERT_EQ(t.cpusOnNode(0).size(), 4u);
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_EQ(t.cpusOnNode(0)[c], c);
        EXPECT_EQ(t.nodeOfCpu(c), 0);
    }
    EXPECT_EQ(t.nodeOfCpu(4), -1);
}

TEST(Topology, ParsesTwoNodeTree)
{
    FakeSysfs tree({"0-3\n", "4-7\n"});
    const Topology t = Topology::fromSysfs(tree.path());
    EXPECT_EQ(t.nodes(), 2u);
    EXPECT_EQ(t.cpus(), 8u);
    EXPECT_EQ(t.nodeOfCpu(2), 0);
    EXPECT_EQ(t.nodeOfCpu(5), 1);
    EXPECT_EQ(t.cpusOnNode(1)[0], 4u);
}

TEST(Topology, ParsesSparseAndOfflineCpuLayouts)
{
    // Holes inside a node's list (offlined CPUs) and interleaved
    // node<->CPU striping, the way some BIOSes enumerate.
    FakeSysfs tree({"0,2-3,8\n", "5-6,9,11\n"});
    const Topology t = Topology::fromSysfs(tree.path());
    EXPECT_EQ(t.nodes(), 2u);
    EXPECT_EQ(t.cpus(), 8u);
    EXPECT_EQ(t.nodeOfCpu(8), 0);
    EXPECT_EQ(t.nodeOfCpu(11), 1);
    EXPECT_EQ(t.nodeOfCpu(1), -1);  // offline hole
    EXPECT_EQ(t.nodeOfCpu(4), -1);
    const auto n0 = t.cpusOnNode(0);
    ASSERT_EQ(n0.size(), 4u);
    EXPECT_EQ(n0[0], 0u);
    EXPECT_EQ(n0[1], 2u);
    EXPECT_EQ(n0[3], 8u);
}

TEST(Topology, HonorsAffinityMask)
{
    FakeSysfs tree({"0-3\n", "4-7\n"});
    // A cgroup-style restriction: the process owns 1, 2, and 6.
    const std::vector<unsigned> allowed{1, 2, 6};
    const Topology t = Topology::fromSysfs(tree.path(), allowed);
    EXPECT_EQ(t.nodes(), 2u);
    EXPECT_EQ(t.cpus(), 3u);
    ASSERT_EQ(t.cpusOnNode(0).size(), 2u);
    EXPECT_EQ(t.cpusOnNode(0)[0], 1u);
    EXPECT_EQ(t.cpusOnNode(1)[0], 6u);
    EXPECT_EQ(t.nodeOfCpu(0), -1); // exists in sysfs, not allowed
    EXPECT_EQ(t.nodeOfCpu(3), -1);
}

TEST(Topology, DropsNodesWithNoAllowedCpu)
{
    FakeSysfs tree({"0-3\n", "4-7\n"});
    // Restriction confines the process to socket 0: node 1 must
    // not host walkers at all.
    const std::vector<unsigned> allowed{0, 1, 2, 3};
    const Topology t = Topology::fromSysfs(tree.path(), allowed);
    EXPECT_EQ(t.nodes(), 1u);
    EXPECT_EQ(t.cpus(), 4u);
    EXPECT_EQ(t.nodeOfCpu(5), -1);
}

TEST(Topology, MissingTreeFallsBackToOneNode)
{
    const Topology t =
        Topology::fromSysfs("/nonexistent/widx/node/root",
                            std::vector<unsigned>{0, 1});
    EXPECT_EQ(t.nodes(), 1u);
    EXPECT_EQ(t.cpus(), 2u);
    EXPECT_EQ(t.nodeOfCpu(1), 0);
}

TEST(Topology, EmptyTreeFallsBackToHardwareConcurrency)
{
    FakeSysfs tree({});
    const Topology t = Topology::fromSysfs(tree.path());
    EXPECT_EQ(t.nodes(), 1u);
    EXPECT_GE(t.cpus(), 1u);
}

TEST(Topology, FromNodesBuildsSyntheticTopologies)
{
    const Topology t =
        Topology::fromNodes({{0, 1}, {2, 3}, {4, 5}});
    EXPECT_EQ(t.nodes(), 3u);
    EXPECT_EQ(t.cpus(), 6u);
    EXPECT_EQ(t.nodeOfCpu(4), 2);
    // Degenerate all-empty input keeps the invariants alive.
    const Topology e = Topology::fromNodes({{}, {}});
    EXPECT_EQ(e.nodes(), 1u);
    EXPECT_EQ(e.cpus(), 1u);
}

TEST(Topology, CpuForSlotFoldsOverUsableCpus)
{
    const Topology t = Topology::fromNodes({{0, 2}, {5, 9}});
    EXPECT_FALSE(t.folds(3));
    EXPECT_TRUE(t.folds(4));
    EXPECT_EQ(t.cpuForSlot(0), 0u);
    EXPECT_EQ(t.cpuForSlot(1), 2u);
    EXPECT_EQ(t.cpuForSlot(2), 5u);
    EXPECT_EQ(t.cpuForSlot(3), 9u);
    // Folding wraps over the usable list, not over [0, hw).
    EXPECT_EQ(t.cpuForSlot(4), 0u);
    EXPECT_EQ(t.cpuForSlot(7), 9u);
}

TEST(Topology, HostIsAlwaysUsable)
{
    const Topology &t = Topology::host();
    EXPECT_GE(t.nodes(), 1u);
    EXPECT_GE(t.cpus(), 1u);
    // Every reported CPU maps back to its node.
    for (unsigned n = 0; n < t.nodes(); ++n)
        for (unsigned cpu : t.cpusOnNode(n))
            EXPECT_EQ(t.nodeOfCpu(cpu), int(n));
    // Pinning to a usable host CPU succeeds on Linux (and pinning
    // to a CPU outside the topology is refused without a syscall).
    EXPECT_FALSE(pinThreadToCpu(t, 1u << 20));
#if defined(__linux__)
    EXPECT_TRUE(pinThreadToCpu(t, t.cpuForSlot(0)));
#endif
}

TEST(Topology, PinCurrentThreadFoldsInsteadOfFailing)
{
    // Slots far past the CPU count must fold onto usable CPUs (the
    // old cpu % hardware_concurrency helper folded onto CPUs the
    // process might not own). Smoke: both calls are best-effort and
    // must not crash or fatal.
    pinCurrentThread(0);
    pinCurrentThread(1000);
#if defined(__linux__)
    // Restore a sane state for whatever test runs next on this
    // thread: re-pin to the full usable set.
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned n = 0; n < Topology::host().nodes(); ++n)
        for (unsigned cpu : Topology::host().cpusOnNode(n))
            CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
#endif
}
