/**
 * @file
 * Ablation (Section 7 context): hash join versus sort-merge join on
 * the host, over build-side sizes. The paper cites Balkesen et al.:
 * "hash join clearly outperforms the sort-merge join" — which is why
 * accelerating hash-index probes (rather than SIMD sorting) is the
 * high-utility target.
 */

#include <cstdio>

#include "common/arena.hh"
#include "common/rng.hh"
#include "common/table_printer.hh"
#include "db/hash_join.hh"
#include "db/sort.hh"
#include "workload/distributions.hh"

using namespace widx;

int
main()
{
    TablePrinter tbl("Hash join vs sort-merge join (host wall "
                     "clock)");
    tbl.header({"Build rows", "Probe rows", "HJ build (ms)",
                "HJ probe (ms)", "Hash join (ms)", "Sort-merge (ms)",
                "Hash advantage"});

    Rng rng(7);
    for (u64 rows : {100000ull, 400000ull, 1600000ull}) {
        Arena arena;
        const u64 probes = 4 * rows;
        db::Column build("b", db::ValueKind::U64, arena, rows);
        db::Column probe("p", db::ValueKind::U64, arena, probes);
        for (u64 k : wl::shuffledDenseKeys(rows, rng))
            build.push(k);
        for (u64 k : wl::uniformKeys(probes, rows, rng))
            probe.push(k);

        db::IndexSpec spec;
        spec.buckets = rows;
        spec.hashFn = db::HashFn::monetdbRobust();
        db::JoinResult hj =
            db::hashJoin(build, probe, spec, arena, false);
        db::JoinResult smj = db::sortMergeJoin(build, probe, false);
        fatal_if(hj.matches != smj.matches,
                 "join results disagree: %llu vs %llu",
                 (unsigned long long)hj.matches,
                 (unsigned long long)smj.matches);

        const double hj_build_ms = hj.buildSeconds * 1e3;
        const double hj_probe_ms = hj.probeSeconds * 1e3;
        const double hj_ms = hj_build_ms + hj_probe_ms;
        const double smj_ms =
            (smj.buildSeconds + smj.probeSeconds) * 1e3;
        tbl.addRow({TablePrinter::fmtInt(rows),
                    TablePrinter::fmtInt(probes),
                    TablePrinter::fmt(hj_build_ms, 1),
                    TablePrinter::fmt(hj_probe_ms, 1),
                    TablePrinter::fmt(hj_ms, 1),
                    TablePrinter::fmt(smj_ms, 1),
                    TablePrinter::fmt(smj_ms / hj_ms, 1) + "x"});
    }
    tbl.print();
    return 0;
}
