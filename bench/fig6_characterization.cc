/**
 * @file
 * Fig. 6 reproduction: buffer rail voltage and on-time for the SC
 * benchmark under the RF Mobile trace, for 770 uF / 10 mF / Morphy /
 * REACT.
 *
 * The paper's characterization trace shows REACT charging only the
 * last-level buffer from cold start (fast enable), expanding bank by
 * bank as input power exceeds demand, and -- once net power turns
 * negative -- a train of voltage spikes as each bank is switched from
 * parallel to series to reclaim its charge (S 5.1).
 *
 * Output: a decimated time/voltage series per buffer (CSV-style, for
 * plotting) plus summary statistics.
 */

#include <cmath>

#include "bench_common.hh"

int
main()
{
    using namespace react;
    bench::printPreamble(
        "Fig. 6: rail voltage characterization (SC under RF Mobile)",
        "Fig. 6 + S 5.1 (expansion and reclamation dynamics)");

    harness::ExperimentConfig cfg;
    cfg.recordRail = true;
    cfg.recordInterval = 2.0;
    cfg.drainAllowance = 300.0;

    const harness::BufferKind kinds[4] = {
        harness::BufferKind::Static770uF, harness::BufferKind::Static10mF,
        harness::BufferKind::Morphy, harness::BufferKind::React};

    bench::prewarmEvaluationTraces();
    harness::ParallelRunner runner;
    std::vector<harness::ExperimentResult> results(4);
    for (size_t k = 0; k < 4; ++k) {
        const auto kind = kinds[k];
        harness::ExperimentResult *slot = &results[k];
        runner.submit(
            bench::gridCellKey(harness::BenchmarkKind::SenseCompute,
                               trace::PaperTrace::RfMobile, kind),
            [=]() {
                *slot = bench::runCell(
                    kind, harness::BenchmarkKind::SenseCompute,
                    trace::PaperTrace::RfMobile, cfg);
            });
    }
    runner.run();

    // Align the series on the longest run and print side by side.
    std::printf("time_s,V_770uF,V_10mF,V_Morphy,V_REACT,REACT_level\n");
    size_t longest = 0;
    for (const auto &r : results)
        longest = std::max(longest, r.rail.size());
    for (size_t i = 0; i < longest; i += 2) {  // print every 4 s
        std::printf("%.0f", static_cast<double>(i) * cfg.recordInterval);
        for (const auto &r : results) {
            if (i < r.rail.size())
                std::printf(",%.2f", r.rail[i].voltage);
            else
                std::printf(",");
        }
        const auto &react_rail = results[3].rail;
        if (i < react_rail.size())
            std::printf(",%d", react_rail[i].level);
        std::printf("\n");
    }

    std::printf("\nsummary:\n");
    const char *names[4] = {"770uF", "10mF", "Morphy", "REACT"};
    for (int k = 0; k < 4; ++k) {
        const auto &r = results[static_cast<size_t>(k)];
        std::printf("  %-7s latency %6.1f s  on-time %6.1f s  samples "
                    "%4llu  switching loss %.2f mJ\n",
                    names[k], r.latency, r.onTime,
                    static_cast<unsigned long long>(r.workUnits),
                    r.ledger.switchLoss.raw() * 1e3);
    }

    // Count REACT's reclamation boosts: downward level steps while the
    // backend is on (the paper's five end-of-trace voltage spikes).
    const auto &rail = results[3].rail;
    int down_steps = 0;
    int max_level = 0;
    for (size_t i = 1; i < rail.size(); ++i) {
        if (rail[i].level < rail[i - 1].level)
            down_steps += rail[i - 1].level - rail[i].level;
        max_level = std::max(max_level, rail[i].level);
    }
    std::printf("\nREACT reached capacitance level %d and took %d "
                "downward (reclamation/retire) steps during the run\n",
                max_level, down_steps);
    std::printf("paper shape: REACT enables with the 770 uF latency, "
                "rides surplus into the banks, then boosts bank-by-bank "
                "as the trace dies.\n");
    return 0;
}
