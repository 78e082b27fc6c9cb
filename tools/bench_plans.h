// The paper-reproduction benches as named plans that `seemore_ctl
// --bench=<name>` runs: fig2, fig3, fig4 (§6 Figures 2-4), table1 (§5.5),
// ablation, pipeline, durability and sizing (§4).

#ifndef SEEMORE_TOOLS_BENCH_PLANS_H_
#define SEEMORE_TOOLS_BENCH_PLANS_H_

#include <string>

namespace seemore {

/// Run plan `name` with the plan's smoke budgets when `quick`, across
/// `jobs` workers. Prints the plan's tables and writes BENCH_<name>.json in
/// the working directory (sizing runs nothing and writes no file). Returns
/// the process exit code: 0 ok, 1 a plan's own check failed, 2 an unknown
/// plan (the plan names go to stderr) or an engine error.
int RunBenchPlan(const std::string& name, bool quick, int jobs);

}  // namespace seemore

#endif  // SEEMORE_TOOLS_BENCH_PLANS_H_
