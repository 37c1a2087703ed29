//===- SolverBudget.h - A fixed work budget per solver check --*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every solver check of the benchmark — in isobench and in its build of
/// isopredict_server — gives up after a fixed amount of Z3 work (Z3's
/// "rlimit" resource count) instead of a fixed wall-clock time. Which
/// queries are decided, and the solver state a timed-out search leaves
/// behind in an incremental session, then depend only on the inputs,
/// not on how busy the machine is: with a wall-clock budget, queries
/// that need about the budget flipped between verdict and timeout from
/// run to run, and each flip moved ops_per_s by a whole budget.
///
/// The wall-clock budget stays, far above what the work limit allows,
/// only as a guard against a check that never ends.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SOLVERBUDGET_H
#define PERFBENCH_SOLVERBUDGET_H

namespace perfbench {

/// Wall-clock budget per query, passed as the spec's timeout. A check
/// stopped by it would make the run's verdicts timing-dependent again;
/// at the work limit below checks end well before it.
constexpr unsigned WallBudgetMs = 20000;

/// Sets (true) or clears (false) the work limit for every Z3 context
/// created afterwards.
void limitSolverWork(bool On);

} // namespace perfbench

#endif // PERFBENCH_SOLVERBUDGET_H
