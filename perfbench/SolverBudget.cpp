//===- SolverBudget.cpp - A fixed work budget per solver check -----------===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiled into isobench and into the benchmark's build of
/// isopredict_server: the static initializer below installs the work
/// limit before main() runs, so the server binary needs no flag for it.
///
//===----------------------------------------------------------------------===//

#include "SolverBudget.h"

#include <z3.h>

namespace {

/// Z3 resource units one check may spend: about 0.15 s of solving on
/// one core of a 4-vCPU VM. Every workload uses it.
constexpr const char *RlimitPerCheck = "250000";

struct InstallLimit {
  InstallLimit() { perfbench::limitSolverWork(true); }
} Install;

} // namespace

void perfbench::limitSolverWork(bool On) {
  Z3_global_param_set("rlimit", On ? RlimitPerCheck : "0");
}
