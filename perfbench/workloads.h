// Workload entry points. Each runs set-up several times (reporting the
// median), one unmeasured warm-up pass, then the fixed request list in
// full, and prints the report. Returns the process exit code.

#ifndef QBISM_PERFBENCH_WORKLOADS_H_
#define QBISM_PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

// Table-3 queries sent through NetClient to QbismServer over localhost.
// `full_study` selects Q1 entire-study displays; otherwise the Q2-Q6
// restricted mix (box / structure / band).
int RunStudyWorkload(const Args& args, bool full_study);

// Cohort SQL readers beside an open-loop study-replace writer, in
// process, with the WAL and the cross-study spatial index attached.
int RunCohortWorkload(const Args& args);

}  // namespace perfbench

#endif  // QBISM_PERFBENCH_WORKLOADS_H_
