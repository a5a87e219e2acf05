// qbism_perfbench: the QBISM end-to-end + per-layer benchmark.
//
//   qbism_perfbench --workload <study_full|study_filtered|ingest_cohort>
//                   --seed <n> --seconds <s> --trace <0|1> [--mini]
//                   [--corrupt]
//
// Prints stamp and metric lines, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: qbism_perfbench --workload "
               "<study_full|study_filtered|ingest_cohort> --seed <n> "
               "--seconds <s> --trace <0|1> [--mini] [--corrupt]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::atoi(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::atoi(argv[++i]) != 0;
    } else if (flag == "--mini") {
      args.mini = true;
    } else if (flag == "--corrupt") {
      args.corrupt = true;
    } else {
      return Usage();
    }
  }
  if (args.seconds < 1) return Usage();
  if (args.workload == "study_full") {
    return perfbench::RunStudyWorkload(args, /*full_study=*/true);
  }
  if (args.workload == "study_filtered") {
    return perfbench::RunStudyWorkload(args, /*full_study=*/false);
  }
  if (args.workload == "ingest_cohort") {
    return perfbench::RunCohortWorkload(args);
  }
  return Usage();
}
