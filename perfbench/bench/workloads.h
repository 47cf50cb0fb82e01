// The three workloads of the benchmark (see WORKLOADS.md).

#ifndef PERFBENCH_BENCH_WORKLOADS_H_
#define PERFBENCH_BENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

Result RunServeCircuit(const Options& options);
Result RunServeLifted(const Options& options);
Result RunIngestRefresh(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_WORKLOADS_H_
