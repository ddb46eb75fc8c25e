// gpbench — the repository benchmark.
//
//   gpbench --workload <serve-overlap|eval-manyway|pretrain> --seed <n>
//           --seconds <s> --trace <0|1>
//
// Run from the checkout root: spans and the server socket go to
// .bench_run/.
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 is the
// separate traced run that yields the per-layer metrics. Either way the
// last line of standard output is the result object; correctness checks
// run every time and a failed one makes the exit code non-zero.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace gpbench;
  const int64_t process_start_ns = NowNs();
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "gpbench: %s\n", error.c_str());
    return 2;
  }
  ::mkdir(args.out_dir.c_str(), 0755);
  // A set-up child that hangs must not outlive its parent's run.
  if (args.setup_only) ::alarm(120);

  const HostInfo host = DescribeHost();
  std::printf("host {\"nproc\": %d, \"cpu\": \"%s\", \"simd\": \"%s\", "
              "\"build_type\": \"%s\"}\n",
              host.nproc, host.cpu_model.c_str(), host.simd.c_str(),
              host.build_type.c_str());

  Report report;
  int rc = 2;
  if (args.workload == "eval-manyway") {
    rc = RunEvalManyway(args, process_start_ns, &report);
  } else if (args.workload == "pretrain") {
    rc = RunPretrain(args, process_start_ns, &report);
  } else if (args.workload == "serve-overlap") {
    rc = RunServeOverlap(args, process_start_ns, &report);
  } else {
    std::fprintf(stderr, "gpbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.setup_only) return rc != 0 ? rc : report.correct() ? 0 : 1;
  // Host drift diagnostic, measured after the work so it cannot slow it.
  std::printf("host.spin_ms %.3f\n", SpinMillis());
  std::fflush(stdout);
  std::printf("%s\n", report.ResultLine().c_str());
  std::fflush(stdout);
  if (rc != 0) return rc;
  return report.correct() ? 0 : 1;
}
