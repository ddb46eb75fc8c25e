// The three benchmark workloads and the settings they pin.
//
// Every thread count, the batch window and the pipeline mode are fixed
// here and echoed in each run's `config` line, so a run on another host
// uses the same budget. Runnable threads, the load generator included,
// stay at or below 4 (the host's core count when the benchmark was
// defined). Kernels run on one thread everywhere: on a shared host a
// second kernel thread made each fork-join region wait for whichever
// thread the host had descheduled, and a run's speed then followed the
// other tenants' load (up to a third slower between two sets of runs).
//
// The latency limits behind slo_met_pct come from the measured latency
// distribution. serve-overlap's open-loop limit is 5 times the p50 of a
// median run and about twice its p99. A limit at the p99 (10 ms) read
// 84-99% met on the same code: on a shared host a stretch of contention
// pushes up to a sixth of the requests past 10 ms, but less than 1.1% past
// 25 ms. So the metric flags a tail the program grows, not the host's load;
// latency_p50_ms tracks ordinary latency. The op workloads have no latency
// target of their own; their limit is 1.25 times the p99 of a median run,
// so it is missed once the tail grows by more than the throughput bound.

#ifndef GPBENCH_WORKLOADS_H_
#define GPBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "util/pipeline.h"

namespace gpbench {

// Warm-up inputs come from this fixed seed, not from --seed, so set-up does
// the same work in every run.
inline constexpr uint64_t kWarmupSeed = 0x5eed;

// ----------------------------------------------------------- eval-manyway
// Direct EvaluateInContext calls on FB15K-237-sim with a model pretrained
// on Wiki-sim in set-up. The fixed op list cycles through ways in the
// paper's Table V range; an odd number of ways keeps the median call
// inside one ways class. 4 query batches let the 3-entry augmenter cache
// fill and evict inside every call. Pipeline off: a call has one trial,
// so there is nothing for it to overlap.
struct EvalManywaySettings {
  int kernel_threads = 1;
  gp::PipelineMode pipeline = gp::PipelineMode::kOff;
  double dataset_scale = 0.45;
  int pretrain_steps = 40;
  int ways[5] = {50, 60, 70, 80, 100};
  int shots = 3;
  int candidates_per_class = 10;
  int num_queries = 32;
  int query_batch = 8;
  int list_ops = 50;     // distinct calls; the timed run cycles through them
  int window_ops = 5;    // one call of each ways per throughput window
  int warmup_ops = 2;    // discarded, counted in set-up
  double slo_ms_per_query = 32.0;  // median run: p99 25.6 ms per query
};

// ----------------------------------------------------------- pretrain
// Pretrain (AdamW, Neighbor Matching + Multi-Task) on Wiki-sim, each op on
// a freshly built model. The pipeline is on, so episode preparation
// overlaps the step on one prepare worker.
struct PretrainSettings {
  int kernel_threads = 1;
  gp::PipelineMode pipeline = gp::PipelineMode::kOn;
  double dataset_scale = 0.45;
  int steps_per_op = 8;
  int ways = 5;
  int list_ops = 48;
  int window_ops = 4;
  int warmup_ops = 4;
  double slo_ms_per_step = 56.0;  // median run: p99 45 ms per step
};

// ----------------------------------------------------------- serve-overlap
// A PromptServer on a unix socket, micro-batching on, four tenants with one
// connection each, driven by a single-threaded load generator. Pipeline
// off: the batch worker prepares and demuxes each batch itself, so two
// threads (it and the load generator) do nearly all the work.
struct ServeSettings {
  int kernel_threads = 1;
  gp::PipelineMode pipeline = gp::PipelineMode::kOff;
  int server_workers = 1;       // single-request path; idle when batching
  int64_t batch_window_us = 2000;
  int batch_max = 16;
  int queue_capacity = 512;
  int tenants = 4;
  double pretrain_scale = 0.1;  // MAG-sim, node domain
  double serve_scale = 0.15;    // arxiv-sim
  int pretrain_steps = 30;
  int ways = 3;
  int shots = 2;
  int candidates_per_class = 4;
  int num_queries = 4;
  int query_batch = 2;
  int pool_requests = 512;       // distinct requests, cycled
  int warmup_requests = 128;     // closed loop, discarded, in set-up
  // In-flight requests per connection: twice batch_max, so the closed loop
  // keeps every tenant's lane full and batches flush by size.
  int closed_window = 32;
  double open_rate_per_s = 100;  // open-loop arrivals, all tenants
  double slo_ms = 25.0;          // open-loop limit; median run p50 5 ms
  int replay_batch = 16;         // traced replay batch size (= batch_max)
};

int RunEvalManyway(const Args& args, int64_t process_start_ns,
                   Report* report);
int RunPretrain(const Args& args, int64_t process_start_ns, Report* report);
int RunServeOverlap(const Args& args, int64_t process_start_ns,
                    Report* report);

// ---- shared by the op-based workloads (eval-manyway, pretrain)

// Outcome of one op of the fixed list. `units` is what throughput counts
// (queries or steps); `accuracy` is compared bit for bit when the op runs
// again.
struct OpOutcome {
  bool ok = false;
  double accuracy = 0.0;
  // A second value compared bit for bit (pretrain: the mean episode loss).
  double check = 0.0;
  int64_t units = 0;
};

struct OpWorkload {
  const char* name = "";
  const char* op_span = "";   // name of the traced op span
  const char* unit_name = ""; // "query" or "step"
  int list_ops = 0;
  int warmup_ops = 0;
  int window_ops = 1;  // ops per throughput window
  double slo_ms_per_unit = 0.0;
  std::function<void()> setup;                  // fresh state, warm-up incl.
  std::function<OpOutcome(int)> run_op;         // op i of the list
  std::function<OpOutcome(int)> warmup_op;      // warm-up op k
  std::function<OpOutcome(int)> replay_op;      // traced replay of op i
  // Program counters whose deltas over the op list must repeat exactly
  // between runs and between the real ops and their replays.
  std::vector<std::string> exact_counters;
  // Counter each real op advances by exactly its units; a replay, which
  // does not go through the op's entry point, is checked against its own
  // units.
  std::string units_counter;
  // Per-layer metric name -> benchmark span name, reported as ms per op
  // span.
  std::vector<std::pair<const char*, const char*>> layer_spans;
};

// Runs an op workload: set-up, then either the timed phase (end-to-end
// metrics) or the traced phase (per-layer metrics).
int RunOpWorkload(const Args& args, int64_t process_start_ns,
                  const OpWorkload& w, Report* report);

// Ends this process's set-up, timed from its start, and returns setup_s:
// on a timed run the median of this set-up and kColdSetups - 1 cold
// set-ups in child processes. A --setup-only child prints its own time;
// its caller then stops.
double FinishSetup(const Args& args, int64_t process_start_ns,
                   Report* report);

// Reports every per-layer metric, in one fixed list, so each traced run
// prints the same names; a layer the workload does not exercise reports 0.
void ReportPerLayer(const std::map<std::string, double>& values,
                    Report* report);

// Program counter deltas over a phase.
class CounterDeltas {
 public:
  void Start();
  int64_t Delta(const std::string& name) const;

 private:
  std::map<std::string, int64_t> before_;
};

// Ratios read from program counters over a traced pass: generator dedup,
// augmenter hits, buffer-pool hits, serial ParallelFor regions, plus the
// generator, selector and augmenter work counts.
void AddCounterLayerValues(const CounterDeltas& counters,
                           std::map<std::string, double>* values);

// Seeded per-op value: op i of a run with `seed` is a pure function of both.
uint64_t OpSeed(uint64_t seed, uint64_t salt, uint64_t i);

}  // namespace gpbench

#endif  // GPBENCH_WORKLOADS_H_
