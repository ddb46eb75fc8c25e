// Shared pieces of the repository benchmark: command-line arguments, the
// result report (the one JSON line the benchmark prints last), timing
// statistics, the host fingerprint, and the benchmark-side span recorder
// used by traced runs.
//
// Spans are recorded only in the benchmark's own code, around calls into
// the program's public functions; the program's internal counters are read
// through its telemetry registry. Nothing here changes what the program
// computes.

#ifndef GPBENCH_HARNESS_H_
#define GPBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace gpbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Set-up only: set up, print `setup_s <seconds>` and exit (see
  // ColdSetups). Not part of the benchmark's command line.
  bool setup_only = false;
  std::string out_dir = ".bench_run";  // spans and socket; relative to cwd
};

// Parses --workload --seed --seconds --trace [--setup-only 1]; false on
// error.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// The bit pattern of `v`, for bitwise comparisons.
inline uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Total number of set-ups per timed run; setup_s is their median.
inline constexpr int kColdSetups = 3;

// Runs `n` set-ups of `args.workload`, one after another, each in a fresh
// process of this binary (--setup-only 1), and returns the seconds each
// reported from its own process start to the end of its warm-up. Every
// set-up is then a cold one, and the caller's memory high-water mark does
// not count them. Empty when a child fails.
std::vector<double> ColdSetups(const Args& args, int n);

// Fixed-work spin loop timed in milliseconds: a per-run host-speed
// diagnostic, reported next to the metrics and never used to rescale them.
double SpinMillis();

// nproc, CPU model, SIMD level and build type of this process.
struct HostInfo {
  int nproc = 0;
  std::string cpu_model;
  std::string simd;
  std::string build_type;
};
HostInfo DescribeHost();

double PeakRssMb();

// Current value of a program telemetry counter (0 when absent).
int64_t CounterValue(const std::string& name);

// ------------------------------------------------------------- report

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // Records a failed correctness check; the run then exits non-zero.
  void Fail(const std::string& what);
  bool correct() const { return failures_.empty(); }
  void set_attempted(int64_t n) { attempted_ = n; }
  void set_failed(int64_t n) { failed_ = n; }

  // The result object, printed as the last line of standard output.
  std::string ResultLine() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ------------------------------------------------------------- spans

// One recorded span: name, start, end, the enclosing span and the op it
// belongs to. Ids are 1-based; parent 0 = top level.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  uint32_t op = 0;
};

// Turns recording on or off. Off, a Span costs a branch.
void SetSpanRecording(bool on);
void SetCurrentOp(uint32_t op);
const std::vector<SpanRecord>& RecordedSpans();
void ClearSpans();

// RAII span on the calling thread. `name` must be a string literal.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;  // position in the record vector, -1 when off
};

// Per-name self and inclusive time over every recorded span.
struct LayerRow {
  std::string name;
  int64_t count = 0;
  double inclusive_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<LayerRow> LayerTable();

// Prints the layer table: self vs inclusive per layer, with the op span's
// self time shown as the `unattributed` row, and checks that the rows add
// up to the op spans' inclusive time. Returns the op spans' summed
// inclusive milliseconds.
double PrintLayerTable(const char* op_name, Report* report);

// Writes every span as one JSON object per line.
bool WriteSpans(const std::string& path);

// Milliseconds per op of the named layer's inclusive time (0 if absent).
double LayerMsPerOp(const std::vector<LayerRow>& table, const char* name,
                    int64_t ops);

}  // namespace gpbench

#endif  // GPBENCH_HARNESS_H_
