#include "harness.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "obs/json.h"
#include "obs/telemetry.h"
#include "util/cpuid.h"
#include "util/proc_stats.h"

namespace gpbench {

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + key;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args->seconds > 0 && args->seconds <= 600;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (key == "--setup-only") {
      args->setup_only = value == "1";
    } else {
      *error = "unknown argument " + key;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    *error = "need --workload, a numeric --seed and --seconds in (0, 600]";
    return false;
  }
  return true;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::vector<double> ColdSetups(const Args& args, int n) {
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return {};
  exe[len] = '\0';
  const std::string seed = std::to_string(args.seed);
  const std::string seconds = std::to_string(args.seconds);
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) return {};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const char* argv[] = {exe,
                          "--workload", args.workload.c_str(),
                          "--seed", seed.c_str(),
                          "--seconds", seconds.c_str(),
                          "--trace", "0",
                          "--setup-only", "1",
                          nullptr};
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, exe, &actions, nullptr,
                                 const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string text;
    if (rc == 0) {
      char buf[4096];
      ssize_t got = 0;
      while ((got = ::read(fds[0], buf, sizeof(buf))) > 0) {
        text.append(buf, static_cast<size_t>(got));
      }
    }
    ::close(fds[0]);
    int status = 0;
    if (rc != 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      return {};
    }
    const size_t at = text.rfind("setup_s ");
    if (at == std::string::npos) return {};
    out.push_back(std::strtod(text.c_str() + at + 8, nullptr));
  }
  return out;
}

double SpinMillis() {
  // A dependent integer chain the compiler cannot fold or vectorize.
  const int64_t start = NowNs();
  volatile uint64_t sink = 0;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return static_cast<double>(NowNs() - start) / 1e6;
}

HostInfo DescribeHost() {
  HostInfo host;
  host.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        host.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  host.simd = gp::SimdLevelName(gp::ActiveSimdLevel());
#ifdef GPBENCH_BUILD_TYPE
  host.build_type = GPBENCH_BUILD_TYPE;
#endif
  return host;
}

double PeakRssMb() {
  return static_cast<double>(gp::ReadPeakRssKb()) / 1024.0;
}

int64_t CounterValue(const std::string& name) {
  return gp::Telemetry().GetCounter(name)->Value();
}

// ------------------------------------------------------------- report

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "gpbench: CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

std::string Report::ResultLine() const {
  gp::json::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(correct());
  w.Key("attempted").Int(attempted_);
  w.Key("failed").Int(failed_);
  w.Key("metrics").BeginObject();
  for (const auto& [name, value_unit] : metrics_) {
    w.Key(name).BeginObject();
    w.Key("value").Double(value_unit.first);
    w.Key("unit").String(value_unit.second);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

// ------------------------------------------------------------- spans

namespace {

bool g_recording = false;
uint32_t g_current_op = 0;
std::vector<SpanRecord> g_spans;
std::vector<uint32_t> g_stack;  // ids of open spans (single-threaded use)

}  // namespace

void SetSpanRecording(bool on) { g_recording = on; }
void SetCurrentOp(uint32_t op) { g_current_op = op; }
const std::vector<SpanRecord>& RecordedSpans() { return g_spans; }

void ClearSpans() {
  g_spans.clear();
  g_stack.clear();
}

Span::Span(const char* name) {
  if (!g_recording) return;
  SpanRecord rec;
  rec.name = name;
  rec.id = static_cast<uint32_t>(g_spans.size() + 1);
  rec.parent = g_stack.empty() ? 0 : g_stack.back();
  rec.op = g_current_op;
  index_ = static_cast<int64_t>(g_spans.size());
  g_spans.push_back(rec);
  g_stack.push_back(rec.id);
  g_spans.back().start_ns = NowNs();
}

Span::~Span() {
  if (index_ < 0) return;
  g_spans[static_cast<size_t>(index_)].end_ns = NowNs();
  g_stack.pop_back();
}

std::vector<LayerRow> LayerTable() {
  std::vector<double> child_ms(g_spans.size() + 1, 0.0);
  for (const SpanRecord& s : g_spans) {
    if (s.parent != 0) {
      child_ms[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::map<std::string, LayerRow> rows;
  for (const SpanRecord& s : g_spans) {
    LayerRow& row = rows[s.name];
    row.name = s.name;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    ++row.count;
    row.inclusive_ms += ms;
    row.self_ms += ms - child_ms[s.id];
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

double PrintLayerTable(const char* op_name, Report* report) {
  const std::vector<LayerRow> table = LayerTable();
  double op_inclusive = 0.0, op_self = 0.0, layers_self = 0.0;
  int64_t ops = 0;
  for (const LayerRow& row : table) {
    if (row.name == op_name) {
      op_inclusive = row.inclusive_ms;
      op_self = row.self_ms;
      ops = row.count;
    } else {
      layers_self += row.self_ms;
    }
  }
  std::printf("\nlayer table over %lld traced %s spans (ms, totals)\n",
              static_cast<long long>(ops), op_name);
  std::printf("  %-26s %8s %12s %12s %7s\n", "layer", "count", "inclusive",
              "self", "self%");
  for (const LayerRow& row : table) {
    if (row.name == op_name) continue;
    std::printf("  %-26s %8lld %12.3f %12.3f %6.1f%%\n", row.name.c_str(),
                static_cast<long long>(row.count), row.inclusive_ms,
                row.self_ms,
                op_inclusive > 0 ? 100.0 * row.self_ms / op_inclusive : 0.0);
  }
  std::printf("  %-26s %8s %12s %12.3f %6.1f%%\n", "unattributed", "", "",
              op_self, op_inclusive > 0 ? 100.0 * op_self / op_inclusive : 0);
  std::printf("  %-26s %8lld %12.3f\n", op_name, static_cast<long long>(ops),
              op_inclusive);
  // Every span of a traced run nests under an op span, so the self times
  // partition the op time exactly (up to float rounding).
  if (ops == 0) {
    report->Fail(std::string("traced run recorded no ") + op_name + " spans");
  } else if (std::fabs(layers_self + op_self - op_inclusive) >
             1e-6 * op_inclusive + 1e-3) {
    report->Fail("layer self times do not add up to the op time");
  }
  return op_inclusive;
}

bool WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : g_spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%u,\"parent\":%u,\"op\":%u}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.id, s.parent, s.op);
  }
  return std::fclose(f) == 0;
}

double LayerMsPerOp(const std::vector<LayerRow>& table, const char* name,
                    int64_t ops) {
  if (ops <= 0) return 0.0;
  for (const LayerRow& row : table) {
    if (row.name == name) return row.inclusive_ms / static_cast<double>(ops);
  }
  return 0.0;
}

}  // namespace gpbench
