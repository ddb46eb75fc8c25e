// serve-overlap: a PromptServer on a unix socket with micro-batching on and
// per-request tenant caches, four tenants with one connection each, driven
// by a load generator that is one thread in this process. The packed path
// (serve/batcher, core/batch_eval, the generator's unique-edge dedup) does
// nearly all the work here and none anywhere else.
//
// Two measured phases over a seeded pool of small 3-way requests:
//   closed loop  a fixed in-flight window per connection -> throughput
//   open loop    fixed-interval arrivals at a stated rate, each request
//                timed from its due time -> latency percentiles and SLO
// After the phases every reply is compared bit for bit with
// EvaluateInContext on the same request (DESIGN.md §11.7).
//
// The traced run repeats both phases reading the server's counters from
// outside (the kMetricsRequest frame and each EvalResponse), then replays
// the pool in fixed batches through BatchEvaluation::Prepare and
// FinishRequest inside benchmark spans.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "core/batch_eval.h"
#include "core/graph_prompter.h"
#include "core/pretrain.h"
#include "data/datasets.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "serve/byte_stream.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/parallel.h"
#include "util/pipeline.h"
#include "workloads.h"

namespace gpbench {
namespace {

constexpr uint64_t kMagSeed = 11;
constexpr uint64_t kArxivSeed = 12;
constexpr uint64_t kModelSeed = 21;
constexpr uint64_t kPretrainSeed = 7;
constexpr uint64_t kPoolSalt = 0x5e7e;
constexpr uint64_t kWarmupSalt = 0x3a3a;
constexpr uint64_t kRequestDeadlineUs = 30'000'000;
constexpr size_t kWindowReplies = 128;  // closed-loop throughput window
// The open loop's arrivals are split into this many consecutive windows.
constexpr int kLatencyWindows = 10;

gp::EvalRequest MakeRequest(const ServeSettings& s, int tenant,
                            uint64_t seed) {
  gp::EvalRequest r;
  r.tenant = "tenant-" + std::to_string(tenant);
  r.deadline_us = kRequestDeadlineUs;
  r.ways = s.ways;
  r.shots = s.shots;
  r.candidates_per_class = s.candidates_per_class;
  r.num_queries = s.num_queries;
  r.query_batch = s.query_batch;
  r.trials = 1;
  r.seed = seed;
  return r;
}

gp::EvalConfig ConfigOf(const gp::EvalRequest& r) {
  gp::EvalConfig ec;
  ec.ways = r.ways;
  ec.shots = r.shots;
  ec.candidates_per_class = r.candidates_per_class;
  ec.num_queries = r.num_queries;
  ec.query_batch = r.query_batch;
  ec.trials = r.trials;
  ec.seed = r.seed;
  return ec;
}

// What a reply must match: the serving determinism contract covers the
// status and the accuracy bit patterns; a clean request also charges no
// degradation and needs no retry.
struct Expected {
  int32_t status = 0;
  uint64_t mean_bits = 0;
  uint64_t std_bits = 0;
};

Expected FromResult(const gp::EvalResult& r) {
  Expected e;
  e.status = r.deadline_expired
                 ? static_cast<int32_t>(gp::StatusCode::kDeadlineExceeded)
                 : 0;
  e.mean_bits = Bits(r.accuracy_percent.mean);
  e.std_bits = Bits(r.accuracy_percent.std);
  return e;
}

// An open-loop percentile: the median, over kLatencyWindows consecutive
// windows of arrivals, of each window's percentile. The host is shared,
// and one burst of stolen CPU time then moves it less than it moves the
// pooled percentile.
double WindowedQuantile(const std::vector<double>& by_arrival, double q) {
  std::vector<double> per_window;
  const size_t n = by_arrival.size();
  for (size_t w = 0; w < kLatencyWindows; ++w) {
    per_window.push_back(Quantile(
        std::vector<double>(by_arrival.begin() + n * w / kLatencyWindows,
                            by_arrival.begin() + n * (w + 1) / kLatencyWindows),
        q));
  }
  return Median(per_window);
}

// One request as the load generator saw it.
struct Sent {
  int pool_index = -1;  // into the phase's request list
  int phase = 0;        // 0 warm-up, 1 closed, 2 open
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;  // 0 = no reply yet
  gp::EvalResponse reply;
};

int ConnectTo(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 400; ++attempt) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::usleep(5000);
  }
  ::close(fd);
  return -1;
}

// The single-threaded load generator: one connection per tenant, requests
// drawn in order from each tenant's slice of a request list (grouped by
// tenant, an equal share each).
class LoadGen {
 public:
  explicit LoadGen(int tenants) : tenants_(tenants), cursor_(tenants, 0) {}

  bool Connect(const std::string& path) {
    for (int t = 0; t < tenants_; ++t) {
      const int fd = ConnectTo(path);
      if (fd < 0) return false;
      streams_.push_back(std::make_unique<gp::FdStream>(fd, true));
    }
    outstanding_.assign(tenants_, 0);
    return true;
  }
  void Close() { streams_.clear(); }

  // Closed loop over `pool` with `window` requests in flight per
  // connection, for `seconds` and at least until every request has been
  // sent once. Sets the phase's start and end; replies still in flight at
  // the end are awaited and recorded. False on a transport error.
  bool ClosedLoop(const std::vector<gp::EvalRequest>* pool, double seconds,
                  int window, int phase, int64_t* start_ns, int64_t* end_ns) {
    pool_ = pool;
    cursor_.assign(tenants_, 0);
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    const int per_tenant = static_cast<int>(pool_->size()) / tenants_;
    auto done = [&] {
      if (NowNs() < end) return false;
      for (int c : cursor_) {
        if (c < per_tenant) return false;
      }
      return true;
    };
    for (int t = 0; t < tenants_; ++t) {
      for (int k = 0; k < window; ++k) SendPool(t, phase, NowNs());
    }
    while (!done()) {
      const int wait_ms = static_cast<int>(
          std::max<int64_t>(0, (end - NowNs()) / 1000000));
      for (int t : Readable(wait_ms)) {
        if (!ReadOne(t)) return false;
        if (done()) break;
        SendPool(t, phase, NowNs());
      }
    }
    *start_ns = start;
    *end_ns = NowNs();
    return Drain();
  }

  // Open loop over the last closed loop's list, continuing where it
  // stopped: arrivals every 1/rate seconds, tenants round-robin, for
  // `seconds`. Every request's latency counts from its due time.
  bool OpenLoop(double seconds, double rate, int phase) {
    const int64_t start = NowNs();
    const int64_t interval = static_cast<int64_t>(1e9 / rate);
    const int64_t arrivals = static_cast<int64_t>(seconds * rate);
    int64_t next = 0;
    while (next < arrivals) {
      const int64_t due = start + next * interval;
      const int64_t now = NowNs();
      if (now >= due) {
        SendPool(static_cast<int>(next % tenants_), phase, due);
        ++next;
        continue;
      }
      const int wait_ms = static_cast<int>((due - now) / 1000000);
      for (int t : Readable(wait_ms)) {
        if (!ReadOne(t)) return false;
      }
    }
    return Drain();
  }

  // Live metrics poll over the first connection (answered inline by the
  // server's connection reader; only valid with nothing in flight).
  bool Metrics(gp::json::JsonValue* out) {
    gp::Frame frame;
    frame.type = gp::FrameType::kMetricsRequest;
    if (!gp::WriteFrame(streams_[0].get(), frame).ok()) return false;
    auto reply = gp::ReadFrame(streams_[0].get());
    if (!reply.ok() || reply->type != gp::FrameType::kMetricsResponse) {
      return false;
    }
    auto parsed = gp::json::ParseJson(reply->payload);
    if (!parsed.ok()) return false;
    *out = *std::move(parsed);
    return true;
  }

  std::vector<Sent>& sent() { return sent_; }
  // Replies read, each matched to a distinct sent request.
  int64_t replies() const { return replies_; }

 private:
  void SendPool(int t, int phase, int64_t due) {
    const int per_tenant = static_cast<int>(pool_->size()) / tenants_;
    const int index = t * per_tenant + cursor_[t]++ % per_tenant;
    gp::EvalRequest request = (*pool_)[index];
    Sent s;
    s.pool_index = index;
    s.phase = phase;
    s.due_ns = due;
    request.tenant = "tenant-" + std::to_string(t);
    request.request_id = sent_.size();
    gp::Frame frame;
    frame.type = gp::FrameType::kEvalRequest;
    frame.payload = gp::EncodeEvalRequest(request);
    const std::string wire = gp::EncodeFrame(frame);
    s.send_ns = NowNs();
    sent_.push_back(s);
    if (streams_[t]->Write(wire.data(), wire.size()).ok()) {
      ++outstanding_[t];
    } else {
      io_failed_ = true;
    }
  }

  std::vector<int> Readable(int timeout_ms) {
    std::vector<pollfd> fds(tenants_);
    for (int t = 0; t < tenants_; ++t) {
      fds[t].fd = streams_[t]->fd();
      fds[t].events = POLLIN;
      fds[t].revents = 0;
    }
    std::vector<int> ready;
    if (::poll(fds.data(), fds.size(), timeout_ms) <= 0) return ready;
    for (int t = 0; t < tenants_; ++t) {
      if (fds[t].revents != 0) ready.push_back(t);
    }
    return ready;
  }

  bool ReadOne(int t) {
    auto frame = gp::ReadFrame(streams_[t].get());
    if (!frame.ok()) return false;
    auto reply = gp::DecodeEvalResponse(frame->payload);
    if (!reply.ok() || reply->request_id >= sent_.size()) return false;
    Sent& s = sent_[reply->request_id];
    if (s.recv_ns != 0) return false;  // duplicate reply
    s.recv_ns = NowNs();
    s.reply = *std::move(reply);
    --outstanding_[t];
    ++replies_;
    return true;
  }

  int64_t Outstanding() const {
    int64_t n = 0;
    for (int64_t o : outstanding_) n += o;
    return n;
  }

  // Waits for every reply still in flight (30 s at most).
  bool Drain() {
    const int64_t give_up = NowNs() + 30'000'000'000;
    while (Outstanding() > 0 && !io_failed_) {
      if (NowNs() > give_up) return false;
      for (int t : Readable(100)) {
        if (!ReadOne(t)) return false;
      }
    }
    return !io_failed_;
  }

  const std::vector<gp::EvalRequest>* pool_ = nullptr;
  int tenants_;
  std::vector<int> cursor_;
  std::vector<std::unique_ptr<gp::FdStream>> streams_;
  std::vector<int64_t> outstanding_;
  std::vector<Sent> sent_;
  int64_t replies_ = 0;
  bool io_failed_ = false;
};

// Everything set-up builds; the server is drained before it is destroyed.
struct ServeInstance {
  gp::DatasetBundle arxiv;
  std::unique_ptr<gp::GraphPrompterModel> model;
  std::unique_ptr<gp::PromptServer> server;
  std::thread server_thread;
  bool server_failed = false;
  std::unique_ptr<LoadGen> loadgen;

  ~ServeInstance() { Stop(); }

  void Stop() {
    if (loadgen != nullptr) loadgen->Close();
    if (server != nullptr) server->RequestDrain();
    if (server_thread.joinable()) server_thread.join();
  }
};

double HistogramMean(const gp::json::JsonValue& before,
                     const gp::json::JsonValue& after,
                     const std::string& name) {
  auto find = [&](const gp::json::JsonValue& snap, double* count,
                  double* sum) {
    *count = *sum = 0.0;
    const gp::json::JsonValue* hs = snap.Find("histograms");
    if (hs == nullptr) return;
    for (const gp::json::JsonValue& h : hs->elements) {
      const gp::json::JsonValue* n = h.Find("name");
      if (n != nullptr && n->string_value == name) {
        *count = h.Find("count")->number_value;
        *sum = h.Find("sum")->number_value;
      }
    }
  };
  double c0, s0, c1, s1;
  find(before, &c0, &s0);
  find(after, &c1, &s1);
  return c1 > c0 ? (s1 - s0) / (c1 - c0) : 0.0;
}

double CounterDelta(const gp::json::JsonValue& before,
                    const gp::json::JsonValue& after,
                    const std::string& name) {
  auto get = [&](const gp::json::JsonValue& snap) {
    const gp::json::JsonValue* cs = snap.Find("counters");
    const gp::json::JsonValue* v = cs == nullptr ? nullptr : cs->Find(name);
    return v == nullptr ? 0.0 : v->number_value;
  };
  return get(after) - get(before);
}

}  // namespace

int RunServeOverlap(const Args& args, int64_t process_start_ns,
                    Report* report) {
  const ServeSettings s;
  gp::SetNumThreads(s.kernel_threads);
  gp::SetPipelineMode(s.pipeline);
  // The closed loop gets two thirds of the run: its throughput windows then
  // span more of the host's load swings. The open loop's third gives 833
  // arrivals at 25 s.
  const double open_s = args.seconds / 3.0;
  const double closed_s = args.seconds - open_s;
  std::printf(
      "config {\"workload\": \"serve-overlap\", \"kernel_threads\": %d, "
      "\"pipeline\": \"%s\", \"server_workers\": %d, \"batch_workers\": 1, "
      "\"prepare_workers\": %d, \"loadgen_threads\": 1, \"batch_window_us\": "
      "%" PRId64 ", \"batch_max\": %d, \"tenants\": %d, "
      "\"persist_tenant_cache\": false, \"pretrain_steps\": %d, "
      "\"pool_requests\": %d, \"warmup_requests\": %d, \"request\": "
      "\"%d-way %d-shot N=%d q=%d\", \"closed_loop\": \"window %d per "
      "connection, %.3g s\", \"open_loop\": \"%.0f req/s fixed interval, "
      "%.3g s\", \"slo_ms\": %g}\n",
      gp::NumThreads(), gp::PipelineModeName(s.pipeline), s.server_workers,
      gp::PipelineActive() ? 1 : 0, s.batch_window_us, s.batch_max, s.tenants,
      s.pretrain_steps, s.pool_requests, s.warmup_requests, s.ways, s.shots,
      s.candidates_per_class, s.num_queries, s.closed_window, closed_s,
      s.open_rate_per_s, open_s, s.slo_ms);

  // The seeded request pool, pool_requests / tenants per tenant, grouped
  // by tenant; the warm-up requests are a separate set, grouped the same
  // way, from a fixed seed.
  std::vector<gp::EvalRequest> pool, warmup;
  for (int t = 0; t < s.tenants; ++t) {
    for (int j = 0; j < s.pool_requests / s.tenants; ++j) {
      pool.push_back(MakeRequest(
          s, t, OpSeed(args.seed, kPoolSalt, pool.size())));
    }
    for (int j = 0; j < s.warmup_requests / s.tenants; ++j) {
      warmup.push_back(MakeRequest(
          s, t, OpSeed(kWarmupSeed, kWarmupSalt, warmup.size())));
    }
  }
  const std::string socket_path =
      args.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";

  auto setup = [&](ServeInstance* inst) {
    const gp::DatasetBundle mag = gp::MakeMagSim(s.pretrain_scale, kMagSeed);
    inst->arxiv = gp::MakeArxivSim(s.serve_scale, kArxivSeed);
    inst->model = std::make_unique<gp::GraphPrompterModel>(
        gp::FullGraphPrompterConfig(inst->arxiv.graph.feature_dim(),
                                    kModelSeed));
    gp::PretrainConfig pc;
    pc.steps = s.pretrain_steps;
    pc.seed = kPretrainSeed;
    gp::Pretrain(inst->model.get(), mag, pc);

    gp::ServeConfig sc;
    sc.workers = s.server_workers;
    sc.queue_capacity = s.queue_capacity;
    sc.default_deadline_us = kRequestDeadlineUs;
    sc.persist_tenant_cache = false;
    sc.batch_window_us = s.batch_window_us;
    sc.batch_max = s.batch_max;
    inst->server = std::make_unique<gp::PromptServer>(
        inst->model.get(), &inst->arxiv, sc);
    inst->server_thread = std::thread([inst, socket_path] {
      if (!inst->server->ServeUnixSocket(socket_path).ok()) {
        inst->server_failed = true;
      }
    });
    inst->loadgen = std::make_unique<LoadGen>(s.tenants);
    if (!inst->loadgen->Connect(socket_path)) return false;
    // Warm-up: the warm-up set sent once, closed loop, discarded.
    int64_t unused_start = 0, unused_end = 0;
    return inst->loadgen->ClosedLoop(&warmup, 0.0, s.closed_window, 0,
                                     &unused_start, &unused_end);
  };

  auto inst = std::make_unique<ServeInstance>();
  if (!setup(inst.get())) {
    report->Fail("serve set-up failed (connect or warm-up)");
    return 1;
  }
  LoadGen& gen = *inst->loadgen;
  for (const Sent& w : gen.sent()) {
    if (w.recv_ns == 0 || w.reply.status_code != 0) {
      report->Fail("warm-up request failed");
    }
  }
  const double setup_s = FinishSetup(args, process_start_ns, report);
  if (args.setup_only) return report->correct() ? 0 : 1;
  const size_t first_timed = gen.sent().size();
  const int64_t server_requests_before = CounterValue("serve/requests");

  // ---- the two measured phases (traced runs also read the server's
  // counters around them)
  gp::json::JsonValue m0, m1;
  if (args.trace && !gen.Metrics(&m0)) report->Fail("metrics frame failed");
  int64_t closed_start = 0, closed_end = 0;
  if (!gen.ClosedLoop(&pool, closed_s, s.closed_window, 1, &closed_start,
                      &closed_end)) {
    report->Fail("closed-loop phase lost its socket");
  }
  if (!gen.OpenLoop(open_s, s.open_rate_per_s, 2)) {
    report->Fail("open-loop phase lost its socket");
  }
  if (args.trace && !gen.Metrics(&m1)) report->Fail("metrics frame failed");
  inst->Stop();
  if (inst->server_failed) report->Fail("server exited with an error");
  // Every request sent got exactly one reply, and the server took in
  // exactly the requests sent.
  if (gen.replies() != static_cast<int64_t>(gen.sent().size())) {
    report->Fail(std::to_string(gen.sent().size()) + " requests sent, " +
                 std::to_string(gen.replies()) + " replies read");
  }
  const int64_t timed_sent =
      static_cast<int64_t>(gen.sent().size() - first_timed);
  if (CounterValue("serve/requests") - server_requests_before != timed_sent) {
    report->Fail("the server counted " +
                 std::to_string(CounterValue("serve/requests") -
                                server_requests_before) +
                 " requests, the load generator sent " +
                 std::to_string(timed_sent));
  }

  // ---- reference: EvaluateInContext on every pool request, outside the
  // timed phases
  std::vector<Expected> expected(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    expected[i] = FromResult(
        gp::EvaluateInContext(*inst->model, inst->arxiv, ConfigOf(pool[i])));
  }
  int64_t attempted = 0, ok = 0, failed = 0, mismatches = 0, slo_ok = 0;
  int64_t open_attempted = 0;
  std::vector<double> open_ms, server_ms, outside_ms, lag_ms;
  std::vector<int64_t> closed_recv;
  std::vector<double> accuracy_by_pool(pool.size(), -1.0);
  for (size_t k = first_timed; k < gen.sent().size(); ++k) {
    const Sent& r = gen.sent()[k];
    ++attempted;
    const bool answered = r.recv_ns != 0;
    const bool good = answered && r.reply.status_code == 0;
    good ? ++ok : ++failed;
    if (answered) {
      const Expected& e = expected[r.pool_index];
      if (r.reply.status_code != e.status ||
          Bits(r.reply.accuracy_mean) != e.mean_bits ||
          Bits(r.reply.accuracy_std) != e.std_bits ||
          r.reply.degradation_events != 0 || r.reply.retries != 0) {
        ++mismatches;
      }
      if (good) accuracy_by_pool[r.pool_index] = r.reply.accuracy_mean;
    }
    if (r.phase == 1 && good && r.recv_ns <= closed_end) {
      closed_recv.push_back(r.recv_ns);
    }
    if (r.phase == 2) {
      ++open_attempted;
      const double ms = static_cast<double>(r.recv_ns - r.due_ns) / 1e6;
      lag_ms.push_back(static_cast<double>(r.send_ns - r.due_ns) / 1e6);
      if (good) {
        open_ms.push_back(ms);
        if (ms <= s.slo_ms) ++slo_ok;
        server_ms.push_back(static_cast<double>(r.reply.server_latency_us) /
                            1e3);
        outside_ms.push_back(
            static_cast<double>(r.recv_ns - r.send_ns) / 1e6 -
            static_cast<double>(r.reply.server_latency_us) / 1e3);
      }
    }
  }
  // Closed-loop throughput: the median rate over windows of kWindowReplies
  // consecutive replies, so a short stall on the shared host moves it less
  // than it moves the mean.
  std::sort(closed_recv.begin(), closed_recv.end());
  std::vector<double> closed_rates;
  int64_t window_start = closed_start;
  for (size_t k = kWindowReplies; k <= closed_recv.size();
       k += kWindowReplies) {
    closed_rates.push_back(static_cast<double>(kWindowReplies) * 1e9 /
                           static_cast<double>(closed_recv[k - 1] -
                                               window_start));
    window_start = closed_recv[k - 1];
  }
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) +
                 " replies differ from EvaluateInContext on the same request");
  }
  double accuracy_sum = 0.0;
  int64_t accuracy_n = 0;
  for (double a : accuracy_by_pool) {
    if (a >= 0) {
      accuracy_sum += a;
      ++accuracy_n;
    }
  }
  const double accuracy = accuracy_n > 0 ? accuracy_sum / accuracy_n : 0.0;
  std::printf("counts {\"accuracy_pct_bits\": \"%016" PRIx64 "\", "
              "\"pool_answered\": %" PRId64 "}\n",
              Bits(accuracy), accuracy_n);
  std::printf("phases: closed %zu replies in %.3f s (%zu windows); open "
              "%" PRId64 " requests at %.0f/s, p90 %.3f ms, p99 %.3f ms; %" PRId64
              " attempted, %" PRId64 " ok, %" PRId64 " failed, %" PRId64
              " mismatches\n",
              closed_recv.size(),
              static_cast<double>(closed_end - closed_start) / 1e9,
              closed_rates.size(), open_attempted, s.open_rate_per_s,
              WindowedQuantile(open_ms, 0.90), WindowedQuantile(open_ms, 0.99),
              attempted, ok, failed, mismatches);

  if (!args.trace) {
    report->set_attempted(attempted);
    report->set_failed(failed);
    report->Metric("setup_s", setup_s, "s");
    report->Metric("throughput_per_s", Median(closed_rates), "1/s");
    report->Metric("latency_p50_ms", WindowedQuantile(open_ms, 0.50), "ms");
    report->Metric("slo_met_pct",
                   open_attempted > 0 ? 100.0 * slo_ok / open_attempted : 0.0,
                   "%");
    report->Metric("accuracy_pct", accuracy, "%");
    report->Metric("ok_pct", 100.0 * ok / attempted, "%");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return 0;
  }

  // ---- traced: serve layer read from outside
  std::map<std::string, double> values;
  values["serve.batch_size_mean"] =
      HistogramMean(m0, m1, "serve/batch_size");
  values["serve.batch_wait_ms_mean"] =
      HistogramMean(m0, m1, "serve/batch_wait_us") / 1e3;
  values["serve.batches"] = CounterDelta(m0, m1, "serve/batches");
  values["serve.flush_window"] =
      CounterDelta(m0, m1, "serve/batch_flush_window");
  values["serve.flush_size"] = CounterDelta(m0, m1, "serve/batch_flush_size");
  values["serve.flush_deadline"] =
      CounterDelta(m0, m1, "serve/batch_flush_deadline");
  values["serve.shed"] = CounterDelta(m0, m1, "serve/shed");
  values["serve.deadline_exceeded"] =
      CounterDelta(m0, m1, "serve/deadline_exceeded");
  values["serve.server_ms_p50"] = Quantile(server_ms, 0.5);
  values["serve.outside_eval_ms_p50"] = Quantile(outside_ms, 0.5);
  values["loadgen.lag_ms_p99"] = Quantile(lag_ms, 0.99);
  values["tail.latency_p90_ms"] = WindowedQuantile(open_ms, 0.90);
  values["tail.latency_p99_ms"] = WindowedQuantile(open_ms, 0.99);
  // ---- traced: fixed batches of the pool through BatchEvaluation, once
  // untraced and once traced
  auto replay = [&](bool traced) {
    std::vector<Expected> out;
    SetSpanRecording(traced);
    for (size_t b = 0; b < pool.size(); b += s.replay_batch) {
      SetCurrentOp(static_cast<uint32_t>(b / s.replay_batch + 1));
      Span op("serve-overlap.op");
      std::vector<gp::EvalConfig> configs;
      for (size_t i = b; i < std::min(pool.size(), b + s.replay_batch); ++i) {
        configs.push_back(ConfigOf(pool[i]));
      }
      gp::BatchEvaluation eval(*inst->model, inst->arxiv, configs);
      {
        Span span("batch_eval.prepare");
        eval.Prepare();
      }
      for (int i = 0; i < eval.size(); ++i) {
        Span span("batch_eval.finish");
        out.push_back(FromResult(eval.FinishRequest(i, {})));
      }
    }
    SetSpanRecording(false);
    return out;
  };
  int64_t t0 = NowNs();
  const std::vector<Expected> untraced = replay(false);
  const double untraced_ms = static_cast<double>(NowNs() - t0) / 1e6;
  ClearSpans();
  CounterDeltas counters;
  counters.Start();
  t0 = NowNs();
  const std::vector<Expected> traced = replay(true);
  const double traced_ms = static_cast<double>(NowNs() - t0) / 1e6;
  for (size_t i = 0; i < pool.size(); ++i) {
    for (const std::vector<Expected>* v : {&untraced, &traced}) {
      const Expected& e = (*v)[i];
      if (e.status != expected[i].status ||
          e.mean_bits != expected[i].mean_bits ||
          e.std_bits != expected[i].std_bits) {
        report->Fail("batched replay of request " + std::to_string(i) +
                     " differs from EvaluateInContext");
      }
    }
  }
  report->set_attempted(attempted + 2 * static_cast<int64_t>(pool.size()));
  report->set_failed(failed);

  PrintLayerTable("serve-overlap.op", report);
  const std::vector<LayerRow> table = LayerTable();
  int64_t batches = 0, finishes = 0;
  double op_self = 0.0, finish_ms = 0.0;
  for (const LayerRow& row : table) {
    if (row.name == "serve-overlap.op") {
      batches = row.count;
      op_self = row.self_ms;
    }
    if (row.name == "batch_eval.finish") {
      finishes = row.count;
      finish_ms = row.inclusive_ms;
    }
  }
  values["batch_eval.prepare_ms"] =
      LayerMsPerOp(table, "batch_eval.prepare", batches);
  values["batch_eval.finish_ms"] = finishes > 0 ? finish_ms / finishes : 0.0;
  values["serve-overlap.unattributed_ms"] =
      batches > 0 ? op_self / batches : 0.0;
  // Inside Prepare and FinishRequest the benchmark cannot place spans; the
  // program's own span counters give the split, per replayed batch.
  auto program_ms = [&](const char* span) {
    return batches > 0 ? static_cast<double>(counters.Delta(
                             std::string("span/") + span + "/total_us")) /
                             1e3 / batches
                       : 0.0;
  };
  values["generator.sample_ms"] = program_ms("eval/prepare_trial");
  values["generator.embed_ms"] = program_ms("eval/batch_embed");
  values["selector.importance_ms"] = program_ms("eval/batch_importance");
  values["selector.knn_ms"] = program_ms("selector/knn_batch");
  values["task_graph.forward_ms"] = program_ms("task_graph/forward");
  values["task_graph.forward_batch_ms"] =
      program_ms("task_graph/forward_batch");
  const double overhead_pct = 100.0 * (traced_ms - untraced_ms) / untraced_ms;
  std::printf("tracing overhead: traced replay %.1f ms vs untraced replay "
              "%.1f ms = %+.2f%%\n",
              traced_ms, untraced_ms, overhead_pct);
  values["trace.overhead_pct"] = overhead_pct;
  AddCounterLayerValues(counters, &values);
  values["host.spin_ms"] = SpinMillis();
  ReportPerLayer(values, report);
  const std::string path = args.out_dir + "/serve-overlap-seed" +
                           std::to_string(args.seed) + "-spans.jsonl";
  if (!WriteSpans(path)) report->Fail("cannot write " + path);
  std::printf("spans: %zu written to %s\n", RecordedSpans().size(),
              path.c_str());
  return 0;
}

}  // namespace gpbench
