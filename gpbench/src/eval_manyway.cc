// eval-manyway: direct EvaluateInContext calls at many ways (paper Table V
// range) on FB15K-237-sim; the paper's ms/query anchor (Table VIII). No
// serving and no batching take part.
//
// The traced replay runs one call as the layers' public functions inside
// benchmark spans, in the order EvaluateInContext runs them on a clean
// (fault-free) call, and must reproduce the call's accuracy bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/graph_prompter.h"
#include "core/metrics.h"
#include "core/pretrain.h"
#include "data/datasets.h"
#include "data/episode.h"
#include "tensor/autograd.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/pipeline.h"
#include "workloads.h"

namespace gpbench {
namespace {

constexpr uint64_t kWikiSeed = 13;
constexpr uint64_t kFb15kSeed = 15;
constexpr uint64_t kModelSeed = 44;
constexpr uint64_t kPretrainSeed = 9;
constexpr uint64_t kCallSalt = 0xe7a1;

struct EvalState {
  gp::DatasetBundle fb15k;
  std::unique_ptr<gp::GraphPrompterModel> model;
};

gp::EvalConfig CallConfig(const EvalManywaySettings& s, uint64_t seed,
                          int i) {
  gp::EvalConfig ec;
  ec.ways = s.ways[i % 5];
  ec.shots = s.shots;
  ec.candidates_per_class = s.candidates_per_class;
  ec.num_queries = s.num_queries;
  ec.query_batch = s.query_batch;
  ec.trials = 1;
  ec.seed = OpSeed(seed, kCallSalt, static_cast<uint64_t>(i));
  return ec;
}

// Row-wise max softmax probability, the prediction confidence the
// evaluation loop gates cache inserts on (same arithmetic, so the same
// floats).
std::vector<float> Confidence(const gp::Tensor& scores) {
  const int rows = scores.rows(), cols = scores.cols();
  std::vector<float> out(rows);
  const float* data = scores.data().data();
  for (int r = 0; r < rows; ++r) {
    const float* row = data + static_cast<size_t>(r) * cols;
    float mx = row[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
    float total = 0.0f, best = 0.0f;
    for (int c = 0; c < cols; ++c) {
      const float e = std::exp(row[c] - mx);
      total += e;
      best = std::max(best, e);
    }
    out[r] = best / total;
  }
  return out;
}

std::vector<gp::Subgraph> SampleItems(const gp::GraphPrompterModel& model,
                                      const gp::DatasetBundle& ds,
                                      const std::vector<int>& items,
                                      gp::Rng* rng) {
  Span span("generator.sample");
  std::vector<gp::Subgraph> out;
  out.reserve(items.size());
  for (int item : items) {
    out.push_back(model.generator().SampleForItem(ds, item, rng));
  }
  return out;
}

gp::Tensor Embed(const gp::GraphPrompterModel& model,
                 const gp::DatasetBundle& ds,
                 const std::vector<gp::Subgraph>& subgraphs) {
  Span span("generator.embed");
  return model.generator().EmbedSubgraphs(ds.graph, subgraphs);
}

// EvaluateInContext of one clean call, layer by layer.
OpOutcome ReplayCall(const gp::GraphPrompterModel& model,
                     const gp::DatasetBundle& ds, const gp::EvalConfig& ec) {
  Span op("eval-manyway.op");
  gp::PoolScope pool_scope;
  const gp::GraphPrompterConfig& mc = model.config();
  gp::Rng rng(ec.seed);
  gp::EpisodeSampler sampler(&ds);
  gp::EpisodeConfig episode;
  episode.ways = ec.ways;
  episode.candidates_per_class = ec.candidates_per_class;
  episode.num_queries = ec.num_queries;
  episode.queries_from_test = true;

  std::vector<double> trial_accuracy;
  int64_t queries = 0;
  for (int trial = 0; trial < ec.trials; ++trial) {
    gp::NoGradGuard no_grad;
    gp::Rng trial_rng = rng.Fork();
    gp::FewShotTask task;
    {
      Span span("episode.sample");
      auto task_or = sampler.Sample(episode, &trial_rng);
      if (!task_or.ok()) return {};
      task = *std::move(task_or);
    }
    const int ways = task.ways();
    std::vector<int> cand_items, cand_labels, query_items, expected;
    for (const auto& ex : task.candidates) {
      cand_items.push_back(ex.item);
      cand_labels.push_back(ex.label);
    }
    gp::Tensor cand_emb =
        Embed(model, ds, SampleItems(model, ds, cand_items, &trial_rng));
    for (const auto& ex : task.queries) {
      query_items.push_back(ex.item);
      expected.push_back(ex.label);
    }
    gp::Tensor query_emb =
        Embed(model, ds, SampleItems(model, ds, query_items, &trial_rng));

    gp::Tensor cand_importance, query_importance;
    {
      Span span("selector.importance");
      cand_importance = model.selection().Importance(cand_emb);
      query_importance = model.selection().Importance(query_emb);
    }
    std::vector<int> selected;
    {
      Span span("selector.knn");
      gp::KnnConfig knn;
      knn.shots = ec.shots;
      knn.metric = mc.metric;
      knn.use_similarity = true;
      knn.use_importance = true;
      selected = gp::SelectPrompts(cand_emb, cand_importance, cand_labels,
                                   query_emb, query_importance, ways, knn)
                     .selected;
    }
    const gp::Tensor prompt_emb = gp::GatherRows(cand_emb, selected);
    std::vector<int> prompt_labels;
    for (int p : selected) prompt_labels.push_back(cand_labels[p]);

    gp::PromptAugmenterConfig aug_config = mc.augmenter;
    aug_config.min_confidence =
        std::max(aug_config.min_confidence, 1.5f / static_cast<float>(ways));
    gp::PromptAugmenter augmenter(aug_config, trial_rng.NextUint64());
    const int dim = mc.embedding_dim;
    std::vector<int> predictions(expected.size(), -1);
    const int num_queries = static_cast<int>(query_items.size());
    for (int start = 0; start < num_queries; start += ec.query_batch) {
      const int count = std::min(ec.query_batch, num_queries - start);
      const gp::Tensor batch_emb = gp::SliceRows(query_emb, start, count);
      gp::Tensor step_prompts = prompt_emb;
      std::vector<int> step_labels = prompt_labels;
      {
        Span span("augmenter.lookup");
        augmenter.EvictPoisoned(dim, ways);
        if (augmenter.ValidateCache(dim, ways).ok()) {
          const auto cached = augmenter.GetCachedPrompts(dim);
          if (cached.embeddings.rows() > 0) {
            step_prompts = gp::ConcatRows({step_prompts, cached.embeddings});
            step_labels.insert(step_labels.end(), cached.labels.begin(),
                               cached.labels.end());
          }
        }
      }
      gp::TaskGraphOutput out;
      {
        Span span("task_graph.forward");
        out = model.task_net().Forward(step_prompts, step_labels, batch_emb,
                                       ways);
      }
      const std::vector<int> pred = gp::ArgmaxRows(out.query_scores);
      for (int i = 0; i < count; ++i) predictions[start + i] = pred[i];
      {
        Span span("augmenter.observe");
        augmenter.ObserveQueries(batch_emb, pred, Confidence(out.query_scores),
                                 std::min(mc.cache_inserts_per_batch, ways));
      }
    }
    queries += num_queries;
    trial_accuracy.push_back(100.0 * gp::Accuracy(predictions, expected));
  }
  OpOutcome o;
  o.ok = true;
  o.accuracy = gp::ComputeMeanStd(trial_accuracy).mean;
  o.units = queries;
  return o;
}

}  // namespace

int RunEvalManyway(const Args& args, int64_t process_start_ns,
                   Report* report) {
  const EvalManywaySettings s;
  gp::SetNumThreads(s.kernel_threads);
  gp::SetPipelineMode(s.pipeline);
  std::printf("config {\"workload\": \"eval-manyway\", \"kernel_threads\": "
              "%d, \"pipeline\": \"%s\", \"server_workers\": 0, "
              "\"loadgen_threads\": 0, \"dataset_scale\": %g, "
              "\"pretrain_steps\": %d, \"ways\": [%d, %d, %d, %d, %d], "
              "\"shots\": %d, \"candidates_per_class\": %d, "
              "\"num_queries\": %d, \"query_batch\": %d, \"list_ops\": %d, "
              "\"warmup_ops\": %d, \"slo_ms_per_query\": %g, "
              "\"loop\": \"closed, 1 call in flight\"}\n",
              gp::NumThreads(), gp::PipelineModeName(s.pipeline),
              s.dataset_scale, s.pretrain_steps,
              s.ways[0], s.ways[1], s.ways[2], s.ways[3], s.ways[4], s.shots,
              s.candidates_per_class, s.num_queries, s.query_batch,
              s.list_ops, s.warmup_ops, s.slo_ms_per_query);

  EvalState state;
  OpWorkload w;
  w.name = "eval-manyway";
  w.op_span = "eval-manyway.op";
  w.unit_name = "query";
  w.list_ops = s.list_ops;
  w.warmup_ops = s.warmup_ops;
  w.window_ops = s.window_ops;
  w.slo_ms_per_unit = s.slo_ms_per_query;
  w.setup = [&] {
    const gp::DatasetBundle wiki = gp::MakeWikiSim(s.dataset_scale, kWikiSeed);
    state.fb15k = gp::MakeFb15kSim(s.dataset_scale, kFb15kSeed);
    state.model = std::make_unique<gp::GraphPrompterModel>(
        gp::FullGraphPrompterConfig(wiki.graph.feature_dim(), kModelSeed));
    gp::PretrainConfig pc;
    pc.steps = s.pretrain_steps;
    pc.seed = kPretrainSeed;
    gp::Pretrain(state.model.get(), wiki, pc);
  };
  auto call = [&](const gp::EvalConfig& ec) {
    const gp::EvalResult r = gp::EvaluateInContext(*state.model, state.fb15k,
                                                   ec);
    OpOutcome o;
    o.ok = !r.deadline_expired && r.completed_queries == ec.num_queries &&
           r.degradation.TotalEvents() == 0;
    o.accuracy = r.accuracy_percent.mean;
    o.units = r.completed_queries;
    return o;
  };
  w.run_op = [&](int i) { return call(CallConfig(s, args.seed, i)); };
  w.warmup_op = [&](int k) { return call(CallConfig(s, kWarmupSeed, k)); };
  w.replay_op = [&](int i) {
    return ReplayCall(*state.model, state.fb15k, CallConfig(s, args.seed, i));
  };
  w.exact_counters = {"generator/recon_edges", "generator/subgraphs",
                      "selector/scored_pairs", "augmenter/inserts",
                      "augmenter/evictions"};
  w.units_counter = "eval/queries";
  w.layer_spans = {{"episode.sample_ms", "episode.sample"},
                   {"generator.sample_ms", "generator.sample"},
                   {"generator.embed_ms", "generator.embed"},
                   {"selector.importance_ms", "selector.importance"},
                   {"selector.knn_ms", "selector.knn"},
                   {"augmenter.observe_ms", "augmenter.observe"},
                   {"task_graph.forward_ms", "task_graph.forward"}};
  return RunOpWorkload(args, process_start_ns, w, report);
}

}  // namespace gpbench
