// pretrain: Pretrain with AdamW on Wiki-sim, each op a freshly built model
// trained for a fixed number of steps. The generator and task-graph layers
// run under autograd here (gradients, parameter updates, no unique-edge
// dedup); it is the only workload that exercises nn/optimizer,
// tensor/autograd and the pipelined episode preparation.
//
// The traced replay runs the same steps from public calls, serially, in
// the order Pretrain runs them: a Multi-Task episode, a Neighbor Matching
// episode, one forward each, backward, gradient clip and AdamW step. It
// must reproduce the op's final episode accuracy bit for bit.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/graph_prompter.h"
#include "core/pretrain.h"
#include "data/datasets.h"
#include "data/episode.h"
#include "nn/optimizer.h"
#include "tensor/autograd.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/pipeline.h"
#include "workloads.h"

namespace gpbench {
namespace {

constexpr uint64_t kWikiSeed = 13;
constexpr uint64_t kModelSalt = 0x90de;
constexpr uint64_t kStepSalt = 0x57e9;

struct Episode {
  std::vector<gp::Subgraph> prompts, queries;
  std::vector<int> prompt_labels, query_labels;
};

// Multi-Task episode (Eq. 13): train-split m-way k-shot task.
bool MultiTaskEpisode(const gp::GraphPrompterModel& model,
                      const gp::DatasetBundle& ds,
                      const gp::PretrainConfig& pc, gp::Rng* rng,
                      Episode* e) {
  gp::FewShotTask task;
  {
    Span span("episode.sample");
    gp::EpisodeSampler sampler(&ds);
    gp::EpisodeConfig episode;
    episode.ways = pc.ways;
    episode.candidates_per_class = pc.shots;
    episode.num_queries = pc.queries_per_task;
    episode.queries_from_test = false;
    auto task_or = sampler.Sample(episode, rng);
    if (!task_or.ok()) return false;
    task = *std::move(task_or);
  }
  Span span("generator.sample");
  for (const auto& ex : task.candidates) {
    e->prompts.push_back(model.generator().SampleForItem(ds, ex.item, rng));
    e->prompt_labels.push_back(ex.label);
  }
  for (const auto& ex : task.queries) {
    e->queries.push_back(model.generator().SampleForItem(ds, ex.item, rng));
    e->query_labels.push_back(ex.label);
  }
  return true;
}

// Neighbor Matching episode (Eq. 12): classes are the neighborhoods of m
// anchors with at least k+1 distinct neighbors.
bool NeighborMatchingEpisode(const gp::GraphPrompterModel& model,
                             const gp::Graph& graph,
                             const gp::PretrainConfig& pc, gp::Rng* rng,
                             Episode* e) {
  const int needed = pc.shots + 1;
  std::vector<int> anchors;
  {
    Span span("episode.sample");
    for (int attempt = 0; attempt < 50 * pc.ways &&
                          static_cast<int>(anchors.size()) < pc.ways;
         ++attempt) {
      const int c = static_cast<int>(rng->UniformInt(graph.num_nodes()));
      if (graph.Degree(c) < needed ||
          std::find(anchors.begin(), anchors.end(), c) != anchors.end()) {
        continue;
      }
      anchors.push_back(c);
    }
  }
  if (static_cast<int>(anchors.size()) < pc.ways) return false;
  std::vector<gp::Subgraph> queries;
  std::vector<int> query_labels;
  for (int label = 0; label < pc.ways; ++label) {
    std::vector<int> nb;
    {
      Span span("episode.sample");
      const gp::AdjEntry* adj = graph.NeighborsBegin(anchors[label]);
      nb.resize(graph.NeighborsCount(anchors[label]));
      for (size_t i = 0; i < nb.size(); ++i) nb[i] = adj[i].neighbor;
      std::sort(nb.begin(), nb.end());
      nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
      rng->Shuffle(&nb);
    }
    if (static_cast<int>(nb.size()) < needed) return false;
    Span span("generator.sample");
    for (int s = 0; s < pc.shots; ++s) {
      e->prompts.push_back(model.generator().SampleForNode(graph, nb[s], rng));
      e->prompt_labels.push_back(label);
    }
    queries.push_back(
        model.generator().SampleForNode(graph, nb[pc.shots], rng));
    query_labels.push_back(label);
  }
  // Queries are shuffled jointly so label order carries no signal.
  Span span("episode.sample");
  std::vector<int> perm(queries.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
  rng->Shuffle(&perm);
  for (int i : perm) {
    e->queries.push_back(queries[i]);
    e->query_labels.push_back(query_labels[i]);
  }
  return true;
}

struct EpisodeLoss {
  gp::Tensor loss;
  int correct = 0;
  int total = 0;
};

EpisodeLoss Forward(const gp::GraphPrompterModel& model,
                    const gp::Graph& graph, const Episode& e, int ways) {
  Span span("pretrain.forward");
  std::vector<gp::Subgraph> all = e.prompts;
  all.insert(all.end(), e.queries.begin(), e.queries.end());
  gp::Tensor emb;
  {
    Span embed("generator.embed");
    emb = model.generator().EmbedSubgraphs(graph, all);
  }
  const int num_prompts = static_cast<int>(e.prompts.size());
  gp::Tensor prompt_emb = gp::SliceRows(emb, 0, num_prompts);
  const gp::Tensor query_emb =
      gp::SliceRows(emb, num_prompts, emb.rows() - num_prompts);
  {
    Span importance("selector.importance");
    prompt_emb = model.selection().WeightedEmbeddings(prompt_emb);
  }
  gp::TaskGraphOutput out;
  {
    Span task("task_graph.forward");
    out = model.task_net().Forward(prompt_emb, e.prompt_labels, query_emb,
                                   ways);
  }
  EpisodeLoss result;
  result.loss = gp::CrossEntropyWithLogits(out.query_scores, e.query_labels);
  const std::vector<int> pred = gp::ArgmaxRows(out.query_scores);
  for (size_t i = 0; i < e.query_labels.size(); ++i) {
    if (pred[i] == e.query_labels[i]) ++result.correct;
  }
  result.total = static_cast<int>(e.query_labels.size());
  return result;
}

// One op of Pretrain, step by step. Model construction sits outside the
// step spans, like the set-up of the real op.
OpOutcome ReplayOp(gp::GraphPrompterModel* model, const gp::DatasetBundle& ds,
                   const gp::PretrainConfig& pc) {
  gp::PoolScope pool_scope;
  gp::Rng rng(pc.seed);
  gp::AdamW optimizer(model->Parameters(), pc.learning_rate,
                      pc.weight_decay);
  int correct = 0, total = 0;
  double loss_sum = 0.0;
  for (int step = 1; step <= pc.steps; ++step) {
    Span op("pretrain.step");
    optimizer.ZeroGrad();
    Episode mt, nm;
    const bool mt_ok = MultiTaskEpisode(*model, ds, pc, &rng, &mt);
    const bool nm_ok = NeighborMatchingEpisode(*model, ds.graph, pc, &rng, &nm);
    gp::Tensor loss;
    if (mt_ok) {
      EpisodeLoss l = Forward(*model, ds.graph, mt, pc.ways);
      loss = l.loss;
      correct += l.correct;
      total += l.total;
    }
    if (nm_ok) {
      EpisodeLoss l = Forward(*model, ds.graph, nm, pc.ways);
      loss = loss.defined() ? gp::Add(loss, l.loss) : l.loss;
      correct += l.correct;
      total += l.total;
    }
    if (!loss.defined()) return {};
    {
      Span span("autograd.backward");
      gp::Backward(loss);
    }
    {
      Span span("optimizer.step");
      optimizer.ClipGradNorm(pc.grad_clip);
      optimizer.Step();
    }
    loss_sum += loss.item();
  }
  OpOutcome o;
  o.ok = total > 0;
  o.accuracy = total > 0 ? 100.0 * correct / total : 0.0;
  o.check = loss_sum / pc.steps;
  o.units = pc.steps;
  return o;
}

}  // namespace

int RunPretrain(const Args& args, int64_t process_start_ns, Report* report) {
  const PretrainSettings s;
  gp::SetNumThreads(s.kernel_threads);
  gp::SetPipelineMode(s.pipeline);
  std::printf("config {\"workload\": \"pretrain\", \"kernel_threads\": %d, "
              "\"pipeline\": \"%s\", \"prepare_workers\": %d, "
              "\"server_workers\": 0, \"loadgen_threads\": 0, "
              "\"dataset_scale\": %g, \"steps_per_op\": %d, \"ways\": %d, "
              "\"list_ops\": %d, \"warmup_ops\": %d, \"slo_ms_per_step\": "
              "%g, \"loop\": \"closed, 1 op in flight\"}\n",
              gp::NumThreads(), gp::PipelineModeName(s.pipeline),
              gp::PipelineActive() ? 1 : 0, s.dataset_scale, s.steps_per_op,
              s.ways, s.list_ops, s.warmup_ops, s.slo_ms_per_step);

  gp::DatasetBundle wiki;
  auto op_config = [&](uint64_t seed, int i) {
    gp::PretrainConfig pc;
    pc.steps = s.steps_per_op;
    pc.ways = s.ways;
    pc.log_every = s.steps_per_op;  // one window: the op's final accuracy
    pc.seed = OpSeed(seed, kStepSalt, static_cast<uint64_t>(i));
    return pc;
  };
  auto fresh_model = [&](uint64_t seed, int i) {
    return std::make_unique<gp::GraphPrompterModel>(
        gp::FullGraphPrompterConfig(
            wiki.graph.feature_dim(),
            OpSeed(seed, kModelSalt, static_cast<uint64_t>(i))));
  };
  auto train = [&](uint64_t seed, int i) {
    auto model = fresh_model(seed, i);
    const gp::PretrainCurves curves =
        gp::Pretrain(model.get(), wiki, op_config(seed, i));
    OpOutcome o;
    o.ok = curves.step.size() == 1 && curves.step.back() == s.steps_per_op;
    o.accuracy = o.ok ? curves.train_accuracy.back() : 0.0;
    o.check = o.ok ? curves.loss.back() : 0.0;
    o.units = o.ok ? s.steps_per_op : 0;
    return o;
  };

  OpWorkload w;
  w.name = "pretrain";
  w.op_span = "pretrain.step";
  w.unit_name = "step";
  w.list_ops = s.list_ops;
  w.warmup_ops = s.warmup_ops;
  w.window_ops = s.window_ops;
  w.slo_ms_per_unit = s.slo_ms_per_step;
  w.setup = [&] { wiki = gp::MakeWikiSim(s.dataset_scale, kWikiSeed); };
  w.run_op = [&](int i) { return train(args.seed, i); };
  w.warmup_op = [&](int k) { return train(kWarmupSeed, k); };
  w.replay_op = [&](int i) {
    auto model = fresh_model(args.seed, i);
    return ReplayOp(model.get(), wiki, op_config(args.seed, i));
  };
  w.exact_counters = {"generator/recon_edges", "generator/subgraphs"};
  w.units_counter = "pretrain/steps";
  w.layer_spans = {{"pretrain.step_ms", "pretrain.step"},
                   {"episode.sample_ms", "episode.sample"},
                   {"generator.sample_ms", "generator.sample"},
                   {"pretrain.forward_ms", "pretrain.forward"},
                   {"generator.embed_ms", "generator.embed"},
                   {"selector.importance_ms", "selector.importance"},
                   {"task_graph.forward_ms", "task_graph.forward"},
                   {"autograd.backward_ms", "autograd.backward"},
                   {"optimizer.step_ms", "optimizer.step"}};
  return RunOpWorkload(args, process_start_ns, w, report);
}

}  // namespace gpbench
