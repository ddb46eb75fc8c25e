#include "core/knn_retrieval.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "core/kmeans.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace gp {

namespace {

// Eq. 7 score of candidate p against query q:
//     score(p, q) = sim(G_p, G_q) + I_p * I_q,
// with the cosine norms hoisted out of the O(P*Q) loop. One scorer serves
// the exact, IVF and fused batch paths, so they differ only in *which*
// pairs they score, never in a value.
class PairScorer {
 public:
  PairScorer(const Tensor& prompt_embeddings, const Tensor& prompt_importance,
             const Tensor& query_embeddings, const Tensor& query_importance,
             const KnnConfig& config)
      : use_similarity_(config.use_similarity),
        metric_(config.metric),
        dim_(prompt_embeddings.cols()),
        pdata_(prompt_embeddings.data().data()),
        qdata_(query_embeddings.data().data()) {
    if (config.use_importance && prompt_importance.defined() &&
        query_importance.defined()) {
      pimp_ = prompt_importance.data().data();
      qimp_ = query_importance.data().data();
    }
    if (use_similarity_ && metric_ == DistanceMetric::kCosine) {
      prompt_norm_ = RowNorms(prompt_embeddings);
      query_norm_ = RowNorms(query_embeddings);
    }
  }

  int dim() const { return dim_; }
  const float* query_row(int64_t q) const {
    return qdata_ + static_cast<size_t>(q) * dim_;
  }

  double operator()(int p, int64_t q, const float* qrow) const {
    double score = 0.0;
    if (use_similarity_) {
      const float* prow = pdata_ + static_cast<size_t>(p) * dim_;
      switch (metric_) {
        case DistanceMetric::kCosine:
          score += CosineFromParts(DotRaw(prow, qrow, dim_), prompt_norm_[p],
                                   query_norm_[q]);
          break;
        case DistanceMetric::kEuclidean:
          score += NegEuclideanRaw(prow, qrow, dim_);
          break;
        case DistanceMetric::kManhattan:
          score += NegManhattanRaw(prow, qrow, dim_);
          break;
      }
    }
    if (pimp_ != nullptr) {
      score += static_cast<double>(pimp_[p]) * qimp_[q];
    }
    return score;
  }

 private:
  bool use_similarity_;
  DistanceMetric metric_;
  int dim_;
  const float* pdata_;
  const float* qdata_;
  const float* pimp_ = nullptr;
  const float* qimp_ = nullptr;
  std::vector<double> prompt_norm_, query_norm_;
};

// Keeps the k most-voted candidates of every class, so the refined set
// S-hat still covers all m classes with k shots each. Stable tie-break on
// candidate index keeps the fallback (all-zero votes) deterministic.
void KeepPerClass(const std::vector<int>& prompt_labels, int num_classes,
                  int shots, KnnSelection* out) {
  const int num_prompts = static_cast<int>(prompt_labels.size());
  for (int cls = 0; cls < num_classes; ++cls) {
    std::vector<int> members;
    for (int p = 0; p < num_prompts; ++p) {
      if (prompt_labels[p] == cls) members.push_back(p);
    }
    std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
      const bool voted_a = out->hit_counts[a] > 0;
      const bool voted_b = out->hit_counts[b] > 0;
      if (voted_a != voted_b) return voted_a;
      return out->votes[a] > out->votes[b];
    });
    const int keep = std::min<int>(shots, members.size());
    for (int i = 0; i < keep; ++i) out->selected.push_back(members[i]);
  }
}

}  // namespace

KnnSelection SelectPrompts(const Tensor& prompt_embeddings,
                           const Tensor& prompt_importance,
                           const std::vector<int>& prompt_labels,
                           const Tensor& query_embeddings,
                           const Tensor& query_importance, int num_classes,
                           const KnnConfig& config) {
  GP_TRACE_SPAN("selector/knn");
  const int num_prompts = prompt_embeddings.rows();
  const int num_queries = query_embeddings.rows();
  CHECK_EQ(static_cast<size_t>(num_prompts), prompt_labels.size());
  CHECK_GE(num_classes, 1);

  static Counter* pairs = Telemetry().GetCounter("selector/scored_pairs");

  KnnSelection out;
  out.votes.assign(num_prompts, 0.0);
  out.hit_counts.assign(num_prompts, 0);

  if ((config.use_similarity || config.use_importance) && num_prompts > 0) {
    const PairScorer score_pair(prompt_embeddings, prompt_importance,
                                query_embeddings, query_importance, config);
    const int dim = score_pair.dim();

    // IVF sharding only pays off when the similarity term routes queries;
    // importance-only scoring (ablation "w/o kNN") has no geometry to
    // shard, so it stays brute force.
    PromptIndex index(config.index, config.metric);
    if (config.use_similarity) index.Build(prompt_embeddings);
    const bool ivf = index.ivf();

    // score(p, q) per Eq. 7, then top-k votes per query (Eq. 8). Queries
    // score independently into per-query top-k lists (parallel); votes
    // merge serially in query order, so totals match a serial run bitwise.
    // On the IVF path each query scores only its probed candidates, which
    // Probe() returns in ascending id order — with nprobe == nlist that is
    // the full set 0..P-1 and the loop below reproduces the exact path's
    // scored sequence (and therefore its partial_sort result) bitwise.
    const int k = std::min(config.shots, num_prompts);
    std::vector<std::vector<std::pair<double, int>>> topk(num_queries);
    std::vector<int> candidates_scored(ivf ? num_queries : 0, 0);
    std::vector<int> shards_probed(ivf ? num_queries : 0, 0);
    std::vector<int> recall_hits(ivf ? num_queries : 0, 0);
    std::vector<int> recall_total(ivf ? num_queries : 0, 0);
    const int recall_sample = ivf ? config.index.recall_sample : 0;
    const int64_t work_per_query = static_cast<int64_t>(num_prompts) * dim;
    const int64_t grain =
        std::max<int64_t>(1, (int64_t{1} << 15) / std::max<int64_t>(
                                                      work_per_query, 1));
    ParallelFor(0, num_queries, grain, [&](int64_t qfirst, int64_t qlast) {
      std::vector<std::pair<double, int>> scored(num_prompts);
      for (int64_t q = qfirst; q < qlast; ++q) {
        const float* qrow = score_pair.query_row(q);
        if (!ivf) {
          for (int p = 0; p < num_prompts; ++p) {
            scored[p] = {score_pair(p, q, qrow), p};
          }
          // T(q) = the query's top-k prompts by score (Eq. 8); k is the
          // shot count, keeping each query's votes concentrated on its
          // genuinely closest candidates.
          std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                            [](const auto& a, const auto& b) {
                              return a.first > b.first;
                            });
          topk[q].assign(scored.begin(), scored.begin() + k);
          continue;
        }
        PromptIndex::ProbeStats stats;
        const std::vector<int64_t> cands = index.Probe(qrow, dim, k, &stats);
        scored.resize(cands.size());
        for (size_t i = 0; i < cands.size(); ++i) {
          const int p = static_cast<int>(cands[i]);
          scored[i] = {score_pair(p, q, qrow), p};
        }
        const int kq = std::min<int>(k, static_cast<int>(scored.size()));
        std::partial_sort(scored.begin(), scored.begin() + kq, scored.end(),
                          [](const auto& a, const auto& b) {
                            return a.first > b.first;
                          });
        topk[q].assign(scored.begin(), scored.begin() + kq);
        candidates_scored[q] = static_cast<int>(cands.size());
        shards_probed[q] = stats.shards_probed;
        if (recall_sample > 0 && q % recall_sample == 0 && !stats.exact) {
          // Write-only recall probe: brute-force this query's top-k and
          // count how many ids the pruned retrieval kept. Predictions are
          // unaffected.
          std::vector<std::pair<double, int>> full(num_prompts);
          for (int p = 0; p < num_prompts; ++p) {
            full[p] = {score_pair(p, q, qrow), p};
          }
          std::partial_sort(full.begin(), full.begin() + k, full.end(),
                            [](const auto& a, const auto& b) {
                              return a.first > b.first;
                            });
          int hits = 0;
          for (int i = 0; i < k; ++i) {
            const int want = full[i].second;
            for (int j = 0; j < kq; ++j) {
              if (topk[q][j].second == want) {
                ++hits;
                break;
              }
            }
          }
          recall_hits[q] = hits;
          recall_total[q] = k;
        }
      }
    });
    // 1_{p in T(q)} * score(p, q).
    for (int q = 0; q < num_queries; ++q) {
      for (const auto& [score, p] : topk[q]) {
        out.votes[p] += score;
        out.hit_counts[p] += 1;
      }
    }

    if (ivf) {
      // Honest work accounting: the IVF path pays `candidates` full-width
      // scores plus nlist centroid-routing scores per query; both land in
      // selector/scored_pairs so the bench's pair-fraction comparison
      // against brute force (P pairs per query) includes routing overhead.
      int64_t total_candidates = 0, total_shards = 0;
      int64_t total_hits = 0, total_recall = 0;
      for (int q = 0; q < num_queries; ++q) {
        total_candidates += candidates_scored[q];
        total_shards += shards_probed[q];
        total_hits += recall_hits[q];
        total_recall += recall_total[q];
      }
      const int64_t routing =
          static_cast<int64_t>(num_queries) * index.nlist();
      pairs->Add(total_candidates + routing);
      Telemetry().GetCounter("index/probes")->Add(num_queries);
      Telemetry().GetCounter("index/shard_probes")->Add(total_shards);
      Telemetry().GetCounter("index/candidate_pairs")->Add(total_candidates);
      Telemetry().GetCounter("index/routing_pairs")->Add(routing);
      if (total_recall > 0) {
        Telemetry().GetCounter("index/recall_hits")->Add(total_hits);
        Telemetry().GetCounter("index/recall_total")->Add(total_recall);
      }
    } else {
      pairs->Add(static_cast<int64_t>(num_prompts) * num_queries);
    }
  } else {
    pairs->Add(static_cast<int64_t>(num_prompts) * num_queries);
  }

  KeepPerClass(prompt_labels, num_classes, config.shots, &out);
  return out;
}

std::vector<KnnSelection> SelectPromptsBatch(
    const std::vector<KnnBatchUnit>& units) {
  if (units.empty()) return {};
  if (units.size() == 1) {
    const KnnBatchUnit& u = units[0];
    return {SelectPrompts(*u.prompt_embeddings, *u.prompt_importance,
                          *u.prompt_labels, *u.query_embeddings,
                          *u.query_importance, u.num_classes, u.config)};
  }
  GP_TRACE_SPAN("selector/knn_batch");
  static Counter* pairs = Telemetry().GetCounter("selector/scored_pairs");

  std::vector<KnnSelection> results(units.size());

  // Per-unit scoring context for the fused exact pass. Units that score
  // nothing (no score terms, or an empty pool) skip straight to the
  // per-class keep; units whose index shards (IVF) delegate to
  // SelectPrompts — the fused pass reproduces only the exact path.
  struct UnitCtx {
    bool delegated = false;
    std::optional<PairScorer> score_pair;  // set for fused units
    int num_prompts = 0;
    int k = 0;
    std::vector<std::vector<std::pair<double, int>>> topk;
  };
  std::vector<UnitCtx> ctx(units.size());
  // Flattened (unit, local query) list driving the single ParallelFor.
  std::vector<int> flat_unit, flat_query;
  int64_t max_work_per_query = 1;

  for (size_t u = 0; u < units.size(); ++u) {
    const KnnBatchUnit& unit = units[u];
    const int num_prompts = unit.prompt_embeddings->rows();
    const int num_queries = unit.query_embeddings->rows();
    CHECK_EQ(static_cast<size_t>(num_prompts), unit.prompt_labels->size());
    CHECK_GE(unit.num_classes, 1);
    results[u].votes.assign(num_prompts, 0.0);
    results[u].hit_counts.assign(num_prompts, 0);
    const KnnConfig& config = unit.config;
    if (!(config.use_similarity || config.use_importance) ||
        num_prompts == 0) {
      pairs->Add(static_cast<int64_t>(num_prompts) * num_queries);
      continue;
    }
    PromptIndex index(config.index, config.metric);
    if (config.use_similarity) index.Build(*unit.prompt_embeddings);
    if (index.ivf()) {
      results[u] = SelectPrompts(*unit.prompt_embeddings,
                                 *unit.prompt_importance, *unit.prompt_labels,
                                 *unit.query_embeddings, *unit.query_importance,
                                 unit.num_classes, config);
      ctx[u].delegated = true;
      continue;
    }
    pairs->Add(static_cast<int64_t>(num_prompts) * num_queries);
    UnitCtx& c = ctx[u];
    c.score_pair.emplace(*unit.prompt_embeddings, *unit.prompt_importance,
                         *unit.query_embeddings, *unit.query_importance,
                         config);
    c.num_prompts = num_prompts;
    c.k = std::min(config.shots, num_prompts);
    c.topk.resize(num_queries);
    for (int q = 0; q < num_queries; ++q) {
      flat_unit.push_back(static_cast<int>(u));
      flat_query.push_back(q);
    }
    max_work_per_query =
        std::max(max_work_per_query,
                 static_cast<int64_t>(num_prompts) * c.score_pair->dim());
  }

  // Same per-query top-k as the exact path in SelectPrompts; queries write
  // only their own topk slot, so the fused ParallelFor is bitwise
  // independent of chunking and of which other units share the pass.
  const int64_t grain =
      std::max<int64_t>(1, (int64_t{1} << 15) / max_work_per_query);
  ParallelFor(
      0, static_cast<int64_t>(flat_unit.size()), grain,
      [&](int64_t first, int64_t last) {
        std::vector<std::pair<double, int>> scored;
        for (int64_t f = first; f < last; ++f) {
          UnitCtx& c = ctx[flat_unit[f]];
          const int q = flat_query[f];
          const float* qrow = c.score_pair->query_row(q);
          scored.resize(c.num_prompts);
          for (int p = 0; p < c.num_prompts; ++p) {
            scored[p] = {(*c.score_pair)(p, q, qrow), p};
          }
          std::partial_sort(scored.begin(), scored.begin() + c.k, scored.end(),
                            [](const auto& a, const auto& b) {
                              return a.first > b.first;
                            });
          c.topk[q].assign(scored.begin(), scored.begin() + c.k);
        }
      });

  for (size_t u = 0; u < units.size(); ++u) {
    if (ctx[u].delegated) continue;  // SelectPrompts produced the keep list
    KnnSelection& out = results[u];
    // Serial vote merge in query order, exactly as SelectPrompts.
    for (const auto& qk : ctx[u].topk) {
      for (const auto& [score, p] : qk) {
        out.votes[p] += score;
        out.hit_counts[p] += 1;
      }
    }
    KeepPerClass(*units[u].prompt_labels, units[u].num_classes,
                 units[u].config.shots, &out);
  }
  return results;
}

const char* SelectorKindName(SelectorKind kind) {
  switch (kind) {
    case SelectorKind::kKnnVoting:
      return "knn-voting";
    case SelectorKind::kClustering:
      return "kmeans-clustering";
  }
  return "?";
}

KnnSelection SelectPromptsByClustering(
    const Tensor& prompt_embeddings, const Tensor& prompt_importance,
    const std::vector<int>& prompt_labels, const Tensor& query_embeddings,
    const Tensor& query_importance, int num_classes, const KnnConfig& config,
    Rng* rng) {
  const int num_prompts = prompt_embeddings.rows();
  const int num_queries = query_embeddings.rows();
  CHECK_EQ(static_cast<size_t>(num_prompts), prompt_labels.size());
  if (num_queries < config.shots ||
      (!config.use_similarity && !config.use_importance)) {
    return SelectPrompts(prompt_embeddings, prompt_importance, prompt_labels,
                         query_embeddings, query_importance, num_classes,
                         config);
  }

  KMeansConfig kmeans;
  kmeans.clusters = config.shots;
  const KMeansResult clusters = RunKMeans(query_embeddings, kmeans, rng);

  // Mean query importance stands in for I_q against a centroid.
  float mean_query_importance = 0.0f;
  if (config.use_importance && query_importance.defined()) {
    for (int q = 0; q < num_queries; ++q) {
      mean_query_importance += query_importance.at(q, 0);
    }
    mean_query_importance /= std::max(num_queries, 1);
  }

  KnnSelection out;
  out.votes.assign(num_prompts, 0.0);
  out.hit_counts.assign(num_prompts, 0);
  for (int cls = 0; cls < num_classes; ++cls) {
    std::vector<int> members;
    for (int p = 0; p < num_prompts; ++p) {
      if (prompt_labels[p] == cls) members.push_back(p);
    }
    std::vector<bool> taken(members.size(), false);
    const int keep = std::min<int>(config.shots, members.size());
    for (int c = 0; c < keep; ++c) {
      // Centroid c claims the best unclaimed class member.
      int best = -1;
      double best_score = 0.0;
      for (size_t mi = 0; mi < members.size(); ++mi) {
        if (taken[mi]) continue;
        const int p = members[mi];
        double score = 0.0;
        if (config.use_similarity) {
          score += EmbeddingSimilarity(prompt_embeddings, p,
                                       clusters.centroids, c, config.metric);
        }
        if (config.use_importance && prompt_importance.defined()) {
          score += static_cast<double>(prompt_importance.at(p, 0)) *
                   mean_query_importance;
        }
        if (best < 0 || score > best_score) {
          best = static_cast<int>(mi);
          best_score = score;
        }
      }
      if (best < 0) break;
      taken[best] = true;
      out.selected.push_back(members[best]);
      out.votes[members[best]] = best_score;
      out.hit_counts[members[best]] = 1;
    }
  }
  return out;
}

}  // namespace gp
