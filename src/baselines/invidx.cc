#include "baselines/invidx.h"

#include "core/verify.h"

#include <algorithm>
#include <queue>

#include "util/logging.h"
#include "util/timer.h"

namespace les3 {
namespace baselines {

InvIdx::InvIdx(const SetDatabase* db, InvIdxOptions options)
    : db_(db), options_(options) {
  postings_.resize(db_->num_tokens());
  frequency_.assign(db_->num_tokens(), 0);
  for (SetId i = 0; i < db_->size(); ++i) {
    TokenId prev = static_cast<TokenId>(-1);
    for (TokenId t : db_->set(i).tokens()) {
      if (t == prev) continue;
      prev = t;
      postings_[t].push_back(i);
      ++frequency_[t];
    }
  }
}

const std::vector<SetId>& InvIdx::Postings(TokenId token) const {
  if (token >= postings_.size()) return empty_;
  return postings_[token];
}

uint64_t InvIdx::IndexBytes() const {
  uint64_t total = frequency_.size() * sizeof(uint32_t);
  for (const auto& p : postings_) total += p.size() * sizeof(SetId);
  return total;
}

InvIdx::CanonicalQuery InvIdx::Canonicalize(SetView query) const {
  CanonicalQuery cq;
  const auto& qt = query.tokens();
  size_t i = 0;
  while (i < qt.size()) {
    size_t j = i;
    while (j < qt.size() && qt[j] == qt[i]) ++j;
    cq.tokens.push_back(qt[i]);
    cq.multiplicities.push_back(j - i);
    i = j;
  }
  std::vector<size_t> order(cq.tokens.size());
  for (size_t p = 0; p < order.size(); ++p) order[p] = p;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    TokenId ta = cq.tokens[a], tb = cq.tokens[b];
    uint32_t fa = ta < frequency_.size() ? frequency_[ta] : 0;
    uint32_t fb = tb < frequency_.size() ? frequency_[tb] : 0;
    if (fa != fb) return fa < fb;  // rarest first
    return ta < tb;
  });
  CanonicalQuery sorted;
  for (size_t p : order) {
    sorted.tokens.push_back(cq.tokens[p]);
    sorted.multiplicities.push_back(cq.multiplicities[p]);
  }
  return sorted;
}

InvIdx::FilterResult InvIdx::RangeFilter(SetView query,
                                         double delta) const {
  FilterResult result;
  CanonicalQuery cq = Canonicalize(query);
  CollectCandidates(cq, query.size(), delta, &result.candidates,
                    &result.prefix_tokens);
  return result;
}

void InvIdx::CollectCandidates(const CanonicalQuery& cq, size_t query_size,
                               double delta, std::vector<SetId>* out,
                               std::vector<TokenId>* prefix_out) const {
  const std::vector<TokenId>& canonical = cq.tokens;
  const std::vector<size_t>& multiplicities = cq.multiplicities;
  // Least multiset overlap a δ-result must have (Theorem 3.1 machinery).
  size_t alpha = MinOverlapForThreshold(options_.measure, query_size, delta);
  if (alpha == 0 || alpha > query_size) {
    if (alpha > query_size) return;  // threshold unreachable
    // δ <= 0: every set qualifies.
    out->resize(db_->size());
    for (SetId i = 0; i < db_->size(); ++i) (*out)[i] = i;
    return;
  }
  // Multiset-safe prefix: keep extending the prefix until the total
  // multiplicity of the remaining suffix drops below alpha — a set sharing
  // no prefix token can then never reach the overlap bound. For plain sets
  // this degenerates to the textbook prefix length |Q| - alpha + 1.
  // suffix[i] = total multiplicity of canonical[i..end).
  std::vector<size_t> suffix(canonical.size() + 1, 0);
  for (size_t i = canonical.size(); i-- > 0;) {
    suffix[i] = suffix[i + 1] + multiplicities[i];
  }
  size_t prefix_len = canonical.size();
  for (size_t p = 0; p <= canonical.size(); ++p) {
    if (suffix[p] < alpha) {
      prefix_len = p;
      break;
    }
  }
  std::vector<uint8_t> seen(db_->size(), 0);
  for (size_t i = 0; i < prefix_len; ++i) {
    if (prefix_out != nullptr) prefix_out->push_back(canonical[i]);
    for (SetId c : Postings(canonical[i])) {
      if (seen[c]) continue;
      seen[c] = 1;
      // Size filter: a set too small or too large can never reach δ.
      if (MaxSimForSize(options_.measure, query_size, db_->set(c).size()) <
          delta) {
        continue;
      }
      out->push_back(c);
    }
  }
}

std::vector<Hit> InvIdx::Range(
    SetView query, double delta, search::QueryStats* stats) const {
  WallTimer timer;
  CanonicalQuery canonical = Canonicalize(query);
  std::vector<SetId> candidates;
  CollectCandidates(canonical, query.size(), delta, &candidates);
  std::vector<Hit> out;
  // The same query-bitmap kernel as the LES3 engines, so the two differ
  // only in how they prune.
  QueryVerifier verifier(query, db_->num_tokens());
  for (SetId c : candidates) {
    SetView set = db_->set(c);
    VerifyResult v = verifier.Verify(
        options_.measure, set, delta,
        MinOverlapForPair(options_.measure, query.size(), set.size(), delta));
    if (v.passed) out.emplace_back(c, v.similarity);
  }
  SortHits(&out);
  if (stats != nullptr) {
    *stats = search::QueryStats();
    stats->candidates_verified = candidates.size();
    stats->results = out.size();
    stats->pruning_efficiency = search::RangePruningEfficiency(
        db_->size(), candidates.size(), out.size());
    stats->micros = timer.Micros();
  }
  return out;
}

std::vector<Hit> InvIdx::Knn(
    SetView query, size_t k, search::QueryStats* stats) const {
  WallTimer timer;
  CanonicalQuery canonical = Canonicalize(query);
  std::vector<uint8_t> verified(db_->size(), 0);
  TopKHits best(k);
  QueryVerifier verifier(query, db_->num_tokens());
  uint64_t total_verified = 0;
  double delta = 1.0;
  for (;;) {
    std::vector<SetId> candidates;
    CollectCandidates(canonical, query.size(), delta, &candidates);
    for (SetId c : candidates) {
      if (verified[c]) continue;
      verified[c] = 1;
      ++total_verified;
      // Threshold 0 always passes: the exact similarity.
      best.Offer(c, verifier.Verify(options_.measure, db_->set(c), 0.0, 0)
                        .similarity);
    }
    // Every set with similarity >= delta was in this pass's candidate set,
    // so anything still unseen is strictly below the k-th best — ties
    // included — once the k-th best reaches delta.
    if (best.size() >= std::min<size_t>(k, db_->size()) &&
        best.size() > 0 && best.WorstSimilarity() >= delta) {
      break;
    }
    if (delta <= 0.0) break;  // the δ = 0 pass saw every set
    delta -= options_.knn_delta_step;
    if (delta < 0.0) delta = 0.0;
  }
  std::vector<Hit> out = best.Take();
  if (stats != nullptr) {
    *stats = search::QueryStats();
    stats->candidates_verified = total_verified;
    stats->results = out.size();
    stats->pruning_efficiency =
        search::KnnPruningEfficiency(db_->size(), total_verified, k);
    stats->micros = timer.Micros();
  }
  return out;
}

}  // namespace baselines
}  // namespace les3
