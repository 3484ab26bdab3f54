#ifndef XSDF_CORE_LABEL_SPACE_H_
#define XSDF_CORE_LABEL_SPACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/token_interner.h"
#include "wordnet/semantic_network.h"

namespace xsdf::core {

/// The senses of one label, resolved against the network once and then
/// shared: the sense lists of the label's sense-bearing tokens, in
/// token order (LabelSenseTokens() order; tokens without senses are
/// dropped, exactly as EnumerateCandidates filters them). Spans point
/// into the network's sense index and stay valid while the network is
/// unchanged.
struct LabelSenses {
  std::vector<std::span<const wordnet::ConceptId>> token_senses;

  bool has_senses() const { return !token_senses.empty(); }
};

/// The engine-wide label id space joining XML tree labels and concept
/// labels into one uint32 universe:
///
///   - ids < network_size() are the network's token-interner ids, so a
///     tree label the network knows compares equal (one integer) to the
///     LabelTokenId() of any concept spelled the same;
///   - ids >= network_size() are out-of-vocabulary labels, interned on
///     first sight into an overflow table.
///
/// The mapping is injective over exact spellings (a label maps to a
/// network id only when the interned spelling is byte-equal), so
/// grouping sphere members by id is grouping them by label.
///
/// Thread-safety: Resolve()/Senses()/Spelling() may be called from any
/// number of threads concurrently. Network-id reads are lock-free (the
/// network is finalized and immutable, and memoized sense resolutions
/// for network ids live in a dense atomic-pointer table — one relaxed
/// load on the hot path); the overflow table and overflow-id sense
/// resolutions take a shared_mutex, write-locked only on first sight
/// of a label. One LabelSpace must only ever be used with its one
/// network, and ids from different LabelSpace instances are not
/// comparable (the runtime engine owns exactly one).
class LabelSpace {
 public:
  /// `network` must be finalized and outlive the space.
  explicit LabelSpace(const wordnet::SemanticNetwork* network);
  ~LabelSpace();

  LabelSpace(const LabelSpace&) = delete;
  LabelSpace& operator=(const LabelSpace&) = delete;

  /// The id of `label`, interning it into the overflow table when the
  /// network does not know its exact spelling.
  uint32_t Resolve(std::string_view label);

  /// The id of `label` without interning, or TokenInterner::kNotFound.
  uint32_t Find(std::string_view label) const;

  /// The spelling interned under `id`. The reference is stable (both
  /// interners keep node-stable spellings).
  const std::string& Spelling(uint32_t id) const;

  /// The label's resolved senses, memoized per id. The reference is
  /// stable for the life of the space.
  const LabelSenses& Senses(uint32_t id);

  const wordnet::SemanticNetwork& network() const { return *network_; }

  /// Number of ids owned by the network interner (the id-space split).
  size_t network_size() const { return network_size_; }
  /// Number of out-of-vocabulary labels interned so far.
  size_t overflow_size() const;
  /// Total distinct labels the space can currently name.
  size_t size() const { return network_size_ + overflow_size(); }
  /// Number of memoized sense resolutions.
  size_t resolved_sense_count() const;

 private:
  /// Computes the (pure) sense resolution of `id`'s spelling.
  std::unique_ptr<LabelSenses> ResolveSenses(uint32_t id);

  const wordnet::SemanticNetwork* network_;
  size_t network_size_;

  mutable std::shared_mutex overflow_mu_;
  TokenInterner overflow_;

  /// Dense memo table for network-id sense resolutions (the common
  /// case): slot `id` is null until first resolved, then a stable
  /// owned pointer published with a compare-exchange (first writer
  /// wins; racing losers delete their copy). Readers need only an
  /// acquire load.
  std::vector<std::atomic<const LabelSenses*>> network_senses_;
  std::atomic<size_t> resolved_count_{0};

  mutable std::shared_mutex senses_mu_;
  /// Overflow-label id -> resolved senses; entries are heap-stable so
  /// callers hold references across further resolution.
  std::unordered_map<uint32_t, std::unique_ptr<LabelSenses>> senses_;
};

}  // namespace xsdf::core

#endif  // XSDF_CORE_LABEL_SPACE_H_
