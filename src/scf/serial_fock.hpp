#pragma once
// Reference Fock builders:
//  * SerialFockBuilder -- the canonical screened quartet loop on one
//    thread. The correctness anchor every parallel algorithm is tested
//    against, and the per-core work model the simulator calibrates on.
//    Iterates the Screening's precomputed Schwarz-sorted pair list, which
//    is exactly the order a single-rank FockBuilderMpi claims pairs in --
//    keeping the two bit-identical.
//  * BruteForceFockBuilder -- O(N^4) loop over *all* ordered quartets with
//    no permutational symmetry and no screening; definitionally correct,
//    used to validate the skeleton scatter itself on tiny systems.

#include "scf/fock_builder.hpp"

namespace mc::scf {

/// Default quartet-batch capacity of the serial builder's batched ERI
/// pipeline (= ints::kDefaultBatchCapacity; restated here so the header
/// need not pull in eri_batch.hpp).
inline constexpr std::size_t kSerialFockBatchCapacity = 64;

class SerialFockBuilder : public FockBuilder {
 public:
  /// `batch_capacity` sizes the quartet batch of the SIMD-friendly batched
  /// ERI pipeline (DESIGN.md section 12); 0 selects the legacy per-quartet
  /// scalar path. Both paths make identical screening decisions and
  /// produce bitwise-identical G.
  SerialFockBuilder(const ints::EriEngine& eri, const ints::Screening& screen,
                    std::size_t batch_capacity = kSerialFockBatchCapacity)
      : eri_(&eri), screen_(&screen), batch_capacity_(batch_capacity) {}

  [[nodiscard]] std::string name() const override { return "serial"; }
  using FockBuilder::build;
  void build(const la::Matrix& density, la::Matrix& g,
             const FockContext& ctx) override;

  /// Quartets that survived screening in the last build (statistics).
  [[nodiscard]] std::size_t last_quartets_computed() const override {
    return counts_.computed;
  }
  [[nodiscard]] std::size_t last_density_screened() const override {
    return counts_.density_screened;
  }
  [[nodiscard]] std::size_t last_static_screened() const override {
    return counts_.static_screened;
  }
  [[nodiscard]] std::size_t last_pairs_claimed() const override {
    return pairs_;
  }
  [[nodiscard]] std::vector<std::size_t> last_thread_quartets()
      const override {
    return {counts_.computed};
  }
  [[nodiscard]] std::size_t screening_predicted_quartets() const override {
    return screen_->count_surviving_quartets();
  }
  [[nodiscard]] double screening_threshold() const override {
    return screen_->threshold();
  }

 private:
  const ints::EriEngine* eri_;
  const ints::Screening* screen_;
  std::size_t batch_capacity_ = kSerialFockBatchCapacity;
  QuartetCounts counts_;
  std::size_t pairs_ = 0;
};

class BruteForceFockBuilder : public FockBuilder {
 public:
  explicit BruteForceFockBuilder(const ints::EriEngine& eri) : eri_(&eri) {}

  [[nodiscard]] std::string name() const override { return "brute-force"; }
  using FockBuilder::build;
  void build(const la::Matrix& density, la::Matrix& g,
             const FockContext& ctx) override;

 private:
  const ints::EriEngine* eri_;
};

}  // namespace mc::scf
