#include "core/fock_mpi.hpp"

#include <vector>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "par/work_stealing.hpp"

namespace mc::core {

void FockBuilderMpi::flush_batch(ints::QuartetBatch& batch,
                                 const la::Matrix& density, la::Matrix& g) {
  const basis::BasisSet& bs = eri_->basis_set();
  batch.evaluate();
  for (std::size_t idx = 0; idx < batch.size(); ++idx) {
    const ints::QuartetBatch::Entry& e = batch.quartets()[idx];
    // Update the process-local replicated 2e-Fock matrix. Scatter runs in
    // discovery order, so G matches the scalar per-quartet path bitwise
    // (and a single rank matches SerialFockBuilder exactly).
    scf::scatter_quartet(bs, e.si, e.sj, e.sk, e.sl, batch.result(idx),
                         density, g);
  }
  batch.clear();
}

void FockBuilderMpi::process_pair(const ints::ScreenedPair& pair,
                                  const la::Matrix& density, la::Matrix& g,
                                  const scf::FockContext& ctx,
                                  ints::QuartetBatch& batch) {
  ++pairs_;
  scf::for_each_screened_kl(*screen_, ctx, pair.i, pair.j, counts_,
                            [&](std::size_t k, std::size_t l) {
                              batch.add(pair.i, pair.j, k, l);
                              if (batch.full()) flush_batch(batch, density, g);
                            });
}

void FockBuilderMpi::build_dlb(const la::Matrix& density, la::Matrix& g,
                               const scf::FockContext& ctx) {
  // The DLB counter walks the precompacted Schwarz-sorted pair list --
  // screened-out pairs never hit the shared counter, and the heaviest
  // pairs are claimed first.
  const auto& pairs = screen_->sorted_pairs();
  ddi_->dlb_reset();

  // GAMESS-style DLB: the loop body runs only for iterations whose global
  // index matches the next value handed out by the shared counter.
  ints::QuartetBatch batch(*eri_);
  long next = ddi_->dlbnext();
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (static_cast<long>(p) != next) continue;
    next = ddi_->dlbnext();
    process_pair(pairs[p], density, g, ctx, batch);
  }
  flush_batch(batch, density, g);
}

void FockBuilderMpi::build_stealing(const la::Matrix& density, la::Matrix& g,
                                    const scf::FockContext& ctx) {
  const auto& pairs = screen_->sorted_pairs();
  par::WorkStealingScheduler sched(ddi_->comm(), "fock-mpi-ws",
                                   static_cast<long>(pairs.size()));
  ints::QuartetBatch batch(*eri_);
  for (long p = sched.next(); p >= 0; p = sched.next()) {
    process_pair(pairs[static_cast<std::size_t>(p)], density, g, ctx, batch);
  }
  flush_batch(batch, density, g);
  steals_ = static_cast<std::size_t>(sched.steals());
  sched.release();
}

void FockBuilderMpi::build(const la::Matrix& density, la::Matrix& g,
                           const scf::FockContext& ctx) {
  MC_OBS_TRACE("fock:mpi");
  const basis::BasisSet& bs = eri_->basis_set();
  MC_CHECK(g.rows() == bs.nbf() && g.cols() == bs.nbf(), "G shape mismatch");
  pairs_ = 0;
  counts_ = {};
  steals_ = 0;

  if (lb_ == MpiLoadBalance::kWorkStealing) {
    build_stealing(density, g, ctx);
  } else {
    build_dlb(density, g, ctx);
  }

  // 2e-Fock matrix reduction over ranks.
  ddi_->gsumf(g);
}

}  // namespace mc::core
