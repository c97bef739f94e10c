#include "ints/eri_batch.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "ints/boys.hpp"
#include "ints/eri_kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mc::ints {

QuartetBatch::QuartetBatch(const EriEngine& eng, std::size_t capacity)
    : eng_(&eng), capacity_(capacity) {
  MC_CHECK(capacity_ > 0, "QuartetBatch capacity must be positive");
  entries_.reserve(capacity_);
}

void QuartetBatch::add(std::size_t si, std::size_t sj, std::size_t sk,
                       std::size_t sl) {
  MC_CHECK(!full(), "QuartetBatch::add on a full batch (flush first)");
  Entry e;
  e.si = static_cast<std::uint32_t>(si);
  e.sj = static_cast<std::uint32_t>(sj);
  e.sk = static_cast<std::uint32_t>(sk);
  e.sl = static_cast<std::uint32_t>(sl);
  e.offset = results_size_;
  e.size = eng_->batch_size(si, sj, sk, sl);
  results_size_ += e.size;
  entries_.push_back(e);
}

void QuartetBatch::evaluate() {
  if (entries_.empty()) return;
  ensure_batch_size(results_, results_size_);

  const ShellPairList& pairs = eng_->pairs();
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const ShellPairData& bra =
        pairs.pair(std::max(e.si, e.sj), std::min(e.si, e.sj));
    const ShellPairData& ket =
        pairs.pair(std::max(e.sk, e.sl), std::min(e.sk, e.sl));
    const int key = bra.lsum() * kClassDim + ket.lsum();
    if (buckets_[static_cast<std::size_t>(key)].empty()) {
      used_keys_.push_back(key);
    }
    buckets_[static_cast<std::size_t>(key)].push_back(i);
  }

  for (const int key : used_keys_) {
    std::vector<std::uint32_t>& bucket =
        buckets_[static_cast<std::size_t>(key)];
    evaluate_class(key / kClassDim, key % kClassDim, bucket);
    bucket.clear();
  }
  used_keys_.clear();
}

void QuartetBatch::evaluate_class(int lbra, int lket,
                                  const std::vector<std::uint32_t>& idxs) {
  const bool timed = obs::metrics_enabled();
  const std::uint64_t t0 = timed ? obs::monotonic_ns() : 0;

  const int ltot = lbra + lket;
  const ShellPairList& pairs = eng_->pairs();
  const basis::BasisSet& bs = eng_->basis_set();

  // Phase 1: sweep the primitive-pair loops once, recording per primitive
  // quartet the prescreen verdict and, for survivors, the Boys argument
  // plus the geometry the kernel needs (pref, alpha, PQ) -- all in
  // entry-then-primitive enumeration order, the exact order phase 3
  // replays. Phase 3 then never recomputes prim_geom (one sqrt + divide
  // per primitive quartet for the whole pipeline).
  t_buf_.clear();
  surv_.clear();
  geom_buf_.clear();
  for (const std::uint32_t i : idxs) {
    const Entry& e = entries_[i];
    const ShellPairData& bra =
        pairs.pair(std::max(e.si, e.sj), std::min(e.si, e.sj));
    const ShellPairData& ket =
        pairs.pair(std::max(e.sk, e.sl), std::min(e.sk, e.sl));
    for (const PrimPairData& bp : bra.prims) {
      for (const PrimPairData& kp : ket.prims) {
        const detail::PrimGeom pg = detail::prim_geom(bp, kp);
        const bool skip = detail::prim_skipped(bp, kp, pg.pref);
        surv_.push_back(static_cast<std::uint8_t>(!skip));
        if (skip) continue;
        t_buf_.push_back(pg.t);
        geom_buf_.push_back(pg.pref);
        geom_buf_.push_back(pg.alpha);
        geom_buf_.push_back(pg.pq[0]);
        geom_buf_.push_back(pg.pq[1]);
        geom_buf_.push_back(pg.pq[2]);
      }
    }
  }

  // Phase 2: one batched Boys evaluation for the whole class group.
  const std::size_t nsurv = t_buf_.size();
  if (nsurv > 0) {
    ensure_batch_size(fm_buf_,
                      static_cast<std::size_t>(ltot + 1) * nsurv);
    boys_batch(ltot, nsurv, t_buf_.data(), fm_buf_.data());
  }

  // Phase 3: per-quartet kernel replaying phase-1 verdicts/geometry and
  // consuming the Boys columns in lockstep.
  detail::BatchedPrimSource src;
  src.fm = fm_buf_.data();
  src.n = nsurv;
  src.survived = surv_.data();
  src.geom = geom_buf_.data();
  for (const std::uint32_t i : idxs) {
    const Entry& e = entries_[i];
    const bool swap_ij = e.si < e.sj;
    const bool swap_kl = e.sk < e.sl;
    const ShellPairData& bra =
        pairs.pair(std::max(e.si, e.sj), std::min(e.si, e.sj));
    const ShellPairData& ket =
        pairs.pair(std::max(e.sk, e.sl), std::min(e.sk, e.sl));
    double* dst = results_.data() + e.offset;
    if (!swap_ij && !swap_kl) {
      detail::eri_quartet_kernel(bra, ket, src, g_, rmat_, r_, dst);
    } else {
      ensure_batch_size(tmp_, e.size);
      detail::eri_quartet_kernel(bra, ket, src, g_, rmat_, r_, tmp_.data());
      detail::permute_to_caller(tmp_.data(), swap_ij, swap_kl,
                                bs.shell(e.si).nfunc(),
                                bs.shell(e.sj).nfunc(),
                                bs.shell(e.sk).nfunc(),
                                bs.shell(e.sl).nfunc(), dst);
    }
  }
  MC_CHECK(src.cursor == nsurv && src.flag_cursor == surv_.size(),
           "batched ERI pipeline consumed a different primitive-quartet "
           "count than it collected");

  if (timed) {
    obs::add_eri_class(lbra, lket, idxs.size(), nsurv,
                       obs::monotonic_ns() - t0);
  }
}

void QuartetBatch::clear() {
  entries_.clear();
  results_size_ = 0;
}

}  // namespace mc::ints
