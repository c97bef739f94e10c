#include "core/fock_shared.hpp"

#include <omp.h>

#include <algorithm>
#include <vector>

#include "common/access.hpp"
#include "ints/eri_batch.hpp"
#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "common/tsan_annotations.hpp"
#include "obs/trace.hpp"

namespace mc::core {

namespace {

/// Chunked parallel reduction of one buffer (all thread columns) into the
/// shell-s stripe of the shared Fock matrix, then per-thread re-zeroing.
/// Must be called by every thread of the team (contains worksharing
/// constructs). This is the tree-reduction flush of the paper's Figure 1B;
/// the "column" of the paper's Fortran storage is the row stripe
/// g(off+a, :) in our row-major matrices, which also keeps the raw
/// skeleton bit-comparable with the serial reference scatter.
///
/// Access protocol (annotated via the types, verified under MC_CHECK):
/// cross-thread reads of the lanes via TeamBuffer::read, exclusive column
/// writes into the shared matrix via OwnedSlice::add, one barrier, then the
/// owner's lane re-zero. No barrier follows the re-zero: each thread zeroes
/// only its own lane, and the next cross-thread read of any lane is the
/// next flush, which every caller reaches only after a later team barrier.
void flush_buffer(const acc::TeamBuffer<double>& buf,
                  const acc::ThreadPrivate<double>& mine, int nt,
                  const basis::Shell& sh, std::size_t nbf,
                  const acc::OwnedSlice<double>& f_acc,
                  acc::ThreadCtx<>& th, const volatile void* tag) {
  const int nf = sh.nfunc();
  const std::size_t off = sh.first_bf;
#pragma omp for schedule(static) nowait
  for (long col = 0; col < static_cast<long>(nbf); ++col) {
    const auto c = static_cast<std::size_t>(col);
    for (int a = 0; a < nf; ++a) {
      double sum = 0.0;
      for (int t = 0; t < nt; ++t) {
        sum += buf.read(t, static_cast<std::size_t>(a) * nbf + c);
      }
      f_acc.add((off + static_cast<std::size_t>(a)) * nbf + c, sum);
    }
  }
  // All reads done before anyone re-zeroes. Annotated (rather than the
  // worksharing construct's implicit barrier) so TSan sees the ordering
  // between cross-thread buffer reads and the owner's re-zeroing writes;
  // the same barrier advances the shadow ledger's epoch.
  MC_PROTOCOL_BARRIER(tag, th);
  mine.zero(static_cast<std::size_t>(nf) * nbf);
}

}  // namespace

void FockBuilderShared::build(const la::Matrix& density, la::Matrix& g,
                              const scf::FockContext& ctx) {
  MC_OBS_TRACE("fock:shared");
  const basis::BasisSet& bs = eri_->basis_set();
  const std::size_t nbf = bs.nbf();
  // The MPI DLB counter walks the Screening's bra-grouped pair list:
  // already compacted to Schwarz survivors, grouped by i shell (so the
  // lazy FI flush still fires at most once per i group) with the heaviest
  // groups first.
  const auto& bra_pairs = screen_->bra_grouped_pairs();
  const std::size_t nlist = bra_pairs.size();
  const bool weighted = ctx.weighted();
  const double scale = ctx.threshold_scale;
  MC_CHECK(g.rows() == nbf && g.cols() == nbf, "G shape mismatch");
  MC_CHECK(opt_.nthreads >= 1, "need at least one thread");

  ddi_->dlb_reset();
  pairs_ = 0;
  quartets_ = 0;
  density_screened_ = 0;
  static_screened_ = 0;
  fi_flushes_ = 0;

  const int nt = opt_.nthreads;
  thread_quartets_.assign(static_cast<std::size_t>(nt), 0);
  // mxsize = ubound(Fock) * shellSize (+ padding against false sharing);
  // one column per thread (Algorithm 3 lines 1-3).
  const std::size_t col_stride =
      nbf * static_cast<std::size_t>(bs.max_shell_size()) +
      static_cast<std::size_t>(opt_.padding_doubles);
  TrackedBuffer fi("fock_fi_buffer", col_stride * static_cast<std::size_t>(nt));
  TrackedBuffer fj("fock_fj_buffer", col_stride * static_cast<std::size_t>(nt));

  // Shadow-ownership verifier (MC_CHECK builds; DESIGN.md section 11.3):
  // the shared Fock matrix, both team buffers, and the per-thread result
  // slots are registered as checked regions. In normal builds BuildChecker
  // is an empty type and every hook below compiles to nothing.
  acc::BuildChecker<> checker(ddi_->rank(), nt);
  const int reg_f = checker.region("F", g.size());
  const int reg_fi = checker.region("FI", fi.size());
  const int reg_fj = checker.region("FJ", fj.size());
  const int reg_tq = checker.region("thread_quartets", thread_quartets_.size());

  // The density is team-shared and read-only for the whole region; the
  // type has no mutating accessor, so a misrouted update cannot compile.
  const acc::SharedReadOnly<const la::Matrix&> den(density);

  // Per-pair decisions are taken once, by the master thread, and published
  // through these shared plan slots, so the whole team always agrees on
  // which worksharing constructs a pair executes. (Evaluating "did i
  // change?" per thread against a mutable iold is a divergence race: a
  // fast thread can update the state before a slow one reads it,
  // deadlocking the team.) The slots are double-buffered so the master can
  // claim the next pair ahead, while the team still runs the current kl
  // loop: the team reads slot s at the start of pair n while the master
  // fills slot s^1, and pair n's end-of-kl barrier publishes it. The team
  // last read slot s^1 at the start of pair n-1, before that pair's
  // barriers, so the rewrite never overlaps a read.
  struct IterPlan {
    long ij = 0;             // list position; >= nlist ends the build
    long flush_shell = -1;   // FI flush target shell before the kl loop, or -1
  };
  IterPlan plan[2];
  long iold = -1;  // i shell of the last claimed pair; owned by the master

  // Master only. Claims list positions until one survives the density-
  // weighted pair prescreen (Algorithm 3 line 13; the static Schwarz
  // prescreen is already baked into the list), so a skipped pair costs the
  // team no barrier. An exhausted list yields the terminal plan, which
  // carries the final FI flush (Algorithm 3 line 36).
  auto claim_next = [&](IterPlan& p) {
    for (;;) {
      p.ij = ddi_->dlbnext();  // MPI DLB: get new list position
      if (p.ij >= static_cast<long>(nlist)) break;
      ++pairs_;
      const ints::ScreenedPair& pr = bra_pairs[static_cast<std::size_t>(p.ij)];
      if (weighted &&
          !screen_->keep_pair(pr.i, pr.j, 4.0 * ctx.dmax_max, scale)) {
        continue;
      }
      // Lazy FI flush: only when the i index changed since the last
      // unscreened pair (Algorithm 3 lines 15-18).
      p.flush_shell = -1;
      if (static_cast<long>(pr.i) != iold || !opt_.lazy_fi_flush) {
        p.flush_shell = iold;
        if (iold >= 0) ++fi_flushes_;
      }
      iold = static_cast<long>(pr.i);
      return;
    }
    p.flush_shell = iold;
    if (iold >= 0) ++fi_flushes_;
  };

  omp_set_schedule(opt_.dynamic_schedule ? omp_sched_dynamic
                                         : omp_sched_static,
                   1);

  // The first claim happens on the rank thread, which becomes the team's
  // master; the region's fork publishes it like the rest of the pre-region
  // state.
  claim_next(plan[0]);

  // Team fork/join edges: libgomp hands threads off through futexes TSan
  // cannot see, so publish the pre-region state (density, buffers, plan)
  // to the workers and the workers' final writes back to the master.
  MC_TSAN_RELEASE(&plan);
#pragma omp parallel num_threads(nt) default(shared)
  {
    MC_TSAN_ACQUIRE(&plan);
    const int tid = omp_get_thread_num();
    // OpenMP workers do not inherit the rank thread's attribution; scope it
    // so trace events and tracked buffers land on this rank's lane.
    RankScope rank_scope(ddi_->rank());
    // Per-thread protocol views: the thread's own FI/FJ lanes (mutable
    // only through these handles), the whole-lane-array views for the
    // flush reduction, and the shared-Fock window for the direct F_kl
    // updates whose exclusivity the kl loop guarantees.
    acc::ThreadCtx<> th(checker, tid);
    const acc::TeamBuffer<double> fi_buf(fi.data(), nt, col_stride, &th,
                                         reg_fi);
    const acc::TeamBuffer<double> fj_buf(fj.data(), nt, col_stride, &th,
                                         reg_fj);
    const acc::ThreadPrivate<double> fi_lane = fi_buf.lane(tid);
    const acc::ThreadPrivate<double> fj_lane = fj_buf.lane(tid);
    const acc::OwnedSlice<double> f_acc(g.data(), g.size(), &th, reg_f, 0);
    // Thread-private quartet batch of the batched ERI pipeline, holding one
    // quartet at a time: each claimed kl is evaluated and scattered at
    // once, so the dynamic schedule hands out the ERI work itself rather
    // than cheap screening steps whose quartets would pile up in one
    // thread's batch behind the end-of-kl barrier. The direct F_kl writes
    // rely on this thread's exclusive ownership of the claimed kl, which
    // only holds inside the kl loop's epoch.
    ints::QuartetBatch qbatch(*eri_, 1);
    std::size_t my_quartets = 0;
    std::size_t my_density_screened = 0;
    std::size_t my_static_screened = 0;

    for (int slot = 0;; slot ^= 1) {
      const IterPlan my_plan = plan[slot];
      th.set_task(my_plan.ij);
      if (my_plan.flush_shell >= 0) {
        flush_buffer(fi_buf, fi_lane, nt,
                     bs.shell(static_cast<std::size_t>(my_plan.flush_shell)),
                     nbf, f_acc, th, fi.data());
      }
      if (my_plan.ij >= static_cast<long>(nlist)) break;

      // One span per claimed ij pair per thread: the per-thread lanes of
      // the chrome trace make the kl-loop load split visible directly.
      MC_OBS_TRACE("fock:shared:ij_task");
      const ints::ScreenedPair& my_pair =
          bra_pairs[static_cast<std::size_t>(my_plan.ij)];
      const std::size_t i = my_pair.i;
      const std::size_t j = my_pair.j;
      // Canonical pair index of (i,j); the kl loop stays triangular over
      // canonical pair indices regardless of the list's claim order.
      const long ij = static_cast<long>(my_pair.canonical);
      const basis::Shell& shi = bs.shell(i);
      const basis::Shell& shj = bs.shell(j);
      const std::size_t oi = shi.first_bf;
      const std::size_t oj = shj.first_bf;
      const int ni = shi.nfunc();
      const int nj = shj.nfunc();

#pragma omp for schedule(runtime) nowait
      for (long kl = 0; kl <= ij; ++kl) {
        th.set_task(kl);
        const auto [k, l] =
            screen_->pair_shells(static_cast<std::size_t>(kl));
        if (!screen_->keep(i, j, k, l)) {  // Schwartz screening
          ++my_static_screened;
          continue;
        }
        if (weighted && !screen_->keep(i, j, k, l,
                                       ctx.quartet_dmax(i, j, k, l), scale)) {
          ++my_density_screened;
          continue;
        }
        ++my_quartets;
        qbatch.add(i, j, k, l);
        qbatch.evaluate();
        const double* vals = qbatch.result(0);
        const basis::Shell& shk = bs.shell(k);
        const basis::Shell& shl = bs.shell(l);
        const std::size_t ok = shk.first_bf;
        const std::size_t ol = shl.first_bf;
        const int nk = shk.nfunc();
        const int nl = shl.nfunc();
        const double w = scf::quartet_degeneracy(i, j, k, l);

        // The six updates of eqs. (2a)-(2f), routed per Algorithm 3:
        //   FI (ThreadPrivate lane):   F_ij, F_ik, F_il
        //   FJ (ThreadPrivate lane):   F_jl, F_jk
        //   shared Fock (OwnedSlice):  F_kl -- distinct kl per thread, so
        //   the written row stripes are disjoint; MC_CHECK verifies it.
        std::size_t idx = 0;
        for (int a = 0; a < ni; ++a) {
          const std::size_t fa = oi + static_cast<std::size_t>(a);
          const std::size_t abase = static_cast<std::size_t>(a) * nbf;
          for (int b = 0; b < nj; ++b) {
            const std::size_t fb = oj + static_cast<std::size_t>(b);
            const std::size_t bbase = static_cast<std::size_t>(b) * nbf;
            for (int c = 0; c < nk; ++c) {
              const std::size_t fc = ok + static_cast<std::size_t>(c);
              const acc::OwnedSlice<double> gk = f_acc.slice(fc * nbf, nbf);
              for (int dd = 0; dd < nl; ++dd, ++idx) {
                const double v = vals[idx];
                if (v == 0.0) continue;
                const std::size_t fd = ol + static_cast<std::size_t>(dd);
                const double x = 0.5 * w * v;
                const double x4 = 0.25 * x;
                fi_lane.add(abase + fb, x * den(fc, fd));    // F_ij
                gk.add(fd, x * den(fa, fb));                 // F_kl (shared)
                fi_lane.add(abase + fc, -x4 * den(fb, fd));  // F_ik
                fj_lane.add(bbase + fd, -x4 * den(fa, fc));  // F_jl
                fi_lane.add(abase + fd, -x4 * den(fb, fc));  // F_il
                fj_lane.add(bbase + fc, -x4 * den(fa, fd));  // F_jk
              }
            }
          }
        }
        qbatch.clear();
      }
      // Claim ahead: the master fills the other plan slot while the rest
      // of the team may still be finishing its kl iterations.
#pragma omp master
      claim_next(plan[slot ^ 1]);
      // End of kl loop (nowait + explicit barrier): orders the direct
      // shared-Fock F_kl writes against the FJ flush that follows, and
      // publishes the next plan.
      MC_PROTOCOL_BARRIER(&plan, th);

      // Flush FJ after every kl loop (Algorithm 3 line 31).
      th.set_task(my_plan.ij);
      flush_buffer(fj_buf, fj_lane, nt, shj, nbf, f_acc, th, fj.data());
    }

#pragma omp atomic
    quartets_ += my_quartets;
#pragma omp atomic
    density_screened_ += my_density_screened;
#pragma omp atomic
    static_screened_ += my_static_screened;
    // Distinct slot per thread, claimed through the checked slice; the
    // master reads after the join (published by the region-edge TSAN
    // annotations like the atomics above).
    const acc::OwnedSlice<std::size_t> tq(thread_quartets_.data(),
                                          thread_quartets_.size(), &th,
                                          reg_tq, 0);
    tq.set(static_cast<std::size_t>(tid), my_quartets);
    MC_TSAN_RELEASE(&plan);
  }
  MC_TSAN_ACQUIRE(&plan);
  MC_TSAN_OMP_QUIESCE();  // fresh workers for the next region under TSan

  // Surface any recorded ownership violation before the cross-rank
  // reduction publishes a corrupted matrix.
  checker.finalize();

  // 2e-Fock matrix reduction over MPI ranks.
  ddi_->gsumf(g);
}

}  // namespace mc::core

namespace mc::check {
// This TU's kAccessChecked reflects the library's build mode, which is what
// tests need to know before asserting on builder-driven ledgers.
bool core_hooks_compiled() { return acc::kAccessChecked; }
}  // namespace mc::check
