#include "core/parallel_scf.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>

#include "basis/basis_set.hpp"
#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "common/timer.hpp"
#include "core/fock_mpi.hpp"
#include "obs/metrics.hpp"
#include "par/ddi.hpp"
#include "par/runtime.hpp"

namespace mc::core {

double ParallelScfResult::load_imbalance() const {
  if (quartets_per_rank.empty()) return 1.0;
  const auto total = std::accumulate(quartets_per_rank.begin(),
                                     quartets_per_rank.end(), std::size_t{0});
  if (total == 0) return 1.0;
  const double mean = static_cast<double>(total) /
                      static_cast<double>(quartets_per_rank.size());
  const auto mx = *std::max_element(quartets_per_rank.begin(),
                                    quartets_per_rank.end());
  return static_cast<double>(mx) / mean;
}

namespace {

std::unique_ptr<scf::FockBuilder> make_builder(
    const ParallelScfConfig& cfg, const ints::EriEngine& eri,
    const ints::Screening& screen, par::Ddi& ddi) {
  switch (cfg.algorithm) {
    case ScfAlgorithm::kMpiOnly:
      return std::make_unique<FockBuilderMpi>(eri, screen, ddi);
    case ScfAlgorithm::kPrivateFock: {
      PrivateFockOptions opt = cfg.private_options;
      opt.nthreads = cfg.nthreads;
      return std::make_unique<FockBuilderPrivate>(eri, screen, ddi, opt);
    }
    case ScfAlgorithm::kSharedFock: {
      SharedFockOptions opt = cfg.shared_options;
      opt.nthreads = cfg.nthreads;
      return std::make_unique<FockBuilderShared>(eri, screen, ddi, opt);
    }
    case ScfAlgorithm::kDistFock:
      // Single-threaded per rank (like MPI-only); cfg.nthreads is ignored.
      return std::make_unique<FockBuilderDist>(eri, screen, ddi,
                                               cfg.dist_options);
  }
  MC_CHECK(false, "unknown algorithm");
  return nullptr;
}

}  // namespace

ParallelScfResult run_parallel_scf(const chem::Molecule& mol,
                                   const ParallelScfConfig& config) {
  return run_parallel_scf(mol, config, ParallelScfContext{});
}

ParallelScfResult run_parallel_scf(const chem::Molecule& mol,
                                   const ParallelScfConfig& config,
                                   const ParallelScfContext& ctx) {
  MC_CHECK(config.nranks >= 1, "need at least one rank");
  MC_CHECK(config.nthreads >= 1, "need at least one thread per rank");
  MC_CHECK(config.basis_per_atom.empty() ||
               config.basis_per_atom.size() == mol.natoms(),
           "basis_per_atom must name a basis for every atom");
  MC_CHECK(ctx.has_setup() ||
               (ctx.basis_set == nullptr && ctx.eri == nullptr &&
                ctx.screening == nullptr),
           "ParallelScfContext setup must be all-or-nothing (basis_set, "
           "eri, and screening together)");
  const int nelec = mol.nelectrons(config.scf.charge);
  MC_CHECK(nelec > 0 && nelec % 2 == 0,
           "closed-shell RHF requires an even, positive electron count");

  const auto nranks = static_cast<std::size_t>(config.nranks);
  ParallelScfResult result;
  result.quartets_per_rank.assign(nranks, 0);
  result.peak_bytes_per_rank.assign(nranks, 0);
  result.dlb_wait_seconds_per_rank.assign(nranks, 0.0);
  result.gsum_seconds_per_rank.assign(nranks, 0.0);
  std::mutex result_mu;

  // --profile: the session lives on the host thread; ranks deposit their
  // per-iteration metrics into distinct slots of this shared vector and
  // rank 0 assembles + writes the aggregated record. The deposit/read
  // cycle is ordered by two profiling-only barriers (gated so runs without
  // profiling -- e.g. the fault-injection tests, which count collective
  // ops -- see an unchanged op sequence).
  std::unique_ptr<obs::ProfileSession> profile;
  if (!config.scf.profile_path.empty()) {
    profile = std::make_unique<obs::ProfileSession>(config.scf.profile_path);
  }
  std::vector<obs::RankIterationMetrics> iter_metrics(nranks);

  if (ctx.exclusive) MemoryTracker::instance().reset();
  WallTimer wall;

  par::run_spmd(config.nranks, [&](par::Comm& comm) {
    par::Ddi ddi(comm);
    const int rank = comm.rank();

    // Every rank owns replicated copies of the geometry-derived data --
    // exactly the replication pattern of the real GAMESS code. In warm
    // (server) mode the setup instead arrives prebuilt and immutable from
    // the caller's cache and is *shared* by all ranks: BasisSet, EriEngine,
    // and Screening are read-only during builds, so sharing trades the
    // replication fidelity for zero per-job setup cost.
    std::unique_ptr<basis::BasisSet> own_bs;
    std::unique_ptr<ints::EriEngine> own_eri;
    std::unique_ptr<ints::Screening> own_screen;
    if (!ctx.has_setup()) {
      own_bs = std::make_unique<basis::BasisSet>(
          config.basis_per_atom.empty()
              ? basis::BasisSet::build(mol, config.basis)
              : basis::BasisSet::build_mixed(mol, config.basis_per_atom));
      own_eri = std::make_unique<ints::EriEngine>(*own_bs);
      own_screen =
          std::make_unique<ints::Screening>(*own_eri, config.schwarz_threshold);
    }
    const basis::BasisSet& bs = ctx.has_setup() ? *ctx.basis_set : *own_bs;
    const ints::EriEngine& eri = ctx.has_setup() ? *ctx.eri : *own_eri;
    const ints::Screening& screen =
        ctx.has_setup() ? *ctx.screening : *own_screen;
    auto builder = make_builder(config, eri, screen, ddi);

    // The SCF loop itself is scf::run_scf, replicated on every rank; these
    // hooks are the only collectives it adds to the builder's own. Each
    // iteration runs build, one counter sum, one RMS max -- and, when
    // profiling, the two hand-off barriers -- in that order on every rank.
    scf::ScfCallbacks hooks;
    hooks.sum_counts = [&](scf::QuartetCounts c) {
      // Integer-valued doubles well under 2^53, so the sum is exact.
      la::Matrix v{{static_cast<double>(c.computed),
                    static_cast<double>(c.static_screened),
                    static_cast<double>(c.density_screened)}};
      ddi.gsumf(v);
      return scf::QuartetCounts{static_cast<std::size_t>(v(0, 0)),
                                static_cast<std::size_t>(v(0, 1)),
                                static_cast<std::size_t>(v(0, 2))};
    };
    hooks.max_density_rms = [&](double rms) { return comm.allreduce_max(rms); };
    if (profile) {
      // The screening-predicted total is identical on every rank; only
      // rank 0 reports it, so only rank 0 pays the O(pairs^2) sweep.
      const std::size_t predicted =
          rank == 0 ? builder->screening_predicted_quartets() : 0;
      hooks.write_profile = [&, predicted](obs::IterationRecord& rec) {
        iter_metrics[static_cast<std::size_t>(rank)] =
            std::move(rec.ranks.front());
        comm.barrier();  // all deposits visible to rank 0
        if (rank == 0) {
          rec.nranks = config.nranks;
          rec.nthreads = config.nthreads;
          rec.screening_predicted_quartets = predicted;
          rec.ranks = iter_metrics;
          profile->write_iteration(rec);
        }
        comm.barrier();  // rank 0 read before the next iteration's rewrite
      };
    }
    scf::ScfResult res = scf::run_scf(mol, bs, *builder, config.scf, hooks,
                                      ctx.seed_density.get());

    {
      std::lock_guard<std::mutex> lk(result_mu);
      const auto r = static_cast<std::size_t>(rank);
      result.quartets_per_rank[r] = builder->last_quartets_computed();
      result.peak_bytes_per_rank[r] =
          MemoryTracker::instance().rank_peak_bytes(rank);
      result.dlb_wait_seconds_per_rank[r] =
          obs::channel_seconds(obs::Channel::kDlbWait, rank);
      result.gsum_seconds_per_rank[r] =
          obs::channel_seconds(obs::Channel::kGsum, rank);
      if (rank == 0) result.scf = std::move(res);
    }
    comm.barrier();
  });

  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace mc::core
