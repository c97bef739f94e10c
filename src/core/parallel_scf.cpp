#include "core/parallel_scf.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>

#include "basis/basis_set.hpp"
#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "common/timer.hpp"
#include "core/fock_mpi.hpp"
#include "ints/one_electron.hpp"
#include "la/blas_lite.hpp"
#include "la/orthogonalizer.hpp"
#include "la/sym_eig.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/ddi.hpp"
#include "par/runtime.hpp"
#include "scf/diis.hpp"

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
  // The rank-lockstep loop below implements DIIS and incremental builds
  // only; refuse the serial driver's other convergence aids rather than
  // silently running without them.
  MC_CHECK(config.scf.damping == 0.0,
           "run_parallel_scf does not implement ScfOptions::damping; use "
           "scf::run_scf or set damping to 0");
  MC_CHECK(config.scf.level_shift == 0.0,
           "run_parallel_scf does not implement ScfOptions::level_shift; use "
           "scf::run_scf or set level_shift to 0");
  MC_CHECK(ctx.has_setup() ||
               (ctx.basis_set == nullptr && ctx.eri == nullptr &&
                ctx.screening == nullptr),
           "ParallelScfContext setup must be all-or-nothing (basis_set, "
           "eri, and screening together)");

  const int nelec = mol.nelectrons(config.scf.charge);
  MC_CHECK(nelec > 0 && nelec % 2 == 0,
           "closed-shell RHF requires an even, positive electron count");
  const int nocc = nelec / 2;

  ParallelScfResult result;
  result.quartets_per_rank.assign(static_cast<std::size_t>(config.nranks), 0);
  result.peak_bytes_per_rank.assign(static_cast<std::size_t>(config.nranks),
                                    0);
  result.dlb_wait_seconds_per_rank.assign(
      static_cast<std::size_t>(config.nranks), 0.0);
  result.gsum_seconds_per_rank.assign(static_cast<std::size_t>(config.nranks),
                                      0.0);
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
  const bool profiling = profile != nullptr;
  std::vector<obs::RankIterationMetrics> iter_metrics(
      static_cast<std::size_t>(config.nranks));

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
    const std::size_t nbf = bs.nbf();
    auto builder = make_builder(config, eri, screen, ddi);

    const la::Matrix s(ints::overlap_matrix(bs), "overlap");
    const la::Matrix h(ints::core_hamiltonian(bs, mol), "hcore");
    la::Matrix x = la::canonical_orthogonalizer(s, config.scf.lindep_tolerance);

    la::Matrix d(nbf, nbf, "density");
    if (ctx.seed_density != nullptr) {
      MC_CHECK(ctx.seed_density->rows() == nbf &&
                   ctx.seed_density->cols() == nbf,
               "warm-start seed density has the wrong shape");
      d.copy_values_from(*ctx.seed_density);
    } else {
      d.copy_values_from(scf::core_guess_density(h, x, nocc));
    }
    la::Matrix g(nbf, nbf, "fock");
    // Incremental-build state (mirrors scf::run_scf; DESIGN.md section 9).
    // All of it is replicated and updated identically on every rank, so the
    // per-iteration full-vs-delta decision is deterministic across the
    // SPMD team -- a divergent decision would deadlock the collectives.
    la::Matrix g_acc(nbf, nbf, "fock_acc");
    la::Matrix d_last(nbf, nbf, "density_last");
    la::Matrix d_delta(nbf, nbf, "density_delta");
    int builds_since_full = 0;
    double err_acc = 0.0;
    scf::Diis diis(config.scf.diis_max_vectors);

    scf::ScfResult res;
    res.nuclear_repulsion = mol.nuclear_repulsion();

    // Profiling-time state: the screening-predicted quartet total (pure
    // local computation, identical on every rank; only rank 0 reports it)
    // and the previous channel-accumulator snapshots for per-iteration
    // deltas.
    std::size_t predicted_quartets = 0;
    if (profiling && rank == 0) {
      predicted_quartets = builder->screening_predicted_quartets();
    }
    double prev_dlb = 0.0;
    double prev_gsum = 0.0;
    double prev_barrier = 0.0;

    double e_prev = 0.0;
    for (int iter = 1; iter <= config.scf.max_iterations; ++iter) {
      MC_OBS_TRACE("scf:iteration");
      const bool full_rebuild =
          !config.scf.incremental_fock || iter == 1 ||
          builds_since_full >= config.scf.fock_rebuild_interval ||
          err_acc > config.scf.incremental_error_bound;

      WallTimer fock_timer;
      g.set_zero();
      if (full_rebuild) {
        builder->build(d, g);  // collective: includes ddi_gsumf
        g.symmetrize();
        g_acc.copy_values_from(g);
        builds_since_full = 0;
        err_acc = 0.0;
      } else {
        d_delta.copy_values_from(d);
        d_delta -= d_last;
        scf::FockContext fock_ctx =
            scf::FockContext::from_density(bs, d_delta, /*incremental=*/true);
        fock_ctx.threshold_scale = config.scf.incremental_threshold_scale;
        builder->build(d_delta, g, fock_ctx);
        g.symmetrize();
        g_acc += g;
        ++builds_since_full;
      }
      d_last.copy_values_from(d);

      // Global per-iteration counters. The screened count feeds err_acc,
      // so it must be the rank-summed value (exact: integer-valued doubles
      // well under 2^53) for all ranks to take the same rebuild decision.
      la::Matrix counts(1, 2);
      counts(0, 0) =
          static_cast<double>(builder->last_quartets_computed());
      counts(0, 1) = static_cast<double>(builder->last_density_screened());
      ddi.gsumf(counts);
      if (!full_rebuild) {
        err_acc += builder->screening_threshold() *
                   config.scf.incremental_threshold_scale * counts(0, 1) /
                   static_cast<double>(nbf);
      }
      const double t_fock = fock_timer.seconds();
      res.fock_build_seconds += t_fock;

      la::Matrix f = h;
      f += g_acc;

      const double e_elec = 0.5 * (la::dot(d, h) + la::dot(d, f));
      const double e_total = e_elec + res.nuclear_repulsion;

      la::Matrix fds = la::gemm(f, la::gemm(d, s));
      la::Matrix err_ao = fds;
      err_ao -= fds.transposed();
      la::Matrix err = la::gemm_tn(x, la::gemm(err_ao, x));

      la::Matrix f_eff = f;
      if (config.scf.use_diis) {
        diis.push(f, err);
        f_eff = diis.extrapolate();
      }

      // Diagonalization is replicated on every rank (as in GAMESS, where
      // it is a known scalability limit -- paper section 2).
      la::SymEigResult eig = la::eigh_generalized(f_eff, x);
      la::Matrix d_new = scf::density_from_coefficients(eig.vectors, nocc);

      double rms = 0.0;
      for (std::size_t q = 0; q < d.size(); ++q) {
        const double dv = d_new.data()[q] - d.data()[q];
        rms += dv * dv;
      }
      rms = std::sqrt(rms / static_cast<double>(d.size()));
      // Keep ranks in lockstep on the convergence decision even if
      // floating-point drift were to appear.
      rms = comm.allreduce_max(rms);

      scf::ScfIterationInfo info;
      info.iteration = iter;
      info.energy = e_total;
      info.delta_energy = e_total - e_prev;
      info.density_rms = rms;
      info.fock_build_seconds = t_fock;
      info.full_rebuild = full_rebuild;
      info.quartets_computed = static_cast<std::size_t>(counts(0, 0));
      info.density_screened = static_cast<std::size_t>(counts(0, 1));
      res.history.push_back(info);

      if (profiling) {
        // This rank's share of the iteration. Channel accumulators are
        // global; report deltas. The two profiling barriers below also add
        // to the barrier channel -- that time lands in the *next*
        // iteration's delta, a deliberate (and tiny) attribution skew.
        obs::RankIterationMetrics rm;
        rm.rank = rank;
        rm.pairs_claimed = builder->last_pairs_claimed();
        rm.quartets = builder->last_quartets_computed();
        rm.static_screened = builder->last_static_screened();
        rm.density_screened = builder->last_density_screened();
        rm.thread_quartets = builder->last_thread_quartets();
        rm.tile_hits = builder->last_tile_cache_hits();
        rm.tile_misses = builder->last_tile_cache_misses();
        const double dlb = obs::channel_seconds(obs::Channel::kDlbWait, rank);
        const double gsum = obs::channel_seconds(obs::Channel::kGsum, rank);
        const double bar = obs::channel_seconds(obs::Channel::kBarrier, rank);
        rm.dlb_wait_seconds = dlb - prev_dlb;
        rm.gsum_seconds = gsum - prev_gsum;
        rm.barrier_seconds = bar - prev_barrier;
        prev_dlb = dlb;
        prev_gsum = gsum;
        prev_barrier = bar;
        rm.peak_bytes = MemoryTracker::instance().rank_peak_bytes(rank);
        iter_metrics[static_cast<std::size_t>(rank)] = std::move(rm);
        comm.barrier();  // all deposits visible to rank 0
        if (rank == 0) {
          obs::IterationRecord rec;
          rec.algorithm = builder->name();
          rec.nranks = config.nranks;
          rec.nthreads = config.nthreads;
          rec.iteration = iter;
          rec.energy = e_total;
          rec.delta_energy = info.delta_energy;
          rec.density_rms = rms;
          rec.full_rebuild = full_rebuild;
          rec.fock_seconds = t_fock;
          rec.quartets = info.quartets_computed;
          rec.density_screened = info.density_screened;
          rec.screening_predicted_quartets = predicted_quartets;
          rec.ranks = iter_metrics;
          for (const auto& r : iter_metrics) {
            rec.static_screened += r.static_screened;
          }
          profile->write_iteration(rec);
        }
        comm.barrier();  // rank 0 read before the next iteration's rewrite
      }

      d.copy_values_from(d_new);
      res.iterations = iter;
      res.energy = e_total;
      res.electronic_energy = e_elec;
      res.orbital_energies = eig.values;
      res.mo_coefficients = eig.vectors;
      res.fock = std::move(f);

      if (iter > 1 && rms < config.scf.density_tolerance &&
          std::abs(e_total - e_prev) < config.scf.energy_tolerance) {
        res.converged = true;
        break;
      }
      e_prev = e_total;
    }
    res.density = d;  // keep the tracked copy alive until after snapshot

    {
      std::lock_guard<std::mutex> lk(result_mu);
      result.quartets_per_rank[static_cast<std::size_t>(rank)] =
          builder->last_quartets_computed();
      result.peak_bytes_per_rank[static_cast<std::size_t>(rank)] =
          MemoryTracker::instance().rank_peak_bytes(rank);
      result.dlb_wait_seconds_per_rank[static_cast<std::size_t>(rank)] =
          obs::channel_seconds(obs::Channel::kDlbWait, rank);
      result.gsum_seconds_per_rank[static_cast<std::size_t>(rank)] =
          obs::channel_seconds(obs::Channel::kGsum, rank);
      if (rank == 0) result.scf = std::move(res);
    }
    comm.barrier();
  });

  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace mc::core
