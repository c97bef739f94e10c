#include "scf/scf_driver.hpp"

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "common/timer.hpp"
#include "ints/one_electron.hpp"
#include "la/blas_lite.hpp"
#include "la/orthogonalizer.hpp"
#include "la/sym_eig.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scf/diis.hpp"

namespace mc::scf {

la::Matrix density_from_coefficients(const la::Matrix& c, int nocc) {
  MC_CHECK(nocc >= 0 && static_cast<std::size_t>(nocc) <= c.cols(),
           "occupation count out of range");
  const std::size_t n = c.rows();
  la::Matrix cocc(n, static_cast<std::size_t>(nocc));
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < nocc; ++k) {
      cocc(i, static_cast<std::size_t>(k)) = c(i, static_cast<std::size_t>(k));
    }
  }
  la::Matrix d = la::gemm_nt(cocc, cocc);
  d *= 2.0;
  return d;
}

la::Matrix core_guess_density(const la::Matrix& hcore, const la::Matrix& x,
                              int nocc) {
  la::SymEigResult eig = la::eigh_generalized(hcore, x);
  return density_from_coefficients(eig.vectors, nocc);
}

ScfResult run_scf(const chem::Molecule& mol, const basis::BasisSet& bs,
                  FockBuilder& builder, const ScfOptions& options,
                  const ScfCallbacks& callbacks,
                  const la::Matrix* seed_density) {
  const int nelec = mol.nelectrons(options.charge);
  MC_CHECK(nelec > 0, "no electrons");
  MC_CHECK(nelec % 2 == 0,
           "closed-shell RHF requires an even electron count");
  const int nocc = nelec / 2;
  const std::size_t nbf = bs.nbf();
  MC_CHECK(static_cast<std::size_t>(nocc) <= nbf,
           "more electron pairs than basis functions");

  ScfResult res;
  res.nuclear_repulsion = mol.nuclear_repulsion();

  // The long-lived matrices are charged to MemoryTracker under the calling
  // rank, so a distributed run reports each rank's replicated footprint.
  const la::Matrix s(ints::overlap_matrix(bs), "overlap");
  const la::Matrix h(ints::core_hamiltonian(bs, mol), "hcore");
  const la::Matrix x = la::canonical_orthogonalizer(s, options.lindep_tolerance);

  la::Matrix d(nbf, nbf, "density");
  if (seed_density != nullptr) {
    MC_CHECK(seed_density->rows() == nbf && seed_density->cols() == nbf,
             "warm-start seed density has the wrong shape");
    d.copy_values_from(*seed_density);
  } else {
    d.copy_values_from(core_guess_density(h, x, nocc));
  }
  la::Matrix g(nbf, nbf, "fock");
  // Incremental-build state: the accumulated *symmetrized* skeleton
  // G_acc = sym(G(D_ref)) + sum sym(G(D_n - D_{n-1})) (symmetrization is
  // linear, so accumulating symmetrized deltas equals symmetrizing the
  // total), the density it corresponds to, and the reset-policy trackers.
  // In a distributed run all of it is replicated and updated identically
  // on every rank (the counters are rank-summed), so the full-vs-delta
  // decision agrees across the team -- a divergent one would deadlock the
  // builder's collectives.
  la::Matrix g_acc(nbf, nbf, "fock_acc");
  la::Matrix d_last(nbf, nbf, "density_last");
  la::Matrix d_delta(nbf, nbf, "density_delta");
  int builds_since_full = 0;
  double err_acc = 0.0;
  Diis diis(options.diis_max_vectors);

  // --profile: one JSON record per iteration plus a chrome-trace timeline
  // (DESIGN.md section 10). Without a write_profile hook the driver opens
  // its own session and reports one rank slot: the calling rank's when
  // called from inside an SPMD body, so only one rank of a team may
  // profile that way.
  std::unique_ptr<obs::ProfileSession> profile;
  if (!options.profile_path.empty() && !callbacks.write_profile) {
    profile = std::make_unique<obs::ProfileSession>(options.profile_path);
  }
  const bool profiling = profile != nullptr || callbacks.write_profile;
  const int cur_rank = MemoryTracker::current_rank();
  const int prof_rank = cur_rank < 0 ? 0 : cur_rank;
  std::size_t predicted_quartets = 0;
  if (profile) {
    // Profiling-time only: O(surviving pairs^2) sweep over the pair list.
    predicted_quartets = builder.screening_predicted_quartets();
  }
  // Channel accumulators are global; per-iteration values are deltas.
  double prev_dlb = 0.0;
  double prev_gsum = 0.0;
  double prev_barrier = 0.0;

  double e_prev = 0.0;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    MC_OBS_TRACE("scf:iteration");
    const bool full_rebuild = !options.incremental_fock || iter == 1 ||
                              builds_since_full >=
                                  options.fock_rebuild_interval ||
                              err_acc > options.incremental_error_bound;

    // Two-electron (skeleton) Fock accumulation -- the timed hot region.
    WallTimer fock_timer;
    g.set_zero();
    if (full_rebuild) {
      // Full density, trivial context: static Schwarz screening only, so
      // the rebuild resets the accumulated screening error.
      builder.build(d, g);
      g.symmetrize();
      g_acc.copy_values_from(g);
      builds_since_full = 0;
      err_acc = 0.0;
    } else {
      d_delta.copy_values_from(d);
      d_delta -= d_last;
      FockContext ctx =
          FockContext::from_density(bs, d_delta, /*incremental=*/true);
      ctx.threshold_scale = options.incremental_threshold_scale;
      builder.build(d_delta, g, ctx);
      g.symmetrize();
      g_acc += g;
      ++builds_since_full;
    }
    d_last.copy_values_from(d);
    QuartetCounts counts{builder.last_quartets_computed(),
                         builder.last_static_screened(),
                         builder.last_density_screened()};
    if (callbacks.sum_counts) counts = callbacks.sum_counts(counts);
    if (!full_rebuild) {
      // Per-element screening-error estimate for the reset policy: every
      // density-screened quartet contributes below threshold * scale;
      // dividing by nbf approximates the scatter fan-out per element.
      err_acc += builder.screening_threshold() *
                 options.incremental_threshold_scale *
                 static_cast<double>(counts.density_screened) /
                 static_cast<double>(nbf);
    }
    const double t_fock = fock_timer.seconds();
    res.fock_build_seconds += t_fock;

    la::Matrix f = h;
    f += g_acc;

    // Electronic energy: E = 1/2 sum_ab D_ab (H_ab + F_ab).
    const double e_elec = 0.5 * (la::dot(d, h) + la::dot(d, f));
    const double e_total = e_elec + res.nuclear_repulsion;

    // DIIS error: FDS - SDF, transformed to the orthonormal basis.
    la::Matrix fds = la::gemm(f, la::gemm(d, s));
    la::Matrix sdf = fds.transposed();
    la::Matrix err_ao = fds;
    err_ao -= sdf;
    la::Matrix err = la::gemm_tn(x, la::gemm(err_ao, x));

    la::Matrix f_eff = f;
    if (options.use_diis) {
      diis.push(f, err);
      f_eff = diis.extrapolate();
    }

    if (options.level_shift > 0.0) {
      // Raise the virtual space of the density F was built from:
      // F' = F + shift * (S - SDS/2). With D = 2 C_occ C_occ^T, the shift
      // term is S C_virt C_virt^T S, so it leaves D's occupied orbitals
      // alone and pushes its virtual ones up by `shift`, which damps
      // occupied-virtual swaps while D is far from self-consistency. At
      // convergence D's occupied space is an invariant subspace of F, so
      // F' has the same occupied orbitals and the converged density and
      // energy are unchanged.
      la::Matrix shift = la::gemm(s, la::gemm(d, s));
      shift *= -0.5;
      shift += s;
      shift *= options.level_shift;
      f_eff += shift;
    }
    // Diagonalization is replicated on every rank of a distributed run (as
    // in GAMESS, where it is a known scalability limit -- paper section 2).
    const la::SymEigResult eig = la::eigh_generalized(f_eff, x);
    la::Matrix d_new = density_from_coefficients(eig.vectors, nocc);
    if (options.damping > 0.0 && iter > 1) {
      MC_CHECK(options.damping < 1.0, "damping factor must be in [0,1)");
      la::Matrix mixed = d_new;
      mixed *= (1.0 - options.damping);
      la::Matrix old = d;
      old *= options.damping;
      mixed += old;
      d_new = std::move(mixed);
    }

    // RMS density change.
    double rms = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      const double dv = d_new.data()[i] - d.data()[i];
      rms += dv * dv;
    }
    rms = std::sqrt(rms / static_cast<double>(d.size()));
    if (callbacks.max_density_rms) rms = callbacks.max_density_rms(rms);

    ScfIterationInfo info;
    info.iteration = iter;
    info.energy = e_total;
    info.delta_energy = e_total - e_prev;
    info.density_rms = rms;
    info.fock_build_seconds = t_fock;
    info.full_rebuild = full_rebuild;
    info.quartets_computed = counts.computed;
    info.density_screened = counts.density_screened;
    res.history.push_back(info);
    if (callbacks.on_iteration) callbacks.on_iteration(info);

    if (profiling) {
      obs::IterationRecord rec;
      rec.algorithm = builder.name();
      obs::RankIterationMetrics rm;
      rm.rank = prof_rank;
      rm.pairs_claimed = builder.last_pairs_claimed();
      rm.quartets = builder.last_quartets_computed();
      rm.static_screened = builder.last_static_screened();
      rm.density_screened = builder.last_density_screened();
      rm.thread_quartets = builder.last_thread_quartets();
      rm.tile_hits = builder.last_tile_cache_hits();
      rm.tile_misses = builder.last_tile_cache_misses();
      const double dlb =
          obs::channel_seconds(obs::Channel::kDlbWait, prof_rank);
      const double gsum = obs::channel_seconds(obs::Channel::kGsum, prof_rank);
      const double barrier =
          obs::channel_seconds(obs::Channel::kBarrier, prof_rank);
      rm.dlb_wait_seconds = dlb - prev_dlb;
      rm.gsum_seconds = gsum - prev_gsum;
      rm.barrier_seconds = barrier - prev_barrier;
      prev_dlb = dlb;
      prev_gsum = gsum;
      prev_barrier = barrier;
      rm.peak_bytes = cur_rank >= 0
                          ? MemoryTracker::instance().rank_peak_bytes(cur_rank)
                          : MemoryTracker::instance().peak_bytes();
      rec.nthreads = rm.thread_quartets.empty()
                         ? 1
                         : static_cast<int>(rm.thread_quartets.size());
      rec.iteration = iter;
      rec.energy = e_total;
      rec.delta_energy = info.delta_energy;
      rec.density_rms = rms;
      rec.full_rebuild = full_rebuild;
      rec.fock_seconds = t_fock;
      rec.quartets = counts.computed;
      rec.static_screened = counts.static_screened;
      rec.density_screened = counts.density_screened;
      rec.screening_predicted_quartets = predicted_quartets;
      rec.ranks.push_back(std::move(rm));
      if (profile) {
        profile->write_iteration(rec);
      } else {
        callbacks.write_profile(rec);
      }
    }

    d.copy_values_from(d_new);
    res.iterations = iter;
    res.energy = e_total;
    res.electronic_energy = e_elec;
    res.orbital_energies = eig.values;
    res.mo_coefficients = eig.vectors;
    res.fock = std::move(f);

    if (iter > 1 && rms < options.density_tolerance &&
        std::abs(e_total - e_prev) < options.energy_tolerance) {
      res.converged = true;
      break;
    }
    e_prev = e_total;
  }

  res.density = std::move(d);
  return res;
}

}  // namespace mc::scf
