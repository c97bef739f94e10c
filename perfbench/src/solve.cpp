#include <memory>

#include "basis/basis_set.hpp"
#include "core/parallel_scf.hpp"
#include "ints/eri.hpp"
#include "ints/screening.hpp"
#include "scf/scf_driver.hpp"
#include "scf/serial_fock.hpp"
#include "workloads.hpp"

namespace perfbench {

const char* solver_name(int s) {
  static const char* names[kNumSolvers] = {"serial", "mpi", "private",
                                           "shared", "dist"};
  return names[s];
}

core::ScfAlgorithm solver_algorithm(int s) {
  switch (s) {
    case 1: return core::ScfAlgorithm::kMpiOnly;
    case 2: return core::ScfAlgorithm::kPrivateFock;
    case 3: return core::ScfAlgorithm::kSharedFock;
    default: return core::ScfAlgorithm::kDistFock;
  }
}

double commutator_bound(const la::Matrix& fock) {
  return scf::ScfOptions{}.density_tolerance * fock.max_abs();
}

void FockRecorder::build(const la::Matrix& density, la::Matrix& g,
                         const scf::FockContext& ctx) {
  const double t0 = now_s();
  inner_->build(density, g, ctx);
  const double dt = now_s() - t0;
  FockRecord& r = record;
  const double screened = static_cast<double>(inner_->last_density_screened());
  const double quartets = static_cast<double>(inner_->last_quartets_computed());
  r.quartets += quartets;
  r.density_screened += screened;
  r.builds.push_back({ctx.incremental, dt, quartets, screened});
  if (ctx.incremental) {
    r.incr_s += dt;
    ++r.incr_builds;
    r.built_density += density;
    r.budget.density_max_sum += density.max_abs();
    r.budget.density_screened += screened;
  } else {
    r.full_s += dt;
    ++r.full_builds;
    r.built_density = density;
    r.budget.threshold = inner_->screening_threshold();
    r.budget.density_max_sum = density.max_abs();
    r.budget.density_screened = 0.0;
  }
}

namespace {

void check_converged_job(const ScfCase& c, const basis::BasisSet& bs,
                         const scf::ScfResult& r, const std::string& who,
                         Report& report) {
  const std::string tag = c.label + " " + who + ": ";
  report.check(r.converged, tag + "converged");
  const Verdict n =
      check_electron_count(bs, r.density, c.mol.nelectrons(0));
  report.check(n.ok, tag + n.detail);
  const Verdict cm =
      check_commutator(bs, r.fock, r.density, commutator_bound(r.fock));
  report.check(cm.ok, tag + cm.detail);
  if (c.reference_energy != 0.0) {
    const Verdict e = check_close(tag + "literature energy", r.energy,
                                  c.reference_energy, c.reference_tol);
    report.check(e.ok, e.detail);
  }
}

}  // namespace

Solve solve_serial(const ScfCase& c, Report* report, bool full_checks,
                   SerialDetail* detail) {
  Solve s;
  const HeapCount counting;
  const std::size_t base = heap_live_bytes();
  heap_reset_peak();
  const double t0 = now_s();
  const basis::BasisSet bs = basis::BasisSet::build(c.mol, c.basis);
  const ints::EriEngine eri(bs);
  const ints::Screening screen(eri, kSchwarz);
  const double t1 = now_s();
  scf::SerialFockBuilder serial(eri, screen);
  FockRecorder rec(serial);
  const scf::ScfOptions scf_opt;
  rec.record.budget.incremental_scale = scf_opt.incremental_threshold_scale;
  scf::ScfResult r = scf::run_scf(c.mol, bs, rec, scf_opt);
  const double t2 = now_s();
  s.wall_s = t2 - t0;
  s.peak_mib = static_cast<double>(heap_peak_bytes() - base) / 1048576.0;
  s.converged = r.converged;
  s.iterations = r.iterations;
  s.energy = r.energy;
  s.quartets = rec.record.quartets;
  if (report != nullptr) {
    check_converged_job(c, bs, r, "serial", *report);
    const Verdict e = check_energy(c.mol, bs, r.fock, rec.record.built_density,
                                   r.energy, 1e-9);
    report->check(e.ok, c.label + " serial: " + e.detail);
    if (full_checks) {
      const Verdict g = check_fock_reference(
          c.mol, bs, eri, r.fock, rec.record.built_density, rec.record.budget);
      report->check(g.ok, c.label + " serial: " + g.detail);
      Report::note(c.label + " serial: " + g.detail);
    }
  }
  if (detail != nullptr) {
    detail->record = std::move(rec.record);
    detail->setup_s = t1 - t0;
    detail->scf_s = t2 - t1;
    detail->density = std::move(r.density);
    detail->fock = std::move(r.fock);
  }
  return s;
}

Solve solve_parallel(const ScfCase& c, int solver, int workers,
                     Report* report) {
  core::ParallelScfConfig cfg;
  cfg.algorithm = solver_algorithm(solver);
  const bool rank_parallel = cfg.algorithm == core::ScfAlgorithm::kMpiOnly ||
                             cfg.algorithm == core::ScfAlgorithm::kDistFock;
  cfg.nranks = rank_parallel ? workers : 1;
  cfg.nthreads = rank_parallel ? 1 : workers;
  cfg.basis = c.basis;
  cfg.schwarz_threshold = kSchwarz;
  const double t0 = now_s();
  const core::ParallelScfResult r = core::run_parallel_scf(c.mol, cfg);
  Solve s;
  s.wall_s = now_s() - t0;
  s.converged = r.scf.converged;
  s.iterations = r.scf.iterations;
  s.energy = r.scf.energy;
  for (const scf::ScfIterationInfo& it : r.scf.history) {
    s.quartets += static_cast<double>(it.quartets_computed);
  }
  double peak = 0.0;
  for (std::size_t b : r.peak_bytes_per_rank) peak += static_cast<double>(b);
  s.peak_mib = peak / 1048576.0;
  if (report != nullptr) {
    const basis::BasisSet bs = basis::BasisSet::build(c.mol, c.basis);
    check_converged_job(c, bs, r.scf, solver_name(solver), *report);
  }
  return s;
}

}  // namespace perfbench
