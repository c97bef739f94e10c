// The three workloads. Every workload reports every end-to-end metric,
// each measured on that workload's own inputs (README, "Metrics").

#include <algorithm>
#include <cstdio>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "ints/eri.hpp"
#include "ints/screening.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace B = mc::chem::builders;

constexpr int kWorkers = 4;

ScfCase posed(const std::string& label, const chem::Molecule& mol,
              const std::string& basis, Rng& rng) {
  return {label, seeded_pose(mol, rng), basis, 0.0, 0.0};
}

/// The serving mix: small molecules in STO-3G and 6-31G(d), 1-150 ms each;
/// the smoke mode keeps the first two.
ServeMix serve_mix(Rng& rng, bool smoke) {
  ServeMix m;
  m.hot = {posed("h2/STO-3G", B::h2(1.4), "STO-3G", rng),
           posed("water/STO-3G", water_crawford(), "STO-3G", rng)};
  // Szabo & Ostlund table 3.5; Crawford's programming-project reference.
  m.hot[0].reference_energy = -1.1167;
  m.hot[0].reference_tol = 2e-4;
  m.hot[1].reference_energy = -74.942079928;
  m.hot[1].reference_tol = 1e-6;
  if (smoke) {
    m.templates = {m.hot[1]};
    m.hits_per_round = 3;
    m.misses_per_round = 1;
    m.setup_repeats = 1;
    return m;
  }
  m.hot.push_back(posed("methane/STO-3G", B::methane(), "STO-3G", rng));
  m.hot.push_back(posed("ethane/STO-3G", B::alkane(2), "STO-3G", rng));
  m.hot.push_back(posed("water/6-31G(d)", water_crawford(), "6-31G(d)", rng));
  m.hot.push_back(posed("methane/6-31G(d)", B::methane(), "6-31G(d)", rng));
  m.templates = {m.hot[1], m.hot[2], m.hot[4], m.hot[5]};
  return m;
}

/// The serve-layer probe of an SCF workload: its own job as the hot set,
/// jittered copies of it as misses.
ServeMix serve_probe(const ScfCase& main) {
  ServeMix m;
  m.hot = {main};
  m.templates = {main};
  m.hits_per_round = 2;
  m.misses_per_round = 1;
  m.setup_repeats = 1;
  return m;
}

ScfCase main_case(const Options& opt, Rng& rng) {
  if (opt.smoke) {
    return opt.workload == "scf-dclass"
               ? posed("water/6-31G(d)", water_crawford(), "6-31G(d)", rng)
               : posed("water/STO-3G", water_crawford(), "STO-3G", rng);
  }
  if (opt.workload == "scf-dclass") {
    return posed("methane/6-31G(d)", B::methane(), "6-31G(d)", rng);
  }
  return posed("ethane/STO-3G", B::alkane(2), "STO-3G", rng);
}

/// job_s.* from `job_s` (one value per solver), peak_mib.* as the mean.
void add_job_metrics(Report& r, const double (&job_s)[kNumSolvers],
                     const std::vector<double> (&peak)[kNumSolvers]) {
  for (int s = 0; s < kNumSolvers; ++s) {
    r.add(std::string("job_s.") + solver_name(s), "s", job_s[s]);
  }
  for (int s = 0; s < kNumSolvers; ++s) {
    r.add(std::string("peak_mib.") + solver_name(s), "MiB", mean(peak[s]));
  }
}

void add_latency_metrics(Report& r, const std::vector<double>& lat,
                         double busy_s) {
  r.add("jobs_per_s", "1/s", static_cast<double>(lat.size()) / busy_s);
  r.add("latency_p50_s", "s", percentile(lat, 50));
  r.add("latency_p90_s", "s", percentile(lat, 90));
  char line[96];
  std::snprintf(line, sizeof line, "latency percentiles over %zu jobs",
                lat.size());
  Report::note(line);
}

/// One BasisSet::build + EriEngine + Screening, timed.
double setup_once(const ScfCase& c) {
  const double t0 = now_s();
  const basis::BasisSet bs = basis::BasisSet::build(c.mol, c.basis);
  const ints::EriEngine eri(bs);
  const ints::Screening screen(eri, kSchwarz);
  return now_s() - t0;
}

/// scf-dclass and scf-sp-4w: one round = the job solved five ways, in an
/// order that rotates from round to round.
void run_scf_workload(const Options& opt, Rng& rng, Report& report) {
  const ScfCase c = main_case(opt, rng);
  const int rotation = static_cast<int>(rng.next() % kNumSolvers);

  // Checked warm-up round (not timed): every output check, including the
  // unscreened reference G, and the five energies against each other.
  Solve first[kNumSolvers];
  for (int s = 0; s < kNumSolvers; ++s) {
    first[s] = s == 0 ? solve_serial(c, &report, true)
                      : solve_parallel(c, s, kWorkers, &report);
    ++report.attempted;
    if (!first[s].converged) ++report.failed;
    const Verdict v = check_close(c.label + " " + solver_name(s) +
                                      " vs serial energy",
                                  first[s].energy, first[0].energy,
                                  kEnergyAgreement);
    report.check(v.ok, v.detail);
  }

  if (opt.trace) {
    Rng probe_rng(rng.next());
    const ServeRun served =
        run_serving(serve_probe(c), probe_rng, 0.0, 0, 1, report);
    report.attempted += static_cast<long>(served.jobs.size());
    measure_layers(c, served, rng, report);
    return;
  }

  std::vector<double> job[kNumSolvers], peak[kNumSolvers], setup, iterations,
      quartets;
  const double t0 = now_s();
  for (int round = 0; round < 2 || now_s() - t0 < opt.seconds; ++round) {
    for (int rep = 0; rep < 20; ++rep) setup.push_back(setup_once(c));
    for (int k = 0; k < kNumSolvers; ++k) {
      const int s = (k + round + rotation) % kNumSolvers;
      const Solve v = s == 0 ? solve_serial(c, nullptr, false)
                             : solve_parallel(c, s, kWorkers, nullptr);
      ++report.attempted;
      if (!v.converged) ++report.failed;
      job[s].push_back(v.wall_s);
      peak[s].push_back(v.peak_mib);
      iterations.push_back(v.iterations);
      if (s == 0) quartets.push_back(v.quartets);
    }
  }
  // Each solver's fastest solve of the run; the serving metrics describe
  // one client running the five solves back to back at those times.
  double job_s[kNumSolvers];
  std::vector<double> lat;
  for (int s = 0; s < kNumSolvers; ++s) {
    job_s[s] = fastest(job[s]);
    lat.push_back(job_s[s]);
    std::string line = std::string("job_s.") + solver_name(s) + " samples:";
    for (double t : job[s]) line += " " + std::to_string(t);
    Report::note(line);
  }
  double busy = 0.0;
  for (double t : lat) busy += t;
  report.add("setup_s", "s", fastest(setup));
  add_job_metrics(report, job_s, peak);
  report.add("iterations", "count", mean(iterations));
  report.add("quartets", "count", median(quartets));
  add_latency_metrics(report, lat, busy);
}

void run_serve_workload(const Options& opt, Rng& rng, Report& report) {
  const ServeMix mix = serve_mix(rng, opt.smoke);
  const ScfCase& largest = mix.hot.back();
  const ServeRun run =
      run_serving(mix, rng, opt.trace ? 0.0 : opt.seconds,
                  opt.smoke ? 8 : 100, opt.trace ? 3 : 0, report);
  report.attempted += static_cast<long>(run.jobs.size());
  for (const ServedJob& j : run.jobs) {
    if (j.out.outcome != obs::JobOutcomeKind::kConverged) ++report.failed;
  }
  char line[160];
  std::snprintf(line, sizeof line,
                "serve-mix: %zu jobs in %.2f s, setup-cache hits %ld, "
                "density-cache hits %ld",
                run.jobs.size(), run.loop_s, run.setup_hits, run.density_hits);
  Report::note(line);
  if (opt.trace) {
    measure_layers(largest, run, rng, report);
    return;
  }

  // Times are taken per round (each round serves the same 4 x 36 jobs) and
  // reported as their median over the rounds: a slow spell of the host
  // that covers fewer than half of the rounds moves none of them. Within a
  // round the mix of molecule sizes is fixed, so a round's mean run time
  // and its latency percentiles compare like with like.
  std::vector<double> job[kNumSolvers], peak[kNumSolvers], rate, p50, p90,
      iterations, quartets;
  const std::size_t nrounds = run.round_s.size();
  for (std::size_t r = 0; r < nrounds; ++r) {
    std::vector<double> lat, run_s[kNumSolvers];
    for (std::size_t k = r * run.round_jobs; k < (r + 1) * run.round_jobs;
         ++k) {
      const ServedJob& j = run.jobs[k];
      run_s[j.solver].push_back(j.out.run_seconds);
      lat.push_back(j.latency_s);
      iterations.push_back(j.out.iterations);
    }
    double cold = 0.0;
    for (const std::vector<Solve>& refs : run.hot_refs) cold += refs[r].wall_s;
    job[0].push_back(cold / static_cast<double>(run.hot_refs.size()));
    for (int s = 1; s < kNumSolvers; ++s) job[s].push_back(mean(run_s[s]));
    rate.push_back(static_cast<double>(run.round_jobs) / run.round_s[r]);
    p50.push_back(percentile(lat, 50));
    p90.push_back(percentile(lat, 90));
  }
  for (const std::vector<Solve>& refs : run.hot_refs) {
    for (const Solve& s : refs) peak[0].push_back(s.peak_mib);
    quartets.push_back(refs.front().quartets);
  }
  // Footprint of each served algorithm at the serving layout (1 rank x 1
  // thread), from a cold solve of the largest hot spec: tracked sizes
  // repeat exactly, so one solve per algorithm is enough.
  for (int s = 1; s < kNumSolvers; ++s) {
    const Solve v = solve_parallel(largest, s, 1, &report);
    ++report.attempted;
    if (!v.converged) ++report.failed;
    peak[s].push_back(v.peak_mib);
  }
  double job_s[kNumSolvers];
  for (int s = 0; s < kNumSolvers; ++s) job_s[s] = median(job[s]);
  report.add("setup_s", "s", fastest(run.setup_s));
  add_job_metrics(report, job_s, peak);
  report.add("iterations", "count", mean(iterations));
  report.add("quartets", "count", mean(quartets));
  report.add("jobs_per_s", "1/s", median(rate));
  report.add("latency_p50_s", "s", median(p50));
  report.add("latency_p90_s", "s", median(p90));
  std::snprintf(line, sizeof line,
                "latency percentiles per round over %zu jobs, median of %zu "
                "rounds (%zu jobs)",
                run.round_jobs, nrounds, run.jobs.size());
  Report::note(line);
}

}  // namespace

void run_workload(const Options& opt, Report& report) {
  Rng rng(opt.seed);
  if (opt.workload == "serve-mix") {
    run_serve_workload(opt, rng, report);
  } else {
    run_scf_workload(opt, rng, report);
  }
}

}  // namespace perfbench
