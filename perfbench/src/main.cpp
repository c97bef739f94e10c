// Whole-job SCF benchmark.
//
//   scf_bench --workload <scf-dclass|scf-sp-4w|serve-mix> --seed <n>
//             --seconds <s> --trace <0|1>
//   scf_bench --smoke
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). See README.md for the workloads and metrics.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "basis/basis_set.hpp"
#include "ints/eri.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: scf_bench --workload scf-dclass|scf-sp-4w|serve-mix "
               "--seed N --seconds S --trace 0|1\n"
               "       scf_bench --smoke\n");
  return 2;
}

/// One corrupted output per check; each must be rejected.
int negative_cases() {
  int bad = 0;
  const auto expect_reject = [&](const Verdict& v, const char* what) {
    std::printf("  negative %-44s %s\n", what,
                v.ok ? "NOT REJECTED" : "rejected");
    if (v.ok) ++bad;
  };
  const ScfCase water{"water/STO-3G", water_crawford(), "STO-3G",
                      -74.942079928, 1e-6};
  SerialDetail det;
  const Solve s = solve_serial(water, nullptr, false, &det);
  const basis::BasisSet bs = basis::BasisSet::build(water.mol, water.basis);
  const ints::EriEngine eri(bs);
  const FockRecord& rec = det.record;

  expect_reject(check_energy(water.mol, bs, det.fock, rec.built_density,
                             s.energy + 1e-6, 1e-9),
                "energy perturbed by 1e-6 Eh");
  la::Matrix scaled = det.density;
  scaled *= 1.01;
  expect_reject(check_electron_count(bs, scaled, 10),
                "non-idempotent density (D x 1.01), Tr(DS)");
  la::Matrix skewed = det.density;
  skewed(0, 1) += 1e-6;
  skewed(1, 0) += 1e-6;
  expect_reject(check_commutator(bs, det.fock, skewed,
                                 commutator_bound(det.fock)),
                "density element off by 1e-6, commutator");
  la::Matrix f_bad = det.fock;
  f_bad(2, 3) += 1e-5;
  f_bad(3, 2) += 1e-5;
  expect_reject(check_fock_reference(water.mol, bs, eri, f_bad,
                                     rec.built_density, rec.budget),
                "Fock element off by 1e-5, reference G");
  expect_reject(check_close("five-way energies", s.energy + 2e-8, s.energy,
                            kEnergyAgreement),
                "algorithm energy off by 2e-8");
  expect_reject(check_close("literature", s.energy + 2e-6,
                            water.reference_energy, water.reference_tol),
                "literature energy off by 2e-6");

  ServedJob j;
  j.spec = water;
  j.reference = s;
  j.out.outcome = obs::JobOutcomeKind::kConverged;
  j.out.energy = s.energy + 1e-7;
  j.out.iterations = s.iterations;
  bool served_ok = true;
  for (const Verdict& v : served_job_checks(j)) served_ok = served_ok && v.ok;
  expect_reject({served_ok, ""}, "served energy off by 1e-7");
  j.out.energy = s.energy;
  j.out.density_cache_hit = true;
  j.out.iterations = s.iterations + 1;
  served_ok = true;
  for (const Verdict& v : served_job_checks(j)) served_ok = served_ok && v.ok;
  expect_reject({served_ok, ""}, "warm start slower than cold");
  // The uncorrupted outputs pass the same checks.
  const Verdict good = check_fock_reference(water.mol, bs, eri, det.fock,
                                            rec.built_density, rec.budget);
  std::printf("  positive reference G: %s\n", good.detail.c_str());
  if (!good.ok) ++bad;
  return bad;
}

/// Tiny inputs through every code path and check, then the corrupted
/// outputs; returns the exit code.
int smoke() {
  int bad = 0;
  for (const char* w : {"scf-dclass", "scf-sp-4w", "serve-mix"}) {
    for (int trace = 0; trace <= 1; ++trace) {
      Options opt;
      opt.workload = w;
      opt.seconds = 0.5;
      opt.trace = trace == 1;
      opt.smoke = true;
      Report report;
      run_workload(opt, report);
      const bool ok = report.correct() && report.failed == 0;
      std::printf("smoke %-10s trace=%d: %s, %ld attempted, %zu metrics\n", w,
                  trace, ok ? "ok" : "FAILED", report.attempted,
                  report.metrics().size());
      if (!ok) ++bad;
    }
  }
  bad += negative_cases();
  std::printf("smoke: %s\n", bad == 0 ? "all checks behave" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") return smoke();
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else {
      return usage();
    }
  }
  if (!have_workload || (opt.workload != "scf-dclass" &&
                         opt.workload != "scf-sp-4w" &&
                         opt.workload != "serve-mix") ||
      !(opt.seconds > 0)) {
    return usage();
  }
  Report report;
  try {
    run_workload(opt, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  for (const Metric& m : report.metrics()) {
    report.check(std::isfinite(m.value), m.name + " is finite");
  }
  std::printf("%s\n", report.json().c_str());
  return 0;
}
