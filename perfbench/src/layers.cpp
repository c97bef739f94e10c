// Per-layer figures of the traced run (--trace 1), timed from the
// benchmark's side of each layer's public functions, with obs metrics
// switched on so the par/core channel accumulators run.

#include <array>
#include <cstdio>
#include <map>
#include <memory>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/fock_dist.hpp"
#include "core/fock_mpi.hpp"
#include "core/fock_private.hpp"
#include "core/fock_shared.hpp"
#include "ints/boys.hpp"
#include "ints/eri.hpp"
#include "ints/eri_batch.hpp"
#include "ints/one_electron.hpp"
#include "ints/screening.hpp"
#include "knlsim/cost_model.hpp"
#include "la/blas_lite.hpp"
#include "la/orthogonalizer.hpp"
#include "la/sym_eig.hpp"
#include "obs/metrics.hpp"
#include "par/ddi.hpp"
#include "par/runtime.hpp"
#include "scf/diis.hpp"
#include "scf/scf_driver.hpp"
#include "scf/serial_fock.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kMaxL = 4;  // Lbra, Lket in [0, 4] for s, p, d shells

struct ClassTime {
  double ns = 0.0;
  double units = 0.0;  ///< primitive-quartet products, EriCostTable's unit
};

/// Times QuartetBatch::evaluate over the statically surviving quartets of
/// `c`, grouped by the ordered class (Lbra, Lket) that QuartetBatch
/// evaluates them in (bra = pair (i, j), ket = pair (k, l) of the canonical
/// quartet) and by whether a d shell takes part. With `only` non-empty,
/// just those classes, each capped at `cap` quartets taken at an even
/// stride. Median of 3 passes.
std::map<int, ClassTime> time_eri_classes(const ScfCase& c,
                                          const std::vector<int>& only,
                                          std::size_t cap) {
  const basis::BasisSet bs = basis::BasisSet::build(c.mol, c.basis);
  const ints::EriEngine eri(bs);
  const ints::Screening screen(eri, kSchwarz);
  using Quartet = std::array<std::uint32_t, 4>;
  std::map<int, std::vector<Quartet>> buckets;  // key: class * 2 + has_d
  const std::size_t ns = bs.nshells();
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      scf::for_each_kl(i, j, [&](std::size_t k, std::size_t l) {
        if (!screen.keep(i, j, k, l)) return;
        const int lb = bs.shell(i).l + bs.shell(j).l;
        const int lk = bs.shell(k).l + bs.shell(l).l;
        const int cls = lb * (kMaxL + 1) + lk;
        if (!only.empty() &&
            std::find(only.begin(), only.end(), cls) == only.end()) {
          return;
        }
        const bool has_d = bs.shell(i).l == 2 || bs.shell(j).l == 2 ||
                           bs.shell(k).l == 2 || bs.shell(l).l == 2;
        buckets[cls * 2 + (has_d ? 1 : 0)].push_back(
            {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j),
             static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(l)});
      });
    }
  }
  std::map<int, ClassTime> out;
  ints::QuartetBatch batch(eri);
  for (auto& [key, quartets] : buckets) {
    if (cap > 0 && quartets.size() > cap) {
      std::vector<Quartet> sample;
      for (std::size_t s = 0; s < cap; ++s) {
        sample.push_back(quartets[s * quartets.size() / cap]);
      }
      quartets.swap(sample);
    }
    double units = 0.0;
    for (const Quartet& q : quartets) {
      double u = 1.0;
      for (std::uint32_t s : q) u *= bs.shell(s).nprim();
      units += u;
    }
    std::vector<double> passes;
    for (int pass = 0; pass < 3; ++pass) {
      double ns_total = 0.0;
      for (std::size_t q0 = 0; q0 < quartets.size(); q0 += batch.capacity()) {
        batch.clear();
        const std::size_t q1 =
            std::min(quartets.size(), q0 + batch.capacity());
        for (std::size_t q = q0; q < q1; ++q) {
          batch.add(quartets[q][0], quartets[q][1], quartets[q][2],
                    quartets[q][3]);
        }
        const double t0 = now_s();
        batch.evaluate();
        ns_total += (now_s() - t0) * 1e9;
      }
      passes.push_back(ns_total);
    }
    out[key] = {median(passes), units};
  }
  return out;
}

void eri_layer(const ScfCase& c, Report& report) {
  const std::map<int, ClassTime> main = time_eri_classes(c, {}, 0);
  std::map<int, ClassTime> per_class;
  double all_ns = 0.0, d_ns = 0.0;
  for (const auto& [key, t] : main) {
    per_class[key / 2].ns += t.ns;
    per_class[key / 2].units += t.units;
    all_ns += t.ns;
    if (key % 2 == 1) d_ns += t.ns;
  }
  // Classes the workload's molecule lacks are timed on ethane/6-31G(d), at
  // most 4096 quartets each, so the table is always complete: with one d
  // shell (methane) no canonical quartet has bra pd and ket dd.
  std::vector<int> missing;
  for (int b = 0; b <= kMaxL; ++b) {
    for (int k = 0; k <= kMaxL; ++k) {
      if (per_class.count(b * (kMaxL + 1) + k) == 0) {
        missing.push_back(b * (kMaxL + 1) + k);
      }
    }
  }
  if (!missing.empty()) {
    const ScfCase ethane{"ethane/6-31G(d)", chem::builders::alkane(2),
                         "6-31G(d)", 0.0, 0.0};
    for (const auto& [key, t] : time_eri_classes(ethane, missing, 4096)) {
      per_class[key / 2].ns += t.ns;
      per_class[key / 2].units += t.units;
    }
  }
  const knlsim::EriCostTable table = knlsim::EriCostTable::host_default();
  // EriCostTable is asymmetric (bra-outer/ket-inner), so each ordered
  // class is set beside its own entry table[Lbra][Lket].
  Report::note("ERI class  ns/unit(measured)  ns/unit(EriCostTable)  ratio");
  for (int b = 0; b <= kMaxL; ++b) {
    for (int k = 0; k <= kMaxL; ++k) {
      const ClassTime& t = per_class[b * (kMaxL + 1) + k];
      const double v = t.units > 0 ? t.ns / t.units : 0.0;
      const double ref = table.s_per_unit[static_cast<std::size_t>(b)]
                                         [static_cast<std::size_t>(k)] * 1e9;
      char name[48], line[128];
      std::snprintf(name, sizeof name, "ints.eri.L%d%d.ns_per_unit", b, k);
      std::snprintf(line, sizeof line, "  L%d%d  %12.2f  %12.2f  %8.3f", b, k,
                    v, ref, ref > 0 ? v / ref : 0.0);
      Report::note(line);
      report.add(name, "ns", v);
    }
  }
  report.add("ints.eri.dclass_time_share", "ratio",
             all_ns > 0 ? d_ns / all_ns : 0.0);
}

void boys_layer(const basis::BasisSet& bs, Rng& rng, Report& report) {
  const int mmax = 4 * bs.max_l();
  const std::size_t n = 4096;
  std::vector<double> t(n), fm(n * static_cast<std::size_t>(mmax + 1));
  for (double& x : t) x = rng.uniform(0.0, 40.0);
  std::vector<double> per;
  for (int rep = 0; rep < 50; ++rep) {
    const double t0 = now_s();
    ints::boys_batch(mmax, n, t.data(), fm.data());
    per.push_back((now_s() - t0) * 1e9 / static_cast<double>(n));
  }
  report.add("ints.boys.ns_per_element", "ns", median(per));
}

struct CoreFigures {
  double fock_s = 0.0, serial_s = 0.0, imbalance = 1.0;
  double dlb_s = 0.0, gsum_s = 0.0, barrier_s = 0.0, get_s = 0.0, acc_s = 0.0;
  double tile_hits = 0.0, tile_misses = 0.0;
};

/// Full builds on one persistent world (spawned once, outside the timed
/// region), each followed by a serial build of the same density on rank 0.
CoreFigures replay_builds(const ints::EriEngine& eri,
                          const ints::Screening& screen, const la::Matrix& d,
                          int solver, int reps) {
  const bool by_rank = solver == 1 || solver == 4;
  const int nranks = by_rank ? 4 : 1;
  const int nthreads = by_rank ? 1 : 4;
  constexpr obs::Channel kCh[] = {obs::Channel::kDlbWait, obs::Channel::kGsum,
                                  obs::Channel::kBarrier, obs::Channel::kGet,
                                  obs::Channel::kAcc};
  constexpr int kNc = 5;
  std::vector<double> par_t, ser_t, quartets(static_cast<std::size_t>(nranks));
  std::vector<double> chan(static_cast<std::size_t>(nranks * kNc), 0.0);
  std::vector<double> hits(static_cast<std::size_t>(nranks)),
      misses(static_cast<std::size_t>(nranks)), thread_q;
  const std::size_t nbf = d.rows();
  par::run_spmd(nranks, [&](par::Comm& comm) {
    par::Ddi ddi(comm);
    std::unique_ptr<scf::FockBuilder> b;
    switch (solver) {
      case 1:
        b = std::make_unique<core::FockBuilderMpi>(eri, screen, ddi);
        break;
      case 2: {
        core::PrivateFockOptions o;
        o.nthreads = nthreads;
        b = std::make_unique<core::FockBuilderPrivate>(eri, screen, ddi, o);
        break;
      }
      case 3: {
        core::SharedFockOptions o;
        o.nthreads = nthreads;
        b = std::make_unique<core::FockBuilderShared>(eri, screen, ddi, o);
        break;
      }
      default: b = std::make_unique<core::FockBuilderDist>(eri, screen, ddi);
    }
    scf::SerialFockBuilder serial(eri, screen);
    la::Matrix g(nbf, nbf), gs(nbf, nbf);
    const int r = comm.rank();
    const std::size_t ru = static_cast<std::size_t>(r);
    for (int rep = 0; rep <= reps; ++rep) {  // rep 0 warms up
      comm.barrier();
      double before[kNc];
      for (int c = 0; c < kNc; ++c) before[c] = obs::channel_seconds(kCh[c], r);
      const double t0 = now_s();
      g.set_zero();
      b->build(d, g);
      const double t = now_s() - t0;
      if (rep > 0) {
        for (int c = 0; c < kNc; ++c) {
          chan[ru * kNc + static_cast<std::size_t>(c)] +=
              obs::channel_seconds(kCh[c], r) - before[c];
        }
        hits[ru] += static_cast<double>(b->last_tile_cache_hits());
        misses[ru] += static_cast<double>(b->last_tile_cache_misses());
      }
      comm.barrier();
      if (r == 0 && rep > 0) {
        par_t.push_back(t);
        const double t1 = now_s();
        gs.set_zero();
        serial.build(d, gs);
        ser_t.push_back(now_s() - t1);
      }
    }
    quartets[ru] = static_cast<double>(b->last_quartets_computed());
    if (r == 0) {
      for (std::size_t q : b->last_thread_quartets()) {
        thread_q.push_back(static_cast<double>(q));
      }
    }
  });
  CoreFigures f;
  f.fock_s = median(par_t);
  f.serial_s = median(ser_t);
  const std::vector<double>& split = by_rank ? quartets : thread_q;
  const double m = mean(split);
  f.imbalance = m > 0 ? *std::max_element(split.begin(), split.end()) / m : 1.0;
  double sums[kNc] = {};
  for (int r = 0; r < nranks; ++r) {
    for (int c = 0; c < kNc; ++c) {
      sums[c] += chan[static_cast<std::size_t>(r * kNc + c)];
    }
  }
  const double per = static_cast<double>(nranks * reps);
  f.dlb_s = sums[0] / per;
  f.gsum_s = sums[1] / per;
  f.barrier_s = sums[2] / per;
  f.get_s = sums[3] / per;
  f.acc_s = sums[4] / per;
  for (int r = 0; r < nranks; ++r) {
    f.tile_hits += hits[static_cast<std::size_t>(r)];
    f.tile_misses += misses[static_cast<std::size_t>(r)];
  }
  return f;
}

void core_layer(const ScfCase& c, const la::Matrix& d, Report& report) {
  const basis::BasisSet bs = basis::BasisSet::build(c.mol, c.basis);
  const ints::EriEngine eri(bs);
  const ints::Screening screen(eri, kSchwarz);
  for (int s = 1; s < kNumSolvers; ++s) {
    const CoreFigures f = replay_builds(eri, screen, d, s, 5);
    const std::string p = std::string("core.") + solver_name(s) + ".";
    report.add(p + "fock_s", "s", f.fock_s);
    report.add(p + "speedup", "x", f.serial_s / f.fock_s);
    report.add(p + "imbalance", "ratio", f.imbalance);
    report.add(p + "dlb_wait_s", "s", f.dlb_s);
    report.add(p + "gsum_s", "s", f.gsum_s);
    report.add(p + "barrier_s", "s", f.barrier_s);
    if (s == 4) {
      const double reads = f.tile_hits + f.tile_misses;
      report.add("core.dist.tile_hit_ratio", "ratio",
                 reads > 0 ? f.tile_hits / reads : 0.0);
      report.add("core.dist.get_s", "s", f.get_s);
      report.add("core.dist.acc_s", "s", f.acc_s);
    }
  }
}

void par_layer(std::size_t nbf, Report& report) {
  std::vector<double> spawn;
  for (int rep = 0; rep < 30; ++rep) {
    const double t0 = now_s();
    par::run_spmd(4, [](par::Comm&) {});
    spawn.push_back(now_s() - t0);
  }
  std::vector<double> allreduce, barrier;
  par::run_spmd(4, [&](par::Comm& comm) {
    std::vector<double> buf(nbf * nbf, 1.0);
    for (int rep = 0; rep < 40; ++rep) {
      comm.barrier();
      const double t0 = now_s();
      comm.allreduce_sum(buf.data(), buf.size());
      const double t1 = now_s();
      comm.barrier();
      const double t2 = now_s();
      if (comm.rank() == 0) {
        allreduce.push_back(t1 - t0);
        barrier.push_back(t2 - t1);
      }
    }
  });
  report.add("par.spawn_s", "s", median(spawn));
  report.add("par.allreduce_s", "s", median(allreduce));
  report.add("par.barrier_s", "s", median(barrier));
}

void serve_layer(const ServeRun& run, Report& report) {
  std::vector<double> submit, wait, run_hit, run_miss, it_hit, it_miss;
  double setup_hits = 0, density_hits = 0;
  for (const ServedJob& j : run.jobs) {
    submit.push_back(j.submit_call_s);
    wait.push_back(j.out.queue_wait_seconds);
    setup_hits += j.out.setup_cache_hit ? 1 : 0;
    density_hits += j.out.density_cache_hit ? 1 : 0;
    (j.out.density_cache_hit ? run_hit : run_miss).push_back(j.out.run_seconds);
    (j.out.density_cache_hit ? it_hit : it_miss).push_back(j.out.iterations);
  }
  const double n = static_cast<double>(run.jobs.size());
  report.add("serve.submit_s", "s", median(submit));
  report.add("serve.queue_wait_p50_s", "s", median(wait));
  report.add("serve.run_p50_s.hit", "s", median(run_hit));
  report.add("serve.run_p50_s.miss", "s", median(run_miss));
  report.add("serve.setup_hit_ratio", "ratio", setup_hits / n);
  report.add("serve.density_hit_ratio", "ratio", density_hits / n);
  report.add("serve.iterations.hit", "count", mean(it_hit));
  report.add("serve.iterations.miss", "count", mean(it_miss));
}

template <typename Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

}  // namespace

void measure_layers(const ScfCase& c, const ServeRun& served, Rng& rng,
                    Report& report) {
  obs::set_metrics_enabled(true);
  obs::reset_metrics();

  // basis / ints set-up, each call timed on its own.
  std::unique_ptr<basis::BasisSet> bs;
  std::unique_ptr<ints::EriEngine> eri;
  std::unique_ptr<ints::Screening> screen;
  std::vector<double> tb, te, ts;
  for (int rep = 0; rep < 15; ++rep) {
    screen.reset();  // each object refers to the previous one
    eri.reset();
    bs.reset();
    const double t0 = now_s();
    bs = std::make_unique<basis::BasisSet>(
        basis::BasisSet::build(c.mol, c.basis));
    const double t1 = now_s();
    eri = std::make_unique<ints::EriEngine>(*bs);
    const double t2 = now_s();
    screen = std::make_unique<ints::Screening>(*eri, kSchwarz);
    ts.push_back(now_s() - t2);
    te.push_back(t2 - t1);
    tb.push_back(t1 - t0);
  }
  la::Matrix s, h;
  const double onee = median_time(15, [&] {
    s = ints::overlap_matrix(*bs);
    h = ints::core_hamiltonian(*bs, c.mol);
  });
  report.add("basis.build_s", "s", median(tb));
  report.add("ints.eri_engine_s", "s", median(te));
  report.add("ints.screening_s", "s", median(ts));
  report.add("ints.one_electron_s", "s", onee);
  report.add("ints.surviving_quartets", "count",
             static_cast<double>(screen->count_surviving_quartets()));
  eri_layer(c, report);
  boys_layer(*bs, rng, report);

  // scf: the serial job, alternately untraced (obs metrics off) and
  // traced; the last traced job feeds the layer table.
  std::vector<double> untraced, traced;
  SerialDetail detail;
  int iterations = 0;
  for (int rep = 0; rep < 2; ++rep) {
    obs::set_metrics_enabled(false);
    const Solve u = solve_serial(c, nullptr, false);
    obs::set_metrics_enabled(true);
    const Solve t = solve_serial(c, nullptr, false, &detail);
    untraced.push_back(u.wall_s);
    traced.push_back(t.wall_s);
    iterations = t.iterations;
    report.attempted += 2;
    report.failed += (u.converged ? 0 : 1) + (t.converged ? 0 : 1);
  }
  const int nocc = c.mol.nelectrons(0) / 2;
  la::Matrix x;
  const double orth_guess = median_time(5, [&] {
    x = la::canonical_orthogonalizer(s, scf::ScfOptions{}.lindep_tolerance);
    (void)scf::core_guess_density(h, x, nocc);
  });
  const double eigh = median_time(5, [&] {
    const la::SymEigResult e = la::eigh_generalized(detail.fock, x);
    (void)scf::density_from_coefficients(e.vectors, nocc);
  });
  // DIIS as run_scf drives it: commutator error in the orthonormal basis,
  // push, extrapolate, over a history that grows to its cap.
  const double diis_total = median_time(3, [&] {
    scf::Diis diis(scf::ScfOptions{}.diis_max_vectors);
    for (int it = 0; it < iterations; ++it) {
      const la::Matrix fds = la::gemm(detail.fock, la::gemm(detail.density, s));
      la::Matrix err_ao = fds;
      err_ao -= fds.transposed();
      diis.push(detail.fock, la::gemm_tn(x, la::gemm(err_ao, x)));
      (void)diis.extrapolate();
    }
  });
  const FockRecord& rec = detail.record;
  const double wall = detail.setup_s + detail.scf_s;
  const double fock = rec.full_s + rec.incr_s;
  const double eigh_rows = eigh * iterations;
  const double unattributed = wall - (detail.setup_s + onee + orth_guess +
                                      fock + eigh_rows + diis_total);
  report.add("scf.fock_full_s", "s", rec.full_s);
  report.add("scf.fock_incr_s", "s", rec.incr_s);
  report.add("scf.fock_total_s", "s", fock);
  report.add("scf.full_rebuilds", "count", rec.full_builds);
  report.add("scf.unattributed_s", "s", unattributed);
  report.add("scf.density_screened", "count", rec.density_screened);
  report.add("la.eigh_s", "s", eigh);
  report.add("la.diis_s", "s", diis_total / iterations);
  report.add("trace.overhead_s", "s", median(traced) - median(untraced));

  Report::note("layer table: " + c.label + " serial job (traced), " +
               std::to_string(iterations) + " iterations");
  const std::pair<const char*, double> rows[] = {
      {"setup (basis+eri+screening)", detail.setup_s},
      {"one-electron S, H (replay)", onee},
      {"orthogonalizer + guess (replay)", orth_guess},
      {"fock full builds", rec.full_s},
      {"fock incremental builds", rec.incr_s},
      {"eigh x iterations (replay)", eigh_rows},
      {"diis x iterations (replay)", diis_total},
      {"scf.unattributed_s", unattributed},
  };
  for (const auto& [name, t] : rows) {
    char line[128];
    std::snprintf(line, sizeof line, "  %-34s %10.6f s  %6.2f%%", name, t,
                  100.0 * t / wall);
    Report::note(line);
  }
  char line[128];
  std::snprintf(line, sizeof line,
                "  %-34s %10.6f s  (tracing overhead %+.6f s)", "job wall",
                wall, median(traced) - median(untraced));
  Report::note(line);

  Report::note("  build  kind   quartets  density-screened  seconds");
  for (std::size_t b = 0; b < rec.builds.size(); ++b) {
    const FockRecord::Build& fb = rec.builds[b];
    std::snprintf(line, sizeof line, "  %5zu  %-5s %10.0f  %16.0f  %8.5f",
                  b + 1, fb.incremental ? "incr" : "full", fb.quartets,
                  fb.density_screened, fb.seconds);
    Report::note(line);
  }

  core_layer(c, detail.density, report);
  par_layer(bs->nbf(), report);
  serve_layer(served, report);
  obs::set_metrics_enabled(false);
}

}  // namespace perfbench
