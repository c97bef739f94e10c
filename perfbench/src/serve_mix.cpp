// Closed-loop serving through serve::ScfJobServer: a pre-warmed hot set
// of repeated specs (cache hits) and a seeded stream of unique jittered
// geometries (misses that insert into and evict from the LRU caches).

#include <omp.h>

#include <atomic>
#include <thread>

#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// Two closed-loop clients on two single-rank worlds. Ten cache entries
// keep the six hot specs of the serving mix resident while misses evict
// each other; misses move every coordinate by up to 0.05 Bohr. These are
// assumptions of the benchmark, not measured traffic (README, serve-mix).
constexpr int kClients = 2;
constexpr int kWorlds = 2;
constexpr std::size_t kCacheCapacity = 10;
constexpr double kJitterBohr = 0.05;

serve::JobSpec make_spec(const ScfCase& c, int solver, int client) {
  serve::JobSpec spec;
  spec.tenant = "client-" + std::to_string(client);
  spec.molecule_label = c.label;
  spec.mol = c.mol;
  spec.basis = c.basis;
  spec.algorithm = solver_algorithm(solver);
  spec.nranks = 1;
  spec.nthreads = 1;
  spec.schwarz_threshold = kSchwarz;
  return spec;
}

serve::ServerOptions server_options() {
  serve::ServerOptions o;
  o.nworlds = kWorlds;
  o.setup_cache_capacity = kCacheCapacity;
  o.density_cache_capacity = kCacheCapacity;
  return o;
}

/// Submits `jobs` from kClients closed-loop client threads: each client
/// submits its next job only after the previous one finished.
void drive(serve::ScfJobServer& server, std::vector<ServedJob>& jobs) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t k; (k = next.fetch_add(1)) < jobs.size();) {
        ServedJob& j = jobs[k];
        const double t0 = now_s();
        const serve::SubmitResult sub =
            server.submit(make_spec(j.spec, j.solver, c));
        const double t1 = now_s();
        j.out = server.wait(sub.job_id);
        j.submit_call_s = t1 - t0;
        j.latency_s = now_s() - t0;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

std::vector<Verdict> served_job_checks(const ServedJob& j) {
  const std::string tag = j.spec.label + " job " + std::to_string(j.out.job_id);
  std::vector<Verdict> v;
  v.push_back({j.out.outcome == obs::JobOutcomeKind::kConverged &&
                   j.reference.converged,
               tag + ": served job and its cold reference converged"});
  v.push_back(check_close(tag + ": served vs cold run_scf energy",
                          j.out.energy, j.reference.energy, kEnergyAgreement));
  if (j.out.density_cache_hit) {
    v.push_back({j.out.iterations <= j.reference.iterations,
                 tag + ": warm start took " + std::to_string(j.out.iterations) +
                     " iterations, cold " +
                     std::to_string(j.reference.iterations)});
  }
  if (j.spec.reference_energy != 0.0) {
    v.push_back(check_close(tag + ": served literature energy", j.out.energy,
                            j.spec.reference_energy, j.spec.reference_tol));
  }
  return v;
}

ServeRun run_serving(const ServeMix& mix, Rng& rng, double seconds,
                     int min_jobs, int rounds, Report& report) {
  ServeRun run;
  // Warm-up pass: every hot spec once, so the measured loop starts with
  // warm caches. Timed together with the server start, several times.
  std::vector<ServedJob> warm;
  for (std::size_t h = 0; h < mix.hot.size(); ++h) {
    ServedJob j;
    j.hot_index = static_cast<int>(h);
    j.spec = mix.hot[h];
    j.solver = 1 + static_cast<int>(h % 4);
    warm.push_back(j);
  }
  std::unique_ptr<serve::ScfJobServer> server;
  for (int rep = 0; rep < mix.setup_repeats; ++rep) {
    server.reset();
    std::vector<ServedJob> w = warm;
    const double t0 = now_s();
    server = std::make_unique<serve::ScfJobServer>(server_options());
    drive(*server, w);
    run.setup_s.push_back(now_s() - t0);
  }

  // A round serves the same pattern of hits and misses once per served
  // algorithm, the algorithms in an order that rotates from round to
  // round, so every algorithm sees the same mix.
  const int pattern = mix.hits_per_round + mix.misses_per_round;
  const int stride = pattern / std::max(1, mix.misses_per_round);
  const int rotation = static_cast<int>(rng.next() % 4);
  int miss_cursor = 0;
  run.hot_refs.resize(mix.hot.size());
  const double t0 = now_s();
  for (int round = 0;; ++round) {
    if (rounds > 0 ? round >= rounds
                   : (now_s() - t0 >= seconds &&
                      static_cast<int>(run.jobs.size()) >= min_jobs)) {
      break;
    }
    std::vector<ServedJob> batch;
    for (int a = 0; a < 4; ++a) {
      int hot_cursor = 0;
      int misses = 0;
      for (int k = 0; k < pattern; ++k) {
        ServedJob j;
        j.solver = 1 + (a + round + rotation) % 4;
        if (mix.misses_per_round > 0 && k % stride == stride - 1 &&
            misses < mix.misses_per_round) {
          const ScfCase& t = mix.templates[static_cast<std::size_t>(
              miss_cursor++ % static_cast<int>(mix.templates.size()))];
          j.spec = t;
          j.spec.label = t.label + "~" + std::to_string(miss_cursor);
          j.spec.mol = jittered(t.mol, rng, kJitterBohr);
          j.spec.reference_energy = 0.0;
          ++misses;
        } else {
          j.hot_index = hot_cursor++ % static_cast<int>(mix.hot.size());
          j.spec = mix.hot[static_cast<std::size_t>(j.hot_index)];
        }
        batch.push_back(std::move(j));
      }
    }
    const double r0 = now_s();
    drive(*server, batch);
    run.round_s.push_back(now_s() - r0);
    run.loop_s += run.round_s.back();
    run.round_jobs = batch.size();
    for (ServedJob& j : batch) run.jobs.push_back(std::move(j));
    // Cold serial references of the hot set, one each per round so that
    // they sample the whole run; the first round's are checked.
    for (std::size_t h = 0; h < mix.hot.size(); ++h) {
      run.hot_refs[h].push_back(
          solve_serial(mix.hot[h], round == 0 ? &report : nullptr, false));
    }
  }
  run.setup_hits = server->setup_cache_hits();
  run.density_hits = server->density_cache_hits();
  server->shutdown();
  server.reset();

  // Cold references of the misses, one solve each, on four threads.
  std::vector<std::size_t> miss_ids;
  for (std::size_t k = 0; k < run.jobs.size(); ++k) {
    if (run.jobs[k].hot_index < 0) miss_ids.push_back(k);
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      omp_set_num_threads(1);
      for (std::size_t m; (m = next.fetch_add(1)) < miss_ids.size();) {
        ServedJob& j = run.jobs[miss_ids[m]];
        j.reference = solve_serial(j.spec, nullptr, false);
      }
    });
  }
  for (std::thread& t : pool) t.join();

  for (ServedJob& j : run.jobs) {
    if (j.hot_index >= 0) {
      j.reference = run.hot_refs[static_cast<std::size_t>(j.hot_index)][0];
    }
    for (const Verdict& v : served_job_checks(j)) report.check(v.ok, v.detail);
  }
  return run;
}

}  // namespace perfbench
