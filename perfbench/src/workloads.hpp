#pragma once
// The three workloads of the whole-job SCF benchmark and the pieces they
// share: one SCF job spec, the serial and parallel solves, the FockBuilder
// timing decorator, the serving loop and the per-layer probes.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "checks.hpp"
#include "chem/molecule.hpp"
#include "core/memory_model.hpp"
#include "la/matrix.hpp"
#include "scf/fock_builder.hpp"
#include "serve/job.hpp"

namespace perfbench {

inline constexpr double kSchwarz = 1e-10;
/// Energies of one job solved different ways must agree this closely.
inline constexpr double kEnergyAgreement = 1e-8;
/// max|FDS - SDF| allowed for a converged job: max|F| times the SCF
/// density tolerance (ScfOptions::density_tolerance). The returned density
/// is one diagonalisation of the DIIS-extrapolated Fock matrix past the
/// returned one, so a density within the convergence tolerance leaves a
/// commutator of about this size. Measured values sit 14x (8.2e-9
/// against 1.1e-7 on methane/6-31G(d)) to 170x below it.
double commutator_bound(const la::Matrix& fock);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Tiny inputs and short loops: every code path and check in seconds.
  bool smoke = false;
};

/// One SCF job: a molecule in a basis.
struct ScfCase {
  std::string label;
  chem::Molecule mol;
  std::string basis;
  /// Literature energy the job must reproduce; 0 = none.
  double reference_energy = 0.0;
  double reference_tol = 0.0;
};

/// The five ways an SCF job is solved; index 0 is scf::run_scf with the
/// serial builder.
inline constexpr int kNumSolvers = 5;
const char* solver_name(int s);  // serial, mpi, private, shared, dist
core::ScfAlgorithm solver_algorithm(int s);  // s >= 1

/// What the FockRecorder saw during one job.
struct FockRecord {
  double full_s = 0.0;
  double incr_s = 0.0;
  int full_builds = 0;
  int incr_builds = 0;
  double quartets = 0.0;
  double density_screened = 0.0;
  /// The density the latest Fock matrix was built from: the last full
  /// density plus every delta since.
  la::Matrix built_density;
  ScreeningBudget budget;
  struct Build {
    bool incremental = false;
    double seconds = 0.0;
    double quartets = 0.0;
    double density_screened = 0.0;
  };
  std::vector<Build> builds;
};

/// FockBuilder decorator handed to scf::run_scf: times every build and
/// splits full from incremental builds.
class FockRecorder : public scf::FockBuilder {
 public:
  explicit FockRecorder(scf::FockBuilder& inner) : inner_(&inner) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  using FockBuilder::build;
  void build(const la::Matrix& density, la::Matrix& g,
             const scf::FockContext& ctx) override;
  [[nodiscard]] std::size_t last_quartets_computed() const override {
    return inner_->last_quartets_computed();
  }
  [[nodiscard]] std::size_t last_density_screened() const override {
    return inner_->last_density_screened();
  }
  [[nodiscard]] double screening_threshold() const override {
    return inner_->screening_threshold();
  }

  FockRecord record;

 private:
  scf::FockBuilder* inner_;
};

/// Outcome of one solve, whatever the solver.
struct Solve {
  bool converged = false;
  int iterations = 0;
  double energy = 0.0;
  double wall_s = 0.0;
  double quartets = 0.0;
  /// Serial: heap high-water of the job; parallel: MemoryTracker per-rank
  /// peaks summed over ranks.
  double peak_mib = 0.0;
};

/// Everything the per-layer table needs from one serial job.
struct SerialDetail {
  FockRecord record;
  double setup_s = 0.0;  ///< BasisSet + EriEngine + Screening
  double scf_s = 0.0;    ///< scf::run_scf
  la::Matrix density;    ///< converged density
  la::Matrix fock;
};

/// Serial job: BasisSet + EriEngine + Screening + scf::run_scf with the
/// serial builder wrapped in a FockRecorder. With `report`, every SCF
/// output check runs on the result (`full_checks` adds the unscreened
/// reference-G check), outside the timed region.
Solve solve_serial(const ScfCase& c, Report* report, bool full_checks,
                   SerialDetail* detail = nullptr);
/// core::run_parallel_scf at `workers` ranks (mpi, dist) or threads
/// (private, shared); with `report`, the converged-job checks run.
Solve solve_parallel(const ScfCase& c, int solver, int workers,
                     Report* report);

/// Serving loop through serve::ScfJobServer (see serve_mix.cpp).
struct ServeMix {
  std::vector<ScfCase> hot;        ///< pre-warmed, repeated: cache hits
  std::vector<ScfCase> templates;  ///< jittered per miss: unique geometries
  /// One round serves this pattern once per served algorithm. Five hits
  /// per miss is the ratio of repeats to distinct specs in the
  /// repository's own serving batches: bench_serve's default 6 jobs x 3
  /// repeats over 3 molecules (18 jobs, 3 distinct) and mchf-serve
  /// --jobs 8 --repeats 2 over 4 molecules (24 jobs, 4 distinct). The 30
  /// hits serve each of the six hot specs five times, so every spec weighs
  /// the same in a round and the latency median falls inside a cluster of
  /// like jobs, not on the edge between two.
  int hits_per_round = 30;
  int misses_per_round = 6;
  /// Server starts (each with its warm-up pass) timed for setup_s.
  int setup_repeats = 5;
};

struct ServedJob {
  int hot_index = -1;  ///< -1: a miss
  ScfCase spec;
  int solver = 1;
  double submit_call_s = 0.0;
  double latency_s = 0.0;  ///< submit to terminal, client side
  serve::JobOutcome out;
  Solve reference;  ///< cold serial solve of the same spec
};

struct ServeRun {
  std::vector<ServedJob> jobs;  ///< round after round, round_jobs each
  std::size_t round_jobs = 0;
  std::vector<double> round_s;  ///< time spent serving each round
  double loop_s = 0.0;          ///< sum of round_s
  std::vector<double> setup_s;  ///< server start + warm-up pass, per start
  /// Cold serial solves of each hot spec, one per round.
  std::vector<std::vector<Solve>> hot_refs;
  long setup_hits = 0;
  long density_hits = 0;
};

/// The output checks of one served job against its cold reference.
std::vector<Verdict> served_job_checks(const ServedJob& j);

/// Runs whole rounds until `seconds` have passed and at least `min_jobs`
/// jobs ran (or exactly `rounds` rounds when rounds > 0). Every hot spec is
/// solved cold with scf::run_scf after each round, every miss after the
/// loop, and each served job is checked against its cold solve.
ServeRun run_serving(const ServeMix& mix, Rng& rng, double seconds,
                     int min_jobs, int rounds, Report& report);

// Workload entry points (workloads.cpp, layers.cpp).
void run_workload(const Options& opt, Report& report);
/// Per-layer probes on the workload's main job plus the serve-layer
/// figures of `served`; see README for the list.
void measure_layers(const ScfCase& main, const ServeRun& served, Rng& rng,
                    Report& report);
}  // namespace perfbench
