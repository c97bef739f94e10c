#pragma once
// Shared plumbing of the whole-job SCF benchmark: seeded inputs, timing
// and order statistics, the heap high-water counter, and the result
// record that becomes the final JSON line.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "chem/molecule.hpp"

namespace mc {
namespace basis {}
namespace core {}
namespace ints {}
namespace knlsim {}
namespace la {}
namespace obs {}
namespace par {}
namespace scf {}
namespace serve {}
}  // namespace mc

namespace perfbench {

namespace basis = mc::basis;
namespace chem = mc::chem;
namespace core = mc::core;
namespace ints = mc::ints;
namespace knlsim = mc::knlsim;
namespace la = mc::la;
namespace obs = mc::obs;
namespace par = mc::par;
namespace scf = mc::scf;
namespace serve = mc::serve;

/// splitmix64: every input of a run derives from --seed through this.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

 private:
  std::uint64_t s_;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v);
/// Smallest value: the statistic for timings on a shared host, whose
/// co-tenant load only ever slows a job down.
double fastest(const std::vector<double>& v);
double mean(const std::vector<double>& v);
/// Percentile by linear interpolation between order statistics.
double percentile(std::vector<double> v, double p);

/// Rigid rotation (uniform random axis and angle) plus a translation of
/// up to 2 Bohr: the seeded input of the SCF workloads. Energies, iteration
/// counts and, up to Cartesian-shell screening details, quartet counts do
/// not depend on it.
chem::Molecule seeded_pose(const chem::Molecule& mol, Rng& rng);
/// Every coordinate moved by a uniform offset in [-amp, amp] Bohr: a
/// distinct geometry for the serving workload's cache misses.
chem::Molecule jittered(const chem::Molecule& mol, Rng& rng, double amp);
/// The standard tutorial water geometry (T. D. Crawford's programming
/// projects, Bohr); RHF/STO-3G energy -74.942079928192 Eh.
chem::Molecule water_crawford();

/// Heap high-water mark of the process (global operator new is replaced in
/// bench_util.cpp). The serial SCF path charges nothing to MemoryTracker,
/// so its footprint is read here instead. Only blocks allocated while a
/// HeapCount is alive are counted; elsewhere an allocation touches no
/// shared counter, so timed parallel solves are not slowed by the count.
class HeapCount {
 public:
  HeapCount();
  ~HeapCount();
  HeapCount(const HeapCount&) = delete;
  HeapCount& operator=(const HeapCount&) = delete;
};
std::size_t heap_live_bytes();
/// Resets the high-water mark to the current live bytes.
void heap_reset_peak();
std::size_t heap_peak_bytes();

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What a run prints as its last line, plus the failed checks.
class Report {
 public:
  /// Record one output check; a failing check makes the run incorrect and
  /// is printed to stderr with `what`.
  bool check(bool ok, const std::string& what);
  void add(const std::string& name, const std::string& unit, double value);
  /// Human-readable line on stdout (never the last line).
  static void note(const std::string& line);

  long attempted = 0;
  long failed = 0;
  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  /// The JSON object printed as the last line of standard output.
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
