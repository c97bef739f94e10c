#include "bench_util.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>

// ---------------------------------------------------------------------------
// Heap accounting: every non-aligned global new/delete goes through here. A
// 16-byte header keeps the block size so delete can subtract it; blocks
// allocated while no HeapCount is alive carry 0 and are never counted, so
// the parallel solves pay no shared atomic per allocation. The aligned
// overloads (not replaced) pair with their own library versions.

namespace {

constexpr std::size_t kHeader = 16;
std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};
std::atomic<int> g_counting{0};

void* counted_alloc(std::size_t n) {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) return nullptr;
  if (g_counting.load(std::memory_order_relaxed) == 0) {
    *static_cast<std::size_t*>(raw) = 0;
    return static_cast<char*>(raw) + kHeader;
  }
  *static_cast<std::size_t*>(raw) = n;
  const std::size_t live =
      g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(raw) + kHeader;
}

void counted_free(void* p) {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  const std::size_t n = *static_cast<std::size_t*>(raw);
  if (n != 0) g_live.fetch_sub(n, std::memory_order_relaxed);
  std::free(raw);
}

void* counted_new(std::size_t n) {
  void* p = counted_alloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace perfbench {

HeapCount::HeapCount() { g_counting.fetch_add(1); }
HeapCount::~HeapCount() { g_counting.fetch_sub(1); }

std::size_t heap_live_bytes() { return g_live.load(); }
void heap_reset_peak() { g_peak.store(g_live.load()); }
std::size_t heap_peak_bytes() { return g_peak.load(); }

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

chem::Molecule seeded_pose(const chem::Molecule& mol, Rng& rng) {
  // Uniform random rotation from a unit quaternion (Shoemake).
  const double u1 = rng.uniform(), u2 = rng.uniform(), u3 = rng.uniform();
  const double tau = 6.283185307179586;
  const double a = std::sqrt(1.0 - u1), b = std::sqrt(u1);
  const double w = a * std::sin(tau * u2), x = a * std::cos(tau * u2);
  const double y = b * std::sin(tau * u3), z = b * std::cos(tau * u3);
  const double r[3][3] = {
      {1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)},
      {2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)},
      {2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)}};
  const double t[3] = {rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(-2, 2)};
  chem::Molecule out;
  for (const chem::Atom& at : mol.atoms()) {
    double p[3];
    for (std::size_t i = 0; i < 3; ++i) {
      p[i] = t[i];
      for (std::size_t j = 0; j < 3; ++j) p[i] += r[i][j] * at.xyz[j];
    }
    out.add_atom(at.z, p[0], p[1], p[2]);
  }
  return out;
}

chem::Molecule jittered(const chem::Molecule& mol, Rng& rng, double amp) {
  chem::Molecule out;
  for (const chem::Atom& at : mol.atoms()) {
    out.add_atom(at.z, at.xyz[0] + rng.uniform(-amp, amp),
                 at.xyz[1] + rng.uniform(-amp, amp),
                 at.xyz[2] + rng.uniform(-amp, amp));
  }
  return out;
}

chem::Molecule water_crawford() {
  chem::Molecule m;
  m.add_atom(8, 0.000000000000, -0.143225816552, 0.000000000000);
  m.add_atom(1, 1.638036840407, 1.136548822547, 0.000000000000);
  m.add_atom(1, -1.638036840407, 1.136548822547, 0.000000000000);
  return m;
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Report::add(const std::string& name, const std::string& unit,
                 double value) {
  metrics_.push_back({name, unit, value});
}

void Report::note(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string Report::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
